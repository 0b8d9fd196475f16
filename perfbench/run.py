"""fbstab benchmark: one workload, timed end to end or traced layer by layer.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload certificate --seed 1 --seconds 24 --trace 0

Workloads (see ``workloads.py`` and ``NOTES.md``): ``certificate``,
``second-variation`` and ``flow``.  All load comes from this one process;
only the set-up probes run as separate, sequential processes.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: time from process start to the workload being ready to run
  its first op (``import fbstab`` plus building the inputs), at nominal
  machine speed: the median over ``SETUP_PROBES`` fresh processes of that
  wall time, each divided by the wall time of a fresh interpreter that
  imports only fbstab's third-party dependencies, run right after it, and
  multiplied by ``REFERENCE_IMPORT_S``; ``SETUP_PROBES // 2`` of the probes
  run before the timed loop and the rest after it;
* ``op_p50_ms``: median time per op, at nominal machine speed (below);
* ``ops_per_s``: ops completed per second of op time, at nominal speed;
* ``pass_frac``: share of attempted ops that returned and passed their
  correctness check (``1 - fail_frac``);
* ``peak_rss_mb``: ``ru_maxrss`` of this process after the timed loop.

Nominal machine speed: the speed of a shared machine drifts by tens of
percent, in bursts of seconds to minutes, which no run length affordable
here averages out.  So a fixed reference chunk of work that does not use
fbstab runs before the loop and after every op, and each op's wall time is
divided by its ``speed``: the mean time of the chunks on either side of it
over ``REFERENCE_CHUNK_S``.  The raw wall-time ``op_p50_ms`` and
``ops_per_s`` and the chunk times are in the record line.  Set-up is mostly
importing, which the chunk does not track, hence its own reference; the raw
wall-time ``setup_s`` and every probe time are in the record line too.

``--trace 1`` first runs the rounds traced for half the time, but at least
``TRACED_MIN_ROUNDS`` rounds, then removes the tracer and runs them untraced
for the other half.  Tracing comes first so that the traced ops include the
first op of every input in the process: its counts are compared with the
repeats', which shows any cache that makes later ops do less work.  It
reports the per-layer metrics of ``tracing.py``, ``trace.op_p50_ms`` (the
traced op p50 at nominal speed) and ``trace.overhead_frac`` (traced minus
untraced op p50 at nominal speed, over untraced).  It writes the spans to
``.perfbench/spans-<workload>.csv.gz`` under the checkout.

The timed loop runs whole rounds until ``--seconds`` have passed.  Checks
run after the loop, untimed; an op that raises or fails its check counts as
failed and never aborts the run.  The last line of standard output is the
JSON result; the line before it records the environment, the seed, the
per-input op times in raw milliseconds and, traced, the work counts per
input.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
# what the reference interpreter of a set-up probe imports: fbstab's
# third-party dependencies, and nothing of fbstab
REFERENCE_IMPORT = ("import numpy, numpy.polynomial.legendre, scipy.optimize, "
                    "scipy.special, scipy.stats; print('ready', flush=True)")
# seconds the reference import takes at nominal machine speed: about its
# median on the 2-CPU machine this benchmark was tuned on
REFERENCE_IMPORT_S = 1.5
# seconds one reference chunk takes at nominal machine speed: about its
# median on the 2-CPU machine this benchmark was tuned on
REFERENCE_CHUNK_S = 0.05
TRACED_MIN_ROUNDS = 2


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_fbstab():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import fbstab
    import workloads
    return fbstab, workloads


def _reference_chunk() -> float:
    """Seconds taken by a fixed piece of work that does not use fbstab.

    It mixes what the workloads spend their time on: scalar Python loops
    over tiny arrays, small symmetric eigenproblems and einsums, so its time
    tracks the machine's speed at the moment it runs.
    """
    import numpy as np
    rng = np.random.default_rng(12345)
    pts = rng.normal(size=(384, 4))
    mats = rng.normal(size=(384, 3, 3))
    big = rng.normal(size=(2048, 2, 4))
    start = time.perf_counter()
    acc = 0.0
    for x, m in zip(pts, mats):
        lo, hi = 0.0, 4.0
        for _ in range(20):
            mid = 0.5 * (lo + hi)
            if float(np.sum((mid * x) ** 2)) < 1.0:
                lo = mid
            else:
                hi = mid
        acc += lo + float(np.linalg.eigvalsh(m + m.T)[0])
    for _ in range(20):
        acc += float(np.einsum("mkn,mjn->", big, big))
    return time.perf_counter() - start


class SetupProbeError(Exception):
    """A set-up probe process failed or timed out."""


def _probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Wall seconds from spawning a fresh interpreter to its workload being
    built, and then from spawning one to ``REFERENCE_IMPORT`` being done."""
    probe = _seconds_to_ready([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--setup-probe"])
    return probe, _seconds_to_ready([sys.executable, "-c", REFERENCE_IMPORT])


def _seconds_to_ready(cmd: list[str]) -> float:
    """Wall seconds from spawning ``cmd`` to its printing ``ready``."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        try:
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise SetupProbeError("set-up probe timed out") from None
        if code != 0 or line.strip() != "ready":
            raise SetupProbeError(f"set-up probe failed (exit {code})")
    return elapsed


def _openblas() -> dict:
    """OpenBLAS build string and thread count of the loaded library."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    return {"config": get_config().decode(), "threads": get_threads()}
    return {"config": "not found", "threads": None}


def _environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _run_rounds(wl, budget_s: float, run_op, chunks=None, min_rounds: int = 1):
    """Whole rounds until ``budget_s`` seconds have passed in the loop and at
    least ``min_rounds`` rounds are done.

    Returns ``[(group, results or None, [(seconds, speed) per op])]``;
    ``None`` marks a group in which an op raised.  With ``chunks`` (a list
    to append to), a reference chunk runs before the loop and after every
    op, and an op's ``speed`` is the mean of the chunks on either side of
    it over ``REFERENCE_CHUNK_S``: above 1 when the machine ran slow.
    Without, every ``speed`` is 1.
    """
    done = []
    if chunks is not None:
        chunks.append(_reference_chunk())
    start = time.perf_counter()
    rounds = 0
    while True:
        for group in wl.round:
            results, timings = [], []
            for label, thunk in group.ops:
                try:
                    result, dt = run_op(label, thunk)
                except Exception:  # noqa: BLE001 - a failing op must not abort the run
                    print(f"op {label} raised:\n{traceback.format_exc()}", file=sys.stderr)
                    results = None
                speed = 1.0
                if chunks is not None:
                    chunks.append(_reference_chunk())
                    speed = 0.5 * (chunks[-2] + chunks[-1]) / REFERENCE_CHUNK_S
                if results is None:
                    break
                results.append(result)
                timings.append((dt, speed))
            done.append((group, results, timings))
        rounds += 1
        if rounds >= min_rounds and time.perf_counter() - start >= budget_s:
            return done


def _timed(label, thunk):
    start = time.perf_counter()
    result = thunk()
    return result, time.perf_counter() - start


def _check(wl, done) -> tuple[int, int]:
    """Apply each group's correctness check; return ``(attempted, failed)``."""
    attempted = failed = 0
    for group, results, _ in done:
        attempted += len(group.ops)
        if results is None:
            failed += len(group.ops)
            continue
        try:
            error = wl.check(group, results)
        except Exception:  # noqa: BLE001 - a failing check must not abort the run
            error = traceback.format_exc()
        if error:
            print(f"check {group.label} failed: {error}", file=sys.stderr)
            failed += len(group.ops)
    return attempted, failed


def _op_seconds(done, scaled: bool = True) -> list[float]:
    """Seconds of every completed op, divided by its speed when ``scaled``."""
    return [dt / speed if scaled else dt
            for _, results, timings in done if results is not None
            for dt, speed in timings]


def _per_input(done) -> dict:
    """Raw milliseconds of every op, by input."""
    out = {}
    for group, _, timings in done:
        for (label, _), (dt, _) in zip(group.ops, timings):
            out.setdefault(label, []).append(round(dt * 1e3, 3))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("certificate", "second-variation", "flow"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fbstab" / "__init__.py").is_file():
        return _fail(f"no fbstab package under {ROOT / 'src'}; run from a repository checkout")
    if args.setup_probe:
        _, workloads = _import_fbstab()
        workloads.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0

    probe = partial(_probe_setup, args.workload, args.seed)
    setup = [] if args.trace else [probe() for _ in range(SETUP_PROBES // 2)]

    fbstab, workloads = _import_fbstab()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": _environment()}

    if not args.trace:
        chunks = []
        done = _run_rounds(wl, args.seconds, _timed, chunks)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup += [probe() for _ in range(SETUP_PROBES - len(setup))]
        attempted, failed = _check(wl, done)
        seconds, raw = _op_seconds(done), _op_seconds(done, scaled=False)
        if not seconds:
            return _fail(f"no op completed; {failed} of {attempted} failed")
        metrics = {
            "setup_s": (statistics.median(p / r for p, r in setup) * REFERENCE_IMPORT_S, "s"),
            "op_p50_ms": (statistics.median(seconds) * 1e3, "ms"),
            "ops_per_s": (len(seconds) / sum(seconds), "1/s"),
            "pass_frac": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        record.update(
            setup_probes_s=setup, ops=attempted, op_ms=_per_input(done),
            raw={"setup_s": statistics.median(p for p, _ in setup),
                 "op_p50_ms": statistics.median(raw) * 1e3,
                 "ops_per_s": len(raw) / sum(raw)},
            speed=statistics.mean(chunks) / REFERENCE_CHUNK_S,
            reference_chunk_ms=[round(c * 1e3, 2) for c in chunks],
        )
    else:
        from tracing import METRICS, Tracer
        chunks = []
        tracer = Tracer()
        tracer.install(fbstab)
        traced = _run_rounds(wl, 0.5 * args.seconds, tracer.run_op, chunks,
                             min_rounds=TRACED_MIN_ROUNDS)
        tracer.uninstall()
        untraced = _run_rounds(wl, 0.5 * args.seconds, _timed, chunks)
        attempted, failed = _check(wl, traced + untraced)
        if not _op_seconds(untraced) or not _op_seconds(traced):
            return _fail(f"no op completed; {failed} of {attempted} failed")
        p50 = statistics.median(_op_seconds(untraced))
        traced_p50 = statistics.median(_op_seconds(traced))
        layer = tracer.layer_metrics()
        layer["trace.op_p50_ms"] = traced_p50 * 1e3
        layer["trace.overhead_frac"] = (traced_p50 - p50) / p50
        layer["trace.uncovered_frac"] = (sum(r.uncovered_ns for r in tracer.records)
                                         / sum(r.ns for r in tracer.records))
        metrics = {name: (layer[name], unit) for name, unit in METRICS}
        counts = {}
        for r in tracer.records:
            counts.setdefault(r.label, []).append(r.counts())
        record.update(
            ops=attempted,
            op_ms=_per_input(untraced),
            counts={label: c[0] for label, c in counts.items()},
            repeats={label: len(c) for label, c in counts.items()},
            count_mismatch=sorted(label for label, c in counts.items()
                                  if any(x != c[0] for x in c)),
            coverage=tracer.coverage(),
            speed=statistics.mean(chunks) / REFERENCE_CHUNK_S,
        )
        tracer.write_spans(ROOT / ".perfbench" / f"spans-{args.workload}.csv.gz")

    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupProbeError as exc:
        sys.exit(_fail(str(exc)))
