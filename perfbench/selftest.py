"""Self-test of the benchmark's tracing: determinism and coverage.

    python3 perfbench/selftest.py

For each workload it makes two traced runs with seed ``SEED``, each in its
own process, and asserts that

* every op passed its correctness check;
* every input was traced at least twice in each run (``run.py`` traces at
  least ``TRACED_MIN_ROUNDS`` rounds);
* the work counts of every input are identical between the two runs and
  between repeats of the input within a run (``fields.calls``,
  ``conformal.riemann.calls``, every ``domain.*.calls``, the immersion
  constructions ``submanifold.SampledImmersion.calls``, the flow iterations
  ``flow.flow_step.calls`` and ``flow.trials``, and the rest);
* the per-layer self times plus the fields time add up to the traced op
  time: the time no layer covers is at most ``COVERAGE_TOL`` of the op.
  Otherwise it names the input and the uncovered milliseconds.

Exits 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("certificate", "second-variation", "flow")
SEED = 7
# the traced half runs its minimum number of rounds, two
SECONDS = 1
# second-variation leaves about 0.8 ms per op uncovered: the per-sample
# NormalField from projected_field is torn down in the benchmark's frame after
# second_variation returns, about 1.1% of a flat-disk-b4k2 op
COVERAGE_TOL = 0.02
RUN_TIMEOUT_S = 600


def _traced_run(workload: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: traced run exited {proc.returncode}:\n{proc.stderr}")
    *_, record, result = proc.stdout.strip().splitlines()
    return json.loads(record), json.loads(result)


def check_workload(workload: str) -> list[str]:
    """Problems found for one workload; empty when it passes."""
    problems = []
    runs = [_traced_run(workload) for _ in range(2)]
    for i, (record, result) in enumerate(runs, 1):
        if not result["correct"]:
            problems.append(f"{workload}: run {i} failed {result['failed']} of "
                            f"{result['attempted']} ops")
        for label, repeats in sorted(record["repeats"].items()):
            if repeats < 2:
                problems.append(f"{workload}: run {i}: {label} was traced {repeats} time(s), "
                                "so its repeats were not compared")
        for label in record["count_mismatch"]:
            problems.append(f"{workload}: run {i}: counts of {label} differ between repeats")
        for label, cov in sorted(record["coverage"].items()):
            share = cov["uncovered_ms"] / cov["op_ms"]
            if share > COVERAGE_TOL:
                problems.append(
                    f"{workload}: run {i}: {label}: {cov['uncovered_ms']:.2f} ms of "
                    f"{cov['op_ms']:.2f} ms ({share:.1%}) is covered by no layer "
                    f"(layers plus fields sum to {cov['layers_ms']:.2f} ms)")
    (first, _), (second, _) = runs
    for label in sorted(set(first["counts"]) | set(second["counts"])):
        a, b = first["counts"].get(label, {}), second["counts"].get(label, {})
        for name in sorted(set(a) | set(b)):
            if a.get(name) != b.get(name):
                problems.append(f"{workload}: {label}: {name} is {a.get(name)} in run 1 "
                                f"and {b.get(name)} in run 2")
    return problems


def main() -> int:
    failed = False
    for workload in WORKLOADS:
        problems = check_workload(workload)
        for p in problems:
            print(f"FAIL {p}")
        print(f"{workload}: {'FAIL' if problems else 'ok'}", flush=True)
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
