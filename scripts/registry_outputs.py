#!/usr/bin/env python3
"""Write the registry's outputs to one deterministic JSON, for diffing two builds.

The document holds, for every registry scenario, the instability
certificate's report at seeds 0-2 (an error as its message), the convexity
report at seeds 0-2 (p the scenario's p, else n - k, over 1024 rays), Q(X, X)
on the projected canonical constants E_l^perp of every scenario with boundary
samples, for every flow scenario the ``fbstab flow`` document (iterations,
residual, defect, volume) and its residual history, and the report of
``fbstab verify --seed 42``.  Floats are written to the last bit, so two
checkouts agree on every output exactly when their files are identical: run
the script in each and ``diff`` the two files.  Prints one line per
certificate and flow; use --out to keep the JSON.  With --diff OTHER.json
it also compares this checkout's outputs with another's: the identical and
moved counts per section (a certificate, a convexity report, a Q value, a
flow run or a verify check is one item), the largest relative and absolute moves of every float
key and every change that is not a float moving.

Examples:
  python scripts/registry_outputs.py --out results/outputs
  python scripts/registry_outputs.py --scenario cap-disk-b4k2 --out /tmp/one
  python scripts/registry_outputs.py --diff parent/registry_outputs.json
"""

import argparse
import json
from pathlib import Path

import numpy as np

from fbstab import domain as dm
from fbstab import flow as fl
from fbstab import scenarios as sc
from fbstab import variation as var
from fbstab.errors import ConfigError, GeometryError

SEEDS = (0, 1, 2)
VERIFY_SEED = 42
# the package's typed errors; an error is an output like any value
ERRORS = (ConfigError, GeometryError)
HISTORY = ("residual", "defect", "volume", "dt", "backtracks")
CONVEXITY_RAYS = 1024


def _error(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def scenario_outputs(name: str) -> tuple[dict, dict, dict | None]:
    """``(certificates by seed, convexity reports by seed, Q(E_l^perp) by l
    or None without boundary samples)`` of one registry scenario."""
    try:
        built = sc.build_scenario(name)
    except ERRORS as exc:
        return ({str(seed): _error(exc) for seed in SEEDS},
                {str(seed): _error(exc) for seed in SEEDS}, None)
    imm, metric, domain = built.immersion, built.metric, built.domain
    scenario = built.scenario
    certificates, convexity = {}, {}
    for seed in SEEDS:
        config = var.CertificateConfig(seed=seed, p=scenario.p)
        try:
            certificates[str(seed)] = var.instability_certificate(
                imm, metric, domain, config).to_dict()
        except ERRORS as exc:
            certificates[str(seed)] = _error(exc)
        try:
            convexity[str(seed)] = dm.convexity_report(
                domain, metric.field, scenario.p or scenario.n - scenario.k,
                CONVEXITY_RAYS, seed).to_dict()
        except ERRORS as exc:
            convexity[str(seed)] = _error(exc)
    if not imm.n_boundary:
        return certificates, convexity, None
    values = {}
    for l, E in enumerate(np.eye(imm.n)):
        try:
            X = var.projected_field(imm, E)
            values[str(l)] = var.second_variation(imm, metric, X, domain).value
        except ERRORS as exc:
            values[str(l)] = _error(exc)
    return certificates, convexity, values


def flow_outputs(name: str) -> dict:
    """The ``fbstab flow`` document of a flow scenario at the default
    configuration, with its residual history (one row per accepted grid),
    or the typed error's message."""
    try:
        built = sc.build_scenario(name)
        _, converged, state = fl.run_flow(sc.flow_grid_for(built.scenario), built.metric,
                                          built.domain, fl.FlowConfig())
    except ERRORS as exc:
        return _error(exc)
    return {"converged": converged, "iterations": state.iteration,
            "residual": state.residual, "boundary_defect": state.boundary_defect,
            "volume": state.volume,
            "history": [dict(zip(HISTORY, row)) for row in state.residual_history]}


def _leaves(node, path=()):
    """``(path, value)`` of every leaf of a document; a verify check is keyed
    by ``suite/scenario/name``, any other list item by its index."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], path + (str(key),))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            label = (f"{item['suite']}/{item['scenario']}/{item['name']}"
                     if isinstance(item, dict) and "suite" in item else str(i))
            yield from _leaves(item, path + (label,))
    else:
        yield path, node


def _item(path: tuple) -> tuple:
    """The item a leaf belongs to: a certificate, a Q value, a flow run or a
    verify check."""
    if path[0] == "flow" or path[0] == "verify" and path[1] != "checks":
        return path[:2]
    return path[:3]


def _key(path: tuple) -> str:
    """The leaf's name with the scenario, seed, check and list index left out."""
    rest = path[len(_item(path)):] if path[0] != "second_variation" else ("Q",)
    return ".".join(p for p in rest if not p.isdigit()) or path[-1]


def diff(old_doc: dict, new_doc: dict) -> list[str]:
    """Lines comparing two documents: counts per section, the largest
    relative and absolute moves per float key, then every other change."""
    old, new = dict(_leaves(old_doc)), dict(_leaves(new_doc))
    moved_items, items, largest, changes = set(), {}, {}, []
    for path in sorted(old.keys() | new.keys()):
        items.setdefault(path[0], set()).add(_item(path))
        a, b = old.get(path, "<absent>"), new.get(path, "<absent>")
        if type(a) is type(b) and (a == b or a != a and b != b):
            continue
        moved_items.add(_item(path))
        if type(a) is float and type(b) is float:
            moves = largest.setdefault((path[0], _key(path)), {})
            for kind, size in (("relative", abs(a - b) / max(abs(a), abs(b))),
                               ("absolute", abs(a - b))):
                if size > moves.get(kind, (-1.0,))[0]:
                    moves[kind] = (size, path, a, b)
        else:
            changes.append(f"  {'/'.join(path)}: {a!r} -> {b!r}")
    lines = []
    for section in sorted(items):
        moved = sum(item in moved_items for item in items[section])
        lines.append(f"{section}: {len(items[section]) - moved} identical, {moved} moved")
        for (sec, key), moves in sorted(largest.items()):
            for kind, (size, path, a, b) in moves.items():
                if sec == section:
                    lines.append(f"  {key}: largest {kind} move {size:.2e} at "
                                 f"{'/'.join(path)} ({a!r} -> {b!r})")
    lines.append(f"non-float changes: {len(changes)}")
    return lines + changes


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scenario", action="append", choices=sorted(sc.SCENARIOS),
                        help="restrict the per-scenario outputs (repeatable; default all)")
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--diff", type=str, default=None, metavar="OTHER.json",
                        help="compare the outputs with another checkout's document")
    args = parser.parse_args()

    doc = {"certificates": {}, "convexity": {}, "second_variation": {}, "flow": {}}
    for name in args.scenario or sorted(sc.SCENARIOS):
        certificates, convexity, values = scenario_outputs(name)
        doc["certificates"][name] = certificates
        doc["convexity"][name] = convexity
        if values is not None:
            doc["second_variation"][name] = values
        for seed, report in certificates.items():
            print(f"{name} seed {seed}: "
                  + report.get("error", f"{report.get('verdict')} "
                               f"traced total {report.get('traced_total')!r}"))
        if sc.scenario(name).flow_spec is not None:
            run = doc["flow"][name] = flow_outputs(name)
            print(f"{name} flow: " + run.get("error", f"converged={run.get('converged')} "
                                                   f"after {run.get('iterations')} iterations, "
                                                   f"volume {run.get('volume')!r}"))
    result = sc.run_suite(sc.SUITE_NAMES, VERIFY_SEED)
    doc["verify"] = result.to_dict()
    print(f"verify --seed {VERIFY_SEED}: {result.n_passed}/{len(result.checks)} checks passed")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "registry_outputs.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        print(f"wrote {path}")
    if args.diff:
        other = json.loads(Path(args.diff).read_text())
        print(f"diff against {args.diff}:")
        print("\n".join(diff(other, json.loads(json.dumps(doc)))))


if __name__ == "__main__":
    main()
