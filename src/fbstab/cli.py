"""Command-line entry points.

Verbs: ``verify`` (run verification suites), ``stability`` (one instability
certificate), ``convexity`` (boundary convexity report), ``flow`` (descent
solver) and ``dump`` (per-sample CSV traces).  Exit codes: 0 all assertions
pass, 1 any assertion failed, 2 configuration error.

Configuration is a single JSON document (see README for the schema); the
only environment the tool reads is the command line.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

from . import domain as domain_mod
from . import flow as flow_mod
from . import scenarios as sc
from . import variation as var
from .errors import ConfigError, GeometryError
from .submanifold import immersion_to_json


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config document must be a JSON object")
    return cfg


def _section(cfg: dict, name: str, keys) -> dict:
    """The ``name`` block of the config, naming any key outside ``keys``."""
    options = cfg.get(name, {})
    if not isinstance(options, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object")
    unknown = sorted(set(options) - set(keys))
    if unknown:
        raise ConfigError(f"unknown {name} option(s): {', '.join(unknown)}")
    return options


def _load_scenario(args) -> tuple[dict, sc.Scenario, sc.BuiltScenario]:
    """The config, the scenario it or ``--scenario`` names, and its build."""
    cfg = _load_config(args.config)
    scenario = _resolve_scenario(args, cfg)
    quadrature = _section(cfg, "quadrature", sc.QUADRATURE_KEYS)
    return cfg, scenario, sc.build_scenario(scenario, quadrature)


def _resolve_scenario(args, cfg) -> sc.Scenario:
    if getattr(args, "scenario", None):
        return sc.scenario(args.scenario)
    if "scenario" in cfg:
        spec = cfg["scenario"]
        if isinstance(spec, str):
            return sc.scenario(spec)
        try:
            return sc.Scenario(
                name=spec.get("name", "inline"),
                n=int(spec["n"]),
                k=int(spec["k"]),
                p=spec.get("p"),
                domain_spec=spec.get("domain", {"kind": "ball", "radius": 1.0}),
                field_spec=spec.get("field", {"name": "zero"}),
                immersion_spec=spec.get("immersion", {"kind": "equatorial-disk"}),
                flow_spec=spec.get("flow"),
                expected=spec.get("expected", {}),
                seed=int(spec.get("seed", cfg.get("seed", 0))),
            )
        except KeyError as exc:
            raise ConfigError(f"inline scenario is missing key {exc}") from exc
    raise ConfigError("no scenario given: pass --scenario NAME or a config with one")


def _write(out_dir: str | None, filename: str, data: bytes) -> None:
    if out_dir is None:
        return
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / filename).write_bytes(data)


def _emit_json(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    suites = [args.suite] if args.suite else cfg.get("suites", list(sc.SUITE_NAMES))
    result = sc.run_suite(tuple(suites), seed, _section(cfg, "quadrature", sc.QUADRATURE_KEYS))
    fmt = args.format
    data = sc.emit_report(result, fmt)
    _write(args.out, f"report.{ 'txt' if fmt == 'text' else fmt }", data)
    if fmt == "text" or args.out is None:
        sys.stdout.write(sc.emit_report(result, "text").decode())
    print(f"verify: {result.n_passed}/{len(result.checks)} checks passed")
    return 0 if result.all_passed else 1


def _expected_failures(report_dict: dict, expected: dict) -> list[str]:
    failures = []
    for key, spec in expected.items():
        want = spec["value"]
        tol = spec.get("tol", 1e-9)
        have = {
            "traced_total": report_dict.get("traced_total"),
            "bound_lhs": report_dict.get("traced_interior"),
            "bound_rhs": report_dict.get("bound_rhs"),
            "verdict": report_dict.get("verdict"),
        }.get(key)
        if have is None:
            continue
        if isinstance(want, str):
            if have != want:
                failures.append(f"{key}: got {have!r}, want {want!r}")
        elif abs(have - want) > tol:
            failures.append(f"{key}: got {have:.8e}, want {want:.8e} (tol {tol:g})")
    return failures


def _cmd_stability(args) -> int:
    cfg, scenario, built = _load_scenario(args)
    cert_cfg = _section(cfg, "certificate", inspect.signature(var.CertificateConfig).parameters)
    if args.tol is not None:
        cert_cfg = {**cert_cfg, "certify_tol": args.tol}
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    config = var.CertificateConfig(**{"seed": seed, **cert_cfg})
    report = var.instability_certificate(built.immersion, built.metric, built.domain, config)
    doc = report.to_dict()
    doc["scenario"] = scenario.name
    _write(args.out, f"stability-{scenario.name}.json", _emit_json(doc))
    print(f"scenario {scenario.name}: verdict = {report.verdict}, "
          f"traced total = {report.traced_total:.8e}")
    for item in report.failed_hypotheses:
        print(f"  failed hypothesis: {item}")
    failures = _expected_failures(doc, scenario.expected)
    for f in failures:
        print(f"  assertion failed: {f}")
    return 1 if failures else 0


def _cmd_convexity(args) -> int:
    cfg, scenario, built = _load_scenario(args)
    p = args.p if args.p is not None else (scenario.p or scenario.n - scenario.k)
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    count = int(_section(cfg, "convexity", ("samples",)).get("samples", 1024))
    report = domain_mod.convexity_report(built.domain, built.metric.field, p,
                                         count=count, seed=seed)
    doc = {**report.to_dict(), "scenario": scenario.name,
           "gate": domain_mod.corollary_gate(report)}
    _write(args.out, f"convexity-{scenario.name}.json", _emit_json(doc))
    print(f"scenario {scenario.name}: p={p} margin_g={report.margin_g:.6e} "
          f"margin_gtilde={report.margin_gtilde:.6e} gate={doc['gate']}")
    exp = scenario.expected.get("margin_p1")
    if exp and p == 1:
        tol = args.tol if args.tol is not None else exp["tol"]
        if abs(report.margin_g - exp["value"]) > tol:
            print("  assertion failed: margin_p1")
            return 1
    return 0


def _cmd_flow(args) -> int:
    cfg, scenario, built = _load_scenario(args)
    grid = sc.flow_grid_for(scenario)
    flow_cfg = dict(_section(cfg, "flow", inspect.signature(flow_mod.FlowConfig).parameters))
    if args.tol is not None:
        flow_cfg["tol"] = args.tol
    config = flow_mod.FlowConfig(**flow_cfg)
    final, converged, state = flow_mod.run_flow(grid, built.metric, built.domain, config)
    doc = {
        "schema": "fbstab-flow/1",
        "scenario": scenario.name,
        "converged": converged,
        "iterations": state.iteration,
        "residual": state.residual,
        "boundary_defect": state.boundary_defect,
        "volume": state.volume,
    }
    _write(args.out, f"flow-{scenario.name}.json", _emit_json(doc))
    if args.out:
        hist = "iteration,residual,defect\n" + "\n".join(
            f"{i},{r!r},{d!r}" for i, (r, d) in enumerate(state.residual_history)
        ) + "\n"
        _write(args.out, f"flow-{scenario.name}-history.csv", hist.encode())
        _write(args.out, f"flow-{scenario.name}-final.json",
               (immersion_to_json(final) + "\n").encode())
    print(f"scenario {scenario.name}: converged={converged} after {state.iteration} "
          f"iterations; residual={state.residual:.3e} defect={state.boundary_defect:.3e}")
    return 0 if converged else 1


def _cmd_dump(args) -> int:
    _, scenario, built = _load_scenario(args)
    data = sc.sample_dump_csv(built)
    if args.out:
        _write(args.out, f"samples-{scenario.name}.csv", data)
    else:
        sys.stdout.write(data.decode())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbstab",
        description="Stability lab for free boundary minimal submanifolds "
                    "in conformally flat domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_flag=True, seed=False, tol=False):
        p.add_argument("--config", help="JSON configuration document")
        p.add_argument("--out", help="output directory for reports")
        if scenario_flag:
            p.add_argument("--scenario", help="registry scenario name")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="random seed")
        if tol:
            p.add_argument("--tol", type=float, default=None,
                           help="override the command's primary tolerance")

    p_verify = sub.add_parser("verify", help="run verification suites")
    common(p_verify, scenario_flag=False, seed=True)
    p_verify.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p_verify.add_argument("--suite", choices=sc.SUITE_NAMES, default=None,
                          help="run a single suite (default: all)")
    p_verify.set_defaults(fn=_cmd_verify)

    p_stab = sub.add_parser("stability", help="run one instability certificate")
    common(p_stab, seed=True, tol=True)
    p_stab.set_defaults(fn=_cmd_stability)

    p_conv = sub.add_parser("convexity", help="boundary convexity report")
    common(p_conv, seed=True, tol=True)
    p_conv.add_argument("--p", type=int, default=None, help="convexity order p")
    p_conv.set_defaults(fn=_cmd_convexity)

    p_flow = sub.add_parser("flow", help="run the descent solver")
    common(p_flow, tol=True)
    p_flow.set_defaults(fn=_cmd_flow)

    p_dump = sub.add_parser("dump", help="per-sample CSV trace dump")
    common(p_dump)
    p_dump.set_defaults(fn=_cmd_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
