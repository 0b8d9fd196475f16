"""Scenario registry, suite execution, report emission, CLI."""

import csv
import io
import json

import numpy as np
import pytest

from fbstab import cli
from fbstab import scenarios as sc
from fbstab.errors import ConfigError


def test_build_scenario_deterministic():
    a = sc.build_scenario("cap-disk-b4k2")
    b = sc.build_scenario("cap-disk-b4k2")
    assert np.array_equal(a.immersion.xs, b.immersion.xs)
    assert np.array_equal(a.immersion.Hs, b.immersion.Hs)
    from fbstab.submanifold import immersion_to_json

    assert immersion_to_json(a.immersion) == immersion_to_json(b.immersion)


def test_random_scenario_rebuild_identical_bytes():
    spec = sc.Scenario(
        name="tmp", n=5, k=3,
        immersion_spec={"kind": "random-graph", "degree": 2},
        seed=7,
    )
    from fbstab.submanifold import immersion_to_json

    a = sc.build_scenario(spec)
    b = sc.build_scenario(spec)
    assert immersion_to_json(a.immersion) == immersion_to_json(b.immersion)


def test_scenario_lookup_and_dimension_gate():
    with pytest.raises(ConfigError):
        sc.scenario("no-such")
    with pytest.raises(ConfigError):
        sc.Scenario(name="bad", n=4, k=4)


def test_quadrature_override():
    built = sc.build_scenario("flat-disk-b4k2", quadrature={"nr": 8, "ntheta": 16})
    assert built.immersion.n_interior == 8 * 16


def test_emit_report_formats():
    result = sc.SuiteResult(("traces",), 0, ())
    doc = json.loads(sc.emit_report(result, "json"))
    assert doc["schema"] == "fbstab-report/1"
    assert doc["n_checks"] == 0 and doc["all_passed"] is True

    checks = (
        sc.CheckResult("traces", "s1", "c1", True, 1.0, 1.0, 1e-6, "ok", (0.0, 1.0)),
        sc.CheckResult("traces", "s0", "c2", False, 2.0, None, None, "bad", None),
    )
    result = sc.SuiteResult(("traces",), 3, checks)
    doc = json.loads(sc.emit_report(result, "json"))
    assert doc["n_passed"] == 1 and doc["all_passed"] is False
    # deterministic ordering by (suite, scenario, name)
    assert [c["scenario"] for c in doc["checks"]] == ["s0", "s1"]

    rows = list(csv.reader(io.StringIO(sc.emit_report(result, "csv").decode())))
    assert rows[0][0] == "suite" and len(rows) == 3
    parsed = float(rows[2]["achieved" in rows[0] and rows[0].index("achieved")])
    assert parsed == 1.0

    text = sc.emit_report(result, "text").decode()
    assert "[FAIL]" in text and "[PASS]" in text

    with pytest.raises(ConfigError):
        sc.emit_report(result, "yaml")


def test_json_report_has_no_runtimes():
    result = sc.SuiteResult(("traces",), 0, (), runtimes={"traces": 1.23})
    doc = json.loads(sc.emit_report(result, "json"))
    assert "runtimes" not in doc
    assert b"1.23" not in sc.emit_report(result, "csv")


def test_run_suite_unknown_name():
    with pytest.raises(ConfigError):
        sc.run_suite("nonexistent")


def test_suite_records_failures_without_aborting(monkeypatch):
    real_build = sc.build_scenario

    def flaky(name, quadrature=None):
        if getattr(name, "name", name) == "cap-disk-b4k2":
            raise RuntimeError("injected failure")
        return real_build(name, quadrature)

    monkeypatch.setattr(sc, "build_scenario", flaky)
    result = sc.run_suite("traces", seed=0, quadrature={"nr": 6, "ntheta": 12})
    failed = [c for c in result.checks if not c.passed]
    assert failed and all("injected failure" in c.detail for c in failed)
    # the other scenarios' checks still ran and passed
    passed_scenarios = {c.scenario for c in result.checks if c.passed}
    assert "radial-custom-disk-b4" in passed_scenarios
    assert not result.all_passed


def test_sample_dump_round_trip():
    built = sc.build_scenario("cap-disk-b4k2", quadrature={"nr": 6, "ntheta": 12})
    data = sc.sample_dump_csv(built)
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    assert len(rows) == built.immersion.n_interior + built.immersion.n_boundary
    interior = [r for r in rows if r["kind"] == "interior"]
    vals = np.array([float(r["trace_interior"]) for r in interior])
    assert np.max(np.abs(vals + 4.0)) < 1e-9
    # numbers written with repr round-trip exactly
    x0 = float(interior[0]["x0"])
    assert x0 == built.immersion.xs[0, 0]


def test_cli_verify_suite(tmp_path, capsys):
    rc = cli.main([
        "verify", "--suite", "traces", "--seed", "3",
        "--out", str(tmp_path), "--format", "json",
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["all_passed"] is True


def test_cli_stability_and_exit_codes(tmp_path, capsys):
    rc = cli.main(["stability", "--scenario", "flat-disk-b4k2", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "stability-flat-disk-b4k2.json").read_text())
    assert doc["verdict"] == "unstable-certified"
    assert abs(doc["traced_total"] + 4 * np.pi) < 1e-4
    # unknown options are configuration errors that name the key
    for verb, name, doc, key in (
        ("stability", "flat-disk-b4k2", {"certificate": {"curvature_planes": 10}},
         "curvature_planes"),
        ("flow", "flow-bump-b3", {"flow": {"step_size": 0.1}}, "step_size"),
    ):
        cfg = tmp_path / f"{verb}.json"
        cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main([verb, "--scenario", name, "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err


def test_cli_convexity(tmp_path):
    rc = cli.main(["convexity", "--scenario", "ellipsoid-211", "--p", "1",
                   "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "convexity-ellipsoid-211.json").read_text())
    assert abs(doc["margin_g"] - 0.25) < 1e-3


def test_one_boundary_sweep_per_certificate_and_convexity_verb(monkeypatch, tmp_path):
    """Both margins, the exterior slope range and the gate come from one sweep."""
    from fbstab import domain as dm, variation as var

    sweeps = []
    sample_boundary = dm.sample_boundary

    def counted(*args, **kwargs):
        sweeps.append(args)
        return sample_boundary(*args, **kwargs)

    monkeypatch.setattr(dm, "sample_boundary", counted)
    built = sc.build_scenario("cap-disk-b4k2")
    report = var.instability_certificate(built.immersion, built.metric, built.domain)
    assert report.verdict == "unstable-certified"
    assert len(sweeps) == 1
    sweeps.clear()
    assert cli.main(["convexity", "--scenario", "cap-disk-b4k2", "--out", str(tmp_path)]) == 0
    assert len(sweeps) == 1
    doc = json.loads((tmp_path / "convexity-cap-disk-b4k2.json").read_text())
    assert doc["gate"] == "case-ii" and doc["n_samples"] == 1024


def test_cli_dump(tmp_path):
    for name in ("flat-disk-b4k2", "tilted-disk-b3", "paraboloid-b3", "ellipsoid-211"):
        rc = cli.main(["dump", "--scenario", name, "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / f"samples-{name}.csv").exists()


def test_cli_config_errors(tmp_path, capsys):
    assert cli.main(["verify", "--config", "/nonexistent.json"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert cli.main(["verify", "--config", str(bad)]) == 2
    assert cli.main(["stability"]) == 2  # no scenario given
    bad.write_text(json.dumps({"certificate": [1, 2]}))
    assert cli.main(["stability", "--scenario", "flat-disk-b4k2", "--config", str(bad)]) == 2
    # non-object blocks and unknown keys in the convexity and quadrature blocks
    for verb, doc, key in (
        ("convexity", {"convexity": [1]}, "'convexity' must be a JSON object"),
        ("convexity", {"convexity": {"sample": 64}}, "sample"),
        ("convexity", {"quadrature": {"n_r": 8}}, "n_r"),
        ("dump", {"quadrature": [8]}, "'quadrature' must be a JSON object"),
        ("verify", {"quadrature": {"n_r": 8}}, "n_r"),
    ):
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        argv = [verb, "--config", str(bad)] + ([] if verb == "verify" else
                                               ["--scenario", "ellipsoid-211"])
        assert cli.main(argv) == 2
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["stability", "--scenario", "flat-disk-b4k2", "--format", "csv"],
    ["dump", "--scenario", "flat-disk-b4k2", "--tol", "1"],
    ["flow", "--scenario", "flow-bump-b3", "--seed", "1"],
], ids=["stability-format", "dump-tol", "flow-seed"])
def test_cli_rejects_flags_the_verb_ignores(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_inline_scenario(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": {
            "name": "inline-cap",
            "n": 4, "k": 2,
            "domain": {"kind": "ball", "radius": 1.0},
            "field": {"name": "radial-spherical"},
            "immersion": {"kind": "equatorial-disk", "nr": 12, "ntheta": 24},
        },
        "certificate": {"curvature_points": 2000, "convexity_samples": 128},
    }))
    rc = cli.main(["stability", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "stability-inline-cap.json").read_text())
    assert doc["verdict"] == "unstable-certified"


def test_cli_expected_value_without_tol(tmp_path, capsys):
    """An expected value with no ``tol`` is compared at 1e-9 and reported."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": {"name": "inline-flat", "n": 4, "k": 2,
                     "immersion": {"kind": "equatorial-disk", "nr": 8, "ntheta": 16},
                     "expected": {"traced_total": {"value": 1.0}}},
        "certificate": {"curvature_points": 500, "convexity_samples": 64},
    }))
    assert cli.main(["stability", "--config", str(cfg)]) == 1
    assert "traced_total: got" in capsys.readouterr().out
