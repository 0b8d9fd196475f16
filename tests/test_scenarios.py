"""Scenario registry, suite execution, report emission, CLI."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from fbstab import cli
from fbstab import flow as fl
from fbstab import scenarios as sc
from fbstab import variation as var
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


def test_certificate_suite_certifies_at_the_scenario_p(monkeypatch):
    """A registry entry with ``p`` is certified at that p by the certificate
    suite, as by ``fbstab stability``; the others at n - k."""
    name = "flat-disk-b6k3"
    monkeypatch.setitem(sc.SCENARIOS, name, dataclasses.replace(sc.scenario(name), p=1))
    certify, reports = var.instability_certificate, []

    def recorded(*args):
        reports.append(certify(*args))
        return reports[-1]

    monkeypatch.setattr(var, "instability_certificate", recorded)
    result = sc.run_suite("certificate", seed=0)
    assert result.all_passed
    by_name = dict(zip(sc._CERT_SCENARIOS, reports))
    assert by_name[name].p == 1
    assert all(r.p == r.n - r.k for other, r in by_name.items() if other != name)


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


def test_cli_flow_history_csv(tmp_path, capsys):
    assert cli.main(["flow", "--scenario", "flow-bump-b3", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "flow-flow-bump-b3.json").read_text())
    text = (tmp_path / "flow-flow-bump-b3-history.csv").read_text()
    rows = list(csv.DictReader(io.StringIO(text)))
    assert text.splitlines()[0] == "iteration,residual,defect,volume,dt,backtracks"
    assert len(rows) == doc["iterations"] + 1
    assert (rows[0]["dt"], rows[0]["backtracks"]) == ("0.0", "0")
    assert float(rows[-1]["volume"]) == doc["volume"]
    assert all(float(r["dt"]) > 0 for r in rows[1:])


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


def test_cli_stability_fails_a_nan_expected_value(monkeypatch, capsys):
    """A NaN traced total fails its expected value: NaN is not within any
    tolerance, though |NaN - want| > tol is False."""
    certificate = var.instability_certificate

    def nan_total(*args, **kwargs):
        return dataclasses.replace(certificate(*args, **kwargs), traced_total=float("nan"))

    assert cli._expected_failures({"traced_total": float("nan")},
                                  {"traced_total": {"value": -25.1, "tol": 1e-6}})
    monkeypatch.setattr(cli.var, "instability_certificate", nan_total)
    assert cli.main(["stability", "--scenario", "flat-disk-b4k2"]) == 1
    assert "traced_total: got nan" in capsys.readouterr().out


def test_cli_convexity_fails_a_nan_margin(monkeypatch, capsys, tmp_path):
    """A NaN p = 1 margin fails the scenario's ``margin_p1`` expectation."""
    convexity_report = cli.domain_mod.convexity_report

    def nan_margin(*args, **kwargs):
        return dataclasses.replace(convexity_report(*args, **kwargs), margin_g=float("nan"))

    monkeypatch.setattr(cli.domain_mod, "convexity_report", nan_margin)
    assert cli.main(["convexity", "--scenario", "ellipsoid-211", "--p", "1",
                     "--out", str(tmp_path)]) == 1
    assert "assertion failed: margin_p1" in capsys.readouterr().out


def test_one_boundary_sweep_per_certificate_and_convexity_verb(monkeypatch, tmp_path,
                                                               ellipsoid_disk_b4):
    """A certificate on a ball with a radial exponent reads its margins at one
    point and sweeps nothing; on another domain both margins come from one
    sweep.  So does the convexity verb: on a ball with a radial exponent it
    sweeps nothing and gives the certificate's margins bit for bit, and on
    an ellipsoid its margins, exterior slope range and gate come from one
    sweep."""
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
    assert len(sweeps) == 0
    built = sc.build_scenario(ellipsoid_disk_b4)
    var.instability_certificate(built.immersion, built.metric, built.domain)
    assert len(sweeps) == 1
    sweeps.clear()
    assert cli.main(["convexity", "--scenario", "cap-disk-b4k2", "--out", str(tmp_path)]) == 0
    assert len(sweeps) == 0
    doc = json.loads((tmp_path / "convexity-cap-disk-b4k2.json").read_text())
    assert doc["gate"] == "case-ii" and doc["n_samples"] == 1
    assert doc["route"] == "radial-exact" and doc["polish_rounds_gtilde"] == 0
    assert (doc["margin_g"], doc["margin_gtilde"]) == (report.margin_g, report.margin_gtilde)
    assert cli.main(["convexity", "--scenario", "ellipsoid-211", "--p", "1",
                     "--out", str(tmp_path)]) == 0
    assert len(sweeps) == 1
    doc = json.loads((tmp_path / "convexity-ellipsoid-211.json").read_text())
    assert doc["route"] == "sampled" and doc["n_samples"] == 1024


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


_POLYNOMIAL_B4 = {"n": 4, "k": 2, "field": {"name": "polynomial", "terms": [[0.1, [2, 0, 0, 0]]]}}


@pytest.mark.parametrize("verb,doc,message", [
    ("stability", {"scenario": {"n": 4, "k": 2, "field": {"name": "linear"}}},
     "field 'linear' needs parameter 'a'"),
    ("stability", {"scenario": {"n": 4, "k": 2, "domain": {"kind": "ellipsoid"}}},
     "domain 'ellipsoid' needs parameter 'semi_axes'"),
    ("stability", {"scenario": {"n": 3, "k": 2, "immersion": {"kind": "tilted-disk"}}},
     "immersion 'tilted-disk' needs parameter 'angle'"),
    ("flow", {"scenario": {"n": 3, "k": 2, "flow": {"initial": "flat", "ntheta": 15}}},
     "flow grid ntheta must be even, got 15"),
    ("stability", {"scenario": {"n": 4, "k": 2, "domain": {"radius": 1.0}}},
     "domain needs parameter 'kind'"),
    ("stability", {"scenario": {"n": 4, "k": 2, "immersion": {"radius": 1.0}}},
     "immersion needs parameter 'kind'"),
    ("stability", {"scenario": {"n": 4, "k": 2, "field": {"coeffs": [0.1]}}},
     "field needs parameter 'name'"),
    ("stability", {"scenario": {"n": 4, "k": 2, "expected": {"traced_total": -12.5}}},
     "scenario inline: expected 'traced_total' must be an object"),
    ("stability", {"scenario": {"n": 4, "k": 2, "expected": {"traced_total": {"tol": 1e-6}}}},
     "scenario inline: expected 'traced_total' must be an object"),
    ("stability", {"scenario": {"n": 4, "k": 2,
                                "expected": {"traced_total": {"value": -12.5, "tol": "tight"}}}},
     "scenario inline: expected 'traced_total' must be an object"),
    ("stability", {"scenario": _POLYNOMIAL_B4, "certificate": {"curvature_points": 0}},
     "curvature_points must be an integer >= 1, got 0"),
    ("stability", {"scenario": "flat-disk-b4k2", "seed": "abc"},
     "seed must be an integer >= 0, got 'abc'"),
    ("stability", {"scenario": {"n": 4, "k": 2, "seed": 1.5}},
     "seed must be an integer >= 0, got 1.5"),
    ("convexity", {"scenario": "flat-disk-b4k2", "seed": -1},
     "seed must be an integer >= 0, got -1"),
    ("stability", {"scenario": "flat-disk-b4k2", "quadrature": {"nr": 0}},
     "nr must be an integer >= 1, got 0"),
    ("verify", {"quadrature": {"nodes_per_axis": 2.5}},
     "nodes_per_axis must be an integer >= 1, got 2.5"),
    ("stability", {"scenario": {"n": 4, "k": 2,
                                "immersion": {"kind": "equatorial-disk", "ntheta": -4}}},
     "ntheta must be an integer >= 1, got -4"),
    ("stability", {"scenario": {"n": "four", "k": 2}},
     "n must be an integer >= 1, got 'four'"),
    ("stability", {"scenario": {"n": 4, "k": 2, "p": "two"}},
     "p must be an integer >= 1, got 'two'"),
    ("stability", {"scenario": {"n": 4.0, "k": 2}},
     "n must be an integer >= 1, got 4.0"),
    ("stability", {"scenario": 4},
     "scenario must be a registry name or an object, got 4"),
    ("stability", {"scenario": [1]},
     "scenario must be a registry name or an object, got [1]"),
    ("stability", {"scenario": {"n": 4, "k": 2, "domain": {"kind": "ball", "radius": "one"}}},
     "radius must be a number, got 'one'"),
    ("stability", {"scenario": {"n": 3, "k": 2,
                                "domain": {"kind": "ellipsoid", "semi_axes": [2.0, "one", 1.0]}}},
     "semi_axes must be a number, got 'one'"),
    ("stability", {"scenario": {"n": 4, "k": 2,
                                "domain": {"kind": "superellipsoid", "exponent": "two"}}},
     "exponent must be an integer >= 2, got 'two'"),
    ("stability", {"scenario": {"n": 4, "k": 2,
                                "immersion": {"kind": "equatorial-disk", "radius": "one"}}},
     "radius must be a number, got 'one'"),
    ("stability", {"scenario": {"n": 4, "k": 2,
                                "immersion": {"kind": "paraboloid-cap", "curvature": "half"}}},
     "curvature must be a number, got 'half'"),
    ("stability", {"scenario": {"n": 4, "k": 2,
                                "immersion": {"kind": "tilted-disk", "angle": "ten"}}},
     "angle must be a number, got 'ten'"),
    ("stability", {"scenario": {"n": 4, "k": 2, "immersion": {
        "kind": "graph", "coeffs": [[[0.1, [2, 0]]], [[0.1, [0, 2]]]], "halfwidth": [0.5]}}},
     "halfwidth must be a number, got [0.5]"),
    ("stability", {"scenario": {"n": 4, "k": 2,
                                "immersion": {"kind": "random-graph", "degree": "two"}}},
     "degree must be an integer >= 0, got 'two'"),
    ("stability", {"scenario": {"n": 4, "k": 2, "domain": {"kind": "ball", "radius": -1.0}}},
     "radius must be a number > 0, got -1.0"),
    ("stability", {"scenario": {"n": 4, "k": 2, "domain": {"kind": "ball", "radius": 0}}},
     "radius must be a number > 0, got 0"),
    ("stability", {"scenario": {"n": 4, "k": 2,
                                "immersion": {"kind": "equatorial-disk", "radius": -1.0}}},
     "radius must be a number > 0, got -1.0"),
    ("stability", {"scenario": {"n": 4, "k": 2,
                                "immersion": {"kind": "paraboloid-cap", "radius": 0.0}}},
     "radius must be a number > 0, got 0.0"),
    ("stability", {"scenario": {"n": 4, "k": 2, "immersion": {"kind": "paraboloid-cap",
                                                              "with_boundary": "false"}}},
     "with_boundary must be true or false, got 'false'"),
    ("flow", {"scenario": "flow-bump-b3", "flow": {"max_iter": "10"}},
     "max_iter must be an integer >= 0, got '10'"),
    ("flow", {"scenario": "flow-bump-b3", "flow": {"max_iter": 2.5}},
     "max_iter must be an integer >= 0, got 2.5"),
    ("flow", {"scenario": "flow-bump-b3", "flow": {"max_backtracks": -1}},
     "max_backtracks must be an integer >= 0, got -1"),
    ("flow", {"scenario": "flow-bump-b3", "flow": {"boundary_rate": 0}},
     "boundary_rate must be a number > 0, got 0"),
    ("flow", {"scenario": "flow-bump-b3", "flow": {"dt": -0.001}},
     "dt must be a number > 0, got -0.001"),
    ("flow", {"scenario": "flow-bump-b3", "flow": {"dt": "auto"}},
     "dt must be a number, got 'auto'"),
    ("flow", {"scenario": "flow-bump-b3", "flow": {"tol": -0.001}},
     "tol must be a number >= 0, got -0.001"),
    ("flow", {"scenario": "flow-bump-b3", "flow": {"boundary_tol": "loose"}},
     "boundary_tol must be a number, got 'loose'"),
    ("flow", {"scenario": "flow-bump-b3", "flow": {"volume_slack": [1e-12]}},
     "volume_slack must be a number, got [1e-12]"),
    ("stability", {"scenario": "flat-disk-b4k2", "certificate": {"certify_tol": "x"}},
     "certify_tol must be a number, got 'x'"),
    ("stability", {"scenario": "flat-disk-b4k2", "certificate": {"convexity_samples": "many"}},
     "convexity_samples must be an integer >= 1, got 'many'"),
    ("stability", {"scenario": "flat-disk-b4k2", "certificate": {"p": "two"}},
     "p must be an integer >= 1, got 'two'"),
    ("stability", {"scenario": "flat-disk-b4k2", "certificate": {"curvature_points": 2.5}},
     "curvature_points must be an integer >= 1, got 2.5"),
    ("stability", {"scenario": "flat-disk-b4k2", "certificate": {"hypothesis_margin": -1}},
     "hypothesis_margin must be a number >= 0, got -1"),
    ("stability", {"scenario": "flat-disk-b4k2", "certificate": {"seed": 7}},
     "unknown certificate option(s): seed"),
    ("flow", {"scenario": {"n": 3, "k": 2, "flow": {"amplitude": "big"}}},
     "amplitude must be a number, got 'big'"),
    ("flow", {"scenario": {"n": 3, "k": 2, "flow": {"amplitude": True}}},
     "amplitude must be a number, got True"),
    ("flow", {"scenario": {"n": 3, "k": 2, "flow": {"bogus": 1}}},
     "flow spec must be an object of ['amplitude', 'initial', 'nr', 'ntheta'], got {'bogus': 1}"),
    ("flow", {"scenario": {"n": 3, "k": 2, "flow": "bump"}},
     "flow spec must be an object of ['amplitude', 'initial', 'nr', 'ntheta'], got 'bump'"),
    ("convexity", {"scenario": "flat-disk-b4k2", "convexity": {"samples": "x"}},
     "samples must be an integer >= 1, got 'x'"),
    ("convexity", {"scenario": "flat-disk-b4k2", "convexity": {"samples": 0}},
     "samples must be an integer >= 1, got 0"),
    ("verify", {"suites": "flow"}, "suites must be a list of suite names, got 'flow'"),
    ("verify", {"suites": ["flow", 3]}, "suites must be a list of suite names, got ['flow', 3]"),
    ("verify", {"suites": []}, "suites must name at least one suite, got []"),
    ("stability", {"scenario": {"n": 4, "k": 2, "expected": {"traced_totl": {"value": 1.0}}}},
     "scenario inline: unknown expected key 'traced_totl'"),
    ("stability", {"scenario": {"n": 4, "k": 2, "expected": {"verdict": {"value": 1.0}}}},
     "scenario inline: expected 'verdict' must be an object with a string 'value'"),
    ("stability", {"scenario": {"n": 4, "k": 2, "expected": {"fb_defect": {"value": "small"}}}},
     "scenario inline: expected 'fb_defect' must be an object with a number 'value'"),
], ids=["field-parameter", "domain-parameter", "immersion-parameter", "flow-odd-ntheta",
        "domain-kind", "immersion-kind", "field-name", "expected-not-object",
        "expected-no-value", "expected-tol", "curvature-points-zero", "seed-not-integer",
        "inline-seed-not-integer", "seed-negative", "quadrature-nr-zero",
        "verify-quadrature-not-integer", "immersion-ntheta-negative", "inline-n-not-integer",
        "inline-p-not-integer", "inline-n-float", "scenario-number", "scenario-list",
        "ball-radius-not-number", "ellipsoid-axis-not-number",
        "superellipsoid-exponent-not-integer", "equatorial-disk-radius-not-number",
        "paraboloid-curvature-not-number", "tilted-disk-angle-not-number",
        "graph-halfwidth-not-number", "random-graph-degree-not-integer", "ball-radius-negative",
        "ball-radius-zero", "equatorial-disk-radius-negative", "paraboloid-radius-zero",
        "paraboloid-with-boundary-string", "flow-max-iter-string", "flow-max-iter-float",
        "flow-max-backtracks-negative", "flow-boundary-rate-zero", "flow-dt-negative",
        "flow-dt-string", "flow-tol-negative", "flow-boundary-tol-string",
        "flow-volume-slack-list", "certify-tol-string", "convexity-samples-string",
        "certificate-p-string", "curvature-points-float", "hypothesis-margin-negative",
        "certificate-seed", "flow-amplitude-string", "flow-amplitude-bool",
        "flow-spec-unknown-key", "flow-spec-string", "convexity-block-samples-string",
        "convexity-block-samples-zero", "verify-suites-string", "verify-suites-number",
        "verify-suites-empty", "expected-unknown-key", "expected-verdict-number",
        "expected-defect-string"])
def test_cli_catalog_errors_exit_2(verb, doc, message, tmp_path, capsys):
    """A catalog entry missing a parameter or its kind, a catalog parameter
    of the wrong type, a scenario that is neither a registry name nor an
    object, a malformed expected value, a seed that is not an integer >= 0, an inline scenario's n, k or
    p, a node or curvature sample count that is not a positive integer, a
    radius that is not positive, a ``with_boundary`` that is not a JSON
    boolean, a flow or certificate option of the wrong type or sign, a
    ``seed`` in the certificate block, a flow spec that is not an object of
    its keys, a convexity sample count below 1, a flow grid the solver
    cannot use, ``suites`` that are not a non-empty list of names, or an ``expected``
    key that nothing reads, is a configuration error naming the key or the
    value."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main([verb, "--config", str(cfg)]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err


def test_cli_rejects_non_finite_config_numbers(tmp_path, capsys):
    """JSON's NaN and Infinity literals are configuration errors naming the
    key, not an inconclusive verdict with a NaN total."""
    for literal, immersion, message in [
        ("NaN", '{"kind": "paraboloid-cap", "curvature": NaN}',
         "curvature must be a finite number, got nan"),
        ("Infinity", '{"kind": "equatorial-disk", "radius": Infinity}',
         "radius must be a finite number, got inf"),
    ]:
        cfg = tmp_path / f"{literal}.json"
        cfg.write_text(f'{{"scenario": {{"n": 4, "k": 2, "immersion": {immersion}}}}}')
        assert cli.main(["stability", "--config", str(cfg)]) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err


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


@pytest.mark.parametrize("config_class, option", [
    (config_class, f.name) for config_class in (fl.FlowConfig, var.CertificateConfig)
    for f in dataclasses.fields(config_class)])
def test_every_config_option_is_checked(config_class, option):
    """A string for any option of ``FlowConfig`` or ``CertificateConfig``
    raises ``ConfigError`` naming the option, so no option skips its check."""
    with pytest.raises(ConfigError, match=f"^{option} must be .*, got 'x'$"):
        config_class(**{option: "x"})


def test_cli_seed_has_one_source(tmp_path):
    """``--seed`` and the top-level ``seed`` set the certificate's seed alike;
    the certificate block refuses one, so it cannot override ``--seed``."""
    scenario = {"name": "inline-linear", "n": 4, "k": 2,
                "field": {"name": "linear", "a": [0.3, -0.2, 0.1, 0.05]}}
    cfg = tmp_path / "cfg.json"

    def curvature_min(doc, argv):
        cfg.write_text(json.dumps({"scenario": scenario,
                                   "certificate": {"convexity_samples": 64}, **doc}))
        assert cli.main(["stability", "--config", str(cfg), "--out", str(tmp_path)] + argv) == 0
        return json.loads((tmp_path / "stability-inline-linear.json").read_text())["curvature_min"]

    seed_1 = curvature_min({}, ["--seed", "1"])
    assert curvature_min({"seed": 1}, []) == seed_1
    assert curvature_min({}, ["--seed", "7"]) != seed_1
    cfg.write_text(json.dumps({"scenario": scenario, "certificate": {"seed": 7}}))
    assert cli.main(["stability", "--config", str(cfg), "--seed", "1"]) == 2


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


def test_cli_stability_compares_fb_defect_and_names_unread_keys(tmp_path, capsys):
    """``fb_defect`` is compared with the report's free-boundary defect, and
    a key ``fbstab stability`` does not read is named as not checked."""
    cfg = tmp_path / "cfg.json"

    def run(expected):
        cfg.write_text(json.dumps({
            "scenario": {"name": "inline-flat", "n": 4, "k": 2,
                         "immersion": {"kind": "equatorial-disk", "nr": 8, "ntheta": 16},
                         "expected": expected},
            "certificate": {"curvature_points": 500, "convexity_samples": 64},
        }))
        return cli.main(["stability", "--config", str(cfg)]), capsys.readouterr().out

    rc, out = run({"fb_defect": {"value": 123.0}})
    assert rc == 1 and "assertion failed: fb_defect: got" in out
    rc, out = run({"fb_defect": {"value": 0.0, "tol": 1e-9}, "margin_p1": {"value": 0.25}})
    assert rc == 0 and "assertion failed" not in out
    assert "not checked: expected margin_p1" in out


def test_cli_convexity_names_unread_keys(tmp_path, capsys):
    """``fbstab convexity`` reads ``margin_p1`` at p = 1 only; at another p,
    and for any other key, it says the expectation was not checked."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": {"name": "inline-flat", "n": 4, "k": 2,
                     "immersion": {"kind": "equatorial-disk", "nr": 8, "ntheta": 16},
                     "expected": {"margin_p1": {"value": 123.0},
                                  "traced_total": {"value": -25.0}}},
        "convexity": {"samples": 64},
    }))
    argv = ["convexity", "--config", str(cfg), "--out", str(tmp_path)]
    assert cli.main(argv + ["--p", "2"]) == 0
    out = capsys.readouterr().out
    assert "not checked: expected margin_p1 needs --p 1, got p=2" in out
    assert "not checked: expected traced_total is not a convexity report value" in out
    assert cli.main(argv + ["--p", "1"]) == 1
    out = capsys.readouterr().out
    assert "assertion failed: margin_p1" in out and "not checked: expected margin_p1" not in out


def test_cli_stability_takes_p_from_the_scenario(tmp_path):
    """The scenario's p applies unless the certificate block sets one."""
    for block, want in (({}, 1), ({"p": 2}, 2)):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": {"name": "inline-p", "n": 5, "k": 2, "p": 1,
                         "immersion": {"kind": "equatorial-disk", "nr": 8, "ntheta": 16}},
            "certificate": {"convexity_samples": 64, **block},
        }))
        assert cli.main(["stability", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "stability-inline-p.json").read_text())
        assert doc["p"] == want


def test_cli_stability_without_boundary_samples_writes_strict_json(tmp_path, capsys):
    """A graph immersion has no boundary samples: its defect is written as
    null, and the failed hypothesis still names it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": {"name": "inline-graph", "n": 4, "k": 2,
                     "immersion": {"kind": "graph",
                                   "coeffs": [[[0.3, [2, 0]]], [[0.0, [0, 0]]]]}},
        "certificate": {"convexity_samples": 64},
    }))
    cli.main(["stability", "--config", str(cfg), "--out", str(tmp_path)])
    assert "free-boundary: defect inf" in capsys.readouterr().out

    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    text = (tmp_path / "stability-inline-graph.json").read_text()
    doc = json.loads(text, parse_constant=refuse)
    assert doc["residuals"]["free_boundary"] is None
    assert any(f.startswith("free-boundary") for f in doc["failed_hypotheses"])
