"""Acceptance criteria, one test (or sub-test) per criterion.

Each criterion prints a single PASS/FAIL line before asserting, so a failed
run still reports every criterion's outcome (run with ``pytest -s`` or read
captured output).  Expected values are frozen from independent oracles:
closed-form volumes and curvatures, 1-d quadrature, finite differences.
"""

import json

import numpy as np
import pytest
from math import gamma

from conftest import random_orthonormal_pair
from fbstab import cli, conformal
from fbstab import domain as dm
from fbstab import flow as fl
from fbstab import scenarios as sc
from fbstab import submanifold as sub
from fbstab import variation as var
from fbstab.fields import ConformalMetric, make_field


def report(criterion: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    import conftest

    conftest.ACCEPTANCE_LINES.append(line)
    return ok


# -- 1 -----------------------------------------------------------------------

def test_criterion_1_interior_trace_vanishes():
    dims = [(4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (6, 3)]
    worst = 0.0
    for case in range(200):
        n, k = dims[case % len(dims)]
        imm = sub.make_immersion(
            "random-graph", n=n, k=k, seed=case, degree=2,
            nodes_per_axis=5 if k == 3 else 6,
        )
        worst = max(worst, float(np.max(np.abs(var.trace_s_euclid(imm)))))
    ok = worst <= 1e-8
    assert report("1 (interior trace law)", ok,
                  f"max |trace| = {worst:.3e} over 200 seeded immersions (tol 1e-8)")


# -- 2 -----------------------------------------------------------------------

@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (5, 3), (6, 3)])
def test_criterion_2_ball_identities(n, k):
    built = sc.build_scenario(f"flat-disk-b{n}k{k}")
    imm, metric, dom = built.immersion, built.metric, built.domain
    total = sum(
        var.second_variation(imm, metric, var.projected_field(imm, E), dom).value
        for E in np.eye(n)
    )
    vol_k = np.pi ** (k / 2) / gamma(k / 2 + 1)
    bvol = k * vol_k
    want_interior = -k * (n - k) * vol_k
    want_boundary = -(n - k) * bvol
    ok = (
        abs(total - want_interior) <= 1e-5 * abs(want_interior)
        and abs(total - want_boundary) <= 1e-5 * abs(want_boundary)
    )
    if (n, k) == (4, 2):
        ok = ok and abs(total + 4 * np.pi) <= 1e-5 * 4 * np.pi
    assert report(
        f"2 (ball identity n={n} k={k})", ok,
        f"traced Q = {total:.8f}, closed forms {want_interior:.8f} / {want_boundary:.8f}",
    )


# -- 3 -----------------------------------------------------------------------

@pytest.mark.parametrize("name,expected", [
    ("radial-spherical", 1.0),
    ("radial-hyperbolic", -1.0),
])
def test_criterion_3_constant_curvature(name, expected):
    field = make_field(name)
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(size=4)
        x *= rng.uniform(0.0, 0.9) / np.linalg.norm(x)
        X, Y = random_orthonormal_pair(rng, 4)
        worst = max(worst, abs(conformal.sectional_curvature(field, x, X, Y) - expected))
    ok = worst <= 1e-8
    assert report(f"3 (curvature {expected:+.0f})", ok,
                  f"max |K - ({expected:+.0f})| = {worst:.3e} at 1000 points/planes")


# -- 4 -----------------------------------------------------------------------

@pytest.mark.parametrize("scenario_name", ["cap-disk-b4k2", "radial-custom-disk-b4"])
def test_criterion_4_transformation_closure(scenario_name):
    built = sc.build_scenario(scenario_name)
    imm, metric, dom = built.immersion, built.metric, built.domain
    n = imm.n
    worst_s = worst_t = 0.0
    for E in np.eye(n):
        X = var.projected_field(imm, E)
        worst_s = max(worst_s, float(np.max(np.abs(
            var.s_tilde_transformed(imm, X, metric) - var.s_tilde_direct(imm, X, metric)
        ))))
        worst_t = max(worst_t, float(np.max(np.abs(
            var.t_tilde_transformed(imm, X, metric, dom) - var.t_tilde_direct(imm, X, metric, dom)
        ))))
    ok = worst_s <= 1e-7 and worst_t <= 1e-7
    assert report(f"4 (transformation closure, {scenario_name})", ok,
                  f"max interior gap {worst_s:.3e}, boundary gap {worst_t:.3e} (tol 1e-7)")


# -- 5 -----------------------------------------------------------------------

@pytest.mark.parametrize("scenario_name", ["cap-disk-b4k2", "radial-custom-disk-b4"])
def test_criterion_5_trace_identities(scenario_name):
    built = sc.build_scenario(scenario_name)
    imm, metric, dom = built.immersion, built.metric, built.domain
    _, s_res = var.traced_interior_density(imm, metric)
    t_vals, t_res = var.traced_boundary_density(imm, metric, dom)
    ok = float(np.max(s_res)) <= 1e-7 and float(np.max(t_res)) <= 1e-7
    detail = f"residuals interior {np.max(s_res):.3e}, boundary {np.max(t_res):.3e}"
    if scenario_name == "cap-disk-b4k2":
        ok = ok and float(np.max(np.abs(t_vals))) <= 1e-7
        detail += f", boundary trace max |.| = {np.max(np.abs(t_vals)):.3e}"
    assert report(f"5 (trace identities, {scenario_name})", ok, detail)


# -- 6 -----------------------------------------------------------------------

K_NONNEG_SCENARIOS = [
    "flat-disk-b4k2", "flat-disk-b5k2", "flat-disk-b5k3", "flat-disk-b6k3",
    "cap-disk-b4k2", "cap-disk-b5k2", "cap-disk-b5k3", "cap-disk-b6k3",
]


def test_criterion_6_bound_slack_nonnegative():
    worst = np.inf
    for name in K_NONNEG_SCENARIOS:
        built = sc.build_scenario(name)
        rep = var.interior_bound(built.immersion, built.metric)
        assert not rep.warnings, name
        worst = min(worst, rep.slack)
    ok = worst >= -1e-6
    assert report("6 (bound slack)", ok,
                  f"min slack over non-negative-curvature scenarios = {worst:.3e}")


def test_criterion_6_cap_interior_value():
    built = sc.build_scenario("cap-disk-b4k2")
    rep = var.interior_bound(built.immersion, built.metric)
    ok = abs(rep.lhs + 8 * np.pi) <= 1e-4
    assert report("6 (cap traced interior)", ok,
                  f"lhs = {rep.lhs:.8f}, expected {-8 * np.pi:.8f}")


def test_criterion_6_cap_boundary_flux_zero():
    # The stated expectation pins the boundary flux 2 * int nu~(u) da~ to 0
    # for the curvature +1 exponent.  That exponent has radial slope -1 on
    # the unit sphere, making the flux -4 pi (= 2 * (-1) * 2 pi, confirmed by
    # 1-d quadrature); the expectation is therefore not attainable and this
    # check records the discrepancy rather than hiding it.
    built = sc.build_scenario("cap-disk-b4k2")
    rep = var.interior_bound(built.immersion, built.metric)
    ok = abs(rep.rhs - 0.0) <= 1e-7
    assert report("6 (cap boundary flux pinned to zero)", ok,
                  f"rhs = {rep.rhs:.8f}; the flux integral evaluates to -4*pi")


# -- 7 -----------------------------------------------------------------------

def test_criterion_7_certificate_cap():
    built = sc.build_scenario("cap-disk-b4k2")
    rep = var.instability_certificate(built.immersion, built.metric, built.domain)
    ok = rep.verdict == "unstable-certified" and abs(rep.traced_total + 8 * np.pi) <= 1e-4
    assert report("7 (certificate, positive curvature)", ok,
                  f"verdict={rep.verdict}, traced total = {rep.traced_total:.8f}")


def test_criterion_7_certificate_hyperbolic_inconclusive():
    built = sc.build_scenario("hyperbolic-disk-b4")
    rep = var.instability_certificate(built.immersion, built.metric, built.domain)
    flagged = any("curvature" in f for f in rep.failed_hypotheses)
    ok = rep.verdict == "inconclusive" and flagged
    assert report("7 (certificate, negative curvature)", ok,
                  f"verdict={rep.verdict}, failed={list(rep.failed_hypotheses)}")


# -- 8 -----------------------------------------------------------------------

def test_criterion_8_convexity_margins():
    ball = dm.make_domain("ball", 4, radius=1.0)
    ok = True
    details = []
    sph = make_field("radial-spherical")
    for p in (1, 2, 3):
        margin = dm.convexity_report(ball, sph, p, count=256, seed=0).margin_g
        ok = ok and abs(margin - p) <= 1e-9
        details.append(f"sphere p={p}: {margin:.12f}")
    m_gt = dm.convexity_report(ball, sph, 2, count=256, seed=0).margin_gtilde
    ok = ok and abs(m_gt) <= 1e-7
    details.append(f"rescaled sphere: {m_gt:.3e}")
    ell = dm.make_domain("ellipsoid", 3, semi_axes=[2.0, 1.0, 1.0])
    m1 = dm.convexity_report(ell, make_field("zero"), 1, count=512, seed=0).margin_g
    ok = ok and abs(m1 - 0.25) <= 1e-3
    details.append(f"ellipsoid p=1: {m1:.6f}")
    assert report("8 (convexity margins)", ok, "; ".join(details))


# -- 9 -----------------------------------------------------------------------

def test_criterion_9_flow_converges():
    dom = dm.make_domain("ball", 3, radius=1.0)
    metric = ConformalMetric(make_field("zero"), 3)
    grid = fl.PolarGrid.from_graph(
        3, lambda y: 0.2 * (1 - np.sum(y * y, axis=1))[:, None], nr=6, ntheta=16
    )
    cfg = fl.FlowConfig(max_iter=5000)
    state = fl.flow_state(grid, metric, dom, cfg.dt)
    volumes = [state.volume]
    while state.iteration < cfg.max_iter and not (
        state.residual <= cfg.tol and state.boundary_defect <= cfg.boundary_tol
    ):
        state = fl.flow_step(state, metric, dom, cfg)
        volumes.append(state.volume)
    monotone = float(np.max(np.diff(volumes))) <= 1e-12
    ok = (
        state.residual <= 1e-3
        and state.boundary_defect <= 1e-2
        and state.iteration <= 5000
        and monotone
    )
    assert report("9 (descent flow)", ok,
                  f"iterations={state.iteration}, |H| = {state.residual:.3e}, "
                  f"defect = {state.boundary_defect:.3e}, volume monotone = {monotone}")


# -- 10 ----------------------------------------------------------------------

def test_criterion_10_deterministic_reports(tmp_path):
    for run in ("a", "b"):
        rc = cli.main(["verify", "--seed", "42", "--out", str(tmp_path / run)])
        assert rc == 0
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    doc = json.loads(a)
    ok = a == b and doc["all_passed"]
    assert report("10 (deterministic reports)", ok,
                  f"{len(a)} bytes, identical = {a == b}, all checks passed = "
                  f"{doc['all_passed']}")
