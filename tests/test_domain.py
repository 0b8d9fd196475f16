"""Level-set boundary geometry: projections, shape operators, convexity."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from fbstab import domain as dm
from fbstab.errors import ConfigError, ProjectionError
from fbstab.fields import ConformalMetric, ScalarField, make_field


def fd_shape_form(domain, x, X, Y, field=None, h=1e-6):
    """Rescaled-metric boundary form by finite differences: transport Y
    tangentially along a projected curve through x with velocity X, then pair
    the (conformally corrected) derivative with the rescaled inward normal.
    Independent of the closed-form shape operator."""

    def tangential(pt, V):
        nhat = dm.outward_normal(domain, pt)
        return V - (V @ nhat) * nhat

    def Yfield(t):
        pt = dm.project_to_boundary(domain, x + t * X)
        return tangential(pt, Y), pt

    Yp, _ = Yfield(h)
    Ym, _ = Yfield(-h)
    dY = (Yp - Ym) / (2 * h)
    if field is None:
        corr = 0.0
        scale = 1.0
    else:
        corr = oracles.connection_correction(field, x, X, Y)
        scale = np.exp(field.value(x))
    eta = oracles.inward_normal(domain, x)
    return scale * float((dY + corr) @ eta)


def per_ray_sweep(domain, count, seed):
    """Reference sweep, one ray at a time: the sweep's own unit rays, a
    doubling bracket, Newton on phi(t d) that bisects the sign bracket for a
    step leaving it and stops after taking a step of at most 1e-12 t, and a
    scalar Newton projection."""
    pts = []
    for d in dm._sweep_directions(domain.n, count, seed):
        hi = 1.001 * domain.bounding_radius
        while float(domain.phi.value(hi * d)) <= 0.0:
            hi *= 2.0
        lo, t = 0.0, hi
        while True:
            f = float(domain.phi.value(t * d))
            lo, hi = (t, hi) if f < 0.0 else (lo, t)
            step = f / float(np.vecdot(domain.phi.gradient(t * d), d))
            if abs(step) <= 1e-12 * t:
                t -= step
                break
            t = t - step if lo < t - step < hi else 0.5 * (lo + hi)
        y = t * d
        while abs(val := float(domain.phi.value(y))) > 1e-12:
            g = domain.phi.gradient(y)
            y = y - (val / float(g @ g)) * g
        pts.append(y)
    return np.array(pts)


SWEEP_DOMAINS = [
    ("ball", 4, {"radius": 1.0}, 128, 0),
    ("ellipsoid", 3, {"semi_axes": [2.0, 1.0, 1.0]}, 256, 0),
    ("ellipsoid", 4, {"semi_axes": [2.0, 1.2, 1.0, 0.9]}, 64, 3),
    ("superellipsoid", 3, {"exponent": 2}, 256, 1),
    ("ball", 5, {"radius": 1.0}, 1024, 0),
    ("superellipsoid", 4, {"exponent": 3}, 1024, 0),
]


@pytest.mark.parametrize("kind,n,params,count,seed", SWEEP_DOMAINS)
def test_sample_boundary_matches_per_ray_reference(kind, n, params, count, seed):
    domain = dm.make_domain(kind, n, **params)
    assert np.array_equal(dm.sample_boundary(domain, count, seed),
                          per_ray_sweep(domain, count, seed))


def assert_near_bisection_roots(domain, count, seed):
    """Every sweep point is the projection of ``t d`` on its ray ``d``, lies
    on the boundary to 1e-12 in phi, and its t is within 4 ulp of the root
    that 60 bisection steps give."""
    d, t_ref = oracles.bisection_sweep(domain, count, seed)
    t = dm._ray_search(domain, d)
    pts = dm.sample_boundary(domain, count, seed)
    assert np.array_equal(pts, dm.project_to_boundary(domain, t[:, None] * d))
    assert np.max(np.abs(domain.phi.value(pts))) <= 1e-12
    # positive doubles order like their bit patterns: this counts ulps
    assert np.all(t > 0.0) and np.all(t_ref > 0.0)
    assert np.max(np.abs(t.view(np.int64) - t_ref.view(np.int64))) <= 4


@pytest.mark.parametrize("kind,n,params,count,seed", SWEEP_DOMAINS)
def test_sample_boundary_matches_bisection_roots(kind, n, params, count, seed):
    assert_near_bisection_roots(dm.make_domain(kind, n, **params), count, seed)


def test_sample_boundary_makes_few_phi_calls():
    """On the unit ball Newton lands in three steps, so a 1024-point sweep
    evaluates phi a handful of times, where 60 bisection steps take 60."""
    calls = {"value": 0, "gradient": 0}
    ball = counting_domain(dm.make_domain("ball", 4, radius=1.0), calls)
    dm.sample_boundary(ball, 1024, seed=0)
    assert calls["value"] <= 10
    assert calls["gradient"] <= 4


def test_sample_boundary_safeguards_newton_on_nonconvex_rays():
    """A star-shaped radial phi = w - 1.9 w^2 + w^3, w = |x|^2 - 1, decreases
    along each ray at the bracket's end, so Newton's first step from there
    leaves the bracket and the search bisects it; the sweep still lands on
    the bisection roots, and raises no warning where phi' vanishes."""
    phi = make_field("radial-custom", coeffs=[-3.9, 7.8, -4.9, 1.0])
    dom = dm.LevelSetDomain(phi, 4, bounding_radius=1.25)
    hi = 1.001 * 1.25 * np.eye(4)[0]
    slope = float(phi.gradient(hi) @ np.eye(4)[0])
    assert float(phi.value(hi)) > 0.0 and slope < 0.0  # the step moves out past hi
    assert_near_bisection_roots(dom, 256, 0)
    # phi = min(|x|^2 - 1, 1/2) is flat beyond |x|^2 = 3/2: at the bracket's
    # end phi' = 0 exactly and the Newton step is infinite
    flat = ScalarField.analytic(
        lambda x: np.minimum(np.sum(x * x, axis=-1) - 1.0, 0.5),
        lambda x: np.where((np.sum(x * x, axis=-1) < 1.5)[..., None], 2.0 * x, 0.0),
        lambda x: 2.0 * np.eye(x.shape[-1]) * (np.sum(x * x, axis=-1) < 1.5)[..., None, None])
    assert np.array_equal(flat.gradient(np.full(4, 1.001)), np.zeros(4))
    assert_near_bisection_roots(dm.LevelSetDomain(flat, 4, bounding_radius=2.0), 256, 0)


def test_project_to_boundary_trivials():
    ball = dm.make_domain("ball", 3, radius=1.0)
    out = dm.project_to_boundary(ball, np.array([2.0, 0.0, 0.0]))
    assert np.allclose(out, [1.0, 0.0, 0.0], atol=1e-12)
    on = np.array([0.0, 1.0, 0.0])
    assert np.allclose(dm.project_to_boundary(ball, on), on)


def test_project_to_boundary_ellipsoid(rng):
    ell = dm.make_domain("ellipsoid", 3, semi_axes=[2.0, 1.0, 1.0])
    xs, ys = [], []
    for _ in range(20):
        x = rng.normal(size=3)
        x = x / np.linalg.norm(x) * rng.uniform(0.8, 1.2)
        y = dm.project_to_boundary(ell, x)
        assert abs(ell.phi.value(y)) <= 1e-12
        xs.append(x)
        ys.append(y)
    # a batch takes the same Newton iterates as its rows, bit for bit
    assert np.array_equal(dm.project_to_boundary(ell, np.array(xs)), np.array(ys))


def _newton_steps(domain, x):
    """Newton steps the projection takes on one point: the fewest
    ``max_iter`` that reach tol, less one."""
    for max_iter in range(1, 51):
        try:
            oracles.project_to_boundary_indexed(domain, x, max_iter=max_iter)
            return max_iter - 1
        except ProjectionError:
            pass
    raise AssertionError("no convergence in 50 steps")


PROJECTED_DOMAINS = {
    "ball": lambda: dm.make_domain("ball", 3, radius=1.0),
    "ellipsoid": lambda: dm.make_domain("ellipsoid", 3, semi_axes=[2.0, 1.0, 0.5]),
    "superellipsoid": lambda: dm.make_domain("superellipsoid", 4, exponent=3),
}


@pytest.mark.parametrize("name", PROJECTED_DOMAINS)
def test_projection_fast_path_matches_the_indexed_loop(name, rng):
    """The projection steps the whole batch while every point is still far
    and indexes the rest afterwards; the parent's loop indexes from the
    first iteration.  Both give the same points, bit for bit: on batches
    whose points stop at different iterations (a point already on the
    boundary, near ones and far ones), on an all-far batch, and on one
    ``(n,)`` point."""
    domain = PROJECTED_DOMAINS[name]()
    n = domain.n
    on = dm.project_to_boundary(domain, rng.normal(size=(4, n)))
    d = rng.normal(size=(40, n))
    scales = np.concatenate([[1.0], 1.0 + np.geomspace(1e-14, 1e-1, 19), rng.uniform(0.3, 3.0, 20)])
    mixed = np.concatenate([on, scales[:, None] * dm.project_to_boundary(domain, d)])
    far = rng.uniform(0.5, 2.0, size=(16, 1)) * d[:16]
    stops = [_newton_steps(domain, x) for x in mixed]
    assert len(set(stops)) >= 4 and min(stops) == 0
    for batch in (mixed, mixed.reshape(4, -1, n), far, far[3]):
        want = oracles.project_to_boundary_indexed(domain, batch)
        assert np.array_equal(dm.project_to_boundary(domain, batch), want)


def test_projection_errors_match_the_indexed_loop():
    """Both error paths raise the indexed loop's ``ProjectionError``: a
    gradient that vanishes while the whole batch is still far, and a batch
    that does not converge within ``max_iter`` steps."""
    flat = dm.LevelSetDomain(make_field("radial-custom", coeffs=[1.0]), 2, 1.0)
    slow = dm.make_domain("ball", 3, radius=1.0)
    x = np.array([[3.0, 4.0, 0.0], [0.0, 0.8, 0.6], [20.0, 0.0, 0.0]])
    for domain, points, kwargs, match in (
            (flat, np.array([[0.3, 0.3], [1.0, 2.0]]), {}, "gradient vanished"),
            (slow, x, {"max_iter": 3}, r"did not reach \|phi\| <= 1e-12 in 3 steps")):
        for project in (dm.project_to_boundary, oracles.project_to_boundary_indexed):
            with pytest.raises(ProjectionError, match=match):
                project(domain, points, **kwargs)


def test_projection_failure_raises():
    flat = dm.LevelSetDomain(make_field("radial-custom", coeffs=[1.0]), 2, 1.0)
    with pytest.raises(ProjectionError):
        dm.project_to_boundary(flat, np.array([0.3, 0.3]))


def test_inward_normal():
    ball = dm.make_domain("ball", 4, radius=1.0)
    x = np.array([0.0, 1.0, 0.0, 0.0])
    assert np.allclose(oracles.inward_normal(ball, x), -x)
    halfspace = dm.LevelSetDomain(make_field("linear", a=[1.0, 0.0]), 2, 10.0)
    assert np.allclose(oracles.inward_normal(halfspace, np.zeros(2)), [-1.0, 0.0])
    ell = dm.make_domain("ellipsoid", 3, semi_axes=[2.0, 1.0, 1.0])
    assert np.allclose(oracles.inward_normal(ell, np.array([2.0, 0.0, 0.0])), [-1, 0, 0])


def test_shape_operator_unit_sphere():
    ball = dm.make_domain("ball", 4, radius=1.0)
    x = np.array([0.5, -0.5, 0.5, 0.5])
    S = oracles.shape_operator(ball, x)
    assert np.allclose(S, np.eye(3), atol=1e-10)
    half = dm.make_domain("ball", 3, radius=0.5)
    S = oracles.shape_operator(half, np.array([0.5, 0.0, 0.0]))
    assert np.allclose(np.linalg.eigvalsh(S), 2.0, atol=1e-10)


def test_shape_operator_ellipsoid_closed_form():
    a, b, c = 2.0, 1.0, 0.5
    ell = dm.make_domain("ellipsoid", 3, semi_axes=[a, b, c])
    S = oracles.shape_operator(ell, np.array([a, 0.0, 0.0]))
    eigs = np.sort(np.linalg.eigvalsh(S))
    assert np.allclose(eigs, sorted([a / b**2, a / c**2]), atol=1e-10)


def test_shape_operator_symmetric(rng):
    ell = dm.make_domain("ellipsoid", 3, semi_axes=[1.5, 1.0, 0.8])
    for _ in range(10):
        x = dm.project_to_boundary(ell, rng.normal(size=3))
        S = oracles.shape_operator(ell, x)
        assert np.max(np.abs(S - S.T)) < 1e-9


def test_rescaled_shape_operator_sphere_equator():
    """Unit sphere under the curvature +1 exponent: totally geodesic."""
    ball = dm.make_domain("ball", 4, radius=1.0)
    metric = ConformalMetric(make_field("radial-spherical"), 4)
    x = np.array([0.0, 0.0, 1.0, 0.0])
    S = oracles.shape_operator(ball, x, metric)
    assert np.max(np.abs(S)) < 1e-8


@pytest.mark.parametrize("field_spec", [
    ("radial-spherical", {}),
    ("radial-custom", {"coeffs": [0.1, 0.3, -0.1]}),
])
def test_rescaled_shape_operator_matches_fd_oracle(field_spec, rng):
    ball = dm.make_domain("ball", 4, radius=1.0)
    field = make_field(field_spec[0], **field_spec[1])
    metric = ConformalMetric(field, 4)
    for _ in range(5):
        x = dm.project_to_boundary(ball, rng.normal(size=4))
        B = oracles.boundary_tangent_basis(ball, x)
        S = oracles.shape_operator(ball, x, metric)
        u = float(field.value(x))
        for i in range(3):
            for j in range(3):
                form = fd_shape_form(ball, x, B[i], B[j], field)
                # operator entries are the form against rescaled-unit vectors
                assert abs(np.exp(-2 * u) * form - S[i, j] * 1.0) < 1e-7


def test_margins_sphere_and_ellipsoid():
    ball = dm.make_domain("ball", 4, radius=1.0)
    sph = make_field("radial-spherical")
    for p in (1, 2, 3):
        report = dm.convexity_report(ball, sph, p, count=128, seed=0)
        assert abs(report.margin_g - p) < 1e-9
        if p == 2:
            assert abs(report.margin_gtilde) < 1e-7
    ell = dm.make_domain("ellipsoid", 3, semi_axes=[2.0, 1.0, 1.0])
    report = dm.convexity_report(ell, make_field("zero"), 1, count=256, seed=0)
    assert abs(report.margin_g - 0.25) < 1e-3
    # minimum attained on the waist circle, away from the long axis
    assert abs(report.worst_point_g[0]) < 0.3


def unflagged_square(n):
    """|x|^2 as a ``polynomial`` field: radial, but not flagged ``radial``, so
    a convexity report on a ball sweeps and polishes, and every boundary
    point ties in both metrics to round-off."""
    return make_field("polynomial", terms=[[1.0, list(e)] for e in 2 * np.eye(n, dtype=int)])


def test_polish_keeps_sweep_point_on_ties():
    """On the ball every boundary point ties in the Euclidean metric, so a
    polish that gains only round-off must leave the worst point at a sweep
    point.  The exponent is not flagged radial, so the report sweeps."""
    ball = dm.make_domain("ball", 4, radius=1.0)
    report = dm.convexity_report(ball, make_field("linear", a=[0.3, -0.2, 0.1, 0.05]), 1,
                                 count=256, seed=42)
    assert report.route == "sampled" and abs(report.margin_g - 1.0) < 1e-9
    pts = dm.sample_boundary(ball, 256, 42)
    assert np.any(np.all(pts == report.worst_point_g, axis=1))


def test_polish_is_resolution_independent():
    """A coarse and a fine sweep polish to the same minimum, each at or below
    its own sweep minimum."""
    ell = dm.make_domain("ellipsoid", 5, semi_axes=[1.5, 1.2, 1.0, 0.9, 0.8])
    metric = ConformalMetric(make_field("linear", a=[0.3, -0.2, 0.1, 0.05, 0.2]), 5)
    margins = []
    for count in (256, 1024):
        margin = dm.convexity_report(ell, metric.field, 3, count=count, seed=0).margin_gtilde
        pts = dm.sample_boundary(ell, count, 0)
        kappa = oracles.principal_curvatures(ell, pts, metric)
        assert margin <= np.min(np.sum(kappa[:, :3], axis=1))
        margins.append(margin)
    assert abs(margins[0] - margins[1]) < 1e-9


def test_polish_calls_are_batched(monkeypatch):
    """A convexity report makes one curvature evaluation and one projection
    for the sweep, then one of each per polish round for the searches still
    live: their trials go through together."""
    sizes = {"_curvatures_and_normals": [], "project_to_boundary": []}
    for name, calls in sizes.items():
        def counted(domain, x, *args, _real=getattr(dm, name), _calls=calls, **kwargs):
            _calls.append(np.shape(x))
            return _real(domain, x, *args, **kwargs)
        monkeypatch.setattr(dm, name, counted)
    ell = dm.make_domain("ellipsoid", 4, semi_axes=[2.0, 1.2, 1.0, 0.9])
    field = make_field("radial-custom", coeffs=[0.1, 0.3, -0.15])
    report = dm.convexity_report(ell, field, p=1, count=256, seed=0)
    for calls in sizes.values():
        rounds = len(calls) - 1
        assert 1 <= rounds <= dm.POLISH_ROUNDS
        assert rounds == 22 and report.polish_rounds == (19, 22)
        assert calls[0] == (256, 4)
        # both searches until the Euclidean one ends, then the rescaled alone
        live = [2] * 19 + [1] * 3
        assert calls[1:] == [(m * (dm.POLISH_DIRS + 1), 4) for m in live]


def test_polish_pattern_is_built_once_per_dimension(monkeypatch):
    """The polish pattern and its fit are cached per dimension and the sweep
    directions per (n, count, seed), all read-only: a second report
    draws no Gaussian points and is bit for bit the first."""
    ell = dm.make_domain("ellipsoid", 4, semi_axes=[2.0, 1.2, 1.0, 0.9])
    field = make_field("radial-custom", coeffs=[0.1, 0.3, -0.15])
    dm._polish_pattern.cache_clear()
    dm._sweep_directions.cache_clear()
    first = dm.convexity_report(ell, field, p=2, count=256, seed=0)
    dims = []
    gaussian = dm.gaussian

    def counted(d, count, seed):
        dims.append(d)
        return gaussian(d, count, seed)

    monkeypatch.setattr(dm, "gaussian", counted)
    second = dm.convexity_report(ell, field, p=2, count=256, seed=0)
    assert dims == []
    assert second.to_dict() == first.to_dict()
    assert np.array_equal(second.worst_point_g, first.worst_point_g)
    assert np.array_equal(second.worst_point_gtilde, first.worst_point_gtilde)
    pattern, fit = dm._polish_pattern(4)
    assert pattern.shape == (dm.POLISH_DIRS, 3) and fit.shape == (1 + 3 + 9, dm.POLISH_DIRS)
    assert not pattern.flags.writeable and not fit.flags.writeable
    directions = dm._sweep_directions(4, 256, 0)
    assert directions.shape == (256, 4) and not directions.flags.writeable


@pytest.mark.parametrize("d", range(1, 9))
def test_kronecker_points_are_seeded_and_spread(d):
    """The same seed gives the same points bit for bit and another seed
    others; every point lies in [0, 1); a draw from ``start`` is the tail of
    one longer draw; and each coordinate of 4096 points has star
    discrepancy below 1e-2, under the 1.36 / sqrt(4096) = 0.021 that 95% of
    independent uniform samples stay below."""
    count = 4096
    for seed in (0, 1, 5, 42):
        points = dm.kronecker(d, count, seed)
        assert points.shape == (count, d) and points.flags.c_contiguous
        assert np.array_equal(points, dm.kronecker(d, count, seed))
        assert not np.any(points == dm.kronecker(d, count, seed + 1))
        assert np.all((points >= 0.0) & (points < 1.0))
        for start in (1, 1000, 4000):
            assert np.array_equal(dm.kronecker(d, count - start, seed, start=start),
                                  points[start:])
        ranks = np.arange(1, count + 1)[:, None]
        x = np.sort(points, axis=0)
        assert np.max(np.maximum(ranks / count - x, x - (ranks - 1) / count)) < 1e-2


@pytest.mark.parametrize("d", range(1, 9))
def test_gaussian_points_have_zero_mean_and_unit_covariance(d):
    """4096 Box-Muller points: the mean within 0.015 of 0 and the sample
    covariance within 0.025 of I in every entry, where 4096 independent
    normals spread each by about 1 / 64 = 0.016; the same seed gives the
    same points."""
    for seed in (0, 1, 42):
        z = dm.gaussian(d, 4096, seed)
        assert z.shape == (4096, d) and np.all(np.isfinite(z))
        assert np.array_equal(z, dm.gaussian(d, 4096, seed))
        assert np.max(np.abs(np.mean(z, axis=0))) < 0.015
        assert np.max(np.abs(np.atleast_2d(np.cov(z.T)) - np.eye(d))) < 0.025


@pytest.mark.parametrize("n", range(2, 7))
def test_sweep_directions_are_unit_rows_after_the_signed_axes(n):
    """At the registry sweep sizes the sweep's rays are read-only unit rows,
    the first 2n of them the signed axes +-e_1, ..., +-e_n; a count below 2n
    gives the axes alone.  The polish pattern is the seed-0 Gaussian points
    in n - 1 dimensions."""
    axes = np.stack([np.eye(n), -np.eye(n)], axis=1).reshape(2 * n, n)
    for count in (1, 64, 256, 512, 1024, 2048):
        for seed in (0, 1, 42):
            d = dm._sweep_directions(n, count, seed)
            assert d.shape == (max(count, 2 * n), n) and not d.flags.writeable
            assert np.array_equal(d[:2 * n], axes)
            assert np.max(np.abs(np.linalg.norm(d, axis=1) - 1.0)) <= 1e-15
    if n >= 3:
        assert np.array_equal(dm._polish_pattern(n)[0], dm.gaussian(n - 1, dm.POLISH_DIRS, 0))


def _run_python(script):
    """Run ``script`` in a fresh process with the package on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_certificate_and_convexity_never_import_scipy():
    """A fresh process imports ``fbstab.cli``, certifies with a linear
    exponent, which draws Kronecker points inside the domain, and reports
    the convexity of an ellipsoid, without loading any scipy module."""
    script = """
import sys
import fbstab.cli
from fbstab import domain, submanifold, variation
from fbstab.fields import ConformalMetric, make_field
imm = submanifold.make_immersion("equatorial-disk", n=4, k=2, nr=8, ntheta=16)
metric = ConformalMetric(make_field("linear", a=[0.1, 0.0, 0.2, 0.0]), 4)
calls = []
draw = variation.kronecker
variation.kronecker = lambda *args, **kwargs: calls.append(args) or draw(*args, **kwargs)
variation.instability_certificate(imm, metric, domain.make_domain("ball", 4))
assert calls, "the certificate drew no interior points"
ellipsoid = domain.make_domain("ellipsoid", 3, semi_axes=[2.0, 1.0, 1.0])
domain.convexity_report(ellipsoid, make_field("radial-spherical"), 1, count=256, seed=3)
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""
    assert _run_python(script).strip() == "[]"


SAMPLED_HYPOTHESES = """
import json
from fbstab import domain, submanifold, variation
from fbstab.fields import ConformalMetric, make_field
ellipsoid = domain.make_domain("ellipsoid", 4, semi_axes=[2.0, 1.2, 1.0, 0.9])
convexity = domain.convexity_report(ellipsoid, make_field("radial-spherical"), 2, 256, 1)
imm = submanifold.make_immersion("equatorial-disk", n=4, k=2, nr=8, ntheta=16)
metric = ConformalMetric(make_field("linear", a=[0.1, 0.0, 0.2, 0.0]), 4)
config = variation.CertificateConfig(curvature_points=2000, convexity_samples=256)
certificate = variation.instability_certificate(imm, metric, domain.make_domain("ball", 4), config)
print(json.dumps([convexity.to_dict(), certificate.to_dict()]))
"""


def test_sampled_hypotheses_need_no_scipy_install():
    """With scipy blocked, a fresh process samples a non-radial convexity
    report (an ellipsoid's sweep and polish) and a certificate with a linear
    exponent (interior points and a boundary sweep), and gets bit for bit
    the values of this process."""
    got = json.loads(_run_python('import sys\nsys.modules["scipy"] = None\n' + SAMPLED_HYPOTHESES))
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(SAMPLED_HYPOTHESES, namespace)
    assert got == json.loads(out.getvalue())
    assert got[0]["route"] == "sampled" and got[0]["n_samples"] == 256
    assert got[1]["curvature_min"] < 0.0


def poly_field(n):
    return make_field("polynomial", terms=[[0.3, [4] + [0] * (n - 1)],
                                           [-0.2, [0, 2, 2] + [0] * (n - 3)],
                                           [0.15, [1, 1, 0] + [0] * (n - 3)]])


@pytest.mark.parametrize("kind,n,params,field,p,count,seed", [
    # exponents not flagged radial, so that a ball's report sweeps and polishes
    ("ball", 3, {"radius": 1.0}, ("linear", {"a": [0.3, -0.2, 0.1]}), 1, 128, 0),
    ("ball", 4, {"radius": 1.0},
     ("polynomial", {"terms": [[1.0, list(e)] for e in 2 * np.eye(4, dtype=int)]}), 2, 256, 0),
    ("ellipsoid", 3, {"semi_axes": [2.0, 1.0, 1.0]}, ("linear", {"a": [0.3, -0.2, 0.1]}), 1, 256, 0),
    ("ellipsoid", 4, {"semi_axes": [2.0, 1.2, 1.0, 0.9]},
     ("radial-custom", {"coeffs": [0.1, 0.3, -0.15]}), 2, 256, 0),
    ("ellipsoid", 5, {"semi_axes": [1.5, 1.2, 1.0, 0.9, 0.8]}, "polynomial", 3, 256, 0),
    ("superellipsoid", 3, {"exponent": 2}, "polynomial", 1, 256, 1),
    # two probes whose rescaled searches stop early after long runs (24 and 28 rounds)
    ("superellipsoid", 4, {"exponent": 3}, ("radial-spherical", {}), 1, 256, 2),
    ("superellipsoid", 5, {"exponent": 2},
     ("linear", {"a": [0.3, -0.2, 0.1, 0.05, 0.2]}), 1, 256, 2),
])
def test_early_stop_matches_fixed_rounds(kind, n, params, field, p, count, seed):
    """Ending each search at its first round flat to the acceptance gain
    gives bit for bit the margins and worst points of running every search
    for all ``POLISH_ROUNDS`` rounds."""
    dom = dm.make_domain(kind, n, **params)
    u = poly_field(n) if field == "polynomial" else make_field(field[0], **field[1])
    report = dm.convexity_report(dom, u, p, count=count, seed=seed)
    (margin_g, worst_g), (margin_gt, worst_gt) = oracles.convexity_margins_fixed_rounds(
        dom, u, p, count, seed)
    assert report.margin_g == margin_g and np.array_equal(report.worst_point_g, worst_g)
    assert report.margin_gtilde == margin_gt
    assert np.array_equal(report.worst_point_gtilde, worst_gt)
    assert all(1 <= r <= dm.POLISH_ROUNDS for r in report.polish_rounds)


def test_flat_round_ends_search_at_once():
    """On the unit ball with u = |x|^2, not flagged radial, every boundary
    point ties in both metrics, so the first round is flat and ends both
    searches."""
    ball = dm.make_domain("ball", 4, radius=1.0)
    report = dm.convexity_report(ball, unflagged_square(4), p=2, count=256, seed=0)
    assert report.route == "sampled" and report.polish_rounds == (1, 1)
    doc = report.to_dict()
    assert (doc["polish_rounds_g"], doc["polish_rounds_gtilde"]) == (1, 1)


def test_early_stop_forgoes_only_round_off_moves():
    """The one known departure from the fixed rounds: after the rescaled
    search's first flat round, the fixed rounds move it once more at a cap
    below 1e-9, where the objective differs by round-off, and lower the margin
    by about 1e-12.  The Euclidean search is unchanged."""
    ell = dm.make_domain("ellipsoid", 4, semi_axes=[2.0, 1.2, 1.0, 0.9])
    u = poly_field(4)
    report = dm.convexity_report(ell, u, p=2, count=256, seed=0)
    (margin_g, worst_g), (margin_gt, _) = oracles.convexity_margins_fixed_rounds(ell, u, 2, 256, 0)
    assert report.margin_g == margin_g and np.array_equal(report.worst_point_g, worst_g)
    assert report.polish_rounds == (20, 22)
    assert 0.0 < report.margin_gtilde - margin_gt < 1e-11


@pytest.mark.parametrize("kind,p", [("ellipsoid", 3), ("superellipsoid", 1)])
def test_lockstep_searches_match_single_searches(kind, p):
    """Run in lockstep, the Euclidean and the rescaled search give bit for
    bit what each gives alone: neither search sees the other's trials."""
    params = {"semi_axes": [1.5, 1.2, 1.0, 0.9, 0.8]} if kind == "ellipsoid" else {"exponent": 2}
    dom = dm.make_domain(kind, 5, **params)
    field = make_field("linear", a=[0.3, -0.2, 0.1, 0.05, 0.2])
    report = dm.convexity_report(dom, field, p, count=256, seed=2)
    pts = dm.sample_boundary(dom, 256, 2)
    (margin_g, worst_g, _), = dm._swept_margins(
        dom, p, [None], pts, [oracles.principal_curvatures(dom, pts)])
    metric = ConformalMetric(field, 5)
    (margin_gt, worst_gt, _), = dm._swept_margins(
        dom, p, [metric], pts, [oracles.principal_curvatures(dom, pts, metric)])
    assert margin_g == report.margin_g and np.array_equal(worst_g, report.worst_point_g)
    assert margin_gt == report.margin_gtilde
    assert np.array_equal(worst_gt, report.worst_point_gtilde)


def counting_domain(domain, calls):
    """``domain`` with its phi's gradient and Hessian calls counted, and its
    value calls too when ``calls`` has a ``"value"`` entry."""
    def counted(name, fn):
        def wrapped(x):
            calls[name] += 1
            return fn(x)
        return wrapped

    phi = domain.phi
    value = counted("value", phi.value_fn) if "value" in calls else phi.value_fn
    wrapped = ScalarField.analytic(value, counted("gradient", phi.grad_fn),
                                   counted("hessian", phi.hess_fn))
    return dm.LevelSetDomain(wrapped, domain.n, domain.bounding_radius, domain.name)


def test_convexity_report_evaluates_grad_phi_once_per_round(monkeypatch):
    """Outside the projections and the ray search a convexity report
    evaluates grad phi (and Hess phi) once for the sweep and once per polish
    round: the rescaled curvatures reuse the Householder kernel's normals."""
    ell = dm.make_domain("ellipsoid", 4, semi_axes=[2.0, 1.2, 1.0, 0.9])
    project, search = dm.project_to_boundary, dm._ray_search
    monkeypatch.setattr(dm, "project_to_boundary",
                        lambda domain, x, *args, **kwargs: project(ell, x, *args, **kwargs))
    monkeypatch.setattr(dm, "_ray_search", lambda domain, d: search(ell, d))
    calls = {"gradient": 0, "hessian": 0}
    field = make_field("radial-custom", coeffs=[0.1, 0.3, -0.15])
    report = dm.convexity_report(counting_domain(ell, calls), field, p=1, count=256, seed=0)
    rounds = calls["gradient"] - 1
    assert 1 <= rounds <= dm.POLISH_ROUNDS
    assert rounds == max(report.polish_rounds) == 22
    assert calls == {"gradient": 1 + rounds, "hessian": 1 + rounds}


CURVED_DOMAINS = [
    ("ball", {"radius": 1.0}),
    ("ellipsoid", {"semi_axes": [2.0, 1.2, 1.0, 0.9]}),
    ("superellipsoid", {"exponent": 3}),
]


def _sweep_poles_and_switch(dom):
    """A 1024-point sweep of a domain of R^4, the points with normals +-e_4,
    where the Householder reflection is exact, and points with normals just
    either side of its sign switch (nhat_4 = +-0 and tiny)."""
    pts = dm.sample_boundary(dom, 1024, seed=0)
    poles = dm.project_to_boundary(dom, np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -1.0]]))
    assert np.array_equal(dm.outward_normal(dom, poles), [[0, 0, 0, 1.0], [0, 0, 0, -1.0]])
    tiny = np.array([1e-6, 1e-12, 1e-300, 0.0])
    near = np.tile(pts[8:20], (8, 1))
    near[:, 3] = np.repeat(np.concatenate([tiny, -tiny]), 12)
    near = dm.project_to_boundary(dom, near)
    nhat_n = dm.outward_normal(dom, near)[:, 3]
    assert np.any(np.signbit(nhat_n)) and np.any(~np.signbit(nhat_n))
    assert np.max(np.abs(nhat_n)) < 1e-5
    return np.concatenate([pts, poles, near])


@pytest.mark.parametrize("kind,params", CURVED_DOMAINS)
def test_principal_curvatures_match_qr_route(kind, params):
    """The Householder kernel agrees with the eigenvalues of the QR-basis
    shape operator over a 1024-point sweep, at normals +-e_n, where the
    reflection is exact, and at normals just either side of its sign
    switch (nhat_n = +-0 and tiny), in both metrics; it evaluates the
    gradient and Hessian of phi once per call."""
    dom = dm.make_domain(kind, 4, **params)
    x = _sweep_poles_and_switch(dom)
    metric = ConformalMetric(make_field("radial-custom", coeffs=[0.1, 0.3, -0.15]), 4)
    calls = {"gradient": 0, "hessian": 0}
    counted = counting_domain(dom, calls)
    for m in (None, metric):
        kappa = oracles.principal_curvatures(counted, x, m)
        oracle = np.linalg.eigvalsh(oracles.shape_operator(dom, x, m))
        assert np.all(np.abs(kappa - oracle) <= 1e-13 * np.maximum(1.0, np.abs(oracle)))
    assert calls == {"gradient": 2, "hessian": 2}


@pytest.mark.parametrize("kind,params", CURVED_DOMAINS)
def test_boundary_form_matches_einsum(kind, params):
    """P (Hess phi) P / |grad phi| by two matrix products matches the
    three-operand ``einsum`` within 1e-15 of its scale, at the sweep, the
    poles and the normals either side of the Householder switch."""
    dom = dm.make_domain(kind, 4, **params)
    x = _sweep_poles_and_switch(dom)
    want = oracles.boundary_form_einsum(dom, x)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(dm.boundary_form(dom, x) - want)) <= 1e-15 * scale


def test_margin_eigenvalue_sum_consistency():
    """Over the whole sweep the p-sums of the sorted curvatures are monotone
    in p, and the rescaled curvatures from the conformal law match the
    eigenvalues of each point's rescaled shape operator."""
    ell = dm.make_domain("ellipsoid", 4, semi_axes=[2.0, 1.2, 1.0, 0.9])
    pts = dm.sample_boundary(ell, 64, seed=3)
    eigs = oracles.principal_curvatures(ell, pts)
    assert eigs.shape == (64, 3)
    sums = np.cumsum(eigs, axis=1)
    assert np.all(sums[:, 0] <= sums[:, 1]) and np.all(sums[:, 1] <= sums[:, 2] + 1e-15)
    assert np.all(sums > 0)
    metric = ConformalMetric(make_field("radial-custom", coeffs=[0.1, 0.3, -0.15]), 4)
    rescaled = oracles.principal_curvatures(ell, pts, metric)
    direct = np.array([np.linalg.eigvalsh(oracles.shape_operator(ell, x, metric)) for x in pts])
    assert np.max(np.abs(rescaled - direct)) < 1e-13


def test_superellipsoid_margin_nonnegative():
    se = dm.make_domain("superellipsoid", 3, exponent=2)
    assert dm.convexity_report(se, make_field("zero"), 1, count=256, seed=1).margin_g >= -1e-9


def test_convexity_report_and_gate():
    ball = dm.make_domain("ball", 4, radius=1.0)
    sph = make_field("radial-spherical")
    report = dm.convexity_report(ball, sph, p=2, count=128, seed=0)
    assert abs(report.margin_g - 2.0) < 1e-9
    assert abs(report.margin_gtilde) < 1e-7
    lo, hi = report.nu_u_range
    assert abs(lo + 1.0) < 1e-12 and abs(hi + 1.0) < 1e-12
    # a ball with a radial exponent is read at one point, with no polish
    assert report.route == "radial-exact" and report.polish_rounds == (0, 0)
    assert report.n_samples == 1 and np.array_equal(report.worst_point_g, np.eye(4)[0])
    assert dm.convexity_report(ball, unflagged_square(4), p=2, count=128, seed=0).n_samples == 128
    assert dm.corollary_gate(dm.convexity_report(ball, sph, p=2, count=64, seed=0)) == "case-ii"

    quad = make_field("radial-custom", coeffs=[0.0, 1.0])  # |x|^2, increasing outward
    assert dm.corollary_gate(dm.convexity_report(ball, quad, p=2, count=64, seed=0)) == "case-i"
    zero = dm.convexity_report(ball, make_field("zero"), p=2, count=64, seed=0)
    assert dm.corollary_gate(zero) == "none"
    # below 2n the sweep still takes every axis point, and the report says so
    assert dm.convexity_report(ball, unflagged_square(4), p=2, count=4, seed=0).n_samples == 8


def test_gradient_tube_check():
    ball = dm.make_domain("ball", 3, radius=1.0)
    assert oracles.check_gradient_tube(ball, count=32, seed=0) > 1.0
    # the batched probe takes the same minimum as a point-by-point loop
    ell = dm.make_domain("ellipsoid", 3, semi_axes=[2.0, 1.0, 1.0])
    lo = np.inf
    for x in dm.sample_boundary(ell, 64, seed=0):
        nhat = dm.outward_normal(ell, x)
        for t in (-1.0, 0.0, 1.0):
            y = x + t * 1e-2 * nhat
            if abs(float(ell.phi.value(y))) <= 1e-2:
                lo = min(lo, float(np.linalg.norm(ell.phi.gradient(y))))
    assert oracles.check_gradient_tube(ell, count=64, seed=0) == lo


def test_domain_catalog_errors():
    with pytest.raises(ConfigError):
        dm.make_domain("torus", 3)
    with pytest.raises(ConfigError):
        dm.make_domain("ellipsoid", 3, semi_axes=[1.0, 2.0])
    with pytest.raises(ConfigError):
        dm.convexity_report(dm.make_domain("ball", 3, radius=1.0), make_field("zero"), 5)
