"""Level-set boundary geometry: projections, shape operators, convexity."""

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import qmc

from fbstab import domain as dm
from fbstab.errors import ConfigError, ProjectionError
from fbstab.fields import ConformalMetric, ScalarField, make_field


def fd_shape_form(domain, x, X, Y, field=None, h=1e-6):
    """Rescaled-metric boundary form by finite differences: transport Y
    tangentially along a projected curve through x with velocity X, then pair
    the (conformally corrected) derivative with the rescaled inward normal.
    Independent of the closed-form shape operator."""
    from fbstab import conformal

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
        corr = conformal.connection_correction(field, x, X, Y)
        scale = np.exp(field.value(x))
    eta = dm.inward_normal(domain, x)
    return scale * float((dY + corr) @ eta)


def per_ray_sweep(domain, count, seed):
    """Reference sweep, one ray at a time: axis and Sobol directions, a
    doubling bracket, 60 bisection steps and a scalar Newton projection."""
    n = domain.n
    dirs = [s * e for e in np.eye(n) for s in (1.0, -1.0)]
    if count > 2 * n:
        need = count - 2 * n
        uu = qmc.Sobol(d=n, scramble=True, seed=seed).random(1 << int(np.ceil(np.log2(need))))
        zz = ndtri(np.clip(uu[:need], 1e-12, 1.0 - 1e-12))
        dirs += list(zz / np.linalg.norm(zz, axis=1)[:, None])
    pts = []
    for d in dirs:
        d = d / np.linalg.norm(d)
        hi = 1.001 * domain.bounding_radius
        while float(domain.phi.value(hi * d)) <= 0.0:
            hi *= 2.0
        lo = 0.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if float(domain.phi.value(mid * d)) < 0.0 else (lo, mid)
        y = 0.5 * (lo + hi) * d
        while abs(val := float(domain.phi.value(y))) > 1e-12:
            g = domain.phi.gradient(y)
            y = y - (val / float(g @ g)) * g
        pts.append(y)
    return np.array(pts)


@pytest.mark.parametrize("kind,n,params,count,seed", [
    ("ball", 4, {"radius": 1.0}, 128, 0),
    ("ellipsoid", 3, {"semi_axes": [2.0, 1.0, 1.0]}, 256, 0),
    ("ellipsoid", 4, {"semi_axes": [2.0, 1.2, 1.0, 0.9]}, 64, 3),
    ("superellipsoid", 3, {"exponent": 2}, 256, 1),
])
def test_sample_boundary_matches_per_ray_reference(kind, n, params, count, seed):
    domain = dm.make_domain(kind, n, **params)
    assert np.array_equal(dm.sample_boundary(domain, count, seed),
                          per_ray_sweep(domain, count, seed))


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


def test_projection_failure_raises():
    flat = dm.LevelSetDomain(make_field("radial-custom", coeffs=[1.0]), 2, 1.0)
    with pytest.raises(ProjectionError):
        dm.project_to_boundary(flat, np.array([0.3, 0.3]))


def test_inward_normal():
    ball = dm.make_domain("ball", 4, radius=1.0)
    x = np.array([0.0, 1.0, 0.0, 0.0])
    assert np.allclose(dm.inward_normal(ball, x), -x)
    halfspace = dm.LevelSetDomain(make_field("linear", a=[1.0, 0.0]), 2, 10.0)
    assert np.allclose(dm.inward_normal(halfspace, np.zeros(2)), [-1.0, 0.0])
    ell = dm.make_domain("ellipsoid", 3, semi_axes=[2.0, 1.0, 1.0])
    assert np.allclose(dm.inward_normal(ell, np.array([2.0, 0.0, 0.0])), [-1, 0, 0])


def test_shape_operator_unit_sphere():
    ball = dm.make_domain("ball", 4, radius=1.0)
    x = np.array([0.5, -0.5, 0.5, 0.5])
    S = dm.shape_operator(ball, x)
    assert np.allclose(S, np.eye(3), atol=1e-10)
    half = dm.make_domain("ball", 3, radius=0.5)
    S = dm.shape_operator(half, np.array([0.5, 0.0, 0.0]))
    assert np.allclose(np.linalg.eigvalsh(S), 2.0, atol=1e-10)


def test_shape_operator_ellipsoid_closed_form():
    a, b, c = 2.0, 1.0, 0.5
    ell = dm.make_domain("ellipsoid", 3, semi_axes=[a, b, c])
    S = dm.shape_operator(ell, np.array([a, 0.0, 0.0]))
    eigs = np.sort(np.linalg.eigvalsh(S))
    assert np.allclose(eigs, sorted([a / b**2, a / c**2]), atol=1e-10)


def test_shape_operator_symmetric(rng):
    ell = dm.make_domain("ellipsoid", 3, semi_axes=[1.5, 1.0, 0.8])
    for _ in range(10):
        x = dm.project_to_boundary(ell, rng.normal(size=3))
        S = dm.shape_operator(ell, x)
        assert np.max(np.abs(S - S.T)) < 1e-9


def test_rescaled_shape_operator_sphere_equator():
    """Unit sphere under the curvature +1 exponent: totally geodesic."""
    ball = dm.make_domain("ball", 4, radius=1.0)
    metric = ConformalMetric(make_field("radial-spherical"), 4)
    x = np.array([0.0, 0.0, 1.0, 0.0])
    S = dm.shape_operator(ball, x, metric)
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
        B = dm.boundary_tangent_basis(ball, x)
        S = dm.shape_operator(ball, x, metric)
        u = float(field.value(x))
        for i in range(3):
            for j in range(3):
                form = fd_shape_form(ball, x, B[i], B[j], field)
                # operator entries are the form against rescaled-unit vectors
                assert abs(np.exp(-2 * u) * form - S[i, j] * 1.0) < 1e-7


def test_margins_sphere_and_ellipsoid():
    ball = dm.make_domain("ball", 4, radius=1.0)
    for p in (1, 2, 3):
        margin, _ = dm.p_convexity_margin(ball, p, count=128, seed=0)
        assert abs(margin - p) < 1e-9
    metric = ConformalMetric(make_field("radial-spherical"), 4)
    margin, _ = dm.p_convexity_margin(ball, 2, metric, count=128, seed=0)
    assert abs(margin) < 1e-7
    ell = dm.make_domain("ellipsoid", 3, semi_axes=[2.0, 1.0, 1.0])
    margin, worst = dm.p_convexity_margin(ell, 1, count=256, seed=0)
    assert abs(margin - 0.25) < 1e-3
    # minimum attained on the waist circle, away from the long axis
    assert abs(worst[0]) < 0.3


def test_polish_keeps_sweep_point_on_ties():
    """On the ball every boundary point ties, so a polish that gains only
    round-off must leave the worst point at a sweep point."""
    ball = dm.make_domain("ball", 4, radius=1.0)
    margin, worst = dm.p_convexity_margin(ball, 1, count=256, seed=42)
    assert abs(margin - 1.0) < 1e-9
    pts = dm.sample_boundary(ball, 256, 42)
    assert np.any(np.all(pts == worst, axis=1))


def test_polish_is_resolution_independent():
    """A coarse and a fine sweep polish to the same minimum, each at or below
    its own sweep minimum."""
    ell = dm.make_domain("ellipsoid", 5, semi_axes=[1.5, 1.2, 1.0, 0.9, 0.8])
    metric = ConformalMetric(make_field("linear", a=[0.3, -0.2, 0.1, 0.05, 0.2]), 5)
    margins = []
    for count in (256, 1024):
        margin, _ = dm.p_convexity_margin(ell, 3, metric, count=count, seed=0)
        pts = dm.sample_boundary(ell, count, 0)
        assert margin <= np.min(np.sum(dm.principal_curvatures(ell, pts, metric)[:, :3], axis=1))
        margins.append(margin)
    assert abs(margins[0] - margins[1]) < 1e-9


def test_polish_calls_are_batched(monkeypatch):
    """Every curvature evaluation and projection of a convexity report takes
    more than one point: one for the sweep, one per polish round and metric."""
    sizes = {"principal_curvatures": [], "project_to_boundary": []}
    for name, calls in sizes.items():
        def counted(domain, x, *args, _real=getattr(dm, name), _calls=calls, **kwargs):
            _calls.append(np.shape(x))
            return _real(domain, x, *args, **kwargs)
        monkeypatch.setattr(dm, name, counted)
    ell = dm.make_domain("ellipsoid", 4, semi_axes=[2.0, 1.2, 1.0, 0.9])
    field = make_field("radial-custom", coeffs=[0.1, 0.3, -0.15])
    dm.convexity_report(ell, field, p=1, count=256, seed=0)
    for calls in sizes.values():
        assert all(len(shape) == 2 and shape[0] > 1 for shape in calls)
        assert len(calls) == 1 + 2 * dm.POLISH_ROUNDS


def test_margin_eigenvalue_sum_consistency():
    """Over the whole sweep the p-sums of the sorted curvatures are monotone
    in p, and the rescaled curvatures from the conformal law match the
    eigenvalues of each point's rescaled shape operator."""
    ell = dm.make_domain("ellipsoid", 4, semi_axes=[2.0, 1.2, 1.0, 0.9])
    pts = dm.sample_boundary(ell, 64, seed=3)
    eigs = dm.principal_curvatures(ell, pts)
    assert eigs.shape == (64, 3)
    sums = np.cumsum(eigs, axis=1)
    assert np.all(sums[:, 0] <= sums[:, 1]) and np.all(sums[:, 1] <= sums[:, 2] + 1e-15)
    assert np.all(sums > 0)
    metric = ConformalMetric(make_field("radial-custom", coeffs=[0.1, 0.3, -0.15]), 4)
    rescaled = dm.principal_curvatures(ell, pts, metric)
    direct = np.array([np.linalg.eigvalsh(dm.shape_operator(ell, x, metric)) for x in pts])
    assert np.max(np.abs(rescaled - direct)) < 1e-13


def test_superellipsoid_margin_nonnegative():
    se = dm.make_domain("superellipsoid", 3, exponent=2)
    margin, _ = dm.p_convexity_margin(se, 1, count=256, seed=1)
    assert margin >= -1e-9


def test_convexity_report_and_gate():
    ball = dm.make_domain("ball", 4, radius=1.0)
    sph = make_field("radial-spherical")
    report = dm.convexity_report(ball, sph, p=2, count=128, seed=0)
    assert abs(report.margin_g - 2.0) < 1e-9
    assert abs(report.margin_gtilde) < 1e-7
    lo, hi = report.nu_u_range
    assert abs(lo + 1.0) < 1e-12 and abs(hi + 1.0) < 1e-12
    assert report.n_samples == 128
    assert dm.corollary_gate(dm.convexity_report(ball, sph, p=2, count=64, seed=0)) == "case-ii"

    quad = make_field("radial-custom", coeffs=[0.0, 1.0])  # |x|^2, increasing outward
    assert dm.corollary_gate(dm.convexity_report(ball, quad, p=2, count=64, seed=0)) == "case-i"
    zero = dm.convexity_report(ball, make_field("zero"), p=2, count=64, seed=0)
    assert dm.corollary_gate(zero) == "none"
    # below 2n the sweep still takes every axis point, and the report says so
    assert dm.convexity_report(ball, sph, p=2, count=4, seed=0).n_samples == 8


def test_gradient_tube_check():
    ball = dm.make_domain("ball", 3, radius=1.0)
    assert dm.check_gradient_tube(ball, count=32, seed=0) > 1.0
    # the batched probe takes the same minimum as a point-by-point loop
    ell = dm.make_domain("ellipsoid", 3, semi_axes=[2.0, 1.0, 1.0])
    lo = np.inf
    for x in dm.sample_boundary(ell, 64, seed=0):
        nhat = dm.outward_normal(ell, x)
        for t in (-1.0, 0.0, 1.0):
            y = x + t * 1e-2 * nhat
            if abs(float(ell.phi.value(y))) <= 1e-2:
                lo = min(lo, float(np.linalg.norm(ell.phi.gradient(y))))
    assert dm.check_gradient_tube(ell, count=64, seed=0) == lo


def test_domain_catalog_errors():
    with pytest.raises(ConfigError):
        dm.make_domain("torus", 3)
    with pytest.raises(ConfigError):
        dm.make_domain("ellipsoid", 3, semi_axes=[1.0, 2.0])
    with pytest.raises(ConfigError):
        dm.p_convexity_margin(dm.make_domain("ball", 3, radius=1.0), 5)
