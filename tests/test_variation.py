"""Quadratic forms S/T, conformal transformation laws, traces, bound and
certificate."""

import gc
import re
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

import oracles
from fbstab import conformal
from fbstab import domain as dm
from fbstab import scenarios as sc
from fbstab import submanifold as sub
from fbstab import variation as var
from fbstab.errors import (ConfigError, DimensionError, DomainError, InvalidSampleError,
                           PreconditionError)
from fbstab.fields import ConformalMetric, ScalarField, make_field

BALL3 = dm.make_domain("ball", 3, radius=1.0)


# ---------------------------------------------------------------------------
# projected constant fields and their covariant derivative
# ---------------------------------------------------------------------------

def test_projected_field_trivials(flat_b4):
    imm = flat_b4.immersion
    # normal direction is preserved; tangent direction is annihilated
    e3 = np.eye(4)[2]
    X = var.projected_field(imm, e3)
    values, _, boundary_values = oracles.ambient_field(imm, X)
    assert np.allclose(values, e3) and np.allclose(X.dperp, 0.0)
    assert np.allclose(boundary_values, e3)
    tangent = imm.geometry().tangent[0, :, 4]
    assert np.allclose(var.projected_field(imm, tangent).normal, 0.0, atol=1e-14)


def test_projected_field_norms_sum_to_codimension(rng):
    imm = sub.make_immersion("random-graph", n=6, k=3, seed=11, degree=2)
    total = sum(np.sum(var.projected_field(imm, E).normal ** 2, axis=0) for E in np.eye(6))
    assert np.max(np.abs(total - 3.0)) < 1e-12


def test_projected_field_derivative_matches_chart_differentiation():
    """The covariant derivative -alpha(v_i, E^tan) agrees with numerically
    differentiating the projector field along the chart."""
    c = 0.7
    imm = sub.make_immersion(
        "graph", n=3, k=2,
        coeffs=[[[c / 2, [2, 0]], [c / 2, [0, 2]]]],
        halfwidth=0.5, nodes_per_axis=5,
    )

    def jac(y):
        return np.array([[1.0, 0.0], [0.0, 1.0], [c * y[0], c * y[1]]])

    def perp(y, E):
        J = jac(y)
        P = J @ np.linalg.inv(J.T @ J) @ J.T
        return E - P @ E

    geo = oracles.geometry_first(imm)
    h = 1e-6
    for E in np.eye(3):
        X = var.projected_field(imm, E)
        for i in range(imm.n_interior):
            y0 = imm.xs[i, :2]
            C = geo.chart_to_frame[i]
            for a in range(2):
                w = C[:, a]  # chart velocity of the frame vector v_a
                d = (perp(y0 + h * w, E) - perp(y0 - h * w, E)) / (2 * h)
                want = geo.normal[i] @ d  # normal components of the derivative
                assert np.max(np.abs(X.dperp[a, :, i] - want)) < 1e-6


def test_scaled_field_derivative_matches_chart_differentiation():
    """D^perp(fX) = v(f) X + f D^perp X agrees with numerically
    differentiating the normal part of f E^perp along the chart."""
    c = 0.7
    imm = sub.make_immersion(
        "graph", n=3, k=2,
        coeffs=[[[c / 2, [2, 0]], [c / 2, [0, 2]]]],
        halfwidth=0.5, nodes_per_axis=5,
    )
    u = make_field("polynomial", terms=[[0.3, [1, 0, 0]], [-0.4, [0, 1, 1]], [0.2, [2, 0, 0]]])

    def x_of(y):
        return np.array([y[0], y[1], c / 2 * (y[0] ** 2 + y[1] ** 2)])

    def scaled_perp(y, E):
        J = np.array([[1.0, 0.0], [0.0, 1.0], [c * y[0], c * y[1]]])
        P = J @ np.linalg.inv(J.T @ J) @ J.T
        return np.exp(-u.value(x_of(y))) * (E - P @ E)

    geo = oracles.geometry_first(imm)
    f = np.exp(-u.value(imm.xs))
    df = -np.einsum("mkx,mx->km", geo.tangent, u.gradient(imm.xs)) * f
    h = 1e-6
    X = var.projected_field(imm, np.eye(3)).scaled(f, df, np.exp(-u.value(imm.bxs)))
    for l, E in enumerate(np.eye(3)):
        for i in range(imm.n_interior):
            y0 = imm.xs[i, :2]
            for a in range(2):
                w = geo.chart_to_frame[i][:, a]  # chart velocity of the frame vector v_a
                d = (scaled_perp(y0 + h * w, E) - scaled_perp(y0 - h * w, E)) / (2 * h)
                assert np.max(np.abs(X.dperp[l, a, :, i] - geo.normal[i] @ d)) < 1e-6


def _per_field_forms(imm, metric, dom):
    """Every form as a function of a field."""
    return {
        "s_euclid": lambda X: var.s_euclid(imm, X),
        "s_tilde_transformed": lambda X: var.s_tilde_transformed(imm, X, metric),
        "s_tilde_direct": lambda X: var.s_tilde_direct(imm, X, metric),
        "t_euclid": lambda X: var.t_euclid(imm, X, dom),
        "t_tilde_transformed": lambda X: var.t_tilde_transformed(imm, X, metric, dom),
        "t_tilde_direct": lambda X: var.t_tilde_direct(imm, X, metric, dom),
    }


@pytest.mark.parametrize("scenario_fixture", ["cap_b4", "custom_b4", "cap_b5k3"])
def test_stacked_forms_equal_per_field_calls(scenario_fixture, request, rng):
    """A form of a stack of fields is the form of each field, row by row and
    bit for bit, for a stack with one and with two leading axes; the stacked
    projection is the projection of each vector."""
    built = request.getfixturevalue(scenario_fixture)
    imm, metric, dom = built.immersion, built.metric, built.domain
    Q, _ = np.linalg.qr(rng.normal(size=(imm.n, imm.n)))
    B = Q.T
    stack = var.projected_field(imm, B)
    grid = var.NormalField(*(np.stack([a, a[::-1]])
                             for a in (stack.normal, stack.dperp, stack.boundary)))
    assert np.max(np.abs(var.projected_field(imm, np.stack([B, B[::-1]])).dperp
                         - grid.dperp)) <= 1e-15
    for l, E in enumerate(B):
        single = var.projected_field(imm, E)
        for got, want in zip((stack.normal[l], stack.dperp[l], stack.boundary[l]),
                             (single.normal, single.dperp, single.boundary)):
            assert np.max(np.abs(got - want)) <= 1e-15
    rows = [var.NormalField(stack.normal[l], stack.dperp[l], stack.boundary[l])
            for l in range(imm.n)]
    for name, form in _per_field_forms(imm, metric, dom).items():
        want = np.array([form(X) for X in rows])
        assert np.array_equal(form(stack), want), name
        assert np.array_equal(form(grid), np.stack([want, want[::-1]])), name


def test_second_variation_route_does_not_depend_on_the_field_name(cap_b4):
    """Q(X, X) evaluates the exponent it is given: a radial-spherical field
    named "zero" gives the radial-spherical value -2 pi e^{2u(0)} = -8 pi."""
    imm, dom = cap_b4.immersion, cap_b4.domain
    base = make_field("radial-spherical")
    renamed = ConformalMetric(
        ScalarField.analytic(base.value_fn, base.grad_fn, base.hess_fn, name="zero"), 4)
    X = var.projected_field(imm, np.eye(4)[2])
    got = var.second_variation(imm, renamed, X, dom).value
    assert got == var.second_variation(imm, cap_b4.metric, X, dom).value
    assert abs(got + 8.0 * np.pi) < 1e-9


def test_second_variation_refuses_a_stack_of_fields(cap_b4):
    """Q(X, X) integrates one field; a stack would come back as the sum of
    its per-field values, so it is refused with the stack's shape."""
    imm, dom = cap_b4.immersion, cap_b4.domain
    for E, shape in ((np.eye(4)[2:], "(2,)"), (np.eye(4)[None, 2:], "(1, 2)")):
        with pytest.raises(ConfigError, match=re.escape(f"a stack of shape {shape}")):
            var.second_variation(imm, cap_b4.metric, var.projected_field(imm, E), dom)


# ---------------------------------------------------------------------------
# interior density S
# ---------------------------------------------------------------------------

def _zero_field(imm):
    q = imm.n - imm.k
    return var.NormalField(
        np.zeros((q, imm.n_interior)),
        np.zeros((imm.k, q, imm.n_interior)),
        np.zeros((q, imm.n_boundary)),
    )


def test_s_euclid_trivials(flat_b4):
    imm = flat_b4.immersion
    assert np.all(var.s_euclid(imm, _zero_field(imm)) == 0.0)
    const = var.projected_field(imm, np.eye(4)[3])
    assert np.all(var.s_euclid(imm, const) == 0.0)


def test_s_euclid_paraboloid_term_structure():
    imm = sub.make_immersion("paraboloid-cap", curvature=0.8, n=3, with_boundary=False)
    geo = oracles.geometry_first(imm)
    for E in np.eye(3):
        X = var.projected_field(imm, E)
        Et = geo.tangent @ E
        Xn = X.normal.T
        grad_part = np.sum(np.einsum("majr,mj->mar", geo.alpha, Et) ** 2, axis=(1, 2))
        alpha_part = np.sum(np.einsum("mijr,mr->mij", geo.alpha, Xn) ** 2, axis=(1, 2))
        assert np.max(np.abs(var.s_euclid(imm, X) - (grad_part - alpha_part))) < 1e-12


# ---------------------------------------------------------------------------
# boundary density T
# ---------------------------------------------------------------------------

def test_t_euclid_unit_ball(flat_b4, ball4):
    imm = flat_b4.immersion
    X = var.projected_field(imm, np.eye(4)[2])
    got = var.t_euclid(imm, X, ball4)
    Xb = oracles.ambient_field(imm, X)[2]
    assert np.max(np.abs(got - (-np.sum(Xb * Xb, axis=1)))) < 1e-12
    assert np.all(var.t_euclid(imm, _zero_field(imm), ball4) == 0.0)


def test_t_euclid_requires_tangency(metric_zero4):
    """One row along the outward normal among many tangent ones is rejected.
    A normal field of a disk meeting the sphere orthogonally has no such row,
    so the rim is a paraboloid cap's on the sphere through it."""
    imm = sub.make_immersion("paraboloid-cap", curvature=0.5, n=4, radius=1.0)
    dom = dm.make_domain("ball", 4, radius=np.sqrt(1.0 + 0.25**2))
    X = _zero_field(imm)
    var.t_euclid(imm, X, dom)
    bvalues = X.boundary.copy()
    bvalues[:, 17] = imm.geometry().b_normal[..., 17] @ dm.outward_normal(dom, imm.bxs[17])
    bad = var.NormalField(X.normal, X.dperp, bvalues)
    with pytest.raises(PreconditionError, match="boundary sample 17"):
        var.t_euclid(imm, bad, dom)
    with pytest.raises(PreconditionError, match="boundary sample 17"):
        var.t_tilde_direct(imm, bad, metric_zero4, dom)


def test_t_euclid_ellipsoid_principal_direction():
    a, b = 2.0, 1.0
    ell = dm.make_domain("ellipsoid", 3, semi_axes=[a, b, b])
    # a synthetic surface with one boundary sample whose conormal is the
    # outward axis and whose normal is the second axis
    J = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    imm = sub.SampledImmersion(
        2, 3,
        np.zeros((1, 3)), J[None], np.zeros((1, 2, 2, 3)), np.ones(1),
        np.array([[a, 0.0, 0.0]]), J[None], np.ones(1), np.array([[1.0, 0.0, 0.0]]),
    )
    X = var.NormalField(np.zeros((1, 1)), np.zeros((2, 1, 1)), np.ones((1, 1)))
    got = var.t_euclid(imm, X, ell)
    assert got.shape == (1,)
    assert abs(got[0] - (-(a / b**2))) < 1e-12


# ---------------------------------------------------------------------------
# conformal transformation laws
# ---------------------------------------------------------------------------

def test_s_tilde_transformed_reduces_and_scales(flat_b4, metric_zero4, cap_b4):
    imm = cap_b4.immersion
    X = var.projected_field(imm, np.eye(4)[3])
    euclid = var.s_euclid(imm, X)
    assert np.max(np.abs(var.s_tilde_transformed(imm, X, metric_zero4) - euclid)) < 1e-14
    metric = cap_b4.metric
    v1 = var.s_tilde_transformed(imm, X, metric)
    X2 = var.NormalField(2.0 * X.normal, 2.0 * X.dperp, 2.0 * X.boundary)
    v2 = var.s_tilde_transformed(imm, X2, metric)
    assert np.all(np.abs(v2 - 4.0 * v1) < 1e-12 * np.maximum(1, np.abs(v1)))


@pytest.mark.parametrize("scenario_fixture", ["cap_b4", "custom_b4", "cap_b5k3"])
def test_transformation_closure_everywhere(scenario_fixture, request):
    """Two routes to the rescaled densities: Euclidean data + transformation
    law vs direct evaluation with the conformal connection and curvature."""
    built = request.getfixturevalue(scenario_fixture)
    imm, metric, dom = built.immersion, built.metric, built.domain
    for E in np.eye(imm.n):
        X = var.projected_field(imm, E)
        lhs = var.s_tilde_transformed(imm, X, metric)
        rhs = var.s_tilde_direct(imm, X, metric)
        assert np.max(np.abs(lhs - rhs)) < 1e-7
        lhs = var.t_tilde_transformed(imm, X, metric, dom)
        rhs = var.t_tilde_direct(imm, X, metric, dom)
        assert np.max(np.abs(lhs - rhs)) < 1e-7


def test_t_tilde_transformed_values(cap_b4, flat_b4, metric_zero4, ball4):
    # zero exponent reduces to the Euclidean density
    imm = flat_b4.immersion
    X = var.projected_field(imm, np.eye(4)[2])
    assert np.max(np.abs(
        var.t_tilde_transformed(imm, X, metric_zero4, ball4) - var.t_euclid(imm, X, ball4)
    )) < 1e-14
    # curvature +1 exponent on the unit ball: radial slope -1 cancels the
    # sphere's curvature term for unit normal fields
    imm = cap_b4.immersion
    metric = cap_b4.metric
    nu_u = np.sum(metric.field.gradient(imm.bxs) * imm.bnus, axis=1)
    assert np.max(np.abs(nu_u + 1.0)) < 1e-12
    X = var.projected_field(imm, np.eye(4)[2])
    got = var.t_tilde_transformed(imm, X, metric, ball4)
    assert np.max(np.abs(got)) < 1e-12
    # doubling |X|^2 doubles the slope term
    a = var.t_tilde_transformed(imm, X, metric, ball4)
    X2 = var.NormalField(X.normal, X.dperp, np.sqrt(2) * X.boundary)
    b = var.t_tilde_transformed(imm, X2, metric, ball4)
    assert np.max(np.abs(b - 2 * a)) < 1e-12


@pytest.mark.parametrize("scenario_fixture", ["cap_b4", "custom_b4"])
def test_t_tilde_of_rescaled_constants(scenario_fixture, request):
    """The boundary density of the rescaled constants e^{-u} E_l^perp is
    e^{-u} (T - |X|^2 nu(u)) of the unscaled constants X = E_l^perp, to
    round-off relative to the size of its terms."""
    built = request.getfixturevalue(scenario_fixture)
    imm, metric, dom = built.immersion, built.metric, built.domain
    X = var.projected_field(imm, np.eye(imm.n))
    u = metric.field.value(imm.bxs)
    nu_u = np.sum(metric.field.gradient(imm.bxs) * imm.bnus, axis=1)
    T, X2 = var.t_euclid(imm, X, dom), np.sum(X.boundary**2, axis=-2)
    want = np.exp(-u) * (T - X2 * nu_u)
    scale = np.max(np.exp(-u) * (np.abs(T) + X2 * np.abs(nu_u)))
    got = var.t_tilde_transformed(imm, var.rescaled_constants(imm, metric), metric, dom)
    assert np.max(np.abs(got - want)) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def test_trace_s_euclid_zero_and_invariant(rng, flat_b4):
    assert np.all(var.trace_s_euclid(flat_b4.immersion) == 0.0)
    imm = sub.make_immersion("random-graph", n=5, k=2, seed=5, degree=3)
    traces = var.trace_s_euclid(imm)
    assert np.max(np.abs(traces)) < 1e-9
    Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    assert np.max(np.abs(traces - var.trace_s_euclid(imm, basis=Q.T))) < 1e-12


def test_trace_t_euclid_ball(flat_b4, ball4, rng):
    imm = flat_b4.immersion
    vals = var.trace_t_euclid(imm, ball4)
    assert np.allclose(vals, -2.0, atol=1e-12)
    total = np.sum(imm.bws * vals)
    assert abs(total - (-2 * 2 * np.pi)) < 1e-9
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    assert np.max(np.abs(vals - var.trace_t_euclid(imm, ball4, basis=Q.T))) < 1e-12


def test_trace_s_tilde_cap_value_and_residual(cap_b4):
    """Curvature +1 with vanishing normal gradient: the traced rescaled
    density is the constant -k(n-k) at every sample."""
    imm, metric = cap_b4.immersion, cap_b4.metric
    vals, res = var.traced_interior_density(imm, metric)
    assert np.max(np.abs(vals + 4.0)) < 1e-9
    assert np.max(res) < 1e-7


def test_trace_s_tilde_zero_exponent(flat_b4, metric_zero4):
    values, residuals = var.traced_interior_density(flat_b4.immersion, metric_zero4)
    assert np.max(np.abs(values)) < 1e-9 and np.max(residuals) < 1e-9


def test_trace_t_tilde_values(cap_b4, flat_b4, metric_zero4, ball4):
    imm = flat_b4.immersion
    v, r = var.traced_boundary_density(imm, metric_zero4, ball4)
    assert np.max(np.abs(v + 2.0)) < 1e-12 and np.max(r) < 1e-12
    v, r = var.traced_boundary_density(cap_b4.immersion, cap_b4.metric, ball4)
    assert np.max(np.abs(v)) < 1e-12 and np.max(r) < 1e-12
    # outward slope +1 at the boundary: u = |x|^2 / 2
    metric_up = ConformalMetric(make_field("radial-custom", coeffs=[0.0, 0.5]), 4)
    v, r = var.traced_boundary_density(imm, metric_up, ball4)
    want = np.exp(-0.5) * (-2.0 * (4 - 2))
    assert np.max(np.abs(v - want)) < 1e-12 and np.max(r) < 1e-12


def test_traced_densities_basis_invariant(cap_b4, custom_b4, rng):
    """The traces do not depend on the orthonormal basis they run over."""
    for built in (cap_b4, custom_b4):
        imm, metric, dom = built.immersion, built.metric, built.domain
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        for a, b in zip(var.traced_interior_density(imm, metric),
                        var.traced_interior_density(imm, metric, basis=Q.T)):
            assert np.max(np.abs(a - b)) < 1e-10
        for a, b in zip(var.traced_boundary_density(imm, metric, dom),
                        var.traced_boundary_density(imm, metric, dom, basis=Q.T)):
            assert np.max(np.abs(a - b)) < 1e-10
    with pytest.raises(PreconditionError):
        var.traced_interior_density(imm, metric, basis=2.0 * np.eye(4))


# ---------------------------------------------------------------------------
# integral bound
# ---------------------------------------------------------------------------

def test_interior_bound_flat(flat_b4, metric_zero4):
    rep = var.interior_bound(flat_b4.immersion, metric_zero4)
    assert abs(rep.lhs) < 1e-9 and abs(rep.rhs) < 1e-9 and abs(rep.slack) < 1e-9
    assert not rep.warnings


def test_interior_bound_cap(cap_b4):
    rep = var.interior_bound(cap_b4.immersion, cap_b4.metric)
    assert abs(rep.lhs + 8 * np.pi) < 1e-4
    # boundary flux: radial slope -1, rescaled boundary length 2 pi
    assert abs(rep.rhs + 4 * np.pi) < 1e-7
    assert rep.slack > 1.0  # strictly positive under positive curvature
    assert not rep.warnings


def test_interior_bound_dimension_gate(metric_zero4):
    imm = sub.make_immersion("equatorial-disk", n=3, k=2, nr=8, ntheta=16)
    with pytest.raises(DimensionError):
        var.interior_bound(imm, ConformalMetric(make_field("zero"), 3))


def test_interior_bound_warnings_attached():
    imm = sub.make_immersion("equatorial-disk", n=4, k=2, radius=0.5, nr=16, ntheta=32)
    metric = ConformalMetric(make_field("radial-hyperbolic"), 4)
    rep = var.interior_bound(imm, metric)
    assert any("curvature" in w for w in rep.warnings)
    par = sub.make_immersion("paraboloid-cap", curvature=0.5, n=4)
    rep = var.interior_bound(par, ConformalMetric(make_field("zero"), 4))
    assert any("minimality" in w for w in rep.warnings)


# ---------------------------------------------------------------------------
# second variation and certificate
# ---------------------------------------------------------------------------

def test_second_variation_flat_single_direction(flat_b4, metric_zero4, ball4):
    imm = flat_b4.immersion
    X = var.projected_field(imm, np.eye(4)[2])
    out = var.second_variation(imm, metric_zero4, X, ball4)
    assert abs(out.value + 2 * np.pi) < 1e-9
    assert not out.q_form_only
    assert var.second_variation(imm, metric_zero4, _zero_field(imm), ball4).value == 0.0


def test_second_variation_basis_sum_matches_closed_forms(flat_b4, metric_zero4, ball4):
    imm = flat_b4.immersion
    total = sum(
        var.second_variation(imm, metric_zero4, var.projected_field(imm, E), ball4).value
        for E in np.eye(4)
    )
    vol2 = np.pi
    bvol = 2 * np.pi
    assert abs(total + 2 * (4 - 2) * vol2) < 1e-8   # -k(n-k) vol_k
    assert abs(total + (4 - 2) * bvol) < 1e-8       # -(n-k) vol_{k-1}


def test_second_variation_q_form_label(ball4, metric_zero4):
    par = sub.make_immersion("paraboloid-cap", curvature=0.5, n=4, radius=1.0)
    # boundary samples of the cap do not lie on the unit sphere; use a domain
    # large enough to invalidate the free-boundary check instead
    metric = metric_zero4
    X = var.projected_field(par, np.eye(4)[3])
    dom = dm.make_domain("ball", 4, radius=np.sqrt(1.0 + 0.25**2))
    out = var.second_variation(par, metric, X, dom, free_boundary_tol=1e-6)
    assert out.q_form_only and out.warnings


def test_ambient_records_are_keyed_by_metric_and_domain():
    """Interleaving metrics, domains, and calls with and without a domain, on
    one immersion gives bit for bit what each call gives on a fresh one."""
    built = sc.build_scenario("cap-disk-b4k2")
    imm, dom = built.immersion, built.domain
    sphere, zero = built.metric, ConformalMetric(make_field("zero"), 4)
    wide = dm.make_domain("ball", 4, radius=2.0)
    basis, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))

    def q(target, metric, i):
        X = var.projected_field(target, basis[:, i])
        return var.second_variation(target, metric, X, dom)

    def t(target, domain, i):
        return var.t_euclid(target, var.projected_field(target, basis[:, i]), domain, 1.0)

    calls = [(q, sphere, 0), (q, zero, 0), (var.interior_bound, sphere), (q, sphere, 1),
             (t, wide, 1), (var.interior_bound, zero), (q, zero, 2), (t, dom, 2),
             (t, wide, 2), (q, sphere, 3), (var.interior_bound, sphere)]
    for fn, *args in calls:
        got, want = fn(imm, *args), fn(sc.build_scenario("cap-disk-b4k2").immersion, *args)
        assert np.array_equal(got, want) if fn is t else got == want
    # Q(X, X) takes the direct route for the zero exponent too, so it reads
    # eta(u) under (zero, dom)
    assert set(imm._ambient) == {
        (sphere, None), (zero, None), (None, dom), (None, wide), (sphere, dom), (zero, dom)}


def _counting_metric(name, n):
    """``make_field(name)`` whose value, gradient and Hessian calls are counted."""
    base = make_field(name)
    calls = Counter()

    def counted(kind, fn):
        def call(x):
            calls[kind] += 1
            return fn(x)
        return call

    field = ScalarField.analytic(counted("value", base.value_fn),
                                 counted("gradient", base.grad_fn),
                                 counted("hessian", base.hess_fn), name=name)
    return ConformalMetric(field, n), calls


def test_warm_second_variation_evaluates_only_the_field_x(monkeypatch):
    """After one Q(X, X), Q over a whole basis calls neither the field nor
    the residual checks, nor builds the curvature operator again."""
    built = sc.build_scenario("cap-disk-b4k2")
    imm, dom = built.immersion, built.domain
    metric, calls = _counting_metric("radial-spherical", 4)
    checks = Counter()
    for mod, name in ((sub, "bracket_norms"), (sub, "angle_defects"), (conformal, "schouten")):
        def counted(*args, _fn=getattr(mod, name), _name=name):
            checks[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(mod, name, counted)

    first = var.second_variation(imm, metric, var.projected_field(imm, np.eye(4)[0]), dom)
    assert sum(calls.values()) > 0
    assert checks == {"bracket_norms": 1, "angle_defects": 1, "schouten": 1}
    calls.clear()
    checks.clear()
    again = [var.second_variation(imm, metric, var.projected_field(imm, E), dom)
             for E in np.eye(4)]
    assert again[0] == first
    assert sum(calls.values()) == 0 and sum(checks.values()) == 0
    # every reader shares the cached arrays, so none may write to them
    record = imm.ambient(metric)
    assert not any(a.flags.writeable for a in (record.u, record.grad, record.hess, record.sff,
                                               record.curvature_normal))
    # another metric on the same immersion gets its own operator
    other = ConformalMetric(make_field("radial-custom", coeffs=[0.1, 0.4, -0.2]), 4)
    var.second_variation(imm, other, var.projected_field(imm, np.eye(4)[0]), dom)
    assert checks["schouten"] == 1
    A, B = record.curvature_normal, imm.ambient(other).curvature_normal
    assert A is not B and not np.array_equal(A, B)


def test_warm_interior_bound_evaluates_no_field():
    """The curvature check of ``interior_bound`` reads u, grad u and Hess u
    from the immersion's record, so a second bound calls no field."""
    imm = sc.build_scenario("cap-disk-b4k2").immersion
    metric, calls = _counting_metric("radial-spherical", 4)
    first = var.interior_bound(imm, metric)
    assert sum(calls.values()) > 0
    calls.clear()
    assert var.interior_bound(imm, metric) == first
    assert sum(calls.values()) == 0


def test_failed_entries_are_not_cached_and_raise_where_they_did(cap_b4):
    """A rim off the domain fails the free-boundary check on every call, while
    the boundary density, which never checked it, still evaluates."""
    imm = sc.build_scenario("cap-disk-b4k2").immersion
    wide = dm.make_domain("ball", 4, radius=2.0)
    X = var.projected_field(imm, np.eye(4)[3])
    for _ in range(2):
        with pytest.raises(InvalidSampleError, match="off the domain boundary"):
            var.second_variation(imm, cap_b4.metric, X, wide)
    assert np.all(np.isfinite(var.t_euclid(imm, X, wide)))


def test_ambient_records_hold_their_immersion_weakly(cap_b4):
    """The cache makes no reference cycle: an immersion is freed by reference
    counting once its last reference goes."""
    imm = sc.build_scenario("cap-disk-b4k2").immersion
    var.second_variation(imm, cap_b4.metric, var.projected_field(imm, np.eye(4)[3]),
                         cap_b4.domain)
    ref = weakref.ref(imm)
    gc.disable()
    try:
        del imm
        assert ref() is None
    finally:
        gc.enable()


def test_certificate_flat(flat_b4, metric_zero4, ball4):
    rep = var.instability_certificate(flat_b4.immersion, metric_zero4, ball4)
    assert rep.verdict == "unstable-certified"
    assert abs(rep.traced_total + 4 * np.pi) < 1e-5 * 4 * np.pi
    assert abs(rep.traced_interior) < 1e-9
    assert rep.ineq2_max <= 1e-12
    assert not rep.failed_hypotheses


def test_certificate_cap(cap_b4):
    rep = var.instability_certificate(cap_b4.immersion, cap_b4.metric, cap_b4.domain)
    assert rep.verdict == "unstable-certified"
    assert abs(rep.traced_total + 8 * np.pi) < 1e-4
    assert abs(rep.traced_boundary) < 1e-7
    assert rep.curvature_min > 0.9
    assert "positive-curvature" in rep.strict_conditions
    assert rep.interior_identity_residual_max < 1e-7


# the registry scenarios the certificate accepts
CERTIFIED = ("flat-disk-b4k2", "flat-disk-b5k2", "flat-disk-b5k3", "flat-disk-b6k3",
             "cap-disk-b4k2", "cap-disk-b5k2", "cap-disk-b5k3", "cap-disk-b6k3",
             "hyperbolic-disk-b4", "radial-custom-disk-b4", "flow-sin-cap-b4",
             "sphere-convexity-b4")


def test_certified_scenarios_are_those_the_certificate_accepts():
    """Every other registry scenario is refused for its dimensions."""
    for name in sorted(set(sc.SCENARIOS) - set(CERTIFIED)):
        built = sc.build_scenario(name)
        with pytest.raises(DimensionError):
            var.instability_certificate(built.immersion, built.metric, built.domain,
                                        var.CertificateConfig(p=built.scenario.p))


@pytest.mark.parametrize("name", CERTIFIED)
def test_q_of_the_rescaled_constants_sums_to_the_traced_total(name):
    """Two independent routes to the certificate's trace: Q(X~_l, X~_l) by
    the direct S/T forms, one rescaled constant X~_l = e^{-u} E_l^perp at a
    time, sums to ``traced_total``, the transformed traced densities."""
    built = sc.build_scenario(name)
    imm, metric, dom = built.immersion, built.metric, built.domain
    rep = var.instability_certificate(imm, metric, dom, var.CertificateConfig(p=built.scenario.p))
    X = var.rescaled_constants(imm, metric)
    fields = [var.NormalField(X.normal[l], X.dperp[l], X.boundary[l]) for l in range(imm.n)]
    results = [var.second_variation(imm, metric, Xl, dom) for Xl in fields]
    assert all(not q.warnings for q in results)
    total = sum(q.value for q in results)
    assert abs(total - rep.traced_total) <= 1e-12 * abs(rep.traced_total)


@pytest.mark.parametrize("name", CERTIFIED)
def test_radial_margins_match_closed_forms_and_the_sweep(name):
    """On a ball of radius R with a radial exponent the convexity report, and
    so the certificate, reads the margins p/R and p e^{-u} (1/R - eta(u)) at
    R e_1, eta(u) read from the field's gradient, with no sweep and no
    polish; they are the sweep's sums at its sample 0 bit for bit, the
    swept and polished margins lie at or below them, and a rotated boundary
    point gives the same sums."""
    built = sc.build_scenario(name)
    dom, field, n = built.domain, built.metric.field, built.scenario.n
    assert dom.phi.radial and field.radial  # every registry certificate is a radial disk
    cfg = var.CertificateConfig(p=built.scenario.p)
    p, R = cfg.p or n - built.scenario.k, built.scenario.domain_spec["radius"]
    report = dm.convexity_report(dom, field, p, cfg.convexity_samples, cfg.seed)
    assert report.route == "radial-exact" and report.n_samples == 1
    assert report.polish_rounds == (0, 0)
    margin_g, margin_gt = report.margin_g, report.margin_gtilde
    rep = var.instability_certificate(built.immersion, built.metric, dom, cfg)
    assert (rep.margin_g, rep.margin_gtilde) == (margin_g, margin_gt)
    x = R * np.eye(n)[0]
    eta_u = -field.gradient(x)[0]
    assert abs(margin_g - p / R) <= 1e-14
    assert abs(margin_gt - p * np.exp(-field.value(x)) * (1.0 / R - eta_u)) <= 1e-14

    def sums(pts):
        kappa, nhat = dm._curvatures_and_normals(dom, pts)
        kappa_gt = dm._rescaled(field, pts, nhat, kappa)[0]
        return np.sum(kappa[:, :p], axis=1), np.sum(kappa_gt[:, :p], axis=1)

    pts = dm.sample_boundary(dom, cfg.convexity_samples, cfg.seed)
    sweep_g, sweep_gt = sums(pts)
    assert (sweep_g[0], sweep_gt[0]) == (margin_g, margin_gt)
    kappa, nhat = dm._curvatures_and_normals(dom, pts)
    (swept_g, _, _), (swept_gt, _, _) = dm._swept_margins(
        dom, p, [None, built.metric], pts, [kappa, dm._rescaled(field, pts, nhat, kappa)[0]])
    assert swept_g <= margin_g + 1e-13
    assert swept_gt <= margin_gt + 1e-13
    q = np.linalg.qr(np.random.default_rng(33).normal(size=(n, n)))[0][:, 0]
    rotated_g, rotated_gt = sums(R * q[None])
    assert abs(rotated_g[0] - margin_g) <= 1e-14
    assert abs(rotated_gt[0] - margin_gt) <= 1e-14


def test_failed_convexity_names_its_kind(ellipsoid_disk_b4):
    """u = -|x|^2 on the unit ball in R^4 gives the rescaled margin
    2 e^{1} (1 - 2) = -2e at every boundary point, read exactly; on a domain
    that is not a ball the failure names the sampled margin."""
    imm = sub.make_immersion("equatorial-disk", n=4, k=2)
    metric = ConformalMetric(make_field("radial-custom", coeffs=[0.0, -1.0]), 4)
    rep = var.instability_certificate(imm, metric, dm.make_domain("ball", 4))
    assert abs(rep.margin_gtilde + 2.0 * np.e) <= 1e-14 * 2.0 * np.e
    assert rep.failed_hypotheses == (
        f"convexity (rescaled): radial-exact margin {rep.margin_gtilde:.3e} < 0",)
    assert rep.verdict == "inconclusive"
    built = sc.build_scenario(ellipsoid_disk_b4)
    rep = var.instability_certificate(built.immersion, built.metric, built.domain)
    assert rep.failed_hypotheses == (
        f"convexity (rescaled): sampled margin {rep.margin_gtilde:.3e} < 0",)
    assert rep.verdict == "inconclusive"


def test_certificate_builds_the_rescaled_constants_once(monkeypatch):
    """The certificate reads the rescaled constants through the public traces;
    the immersion's record builds them once per metric, read-only."""
    built = sc.build_scenario("cap-disk-b5k3")
    imm, metric, dom = built.immersion, built.metric, built.domain
    builds = []
    projected_field = sub.projected_field

    def counted(*args):
        builds.append(args)
        return projected_field(*args)

    monkeypatch.setattr(sub, "projected_field", counted)
    monkeypatch.setattr(var, "projected_field", counted)
    first = var.instability_certificate(imm, metric, dom)
    assert len(builds) == 1
    assert var.instability_certificate(imm, metric, dom).to_dict() == first.to_dict()
    assert len(builds) == 1
    X = var.rescaled_constants(imm, metric)
    assert X is imm.ambient(metric).rescaled_constants
    assert not any(a.flags.writeable for a in vars(X).values())


@pytest.mark.parametrize("name", ["flat-disk-b5k3", "cap-disk-b4k2", "ellipsoid-disk-b4"])
def test_cold_certificate_runs_no_per_sample_lapack(name, monkeypatch, ellipsoid_disk_b4):
    """A cold build and certificate calls ``det`` nowhere and ``eigvalsh``
    only on principal-curvature blocks and on the single companion matrix of
    each Gauss-Legendre rule: no eigensolve of a Gram stack or of the
    curvature operator along the radial axis.  On a ball with a radial
    exponent the curvature blocks are the single one at the margins' point;
    on another domain they are the sweep's, plus the polish's single
    (n-1) x (n-1) model Hessian.  The boundary form is built by matrix
    products, with no ``einsum`` inside it."""
    calls = []

    def counted(routine):
        def call(*args, **kwargs):
            calls.append((routine.__name__, sys._getframe(1).f_code, np.shape(args[0])))
            return routine(*args, **kwargs)
        return call

    for routine in (np.linalg.eigvalsh, np.linalg.det):
        monkeypatch.setattr(np.linalg, routine.__name__, counted(routine))
    monkeypatch.setattr(np, "einsum", counted(np.einsum))
    monkeypatch.setattr(sub, "domain_boundary_form", counted(dm.boundary_form))
    sub._leggauss.cache_clear()
    built = sc.build_scenario(ellipsoid_disk_b4 if name == ellipsoid_disk_b4.name else name)
    var.instability_certificate(built.immersion, built.metric, built.domain)
    n = built.scenario.n
    radial = built.domain.phi.radial and built.metric.field.radial
    lapack = [(caller.co_name, shape) for routine, caller, shape in calls
              if routine in ("eigvalsh", "det")]
    assert {caller for caller, _ in lapack} == (
        {"_curvatures_and_normals", "leggauss"} if radial
        else {"_curvatures_and_normals", "_pattern_search", "leggauss"})
    for caller, shape in lapack:
        if caller == "_pattern_search":
            assert shape == (n - 1, n - 1)
        elif caller == "_curvatures_and_normals":
            assert shape == (1, n - 1, n - 1) if radial else shape[1:] == (n - 1, n - 1)
        else:
            assert len(shape) == 2
    assert [routine for routine, _, _ in calls].count("boundary_form") == 1
    assert not any(caller is dm.boundary_form.__code__ for _, caller, _ in calls)


def test_certificate_hyperbolic_inconclusive():
    built_dom = dm.make_domain("ball", 4, radius=0.5)
    imm = sub.make_immersion("equatorial-disk", n=4, k=2, radius=0.5)
    metric = ConformalMetric(make_field("radial-hyperbolic"), 4)
    rep = var.instability_certificate(imm, metric, built_dom)
    assert rep.verdict == "inconclusive"
    assert any("curvature" in f for f in rep.failed_hypotheses)
    assert rep.traced_total < 0  # sign alone does not certify


class _InteriorDrawn(Exception):
    pass


def test_radial_certificate_draws_no_sobol_points(monkeypatch, ball4):
    """Radial exponents take the curvature minimum along a ray; any other
    exponent still samples the domain interior, at Kronecker points."""
    def refuse(*args):
        raise _InteriorDrawn
    monkeypatch.setattr(var, "_sample_domain_interior", refuse)
    for name in ("cap-disk-b4k2", "flat-disk-b5k3", "hyperbolic-disk-b4"):
        built = sc.build_scenario(name)
        rep = var.instability_certificate(built.immersion, built.metric, built.domain)
        assert rep.verdict == built.scenario.expected["verdict"]["value"]
    imm = sub.make_immersion("equatorial-disk", n=4, k=2, nr=8, ntheta=16)
    for field in (make_field("linear", a=[0.1, 0.0, 0.2, 0.0]),
                  make_field("polynomial", terms=[[0.2, [2, 0, 0, 0]]])):
        with pytest.raises(_InteriorDrawn):
            var.instability_certificate(imm, ConformalMetric(field, 4), ball4)


def test_radial_curvature_check_covers_the_closure():
    """The hypothesis is on the closure: radial-hyperbolic does not exist at
    |x| = 1, so on ball(1) the certificate raises the field's DomainError,
    though the interior Kronecker points alone give a finite minimum of -1."""
    dom = dm.make_domain("ball", 4, radius=1.0)
    field = make_field("radial-hyperbolic")
    imm = sub.make_immersion("equatorial-disk", n=4, k=2, radius=0.5)
    with pytest.raises(DomainError):
        var.instability_certificate(imm, ConformalMetric(field, 4), dom)
    xs = var._sample_domain_interior(dom, 10_000, 0)
    sampled = conformal.min_sectional_curvature(field.value(xs), field.gradient(xs),
                                                field.hessian(xs))
    assert abs(np.min(sampled) + 1.0) < 1e-12


def test_certificate_dimension_gate(ball4, metric_zero4):
    imm = sub.make_immersion("equatorial-disk", n=3, k=2, nr=8, ntheta=16)
    dom3 = dm.make_domain("ball", 3, radius=1.0)
    with pytest.raises(DimensionError):
        var.instability_certificate(imm, ConformalMetric(make_field("zero"), 3), dom3)
    cfg = var.CertificateConfig(p=3)  # k > n - p
    imm4 = sub.make_immersion("equatorial-disk", n=4, k=2, nr=8, ntheta=16)
    with pytest.raises(DimensionError):
        var.instability_certificate(imm4, metric_zero4, ball4, cfg)


def test_certificate_report_serializes(cap_b4):
    rep = var.instability_certificate(cap_b4.immersion, cap_b4.metric, cap_b4.domain)
    doc = rep.to_dict()
    assert doc["verdict"] == "unstable-certified"
    assert doc["schema"] == "fbstab-stability/1"
    assert doc["traced_total"] == rep.traced_interior + rep.traced_boundary
