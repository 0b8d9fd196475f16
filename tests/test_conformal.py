"""Curvature operations of the rescaled metric, checked against an
independent finite-difference Christoffel oracle."""

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import random_orthonormal_pair, riemann_oracle
import oracles
from fbstab import conformal
from fbstab.errors import PreconditionError
from fbstab.fields import ConformalMetric, make_field


def test_connection_correction_zero_field(rng):
    zero = make_field("zero")
    x = rng.normal(size=4)
    out = oracles.connection_correction(zero, x, rng.normal(size=4), rng.normal(size=4))
    assert np.allclose(out, 0.0)


def test_connection_correction_linear_field_closed_form(rng):
    a = np.array([0.4, -0.3, 0.2, 0.6])
    lin = make_field("linear", a=a)
    e1 = np.eye(4)[0]
    for _ in range(5):
        x = rng.normal(size=4)
        out = oracles.connection_correction(lin, x, e1, e1)
        assert np.allclose(out, 2 * a[0] * e1 - a, atol=1e-14)


def test_connection_correction_bilinear(rng):
    field = make_field("radial-custom", coeffs=[0.1, 0.5, -0.2])
    x = rng.uniform(-0.5, 0.5, size=3)
    X, Xp, Y = rng.normal(size=(3, 3))
    lhs = oracles.connection_correction(field, x, X + Xp, Y)
    rhs = oracles.connection_correction(field, x, X, Y) + oracles.connection_correction(
        field, x, Xp, Y
    )
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_connection_correction_equals_christoffel_contraction(rng):
    field = make_field("polynomial", terms=[[0.3, [1, 2, 0]], [-0.2, [0, 1, 1]]])
    x = rng.uniform(-0.5, 0.5, size=3)
    X, Y = rng.normal(size=(2, 3))
    gamma = oracles.christoffel(field, x)
    assert np.allclose(
        oracles.connection_correction(field, x, X, Y),
        np.einsum("cab,a,b->c", gamma, X, Y),
        atol=1e-12,
    )


def test_riemann_trivial_cases(rng):
    zero = make_field("zero")
    x = rng.normal(size=4)
    args = rng.normal(size=(3, 4))
    assert np.allclose(conformal.riemann(zero, x, *args), 0.0)
    field = make_field("radial-spherical")
    X = rng.normal(size=4)
    Z = rng.normal(size=4)
    x = rng.uniform(-0.4, 0.4, size=4)
    assert np.allclose(conformal.riemann(field, x, X, X, Z), 0.0, atol=1e-13)


def test_riemann_antisymmetric_and_multilinear(rng):
    field = make_field("radial-custom", coeffs=[0.0, 0.3, 0.1])
    x = rng.uniform(-0.5, 0.5, size=4)
    X, Y, Z, W = rng.normal(size=(4, 4))
    R = conformal.riemann
    assert np.allclose(R(field, x, X, Y, Z), -R(field, x, Y, X, Z), atol=1e-12)
    assert np.allclose(
        R(field, x, X, Y, Z + 2 * W),
        R(field, x, X, Y, Z) + 2 * R(field, x, X, Y, W),
        atol=1e-11,
    )


@pytest.mark.parametrize("spec", [
    ("radial-custom", {"coeffs": [0.1, 0.4, -0.2]}),
    ("polynomial", {"terms": [[0.25, [2, 0, 0, 1]], [-0.15, [0, 1, 1, 0]], [0.1, [1, 0, 0, 2]]]}),
    ("radial-spherical", {}),
])
def test_riemann_matches_christoffel_oracle(spec, rng):
    field = make_field(spec[0], **spec[1])
    for _ in range(6):
        x = rng.uniform(-0.45, 0.45, size=4)
        X, Y, Z = rng.normal(size=(3, 4))
        got = conformal.riemann(field, x, X, Y, Z)
        want = riemann_oracle(field, x, X, Y, Z)
        assert np.max(np.abs(got - want)) < 5e-6
    # a stacked batch of points and vectors, row by row
    xs = rng.uniform(-0.45, 0.45, size=(6, 4))
    Xs, Ys, Zs = rng.normal(size=(3, 6, 4))
    got = conformal.riemann(field, xs, Xs, Ys, Zs)
    assert got.shape == (6, 4)
    for i in range(6):
        want = riemann_oracle(field, xs[i], Xs[i], Ys[i], Zs[i])
        assert np.max(np.abs(got[i] - want)) < 5e-6


@pytest.mark.parametrize("name,expected", [
    ("radial-spherical", 1.0),
    ("radial-hyperbolic", -1.0),
])
def test_constant_curvature_fields(name, expected, rng):
    field = make_field(name)
    for _ in range(100):
        x = rng.uniform(-0.45, 0.45, size=4)
        X, Y = random_orthonormal_pair(rng, 4)
        assert abs(conformal.sectional_curvature(field, x, X, Y) - expected) < 1e-8


def test_sectional_zero_field(rng):
    zero = make_field("zero")
    X, Y = random_orthonormal_pair(rng, 3)
    assert conformal.sectional_curvature(zero, rng.normal(size=3), X, Y) == 0.0


def test_sectional_symmetric_and_plane_invariant(rng):
    field = make_field("radial-custom", coeffs=[0.0, 0.25, 0.1])
    x = rng.uniform(-0.4, 0.4, size=4)
    X, Y = random_orthonormal_pair(rng, 4)
    k1 = conformal.sectional_curvature(field, x, X, Y)
    assert abs(k1 - conformal.sectional_curvature(field, x, Y, X)) < 1e-12
    for _ in range(5):
        t = rng.uniform(0, 2 * np.pi)
        Xr = np.cos(t) * X + np.sin(t) * Y
        Yr = -np.sin(t) * X + np.cos(t) * Y
        assert abs(conformal.sectional_curvature(field, x, Xr, Yr) - k1) < 1e-9


def test_sectional_consistent_with_riemann_pairing(rng):
    field = make_field("polynomial", terms=[[0.2, [2, 1, 0]], [0.1, [0, 0, 3]]])
    for _ in range(10):
        x = rng.uniform(-0.4, 0.4, size=3)
        X, Y = random_orthonormal_pair(rng, 3)
        fac = np.exp(2 * field.value(x))
        pairing = fac * float(conformal.riemann(field, x, X, Y, X) @ Y)
        denom = fac**2  # rescaled norms of an orthonormal pair
        want = conformal.sectional_curvature(field, x, X, Y)
        assert abs(pairing / denom - want) < 1e-8


def test_sectional_rejects_non_orthonormal(rng):
    field = make_field("zero")
    with pytest.raises(PreconditionError):
        conformal.sectional_curvature(field, np.zeros(3), np.eye(3)[0] * 2.0, np.eye(3)[1])
    with pytest.raises(PreconditionError):
        conformal.sectional_curvature(field, np.zeros(3), np.eye(3)[0], np.eye(3)[0])


def test_volume_scale():
    zero = ConformalMetric(make_field("zero"), 3)
    assert oracles.volume_scale(zero, np.zeros(3), 2) == 1.0
    const = ConformalMetric(make_field("radial-custom", coeffs=[0.7]), 3)
    assert np.isclose(oracles.volume_scale(const, np.ones(3), 2), np.exp(1.4))


def test_volume_scale_integrates_to_hemisphere_area():
    # independent 1-d radial quadrature of the rescaled disk area
    integral, _ = quad(lambda r: (2.0 / (1 + r * r)) ** 2 * r, 0.0, 1.0)
    assert abs(2 * np.pi * integral - 2 * np.pi) < 1e-10
    metric = ConformalMetric(make_field("radial-spherical"), 4)
    rs = np.linspace(0.05, 0.95, 19)
    xs = np.zeros((rs.size, 4))
    xs[:, 0] = rs
    assert np.allclose(oracles.volume_scale(metric, xs, 2), (2.0 / (1 + rs**2)) ** 2)


_KMIN_FIELDS = [
    ("radial-custom", {"coeffs": [0.1, 0.3, -0.15]}),
    ("polynomial", {"terms": [[0.3, [4, 0, 0, 0]], [-0.2, [0, 2, 2, 0]], [0.15, [1, 1, 0, 2]]]}),
]


def kmin_at(field, xs):
    """``conformal.min_sectional_curvature`` from the field's samples at xs."""
    return conformal.min_sectional_curvature(field.value(xs), field.gradient(xs),
                                             field.hessian(xs))


@pytest.mark.parametrize("spec", _KMIN_FIELDS)
def test_min_sectional_curvature_attained_by_oracle(spec, rng):
    """The plane of the two lowest eigenvectors of grad u grad u^T - Hess u
    has curvature K_min under the finite-difference Christoffel oracle."""
    field = make_field(spec[0], **spec[1])
    xs = rng.uniform(-0.45, 0.45, size=(24, 4))
    kmin = kmin_at(field, xs)
    assert kmin.shape == (24,)
    for x, want in zip(xs, kmin):
        g = field.gradient(x)
        _, vecs = np.linalg.eigh(np.outer(g, g) - field.hessian(x))
        X, Y = vecs[:, 0], vecs[:, 1]
        got = np.exp(-2 * field.value(x)) * float(riemann_oracle(field, x, X, Y, X) @ Y)
        assert abs(got - want) < 5e-6


@pytest.mark.parametrize("spec", _KMIN_FIELDS)
def test_min_sectional_curvature_below_random_planes(spec, rng):
    field = make_field(spec[0], **spec[1])
    xs = rng.uniform(-0.45, 0.45, size=(24, 4))
    kmin = kmin_at(field, xs)
    for x, lo in zip(xs, kmin):
        Q, _ = np.linalg.qr(rng.normal(size=(2000, 4, 2)))
        X, Y = Q[:, :, 0], Q[:, :, 1]
        u, g, h = field.value(x), field.gradient(x), field.hessian(x)
        # the formula of conformal.sectional_curvature, over all planes at once
        K = np.exp(-2 * u) * ((X @ g) ** 2 + (Y @ g) ** 2 - g @ g
                              - np.einsum("pi,ij,pj->p", X, h, X)
                              - np.einsum("pi,ij,pj->p", Y, h, Y))
        assert abs(K[0] - conformal.sectional_curvature(field, x, X[0], Y[0])) < 1e-12
        assert np.min(K) >= lo - 1e-12


def test_min_sectional_curvature_constant_curvature(rng):
    xs = rng.uniform(-0.45, 0.45, size=(50, 4))
    sphere = kmin_at(make_field("radial-spherical"), xs)
    hyper = kmin_at(make_field("radial-hyperbolic"), xs)
    assert np.max(np.abs(sphere - 1.0)) < 1e-12
    assert np.max(np.abs(hyper + 1.0)) < 1e-12
    assert np.all(kmin_at(make_field("zero"), xs) == 0.0)


def test_certificate_curvature_min_is_the_exact_minimum():
    """The exponent is radial, so the certificate takes the minimum along a
    ray over [0, R].  It lies at the centre: s = 0, p' = 0.3, p'' = -0.3,
    K = -4 p' e^{-2p} = -1.2 e^{-0.2}.  10,000 interior points give -0.978051."""
    from fbstab import scenarios, variation

    built = scenarios.build_scenario("radial-custom-disk-b4")
    report = variation.instability_certificate(built.immersion, built.metric, built.domain)
    assert abs(report.curvature_min + 1.2 * np.exp(-0.2)) <= 1e-14
    assert report.curvature_min <= -0.98247
    assert report.failed_hypotheses == (
        f"curvature: radial-1d min {report.curvature_min:.3e} < 0",)


def test_certificate_curvature_min_interior_minimum():
    """p(s) = -s + 1.5 s^2 on B^4: K(s) = e^{-2p} (4 - 24 s), least at
    r = sqrt(2/3) inside the interval, where p = 0, p' = 1, p'' = 3 and
    K = -12.  Interior sampling stops short of it."""
    from fbstab import domain, submanifold, variation

    dom = domain.make_domain("ball", 4, radius=1.0)
    field = make_field("radial-custom", coeffs=[0.0, -1.0, 1.5])
    imm = submanifold.make_immersion("equatorial-disk", n=4, k=2)
    report = variation.instability_certificate(imm, ConformalMetric(field, 4), dom)
    assert abs(report.curvature_min + 12.0) <= 1e-12
    xs = variation._sample_domain_interior(dom, 10_000, 0)
    assert np.min(kmin_at(field, xs)) > -12.0 + 1e-10


SPACE_FORMS = [
    *((f"cap-disk-b{n}k{k}", 1.0) for n, k in ((4, 2), (5, 2), (5, 3), (6, 3))),
    *((f"flat-disk-b{n}k{k}", 0.0) for n, k in ((4, 2), (5, 2), (5, 3), (6, 3))),
    ("hyperbolic-disk-b4", -1.0),
]


@pytest.mark.parametrize("name,want", SPACE_FORMS)
def test_certificate_curvature_min_constant_curvature(name, want):
    from fbstab import scenarios, variation

    built = scenarios.build_scenario(name)
    report = variation.instability_certificate(built.immersion, built.metric, built.domain)
    if want == 0.0:
        assert report.curvature_min == 0.0
    else:
        assert abs(report.curvature_min - want) <= 1e-14


@pytest.mark.parametrize("name,K", SPACE_FORMS)
def test_curvature_normal_of_a_space_form(name, K):
    """Where every sectional curvature is K, sum_i <R(X, v_i)X, v_i> = K k
    e^{2u} |X|^2 in the Euclidean pairing, so the record's closed-form
    operator on the normal frame is K k e^{2u} I_q, to round-off."""
    from fbstab import scenarios

    built = scenarios.build_scenario(name)
    imm = built.immersion
    record = imm.ambient(built.metric)
    q = imm.n - imm.k
    want = K * imm.k * np.exp(2.0 * record.u) * np.eye(q)[:, :, None]
    assert record.curvature_normal.shape == (q, q, imm.n_interior)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(record.curvature_normal - want)) <= 1e-14 * scale


def test_radial_minimum_is_below_the_sampled_minimum():
    """On every registry scenario with a radial exponent, the 1-d minimum
    over the closure's radii is no higher than the sampled interior minimum."""
    from fbstab import scenarios, variation

    cases = 0
    for name in scenarios.SCENARIOS:
        built = scenarios.build_scenario(name)
        field, dom = built.metric.field, built.domain
        if not field.radial:
            continue
        ray = conformal.radial_min_sectional_curvature(field, dom.n, dom.bounding_radius)
        for seed in (0, 1, 2):
            xs = variation._sample_domain_interior(dom, 10_000, seed)
            assert ray <= np.min(kmin_at(field, xs)) + 1e-12, (name, seed)
        cases += 1
    assert cases >= 10


RADIAL_FIELDS = [
    ("zero", {}, 2.0),
    ("radial-spherical", {}, 2.0),
    ("radial-hyperbolic", {}, 0.999),
    ("radial-custom", {"coeffs": [0.1, 0.3, -0.15]}, 1.5),
    ("radial-custom", {"coeffs": [0.0, -1.0, 1.5]}, 1.5),
]


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("spec", RADIAL_FIELDS, ids=[
    "zero", "radial-spherical", "radial-hyperbolic", "radial-custom", "radial-custom-interior"])
def test_axis_minimum_is_the_eigenvalue_minimum(spec, n, rng):
    """On the axis r e_1 the sorted diagonal of grad u grad u^T - Hess u is
    its spectrum: the radial minimum's kernel equals
    ``min_sectional_curvature`` bit for bit, at the grid radii, random
    radii and both ends."""
    name, params, radius = spec
    field = make_field(name, **params)
    r = np.concatenate([np.linspace(0.0, radius, conformal.RADIAL_GRID),
                        rng.uniform(0.0, radius, 256)])
    x = np.zeros((len(r), n))
    x[:, 0] = r
    assert np.array_equal(conformal._axis_min_sectional_curvature(field, n, r), kmin_at(field, x))
