"""Field catalog: values, derivatives, modes and the rescaled metric."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from fbstab.domain import make_domain
from fbstab.errors import ConfigError, DomainError
from fbstab.fields import FIELD_NAMES, ConformalMetric, ScalarField, make_field


def fd_check(field, xs, tol_g=1e-6, tol_h=1e-4):
    """Cross-check analytic derivatives against central differences."""
    fd = ScalarField.finite_difference(field.value_fn, step=1e-5)
    assert np.max(np.abs(fd.gradient(xs) - field.gradient(xs))) < tol_g
    assert np.max(np.abs(fd.hessian(xs) - field.hessian(xs))) < tol_h


@pytest.mark.parametrize("name,params", [
    ("zero", {}),
    ("linear", {"a": [0.3, -0.2, 0.5]}),
    ("radial-spherical", {}),
    ("radial-hyperbolic", {}),
    ("radial-custom", {"coeffs": [0.2, -0.4, 0.1]}),
    ("polynomial", {"terms": [[0.5, [2, 0, 1]], [-0.3, [1, 1, 1]], [0.2, [0, 3, 0]]]}),
])
def test_catalog_derivatives_match_finite_differences(name, params, rng):
    field = make_field(name, **params)
    xs = rng.uniform(-0.5, 0.5, size=(30, 3))
    fd_check(field, xs)


def test_analytic_hessian_symmetric(rng):
    field = make_field("polynomial", terms=[[1.0, [2, 1, 0]], [0.5, [0, 1, 3]]])
    xs = rng.uniform(-1, 1, size=(10, 3))
    h = field.hessian(xs)
    assert np.max(np.abs(h - np.swapaxes(h, -1, -2))) < 1e-12


@pytest.mark.parametrize("field", [
    make_field("zero"),
    make_field("linear", a=[0.3, -0.2, 0.5, 0.1]),
    make_field("radial-spherical"),
    make_field("radial-hyperbolic"),
    make_field("radial-custom", coeffs=[0.2, -0.4, 0.1]),
    make_domain("ellipsoid", 4, semi_axes=[1.2, 1.0, 0.8, 0.7]).phi,
    make_domain("superellipsoid", 4, exponent=3).phi,
], ids=["zero", "linear", "radial-spherical", "radial-hyperbolic", "radial-custom",
        "ellipsoid-phi", "superellipsoid-phi"])
def test_catalog_hessians_are_bitwise_symmetric(field):
    """``ScalarField.hessian`` passes analytic Hessians through unsymmetrised,
    so every catalog ``hess_fn`` must be symmetric to the last bit.  The
    points come from a generator of the test's own, inside the unit ball
    where ``radial-hyperbolic`` is defined, so the outcome does not depend on
    which tests ran first."""
    xs = np.random.default_rng(52).uniform(-0.45, 0.45, size=(1000, 4))
    h = field.hessian(xs)
    assert field.step == 0.0
    assert np.array_equal(h, np.swapaxes(h, -1, -2))


def test_fd_hessian_symmetric():
    fd = ScalarField.finite_difference(lambda x: np.sin(x[..., 0] * x[..., 1]), step=1e-5)
    h = fd.hessian(np.array([0.3, 0.7]))
    assert np.max(np.abs(h - h.T)) <= 10 * fd.step


def test_fd_reproduces_analytic_on_polynomial(rng):
    # truncation-dominated step: error <= 100 h^2 (at the default step the
    # second-difference roundoff floor eps/h^2 exceeds that bound)
    exact = make_field("polynomial", terms=[[0.3, [3, 0]], [-0.2, [1, 2]]])
    xs = rng.uniform(-1, 1, size=(15, 2))
    h = 1e-4
    fd = ScalarField.finite_difference(exact.value_fn, step=h)
    err = max(
        np.max(np.abs(fd.gradient(xs) - exact.gradient(xs))),
        np.max(np.abs(fd.hessian(xs) - exact.hessian(xs))),
    )
    assert err <= 100 * h**2


def test_radial_fields_values():
    sph = make_field("radial-spherical")
    hyp = make_field("radial-hyperbolic")
    x = np.array([0.6, 0.0, 0.0])
    assert np.isclose(sph.value(x), np.log(2.0 / (1 + 0.36)))
    assert np.isclose(hyp.value(x), np.log(2.0 / (1 - 0.36)))
    assert np.isclose(sph.value(np.zeros(3)), np.log(2.0))


_CATALOG_PARAMS = {
    "zero": {},
    "linear": {"a": [0.3, -0.2, 0.5, 0.1]},
    "radial-spherical": {},
    "radial-hyperbolic": {},
    "radial-custom": {"coeffs": [0.2, -0.4, 0.1, 0.3]},
    "polynomial": {"terms": [[0.5, [2, 0, 0, 0]], [0.5, [0, 2, 0, 0]],
                             [0.5, [0, 0, 2, 0]], [0.5, [0, 0, 0, 2]]]},
}


def test_radial_fields_are_rotation_invariant(rng):
    """A field that declares ``radial`` satisfies u(Qx) = u(x), grad u(Qx) =
    Q grad u(x) and Hess u(Qx) = Q Hess u(x) Q^T for orthogonal Q; the
    linear, polynomial (even a rotation-invariant one) and finite-difference
    fields do not declare it."""
    assert set(_CATALOG_PARAMS) == set(FIELD_NAMES)
    xs = rng.uniform(-0.4, 0.4, size=(200, 4))
    Qs, _ = np.linalg.qr(rng.normal(size=(200, 4, 4)))
    Qxs = np.einsum("pij,pj->pi", Qs, xs)
    for name, params in _CATALOG_PARAMS.items():
        field = make_field(name, **params)
        assert field.radial == (name not in ("linear", "polynomial")), name
        assert not ScalarField.finite_difference(field.value_fn).radial
        if not field.radial:
            continue
        g = np.einsum("pij,pj->pi", Qs, field.gradient(xs))
        h = Qs @ field.hessian(xs) @ np.swapaxes(Qs, -1, -2)
        assert np.max(np.abs(field.value(Qxs) - field.value(xs))) <= 1e-13, name
        assert np.max(np.abs(field.gradient(Qxs) - g)) <= 1e-13, name
        assert np.max(np.abs(field.hessian(Qxs) - h)) <= 1e-13, name


def test_hyperbolic_outside_domain_raises():
    hyp = make_field("radial-hyperbolic")
    with pytest.raises(DomainError):
        hyp.value(np.array([1.0, 0.2]))
    with pytest.raises(DomainError):
        hyp.gradient(np.array([[0.1, 0.0], [1.2, 0.0]]))


def test_unknown_names_raise():
    with pytest.raises(ConfigError):
        make_field("no-such-field")


def test_metric_positive_and_scales(rng):
    metric = ConformalMetric(make_field("radial-spherical"), 3)
    for _ in range(20):
        x = rng.uniform(-0.5, 0.5, size=3)
        X = rng.normal(size=3)
        want = np.exp(2 * metric.field.value(x)) * (X @ X)
        assert np.isclose(oracles.metric_inner(metric, x, X, X), want)
        if np.linalg.norm(X) > 1e-12:
            assert oracles.metric_inner(metric, x, X, X) > 0
    assert np.isclose(oracles.volume_scale(metric, np.zeros(3), 2), 4.0)


def test_euclidean_metric_is_identity_scale(rng):
    metric = oracles.euclidean_metric(5)
    x = rng.normal(size=5)
    assert metric.factor(x) == 1.0


def test_batched_evaluation_shapes():
    field = make_field("radial-custom", coeffs=[0.0, 1.0])
    xs = np.zeros((4, 7, 3))
    assert field.value(xs).shape == (4, 7)
    assert field.gradient(xs).shape == (4, 7, 3)
    assert field.hessian(xs).shape == (4, 7, 3, 3)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=3, max_size=3),
       st.lists(st.floats(-0.9, 0.9), min_size=3, max_size=3))
def test_linear_field_gradient_is_constant(a, x):
    field = make_field("linear", a=a)
    assert np.allclose(field.gradient(np.array(x)), a)
    assert np.allclose(field.hessian(np.array(x)), 0.0)


@pytest.mark.parametrize("terms", [
    [[1 / a**2, [2 if j == i else 0 for j in range(4)]] for i, a in enumerate([2, 1.2, 1, 0.9])]
    + [[-1.0, [0, 0, 0, 0]]],
    [[1.0, [4 if j == i else 0 for j in range(5)]] for i in range(5)] + [[-1.0, [0] * 5]],
    [[0.3, [1, 2, 0]], [-0.2, [0, 1, 1]], [0.7, [3, 0, 1]], [1.1, [0, 0, 0]],
     [-0.4, [2, 2, 2]], [0.0, [1, 1, 1]], [0.25, [1, 2, 0]]],
    [[2.0, [0, 0]]],
])
def test_polynomial_matches_term_loop_bitwise(terms, rng):
    """The stacked evaluation adds the loop's products in the loop's order."""
    field = make_field("polynomial", terms=terms)
    n = len(terms[0][1])
    for shape in [(n,), (7, n), (3, 5, n), (200, n)]:
        x = rng.normal(size=shape)
        for got, want in zip((field.value_fn, field.grad_fn, field.hess_fn),
                             oracles.polynomial_loop(terms)):
            assert got(x).shape == want(x).shape
            assert got(x).tobytes() == want(x).tobytes()
