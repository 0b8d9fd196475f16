"""Batched matrix-product kernels against their einsum statements, the
geometry record's layout (frames and forms sample-last, every array
C-contiguous and read-only), the stacked second-variation forms and traces
against the sample-first statements over ambient vectors, the contracted
curvature form against the Christoffel oracle and its expanded statement,
the tangent-traced curvature operator and its normal-frame entry against
the form, the projected constants against their ``tensordot`` statement and
the direct rescaled boundary density against its unfused statement, the
layout of the operators the second variation reads, the Gram-eigenvalue
conditioning check, the k = 3 invariant screen against the eigenvalue rule
and the k = 3 cofactor determinant against ``det``."""

import dataclasses

import numpy as np
import pytest

import oracles
from conftest import riemann_oracle
from fbstab import conformal
from fbstab import domain as dm
from fbstab import submanifold as sub
from fbstab import variation as var
from fbstab.errors import DegenerateSampleError, PreconditionError
from fbstab.fields import ConformalMetric, make_field
from fbstab.scenarios import SCENARIOS, build_scenario

# max |kernel - einsum| over max(1, max |einsum|)
KERNEL_RTOL = 1e-13

RANDOM_GRAPHS = [(k, n, seed) for k in (2, 3) for n in (4, 5, 6) for seed in (0, 1)]


def _close(got, want):
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    return float(np.max(np.abs(got - want), initial=0.0)) <= KERNEL_RTOL * scale


def _random_basis(n, seed):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    return Q.T


def _check_layout(imm):
    """Frame and form components end in their sample axis, m or mb; H is a
    vector of R^n per sample, (m, n).  Every array of the record and the
    Jacobian factor is C-contiguous and read-only: an in-place write raises."""
    geo = imm.geometry()
    m, mb, n, k = imm.n_interior, imm.n_boundary, imm.n, imm.k
    q = n - k
    arrays = {f.name: getattr(geo, f.name) for f in dataclasses.fields(geo)}
    assert {name: a.shape for name, a in arrays.items()} == {
        "tangent": (k, n, m), "normal": (q, n, m), "alpha": (k, k, q, m),
        "alpha_gram": (q, q, m), "H": (m, n), "b_normal": (q, n, mb)}
    for a in (*arrays.values(), imm.jacobian_factor):
        assert a.flags.c_contiguous and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0


def _check_geometry(imm):
    alpha, H, jac = oracles.geometry_einsum(imm)
    geo = imm.geometry()
    _check_layout(imm)
    assert _close(sub._first(geo.alpha), alpha)
    assert _close(geo.H, H)
    assert _close(imm.jacobian_factor, jac)


def _check_interior(imm, metric, basis=None):
    """The stacked S-forms over the projected constants of a basis, and the
    traces, against the sample-first statements."""
    geo = oracles.geometry_first(imm)
    X = var.projected_field(imm, var._basis(imm.n, basis))
    terms = oracles.s_euclid_terms_einsum(
        geo.alpha, oracles.in_basis(geo.tangent, basis), oracles.in_basis(geo.normal, basis))
    assert _close(var.s_euclid(imm, X), terms.T)
    assert _close(var.trace_s_euclid(imm, basis), np.sum(terms, axis=1))
    values, residuals = var.traced_interior_density(imm, metric, basis)
    want_values, want_residuals = oracles.traced_interior_density_einsum(imm, metric, basis)
    assert _close(values, want_values)
    assert _close(residuals, want_residuals)
    V, dperp, _ = oracles.ambient_field(imm, X)
    got = var.s_tilde_direct(imm, X, metric)
    for l in range(imm.n):
        assert _close(got[l], oracles.s_tilde_direct_einsum(imm, V[l], dperp[l], metric))


def _check_projection(imm):
    """``projected_field`` is the ``tensordot`` statement bit for bit, and
    C-contiguous, for a unit vector, the identity, a random orthonormal
    basis and a (2, n, n) stack.  One dense vector is a vector-matrix
    product, which BLAS blocks differently over the k m columns
    ``tensordot`` multiplies and the m columns of each frame block, so it is
    held to round-off."""
    def pairs(E):
        X = var.projected_field(imm, E)
        return zip((X.normal, X.dperp, X.boundary), oracles.projected_field_tensordot(imm, E))

    n, B = imm.n, _random_basis(imm.n, 3)
    for E in (np.eye(n)[-1], np.eye(n), B, np.stack([B, B.T])):
        for got, want in pairs(E):
            assert got.flags.c_contiguous and np.array_equal(got, want)
    for got, want in pairs(B[0]):
        assert got.flags.c_contiguous and _close(got, want)


def _check_rim(imm, metric, domain, basis=None):
    """The direct rescaled boundary density of the projected and of the
    rescaled constants of a basis against its unfused statement; the
    tangency check is not part of the statement, so the form skips it."""
    B = var._basis(imm.n, basis)
    for X in (var.projected_field(imm, B), var.rescaled_constants(imm, metric, basis)):
        assert _close(var.t_tilde_direct(imm, X, metric, domain, tangency_tol=np.inf),
                      oracles.t_tilde_direct_einsum(imm, X, metric, domain))


def _check_operator_layout(imm, metric, domain):
    """The operators Q(X, X) reads, A + G~ (q, q, m) and the conformal
    boundary form (q, q, mb), are sample-last, C-contiguous and read-only,
    and a second Q on the same immersion builds no entry of either record."""
    var.second_variation(imm, metric, var.projected_field(imm, np.eye(imm.n)[0]), domain)
    records = imm.ambient(metric), imm.ambient(metric, domain)
    q = imm.n - imm.k
    for a, m in ((records[0].s_operator, imm.n_interior), (records[1].t_operator, imm.n_boundary)):
        assert a.shape == (q, q, m) and a.flags.c_contiguous and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0
    built = [dict(vars(r)) for r in records]
    var.second_variation(imm, metric, var.projected_field(imm, np.eye(imm.n)[-1]), domain)
    for r, before in zip(records, built):
        assert vars(r).keys() == before.keys()
        assert all(vars(r)[key] is a for key, a in before.items())


def _check_tangent_curvature(imm, metric, seed):
    """A is symmetric and V^T A V = sum_i <R(V, v_i)V, v_i>, for the
    projected constant fields and for a field that is not normal; the
    record's normal-frame entries of A and Hess u give V^T A V and Hess u(V,
    V) from the projected fields' components."""
    record = imm.ambient(metric)
    T = oracles.geometry_first(imm).tangent
    A = oracles.tangent_curvature(record.grad, record.hess, T)
    assert np.array_equal(A, np.swapaxes(A, 1, 2))
    X = var.projected_field(imm, np.eye(imm.n))
    V = oracles.ambient_field(imm, X)[0]
    fields = list(V)
    fields.append(np.random.default_rng(seed).normal(size=(imm.n_interior, imm.n)))
    for V in fields:
        want = np.sum(conformal.curvature_form(record.grad, record.hess, V[:, None], T,
                                               V[:, None], T), axis=1)
        assert _close(np.einsum("mn,mnp,mp->m", V, A, V), want)
    for entry, S in ((record.curvature_normal, A), (record.hess_normal, record.hess)):
        assert _close(np.einsum("lrm,rsm,lsm->lm", X.normal, entry, X.normal),
                      np.einsum("lmn,mnp,lmp->lm", fields[:-1], S, fields[:-1]))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_registry_kernels_match_einsum(name):
    built = build_scenario(name)
    imm, metric = built.immersion, built.metric
    _check_geometry(imm)
    _check_interior(imm, metric)
    _check_interior(imm, metric, _random_basis(imm.n, 3))
    _check_tangent_curvature(imm, metric, 3)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_registry_projection_and_rim_match_their_statements(name):
    built = build_scenario(name)
    imm, metric, domain = built.immersion, built.metric, built.domain
    assert imm.n_boundary
    _check_projection(imm)
    _check_rim(imm, metric, domain)
    _check_rim(imm, metric, domain, _random_basis(imm.n, 3))
    _check_operator_layout(imm, metric, domain)


def _polynomial_metric(n):
    """A polynomial exponent with non-zero gradient and Hessian."""
    return ConformalMetric(make_field("polynomial", terms=[
        [0.2, [1] + [0] * (n - 1)], [-0.3, [0, 2] + [0] * (n - 2)],
        [0.1, [1, 0, 1] + [0] * (n - 3)],
    ]), n)


@pytest.mark.parametrize("k,n,seed", RANDOM_GRAPHS)
def test_random_graph_kernels_match_einsum(k, n, seed):
    imm = sub.make_immersion("random-graph", n=n, k=k, seed=seed, degree=3)
    _check_geometry(imm)
    metric = _polynomial_metric(n)
    _check_interior(imm, metric)
    _check_interior(imm, metric, _random_basis(n, seed))
    _check_tangent_curvature(imm, metric, seed)


@pytest.mark.parametrize("k,n,seed", RANDOM_GRAPHS)
def test_random_graph_projection_matches_tensordot(k, n, seed):
    """The random graphs have no rim, so Q reads only the interior operator."""
    imm = sub.make_immersion("random-graph", n=n, k=k, seed=seed, degree=3)
    _check_projection(imm)
    _check_operator_layout(imm, _polynomial_metric(n), dm.make_domain("ball", n, radius=2.0))


CHART_GRAPHS = {
    "polar-b4": lambda: sub._ball_graph(2, 1.3, sub._poly_graph(4, 2, [
        [[0.25, [2, 0]], [0.25, [0, 2]], [-0.4, [2, 1]]], [[0.3, [1, 2]], [-0.2, [0, 1]]],
    ]), 6, 12),
    "spherical-b5": lambda: sub._ball_graph(3, 1.3, sub._poly_graph(5, 3, [
        [[0.25, [2, 0, 0]], [0.25, [0, 2, 0]], [-0.4, [1, 1, 1]]],
        [[0.3, [0, 0, 3]], [0.1, [1, 0, 0]], [0.2, [0, 1, 2]]],
    ]), 4, 8, 4),
    "paraboloid-cap": lambda: sub.make_immersion("paraboloid-cap", n=4, curvature=0.7),
    "cube-k2": lambda: sub.make_immersion("random-graph", n=5, k=2, seed=3, degree=3),
    "cube-k3": lambda: sub.make_immersion("random-graph", n=6, k=3, seed=4, degree=3),
}


@pytest.mark.parametrize("name", sorted(CHART_GRAPHS))
def test_chart_chain_rule_and_gram_match_einsum(name, monkeypatch):
    """Every chain rule of a polynomial graph's build, interior and rim,
    matches its sample-first statement, and so does the conditioning check's
    Gram of each Jacobian.  The graphs are curved: a flat disk has D^2 psi =
    0 and D psi = 0 and cannot see a wrong subscript."""
    chain_rule, calls = sub._graph_over_chart, []

    def compared(*args):
        got = chain_rule(*args)
        calls.append((got, oracles.graph_over_chart_einsum(*args)))
        return got

    monkeypatch.setattr(sub, "_graph_over_chart", compared)
    CHART_GRAPHS[name]()
    assert calls
    for (x, J, H), (want_x, want_J, want_H) in calls:
        assert np.array_equal(x, want_x)
        assert _close(J, want_J) and _close(H, want_H)
        assert J.flags.c_contiguous and H.flags.c_contiguous
        assert np.max(np.abs(want_H[:, :, J.shape[1]:])) > 0.1
        assert _close(sub._check_conditioning(J, "interior"), oracles.gram_matmul(J))


@pytest.mark.parametrize("name", ["polar-b4", "spherical-b5", "paraboloid-cap"])
def test_curved_rim_matches_its_statement(name):
    """Curved graphs with a rim under the polynomial exponent: eta(u) and
    e^{u} vary along the rim.  The rim need not lie on the domain boundary,
    as the statement checks no tangency."""
    imm = CHART_GRAPHS[name]()
    metric, domain = _polynomial_metric(imm.n), dm.make_domain("ball", imm.n, radius=2.0)
    assert imm.n_boundary
    _check_projection(imm)
    _check_rim(imm, metric, domain)
    _check_rim(imm, metric, domain, _random_basis(imm.n, 4))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_traced_boundary_density_matches_einsum(name):
    """Where the projected constants are tangent to the domain boundary the
    traced boundary density matches its statement; elsewhere it refuses."""
    built = build_scenario(name)
    imm, metric, dom = built.immersion, built.metric, built.domain
    for basis in (None, _random_basis(imm.n, 5)):
        want_values, want_residuals, tangency = oracles.traced_boundary_density_einsum(
            imm, metric, dom, basis)
        if np.max(tangency) > var.TANGENCY_TOL:
            with pytest.raises(PreconditionError, match="not tangent"):
                var.traced_boundary_density(imm, metric, dom, basis=basis)
            continue
        values, residuals = var.traced_boundary_density(imm, metric, dom, basis=basis)
        assert _close(values, want_values)
        assert _close(residuals, want_residuals)


CURVATURE_FIELDS = [
    ("radial-custom", {"coeffs": [0.1, 0.4, -0.2]}),
    ("polynomial", {"terms": [[0.25, [2, 0, 0, 1]], [-0.15, [0, 1, 1, 0]], [0.1, [1, 0, 0, 2]]]}),
    ("radial-spherical", {}),
]


def _curvature_args(seed, m=6, j=3, n=4):
    """Points (m, n) and vectors X, Y, Z, W (m, j, n), X with j = 1."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-0.45, 0.45, size=(m, n))
    X = rng.normal(size=(m, 1, n))
    Y, Z, W = rng.normal(size=(3, m, j, n))
    return xs, X, Y, Z, W


def _samples(field, xs):
    """grad u and Hess u at the points, the samples ``curvature_form`` takes."""
    return field.gradient(xs), field.hessian(xs)


@pytest.mark.parametrize("spec", CURVATURE_FIELDS, ids=[s[0] for s in CURVATURE_FIELDS])
def test_curvature_form_matches_christoffel_oracle(spec):
    field = make_field(spec[0], **spec[1])
    xs, X, Y, Z, W = _curvature_args(11)
    got = conformal.curvature_form(*_samples(field, xs), X, Y, Z, W)
    assert got.shape == Y.shape[:2]
    for i in range(xs.shape[0]):
        for j in range(Y.shape[1]):
            want = riemann_oracle(field, xs[i], X[i, 0], Y[i, j], Z[i, j]) @ W[i, j]
            assert abs(got[i, j] - want) < 5e-6


@pytest.mark.parametrize("spec", CURVATURE_FIELDS, ids=[s[0] for s in CURVATURE_FIELDS])
def test_curvature_form_matches_expanded_statement(spec):
    field = make_field(spec[0], **spec[1])
    for seed in (14, 15):
        xs, X, Y, Z, W = _curvature_args(seed)
        samples = _samples(field, xs)
        assert _close(conformal.curvature_form(*samples, X, Y, Z, W),
                      oracles.curvature_form_expanded(*samples, X, Y, Z, W))


@pytest.mark.parametrize("spec", CURVATURE_FIELDS, ids=[s[0] for s in CURVATURE_FIELDS])
def test_curvature_form_symmetries(spec):
    field = make_field(spec[0], **spec[1])
    xs, X, Y, Z, W = _curvature_args(12)
    form = conformal.curvature_form(*_samples(field, xs), X, Y, Z, W)
    scale = max(1.0, float(np.max(np.abs(form))))

    def close(a, b):
        return np.max(np.abs(a - b)) <= KERNEL_RTOL * scale

    assert close(conformal.curvature_form(*_samples(field, xs), Y, X, Z, W), -form)
    assert close(conformal.curvature_form(*_samples(field, xs), X, Y, W, Z), -form)
    assert close(conformal.curvature_form(*_samples(field, xs), Z, W, X, Y), form)


@pytest.mark.parametrize("spec", CURVATURE_FIELDS, ids=[s[0] for s in CURVATURE_FIELDS])
def test_riemann_is_the_form_against_the_axes(spec):
    field = make_field(spec[0], **spec[1])
    xs, X, Y, Z, _ = _curvature_args(13, j=1)
    m, _, n = X.shape
    axes = np.broadcast_to(np.eye(n), (m, n, n))
    want = conformal.curvature_form(*_samples(field, xs), X, Y, Z, axes)
    assert np.array_equal(conformal.riemann(field, xs, X[:, 0], Y[:, 0], Z[:, 0]), want)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_upper_inverse_matches_lapack(k):
    rng = np.random.default_rng(k)
    R = np.triu(rng.normal(size=(50, k, k)), 1) + rng.uniform(0.5, 2.0, size=(50, k, 1)) * np.eye(k)
    X = sub._first(sub._upper_inverse(sub._last(R)))
    assert np.array_equal(X, np.triu(X))
    assert _close(X, np.linalg.inv(R))
    assert _close(R @ X, np.broadcast_to(np.eye(k), R.shape))


def _jacobian(n, k, cond, seed=0):
    """An n x k Jacobian with cond(J^T J) = cond: orthonormal columns scaled
    by 1 and cond^-1/2."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, k)))
    return Q * np.array([1.0] + [cond**-0.5] * (k - 1))


@pytest.mark.parametrize("k", [2, 3])
def test_conditioning_limit(k):
    ok = np.stack([_jacobian(4, k, 0.5 * sub.COND_LIMIT, s) for s in range(4)])
    sub._check_conditioning(sub._last(ok), "interior")
    bad = np.stack([ok[0], ok[1], _jacobian(4, k, 2.0 * sub.COND_LIMIT), ok[2]])
    with pytest.raises(DegenerateSampleError, match="interior sample 2: .* exceeds 1e"):
        sub._check_conditioning(sub._last(bad), "interior")


@pytest.mark.parametrize("k", [2, 3])
def test_conditioning_rejects_rank_deficient(k):
    zero_column = np.zeros((1, 5, k))
    zero_column[0, :, :k - 1] = np.eye(5)[:, :k - 1]
    with pytest.raises(DegenerateSampleError, match="boundary sample 0 has rank-deficient"):
        sub._check_conditioning(sub._last(zero_column), "boundary")
    parallel = _jacobian(4, k, 1.0)[None]
    parallel[0, :, 1] = 2.0 * parallel[0, :, 0]
    with pytest.raises(DegenerateSampleError):
        sub._check_conditioning(sub._last(parallel), "interior")


def _spectrum(Js, det=False):
    """``_gram_spectrum`` of the Gram of a sample-first stack of Jacobians."""
    return sub._gram_spectrum(sub._gram(sub._last(Js)), det)


@pytest.mark.parametrize("cond", [1.0, 1e2, 1e4, 1e6, 1e8])
def test_gram_closed_form_matches_eigvalsh(cond):
    """For k = 2 the Gram's extreme eigenvalues come in closed form; they
    match ``eigvalsh`` within 1e-15 lmax.  The closed-form determinant
    matches ``det`` within 1e-14 lmax^2: numpy's ``det`` exponentiates a sum
    of logarithms of the LU pivots, and is off by several ulp itself."""
    rng = np.random.default_rng(int(np.log10(cond)))
    Js = np.stack([_jacobian(4, 2, cond, s) @ np.linalg.qr(rng.normal(size=(2, 2)))[0]
                   for s in range(200)]) * rng.uniform(0.1, 10.0, size=(200, 1, 1))
    G = np.swapaxes(Js, 1, 2) @ Js
    lam = np.linalg.eigvalsh(G)
    lmin, lmax = _spectrum(Js)
    assert np.all(np.abs(lmin - lam[:, 0]) <= 1e-15 * lam[:, 1])
    assert np.all(np.abs(lmax - lam[:, 1]) <= 1e-15 * lam[:, 1])
    assert np.all(np.abs(_spectrum(Js, det=True) - np.linalg.det(G)) <= 1e-14 * lam[:, 1]**2)


def _rotated_jacobian(n, cond, seed):
    """An n x 3 Jacobian with cond(J^T J) = cond and a Gram that is not
    diagonal: orthonormal columns scaled by 1, cond^-1/4 and cond^-1/2,
    then mixed by a random rotation of the chart."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, 3)))
    return Q * np.array([1.0, cond**-0.25, cond**-0.5]) @ np.linalg.qr(rng.normal(size=(3, 3)))[0]


def _near_dependent(n, delta, seed):
    """An n x 3 Jacobian with columns v, v + delta a, v + delta b: its two
    small Gram eigenvalues are close, and for delta <= 1e-7 its cofactor
    determinant is mostly round-off."""
    v, a, b = np.random.default_rng(seed).normal(size=(3, n))
    return np.stack([v, v + delta * a, v + delta * b], axis=1)


def _k3_stacks():
    """Named lists of k = 3 Jacobian stacks: well conditioned, cond just
    below and just above the limit, a zero column, and a single bad sample
    (index 21) among good ones, by its cond or by nearly dependent columns."""
    rng = np.random.default_rng(28)
    good = rng.normal(size=(64, 5, 3))

    def one_bad(J):
        stack = good.copy()
        stack[21] = J
        return stack

    stacks = {"well-conditioned": [good]}
    for factor in (0.99, 1.01):
        stacks[f"cond-{factor}-limit"] = [np.stack(
            [_rotated_jacobian(5, factor * sub.COND_LIMIT, s) for s in range(16)])]
    stacks["zero-column"] = [one_bad(good[21] * [1.0, 0.0, 1.0])]
    for factor in (0.3, 1.01, 1e4):
        stacks[f"one-bad-{factor}"] = [
            one_bad(_rotated_jacobian(5, factor * sub.COND_LIMIT, s)) for s in range(16)]
    for delta in (1e-5, 1e-6, 1e-7, 1e-9):
        stacks[f"near-dependent-{delta}"] = [
            one_bad(_near_dependent(5, delta, s)) for s in range(16)]
    return stacks


def _verdict(check, Js):
    """None if ``check`` accepts the sample-last stack, else its message."""
    try:
        check(sub._last(Js), "interior")
    except DegenerateSampleError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", sorted(_k3_stacks()))
def test_k3_conditioning_matches_eigvalsh_rule(name):
    """For k = 3 the invariant screen and the eigenvalues of the rest give
    the decision and the message, sample index included, of ``eigvalsh`` on
    every sample.  A single bad sample is the one named.  Nearly dependent
    columns give determinants of round-off alone, which without the floor
    on det / (G_11 G_22 G_33) pass a bad sample."""
    for Js in _k3_stacks()[name]:
        want = _verdict(oracles.conditioning_eigvalsh, Js)
        assert _verdict(sub._check_conditioning, Js) == want
        if name in ("well-conditioned", "cond-0.99-limit", "one-bad-0.3"):
            assert want is None
        elif name != "cond-1.01-limit":
            assert want.startswith("interior sample 21")


def test_k3_screen_settles_the_registry_without_eigenvalues():
    """Every Gram of every k = 3 registry scenario, interior and rim,
    passes the invariant screen, so no eigensolve runs on it."""
    names = [name for name in sorted(SCENARIOS) if SCENARIOS[name].k == 3]
    assert len(names) >= 4
    for name in names:
        imm = build_scenario(name).immersion
        for J in (imm.J, sub._last(imm.bJs)):
            assert np.all(sub._settled_by_invariants(sub._gram(J)))


@pytest.mark.parametrize("cond", [1.0, 1e2, 1e4, 1e6, 1e8])
def test_k3_gram_determinant_matches_det(cond):
    """For k = 3 the cofactor determinant matches ``det`` within 1e-14
    lmax^3."""
    rng = np.random.default_rng(int(np.log10(cond)))
    Js = np.stack([_rotated_jacobian(5, cond, s) for s in range(200)])
    Js *= rng.uniform(0.1, 10.0, size=(200, 1, 1))
    G = np.swapaxes(Js, 1, 2) @ Js
    lmax = np.linalg.eigvalsh(G)[:, -1]
    assert np.all(np.abs(_spectrum(Js, det=True) - np.linalg.det(G)) <= 1e-14 * lmax**3)
