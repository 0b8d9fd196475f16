"""Sampled immersions: frames, fundamental forms, volumes, residual checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import sphere_patch
import oracles
from fbstab import submanifold as sub
from fbstab.errors import ConfigError, DegenerateSampleError, InvalidSampleError
from fbstab.fields import ConformalMetric, make_field
from fbstab.scenarios import build_scenario


def _frames(J):
    """Tangent and normal frames of a one-sample immersion with Jacobian J."""
    n, k = J.shape
    imm = sub.SampledImmersion(k, n, np.zeros((1, n)), J[None], np.zeros((1, k, k, n)), [1.0])
    geo = imm.geometry()
    return geo.tangent[..., 0], geo.normal[..., 0]


def _conformal_mean_curvature(imm, metric):
    """H~ = e^{-2u} (H - k grad^perp u) at every interior sample."""
    N = imm.geometry().normal
    g = metric.field.gradient(imm.xs)
    gperp = np.einsum("rxm,rm->mx", N, np.einsum("rxm,mx->rm", N, g))
    u = metric.field.value(imm.xs)
    return np.exp(-2.0 * u)[:, None] * (imm.geometry().H - imm.k * gperp)


def test_frames_identity_columns():
    tangent, normal = _frames(np.eye(5)[:, :2])
    assert np.allclose(tangent, np.eye(5)[:2])
    assert np.allclose(normal, np.eye(5)[2:])


def test_frames_scale_invariant():
    J = np.array([[1.0, 0.5], [0.0, 2.0], [1.0, -1.0], [0.0, 0.3]])
    t1, n1 = _frames(J)
    t2, n2 = _frames(2.0 * J)
    assert np.allclose(t1, t2, atol=1e-14)
    assert np.allclose(n1, n2, atol=1e-14)


def test_frames_reject_degenerate():
    J = np.zeros((4, 2))
    J[:, 0] = [1, 0, 0, 0]
    J[:, 1] = [1 + 1e-13, 0, 0, 0]
    with pytest.raises(DegenerateSampleError):
        _frames(J)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_frames_gram_identity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    k = int(rng.integers(1, n))
    J = rng.normal(size=(n, k))
    tangent, normal = _frames(J)
    basis = np.vstack([tangent, normal])
    assert np.max(np.abs(basis @ basis.T - np.eye(n))) < 1e-10
    # tangent spans the column space
    proj = tangent.T @ tangent
    assert np.allclose(proj @ J, J, atol=1e-10)


def _bounded_jacobians(rng, m, n, k):
    """m Jacobians n x k whose singular values lie in [0.5, 2]."""
    U = np.linalg.qr(rng.normal(size=(m, n, k)))[0]
    V = np.linalg.qr(rng.normal(size=(m, k, k)))[0]
    return U @ (rng.uniform(0.5, 2.0, size=(m, k, 1)) * V)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 6), st.data(), st.integers(0, 2**31 - 1))
def test_frames_match_lapack(n, data, seed):
    """The Householder frames match the [J | I] LAPACK QR: the tangent frame
    and chart_to_frame entry by entry, the normal frame up to a rotation of
    the normal space (its projector), and [T; N] is orthonormal."""
    k = data.draw(st.integers(1, n - 1))
    Js = _bounded_jacobians(np.random.default_rng(seed), 40, n, k)
    T, N, C = (sub._first(a) for a in sub._batched_frames(sub._last(Js)))
    T0, N0, C0 = oracles.lapack_frames(Js)
    assert np.max(np.abs(T - T0)) <= 1e-13
    assert np.max(np.abs(C - C0)) <= 1e-13
    proj = np.swapaxes(N, 1, 2) @ N
    assert np.max(np.abs(proj - np.swapaxes(N0, 1, 2) @ N0)) <= 1e-14
    basis = np.concatenate([T, N], axis=1)
    assert np.max(np.abs(basis @ np.swapaxes(basis, 1, 2) - np.eye(n))) <= 1e-14


def test_build_and_geometry_make_no_lapack_qr(monkeypatch):
    """The frames of a catalog build are Householder reflections in numpy
    stack arithmetic: building cap-disk-b4k2 and its geometry makes no
    ``np.linalg.qr`` call."""
    calls = []
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    build_scenario("cap-disk-b4k2").immersion.geometry()
    assert calls == []


def test_gauss_legendre_rules_are_built_once(monkeypatch):
    """A second catalog build reuses the cached Gauss-Legendre rules, which
    are read-only, and its arrays are bit for bit the first's."""
    first = sub.make_immersion("equatorial-disk", n=4)
    t, w = sub._leggauss(8)
    assert not t.flags.writeable and not w.flags.writeable
    calls = []
    leggauss = sub.leggauss

    def counted(m):
        calls.append(m)
        return leggauss(m)

    monkeypatch.setattr(sub, "leggauss", counted)
    second = sub.make_immersion("equatorial-disk", n=4)
    assert calls == []
    for name in ("xs", "Js", "Hs", "ws", "bxs", "bJs", "bws", "bnus"):
        assert np.array_equal(getattr(second, name), getattr(first, name)), name


def test_flat_disk_zero_forms(flat_b4, metric_zero4):
    imm = flat_b4.immersion
    geo = imm.geometry()
    assert np.max(np.abs(geo.alpha)) < 1e-14
    assert np.allclose(geo.H, 0.0)
    assert np.allclose(_conformal_mean_curvature(imm, metric_zero4), 0.0)


def test_sphere_patch_mean_curvature():
    for radius in (1.0, 2.5):
        imm = sphere_patch(radius=radius)
        geo = imm.geometry()
        norms = np.linalg.norm(geo.H, axis=1)
        assert np.max(np.abs(norms - 2.0 / radius)) < 1e-8
        # mean curvature points toward the center
        inward = -imm.xs / np.linalg.norm(imm.xs, axis=1, keepdims=True)
        align = np.sum(geo.H * inward, axis=1) / norms
        assert np.min(align) > 1.0 - 1e-10


def test_paraboloid_mean_curvature_closed_form():
    c = 0.5
    imm = sub.make_immersion("paraboloid-cap", curvature=c, n=3)
    geo = imm.geometry()
    r = np.linalg.norm(imm.xs[:, :2], axis=1)
    slope = c * r
    want = c / (1 + slope**2) ** 1.5 + slope / (r * np.sqrt(1 + slope**2))
    assert np.max(np.abs(np.linalg.norm(geo.H, axis=1) - want)) < 1e-12


def test_equatorial_disk_minimal_in_radial_metric(cap_b4):
    imm, metric = cap_b4.immersion, cap_b4.metric
    assert np.allclose(imm.geometry().H, 0.0, atol=1e-14)
    assert np.allclose(_conformal_mean_curvature(imm, metric), 0.0, atol=1e-14)
    assert imm.ambient(metric).minimality.max_residual < 1e-12


def test_conformal_sff(cap_b4, metric_zero4):
    imm, metric = cap_b4.immersion, cap_b4.metric
    geo = imm.geometry()
    # zero exponent: unchanged
    at0 = imm.ambient(metric_zero4).sff
    assert at0.shape == geo.alpha.shape
    assert np.allclose(at0, geo.alpha)
    # radial exponent on the equatorial disk: normal gradient vanishes
    at = imm.ambient(metric).sff
    assert np.max(np.abs(at)) < 1e-14
    # trace law against the conformal mean curvature
    tr = np.einsum("iirm,rxm->mx", at, geo.normal)
    want = np.exp(2 * metric.field.value(imm.xs))[:, None] * _conformal_mean_curvature(imm, metric)
    assert np.allclose(tr, want, atol=1e-12)


def test_conformal_sff_closure_via_connection(custom_b4):
    """Rescaled-metric fundamental forms recomputed from the chart and the
    connection correction agree with the transformation law."""
    imm, metric = custom_b4.immersion, custom_b4.metric

    sff = imm.ambient(metric).sff
    normal = imm.geometry().normal
    for i in (0, 11, 101):
        x, J, Hchart = imm.xs[i], imm.Js[i], imm.Hs[i]
        want = sff[..., i]
        k = imm.k
        C = np.linalg.inv(np.linalg.qr(J)[1])
        C = C * np.sign(np.diag(np.linalg.qr(J)[1]))[None, :]
        got = np.zeros_like(want)
        for a in range(k):
            for b in range(k):
                corr = oracles.connection_correction(metric.field, x, J[:, a], J[:, b])
                vec = Hchart[a, b] + corr
                got += np.einsum(
                    "r,i,j->ijr", normal[..., i] @ vec, C[a], C[b]
                )
        assert np.max(np.abs(got - want)) < 1e-8


def test_volumes(flat_b4, cap_b4, metric_zero4):
    assert abs(sub.volume(flat_b4.immersion, metric_zero4) - np.pi) < 1e-6
    assert abs(sub.volume(cap_b4.immersion, cap_b4.metric) - 2 * np.pi) < 1e-6
    assert abs(oracles.boundary_volume(flat_b4.immersion, metric_zero4) - 2 * np.pi) < 1e-6


def test_volume_k3():
    imm = sub.make_immersion("equatorial-disk", n=5, k=3)
    m0 = ConformalMetric(make_field("zero"), 5)
    ms = ConformalMetric(make_field("radial-spherical"), 5)
    assert abs(sub.volume(imm, m0) - 4 * np.pi / 3) < 1e-9
    assert abs(oracles.boundary_volume(imm, m0) - 4 * np.pi) < 1e-9
    assert abs(sub.volume(imm, ms) - np.pi**2) < 1e-9


@pytest.mark.parametrize("kind, params", [
    ("paraboloid-cap", {"curvature": 0.5, "n": 3}),
    ("random-graph", {"n": 5, "k": 3, "seed": 7, "degree": 2}),
], ids=["k2", "k3"])
def test_validated_jacobian_factor_reuses_the_conditioning_gram(kind, params, monkeypatch):
    """A build takes its Jacobian factor from the Gram its conditioning
    check formed, so J^T J is multiplied once per Jacobian stack."""
    grams, spectra = [], []
    gram, spectrum = sub._gram, sub._gram_spectrum

    def counted_gram(J):
        grams.append(gram(J))
        return grams[-1]

    def counted_spectrum(G, det=False):
        spectra.append(G)
        return spectrum(G, det)

    monkeypatch.setattr(sub, "_gram", counted_gram)
    monkeypatch.setattr(sub, "_gram_spectrum", counted_spectrum)
    imm = sub.make_immersion(kind, **params)
    assert len(grams) == 1 + (imm.n_boundary > 0)
    assert any(G is grams[0] for G in spectra)
    assert imm.jacobian_factor.shape == (imm.n_interior,)


def test_frame_invariance_under_reparametrization(rng):
    """Volume and mean curvature are chart-independent."""
    imm = sub.make_immersion("random-graph", n=5, k=2, seed=21, degree=2)
    A = rng.normal(size=(2, 2)) + 2 * np.eye(2)
    Js = np.einsum("mna,ab->mnb", imm.Js, A)
    Hs = np.einsum("ac,bd,mabn->mcdn", A, A, imm.Hs)
    ws = imm.ws / abs(np.linalg.det(A))
    imm2 = sub.SampledImmersion(2, 5, imm.xs, Js, Hs, ws)
    m0 = ConformalMetric(make_field("zero"), 5)
    assert abs(sub.volume(imm, m0) - sub.volume(imm2, m0)) < 1e-9 * abs(sub.volume(imm, m0))
    g1, g2 = imm.geometry(), imm2.geometry()
    assert np.max(np.abs(g1.H - g2.H)) < 1e-9
    a1 = np.einsum("ijrm,ijrm->m", g1.alpha, g1.alpha)
    a2 = np.einsum("ijrm,ijrm->m", g2.alpha, g2.alpha)
    assert np.max(np.abs(a1 - a2)) < 1e-9


def test_minimality_report_of_a_non_minimal_cap():
    imm = sub.make_immersion("paraboloid-cap", curvature=0.5, n=3)
    m0 = ConformalMetric(make_field("zero"), 3)
    assert imm.ambient(m0).minimality.max_residual > 0.1


def test_free_boundary_checks(flat_b4, ball4):
    assert flat_b4.immersion.ambient(None, ball4).defect.max_residual <= 1e-9
    tilt = build_scenario("tilted-disk-b3")
    want = tilt.scenario.expected["fb_defect"]
    rep = tilt.immersion.ambient(None, tilt.domain).defect
    assert rep.max_residual > 1e-3
    assert abs(rep.max_residual - want["value"]) < want["tol"]


def test_free_boundary_conformal_invariance(cap_b4):
    imm, dom, metric = cap_b4.immersion, cap_b4.domain, cap_b4.metric
    d0 = imm.ambient(None, dom).defect.residuals
    d1 = sub.boundary_defects(imm, dom, metric)
    assert np.max(np.abs(d0 - d1)) < 1e-12


def test_off_boundary_sample_rejected(flat_b4):
    imm = flat_b4.immersion
    shrunk = sub.SampledImmersion(
        2, 4, imm.xs, imm.Js, imm.Hs, imm.ws,
        0.9 * imm.bxs, imm.bJs, imm.bws, imm.bnus,
    )
    with pytest.raises(InvalidSampleError, match="off the domain boundary"):
        shrunk.ambient(None, flat_b4.domain).defect


def test_defect_without_boundary_samples_is_a_typed_error(ball4):
    imm = sub.make_immersion("equatorial-disk", n=4, k=2, nr=4, ntheta=8)
    bare = sub.SampledImmersion(2, 4, imm.xs, imm.Js, imm.Hs, imm.ws)
    with pytest.raises(InvalidSampleError, match="no boundary samples"):
        bare.ambient(None, ball4).defect


@pytest.mark.parametrize("name", ["cap-disk-b4k2", "tilted-disk-b3", "paraboloid-b3"])
def test_residual_reports_name_their_worst_sample(name):
    built = build_scenario(name)
    imm = built.immersion
    for rep, points in ((imm.ambient(built.metric).minimality, imm.xs),
                        (imm.ambient(None, built.domain).defect, imm.bxs)):
        assert rep.max_residual == rep.residuals.max()
        assert rep.residuals[rep.worst_index] == rep.max_residual
        assert np.array_equal(rep.worst_point, points[rep.worst_index])
        assert not rep.residuals.flags.writeable


def test_defect_reads_the_outward_normals_of_the_boundary_form(monkeypatch):
    calls = []
    outward = sub.outward_normal

    def counted(domain, x):
        calls.append(len(x))
        return outward(domain, x)

    monkeypatch.setattr(sub, "outward_normal", counted)
    built = build_scenario("cap-disk-b4k2")
    imm = built.immersion
    record = imm.ambient(None, built.domain)
    nhat = record.boundary_form[0]
    rep = record.defect
    assert calls == [imm.n_boundary]
    assert np.array_equal(rep.residuals, sub.angle_defects(imm.bnus, nhat))


def test_validation_rejects_bad_samples(flat_b4):
    imm = flat_b4.immersion
    with pytest.raises(ConfigError):
        sub.SampledImmersion(2, 4, imm.xs, imm.Js, imm.Hs, -imm.ws)
    bad_H = np.array(imm.Hs)
    bad_H[0, 0, 1, :] += 1.0
    with pytest.raises(ConfigError):
        sub.SampledImmersion(2, 4, imm.xs, imm.Js, bad_H, imm.ws)
    bad_nu = np.array(imm.bnus)
    bad_nu[0] *= 2.0
    with pytest.raises(InvalidSampleError):
        sub.SampledImmersion(2, 4, imm.xs, imm.Js, imm.Hs, imm.ws,
                             imm.bxs, imm.bJs, imm.bws, bad_nu)


ARRAYS = ("xs", "Js", "Hs", "ws", "bxs", "bJs", "bws", "bnus")


def _rebuilt(imm, **arrays):
    """``imm`` rebuilt from its sample-first arrays, some replaced."""
    return sub.SampledImmersion(imm.k, imm.n, *(arrays.get(a, getattr(imm, a)) for a in ARRAYS))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("array, error", [
    ("xs", ConfigError), ("Js", DegenerateSampleError), ("Hs", ConfigError),
    ("ws", ConfigError), ("bxs", ConfigError), ("bJs", DegenerateSampleError),
    ("bws", ConfigError), ("bnus", InvalidSampleError)])
def test_validation_refuses_non_finite_samples(array, error, bad, cap_b4):
    """A NaN or inf in any sample array is refused with the typed error of
    the check beside it, naming the sample: it no longer gives a NaN verdict
    or, for an infinite weight, a certificate with a total of -inf."""
    imm = cap_b4.immersion
    values = np.array(getattr(imm, array))
    values.reshape(len(values), -1)[5, -1] = bad
    with pytest.raises(error, match="sample 5"):
        _rebuilt(imm, **{array: values})


def test_validation_refuses_a_non_positive_boundary_weight(cap_b4):
    bws = np.array(cap_b4.immersion.bws)
    bws[3] = -1.0
    with pytest.raises(ConfigError, match="boundary sample 3"):
        _rebuilt(cap_b4.immersion, bws=bws)


def test_nan_level_set_value_is_off_the_boundary(ball4):
    with pytest.raises(InvalidSampleError, match="off the domain boundary"):
        sub._check_on_boundary(ball4, np.array([[1.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0]]))


@pytest.mark.parametrize("name", ["cap-disk-b4k2", "flat-disk-b5k3", "paraboloid-b3"])
def test_catalog_immersions_hold_sample_last_stacks(name):
    """A catalog immersion holds J (n, k, m) and its chart Hessians (k, k, n,
    m) C-contiguous and read-only; ``Js`` and ``Hs`` are views of them.  An
    immersion rebuilt from those views takes the same arrays without a copy
    and is bit for bit the same, while a sample-first copy is transposed
    once."""
    imm = build_scenario(name).immersion
    m, n, k = imm.n_interior, imm.n, imm.k
    assert imm.J.shape == (n, k, m) and imm.Hchart.shape == (k, k, n, m)
    for a, view in ((imm.J, imm.Js), (imm.Hchart, imm.Hs)):
        assert a.flags.c_contiguous and not a.flags.writeable
        assert np.shares_memory(a, view) and not view.flags.writeable
        assert np.array_equal(view, np.moveaxis(a, -1, 0))
    again = _rebuilt(imm)
    assert again.J.ctypes.data == imm.J.ctypes.data
    assert again.Hchart.ctypes.data == imm.Hchart.ctypes.data
    copied = _rebuilt(imm, Js=np.array(imm.Js), Hs=np.array(imm.Hs))
    assert copied.J.flags.c_contiguous and not np.shares_memory(copied.J, imm.J)
    for other in (again, copied):
        assert other.jacobian_factor.tobytes() == imm.jacobian_factor.tobytes()
        for got, want in zip(vars(other.geometry()).values(), vars(imm.geometry()).values()):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, bound_mb", [("flat-disk-b5k3", 4.5), ("cap-disk-b4k2", 1.2)])
def test_cold_build_traced_peak(name, bound_mb):
    """A cold build holds J and H in the layout its kernels read and makes
    one working copy of J, so the traced peak of ``build_scenario`` stays
    under 4.5 and 1.2 MB; transposed copies of J and H on the build path
    would push it to about 6.8 and 1.7 MB."""
    build_scenario(name)
    tracemalloc.start()
    try:
        build_scenario(name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 1e6


def test_json_round_trip(cap_b4):
    imm = cap_b4.immersion
    text = sub.immersion_to_json(imm)
    back = sub.immersion_from_json(text)
    assert sub.immersion_to_json(back) == text
    assert np.array_equal(back.xs, imm.xs)
    assert np.array_equal(back.bnus, imm.bnus)
    with pytest.raises(ConfigError):
        sub.immersion_from_dict({"schema": "other/1"})


def test_random_graph_deterministic():
    a = sub.make_immersion("random-graph", n=5, k=3, seed=7, degree=2)
    b = sub.make_immersion("random-graph", n=5, k=3, seed=7, degree=2)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.Hs, b.Hs)
    c = sub.make_immersion("random-graph", n=5, k=3, seed=8, degree=2)
    assert not np.array_equal(a.xs, c.xs)


def test_unknown_immersion_kind():
    with pytest.raises(ConfigError):
        sub.make_immersion("moebius")


@pytest.mark.parametrize("spec", [
    {"kind": "equatorial-disk", "n": 3, "k": 3},
    {"kind": "paraboloid-cap", "n": 2},
    {"kind": "tilted-disk", "angle": 0.1, "n": 2},
    {"kind": "graph", "n": 2, "k": 2, "coeffs": []},
    {"kind": "random-graph", "n": 3, "k": 4, "seed": 0},
])
def test_catalog_rejects_k_at_least_n(spec):
    spec = dict(spec)
    with pytest.raises(ConfigError):
        sub.make_immersion(spec.pop("kind"), **spec)


def _chart_samples(chart, n, k, terms):
    """``t -> (x, J, H)``, J and H sample-first, for a polynomial graph over
    a catalog chart in coordinates t: (r, theta) polar or (r, phi, theta)
    spherical-polar on the tensor grid of t's radii and t's angles, or the
    cube's identity chart at t."""
    graph = sub._poly_graph(n, k, terms)

    def samples(t):
        if chart == "cube":
            m = len(t)
            x, J, H = sub._graph_over_chart(
                t, np.repeat(np.eye(k)[:, :, None], m, axis=2), np.zeros((k, k, k, m)), graph)
        else:
            directions = sub._circle if chart == "polar" else sub._sphere
            x, J, H = sub._graph_over_chart(
                *sub._polar_chart(1.3, t[:, 0], *directions(*t[:, 1:].T)), graph)
        return x, sub._first(J), sub._first(H)
    return samples


@pytest.mark.parametrize("chart,n,terms", [
    ("polar", 4, [[[0.25, [2, 0]], [0.25, [0, 2]]], [[0.3, [1, 2]], [-0.2, [0, 1]]]]),
    ("spherical", 5, [[[0.25, [2, 0, 0]], [0.25, [0, 2, 0]], [-0.4, [1, 1, 1]]],
                      [[0.3, [0, 0, 3]], [0.1, [1, 0, 0]]]]),
    ("cube", 5, sub.random_graph_terms(3, 5, 3, 4)),
])
def test_chart_chain_rule_matches_central_differences(chart, n, terms):
    """J and H of the graph builder match central differences of its sample
    positions in the chart coordinates, over the polar and spherical-polar
    charts (paraboloid terms plus a cubic height) and a cubic random-graph
    cube: this covers H's tangential part and the 3-ball chart's second
    derivatives, which flat disks do not see."""
    rng = np.random.default_rng(5)
    k = 2 if chart == "polar" else 3
    if chart == "cube":
        t = rng.uniform(-0.5, 0.5, (24, k))
    else:
        t = np.column_stack([rng.uniform(0.2, 0.9, 24), rng.uniform(0.3, 2.8, (24, k - 1))])
    samples = _chart_samples(chart, n, k, terms)
    x, J, H = samples(t)
    h, E = 1e-4, 1e-4 * np.eye(k)
    for a in range(k):
        xp, xm = samples(t + E[a])[0], samples(t - E[a])[0]
        assert np.max(np.abs(J[:, :, a] - (xp - xm) / (2 * h))) < 1e-7
        assert np.max(np.abs(H[:, a, a] - (xp - 2 * x + xm) / h**2)) < 1e-6
        for b in range(a):
            mixed = (samples(t + E[a] + E[b])[0] - samples(t + E[a] - E[b])[0]
                     - samples(t - E[a] + E[b])[0] + samples(t - E[a] - E[b])[0]) / (4 * h**2)
            assert np.max(np.abs(H[:, a, b] - mixed)) < 1e-6
            assert np.max(np.abs(H[:, b, a] - mixed)) < 1e-6
