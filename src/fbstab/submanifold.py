"""Sampled parametric k-submanifolds with boundary.

An immersion holds its quadrature samples as stacked arrays.  Interior
samples carry the chart Jacobian (columns span the tangent space), the chart
second derivatives and a chart-measure quadrature weight; boundary samples
carry the Jacobian, a (k-1)-dimensional Euclidean measure weight and the
outward unit conormal.  Frames, fundamental forms and mean curvature are
computed for all samples at once by ``SampledImmersion.geometry()`` and
cached; reductions (volumes, residual maxima) run in fixed sample order so
results are deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError, DegenerateSampleError, InvalidSampleError
from .fields import ConformalMetric, make_field

COND_LIMIT = 1e8

Array = np.ndarray


@dataclass(frozen=True)
class ResidualReport:
    """Maximum pointwise residual of a check, with the offending sample."""

    name: str
    max_residual: float
    tol: float
    worst_index: int
    worst_point: Array
    residuals: Array

    @property
    def passed(self) -> bool:
        return bool(self.max_residual <= self.tol)


def _batched_frames(Js: Array):
    """Orthonormal tangent/normal frames for a stack of Jacobians.

    Tangent vectors are the in-order Gram-Schmidt of the Jacobian columns;
    the normal frame completes them to an orthonormal basis (Householder QR
    of [J | I], deterministic for fixed input).  Returns ``(tangent (m,k,n),
    normal (m,n-k,n), chart_to_frame (m,k,k))`` with ``v_i = sum_a
    chart_to_frame[a, i] * J[:, a]``.
    """
    m, n, k = Js.shape
    A = np.concatenate([Js, np.broadcast_to(np.eye(n), (m, n, n))], axis=2)
    Q, R = np.linalg.qr(A)
    d = np.diagonal(R[:, :, :n], axis1=1, axis2=2)
    s = np.where(d == 0.0, 1.0, np.sign(d))
    Q = Q * s[:, None, :]
    Rk = R[:, :k, :k] * s[:, :k, None]
    tangent = Q[:, :, :k].transpose(0, 2, 1)
    normal = Q[:, :, k:].transpose(0, 2, 1)
    chart_to_frame = np.linalg.inv(Rk)
    return tangent, normal, chart_to_frame


def _check_conditioning(Js: Array, where: str):
    sv = np.linalg.svd(Js, compute_uv=False)
    if np.any(sv[:, -1] <= 0.0):
        bad = int(np.argmax(sv[:, -1] <= 0.0))
        raise DegenerateSampleError(f"{where} sample {bad} has rank-deficient Jacobian")
    cond2 = (sv[:, 0] / sv[:, -1]) ** 2
    if np.any(cond2 > COND_LIMIT):
        bad = int(np.argmax(cond2 > COND_LIMIT))
        raise DegenerateSampleError(
            f"{where} sample {bad}: cond(J^T J) = {cond2[bad]:.3e} exceeds {COND_LIMIT:.0e}"
        )


@dataclass(frozen=True)
class ImmersionGeometry:
    """Per-sample frames and fundamental forms, cached on the immersion."""

    tangent: Array           # (m, k, n)
    normal: Array            # (m, q, n), q = n - k
    chart_to_frame: Array    # (m, k, k)
    alpha: Array             # (m, k, k, q) normal-frame components
    H: Array                 # (m, n) Euclidean mean curvature vectors
    jacobian_factor: Array   # (m,) sqrt(det J^T J)
    b_tangent: Array         # (mb, k, n)
    b_normal: Array          # (mb, q, n)


class SampledImmersion:
    """A k-submanifold of R^n given by interior and boundary samples."""

    def __init__(
        self,
        k: int,
        n: int,
        interior_x,
        interior_J,
        interior_H,
        interior_w,
        boundary_x=None,
        boundary_J=None,
        boundary_w=None,
        boundary_nu=None,
        validate: bool = True,
    ):
        self.k = int(k)
        self.n = int(n)
        self.xs = np.asarray(interior_x, float)
        self.Js = np.asarray(interior_J, float)
        self.Hs = np.asarray(interior_H, float)
        self.ws = np.asarray(interior_w, float)
        if boundary_x is None:
            boundary_x = np.zeros((0, self.n))
            boundary_J = np.zeros((0, self.n, self.k))
            boundary_w = np.zeros((0,))
            boundary_nu = np.zeros((0, self.n))
        self.bxs = np.asarray(boundary_x, float)
        self.bJs = np.asarray(boundary_J, float)
        self.bws = np.asarray(boundary_w, float)
        self.bnus = np.asarray(boundary_nu, float)
        self._geometry = None
        if validate:
            self._validate()
        for a in (self.xs, self.Js, self.Hs, self.ws, self.bxs, self.bJs, self.bws, self.bnus):
            a.flags.writeable = False

    def _validate(self):
        k, n = self.k, self.n
        if not 1 <= k <= n - 1:
            raise ConfigError(f"need 1 <= k <= n-1, got k={k}, n={n}")
        m = self.xs.shape[0]
        if m == 0:
            raise ConfigError("immersion has no interior samples")
        if self.xs.shape != (m, n) or self.Js.shape != (m, n, k):
            raise ConfigError("interior sample array shapes are inconsistent")
        if self.Hs.shape != (m, k, k, n) or self.ws.shape != (m,):
            raise ConfigError("interior sample array shapes are inconsistent")
        if np.any(self.ws <= 0.0):
            raise ConfigError("quadrature weights must be positive")
        _check_conditioning(self.Js, "interior")
        sym = np.max(np.abs(self.Hs - self.Hs.transpose(0, 2, 1, 3)))
        if sym > 1e-9 * (1.0 + np.max(np.abs(self.Hs))):
            raise ConfigError("chart second derivatives are not symmetric")
        mb = self.bxs.shape[0]
        if mb:
            if self.bJs.shape != (mb, n, k) or self.bnus.shape != (mb, n):
                raise ConfigError("boundary sample array shapes are inconsistent")
            _check_conditioning(self.bJs, "boundary")
            norms = np.linalg.norm(self.bnus, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-9):
                raise InvalidSampleError("boundary conormals must be unit vectors")
            # conormal must lie in the tangent space of the immersion
            T, _, _ = _batched_frames(self.bJs)
            proj = np.einsum("mkn,mk->mn", T, np.einsum("mkn,mn->mk", T, self.bnus))
            if np.max(np.linalg.norm(self.bnus - proj, axis=1)) > 1e-8:
                raise InvalidSampleError("boundary conormal not tangent to the immersion")

    @property
    def n_interior(self) -> int:
        return self.xs.shape[0]

    @property
    def n_boundary(self) -> int:
        return self.bxs.shape[0]

    def geometry(self) -> ImmersionGeometry:
        if self._geometry is None:
            T, N, C = _batched_frames(self.Js)
            hn = np.einsum("mrx,mabx->mabr", N, self.Hs)
            alpha = np.einsum("mai,mbj,mabr->mijr", C, C, hn)
            H = np.einsum("miir,mrx->mx", alpha, N)
            gram = np.einsum("mxa,mxb->mab", self.Js, self.Js)
            jac = np.sqrt(np.linalg.det(gram))
            if self.n_boundary:
                bT, bN, _ = _batched_frames(self.bJs)
            else:
                q = self.n - self.k
                bT = np.zeros((0, self.k, self.n))
                bN = np.zeros((0, q, self.n))
            self._geometry = ImmersionGeometry(T, N, C, alpha, H, jac, bT, bN)
        return self._geometry


def conformal_sff(imm: SampledImmersion, metric: ConformalMetric) -> Array:
    """Second fundamental form of the rescaled metric, (m, k, k, q).

    alpha~(X, Y) = alpha(X, Y) - <X, Y> grad^perp u in normal-frame
    components: the normal components of grad u are subtracted on the
    diagonal.
    """
    geo = imm.geometry()
    gn = np.einsum("mqn,mn->mq", geo.normal, metric.field.gradient(imm.xs))
    return geo.alpha - np.eye(imm.k)[None, :, :, None] * gn[:, None, None, :]


def volume(imm: SampledImmersion, metric: ConformalMetric | None = None) -> float:
    """k-volume: sum of w * sqrt(det J^T J) * e^{k u} over interior samples."""
    return integrate_interior(imm, 1.0, metric)


def boundary_volume(imm: SampledImmersion, metric: ConformalMetric | None = None) -> float:
    """(k-1)-volume of the boundary; weights already carry Euclidean measure."""
    return integrate_boundary(imm, 1.0, metric)


def integrate_interior(imm, values, metric=None) -> float:
    """Integrate per-sample values against the induced k-measure."""
    dens = imm.ws * imm.geometry().jacobian_factor
    if metric is not None:
        dens = dens * metric.volume_scale(imm.xs, imm.k)
    return float(np.sum(dens * np.asarray(values, float)))


def integrate_boundary(imm, values, metric=None) -> float:
    dens = imm.bws
    if metric is not None:
        dens = dens * metric.volume_scale(imm.bxs, imm.k - 1)
    return float(np.sum(dens * np.asarray(values, float)))


def mean_curvature_bracket(imm: SampledImmersion, metric: ConformalMetric):
    """``(u, H - k grad^perp u)`` at the interior samples.

    The rescaled mean curvature vector is e^{-2u} times the bracket, and its
    g~-norm is e^{-u} times the bracket's Euclidean norm.
    """
    geo = imm.geometry()
    g = metric.field.gradient(imm.xs)
    gperp = np.einsum("mrx,mr->mx", geo.normal, np.einsum("mrx,mx->mr", geo.normal, g))
    return metric.field.value(imm.xs), geo.H - imm.k * gperp


def minimality_residuals(imm: SampledImmersion, metric: ConformalMetric) -> Array:
    """Pointwise |H~|_{g~} = e^{-u} |H - k grad^perp u| over interior samples."""
    u, bracket = mean_curvature_bracket(imm, metric)
    return np.exp(-u) * np.linalg.norm(bracket, axis=1)


def check_minimality(imm: SampledImmersion, metric: ConformalMetric, tol: float) -> ResidualReport:
    """Pass iff max |H~|_{g~} over interior samples is at most tol."""
    res = minimality_residuals(imm, metric)
    worst = int(np.argmax(res))
    return ResidualReport("minimality", float(res[worst]), float(tol), worst, imm.xs[worst], res)


def boundary_defects(imm: SampledImmersion, domain, metric: ConformalMetric | None = None) -> Array:
    """Angle defect |1 - |<nu, outward normal>|| at each boundary sample.

    Angles are conformally invariant; passing a metric evaluates the same
    pairing with rescaled unit vectors and the rescaled inner product, which
    agrees with the Euclidean computation identically.
    """
    if imm.n_boundary == 0:
        return np.zeros(0)
    phi_vals = np.abs(domain.phi.value(imm.bxs))
    if np.max(phi_vals) > 1e-7:
        bad = int(np.argmax(phi_vals))
        raise InvalidSampleError(
            f"boundary sample {bad} is off the domain boundary: |phi| = {phi_vals[bad]:.3e}"
        )
    grad = domain.phi.gradient(imm.bxs)
    outward = grad / np.linalg.norm(grad, axis=1, keepdims=True)
    if metric is None:
        pair = np.sum(imm.bnus * outward, axis=1)
    else:
        scale = np.exp(-metric.field.value(imm.bxs))
        pair = metric.factor(imm.bxs) * np.sum(
            (scale[:, None] * imm.bnus) * (scale[:, None] * outward), axis=1
        )
    return np.abs(1.0 - np.abs(pair))


def check_free_boundary(imm: SampledImmersion, domain, tol: float,
                        metric: ConformalMetric | None = None) -> ResidualReport:
    """Pass iff every boundary sample meets the domain boundary orthogonally."""
    defects = boundary_defects(imm, domain, metric)
    if defects.size == 0:
        raise InvalidSampleError("immersion has no boundary samples")
    worst = int(np.argmax(defects))
    return ResidualReport(
        "free-boundary", float(defects[worst]), float(tol), worst, imm.bxs[worst], defects
    )


def polar_conormals(bJ: Array) -> Array:
    """Outward unit conormals on the boundary ring of a polar chart, (mb, n).

    The radial Jacobian column (column 0, increasing radius) is
    orthogonalised against each angular column in turn and normalised; the
    angular columns of the catalog charts are mutually orthogonal.
    """
    nu = bJ[:, :, 0]
    for a in range(1, bJ.shape[2]):
        t_hat = bJ[:, :, a] / np.linalg.norm(bJ[:, :, a], axis=1, keepdims=True)
        nu = nu - np.sum(nu * t_hat, axis=1, keepdims=True) * t_hat
    return nu / np.linalg.norm(nu, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# immersion catalog
# ---------------------------------------------------------------------------

def _gauss01(m):
    t, w = leggauss(m)
    return (t + 1.0) / 2.0, w / 2.0


def _gauss_interval(m, a, b):
    t, w = leggauss(m)
    return a + (b - a) * (t + 1.0) / 2.0, w * (b - a) / 2.0


def _disk_graph(n, radius, psi, dpsi, d2psi, nr, ntheta, with_boundary=True):
    """Polar chart over a k=2 disk with a graph map into the last n-2 coords.

    ``psi(y) -> (m, n-2)``, ``dpsi(y) -> (m, n-2, 2)``,
    ``d2psi(y) -> (m, n-2, 2, 2)`` for planar points y of shape (m, 2).
    Radial Gauss nodes avoid the chart singularity at the center.
    """
    q = n - 2
    r, wr = _gauss01(nr)
    theta = np.arange(ntheta) * (2.0 * np.pi / ntheta)
    wt = 2.0 * np.pi / ntheta
    rr, tt = [a.ravel() for a in np.meshgrid(r, theta, indexing="ij")]
    ww = (wr[:, None] * np.full(ntheta, wt)).ravel()

    def chart(rv, tv):
        m = rv.shape[0]
        c, s = np.cos(tv), np.sin(tv)
        y = radius * rv[:, None] * np.stack([c, s], axis=1)
        y_r = radius * np.stack([c, s], axis=1)
        y_t = radius * rv[:, None] * np.stack([-s, c], axis=1)
        y_rt = radius * np.stack([-s, c], axis=1)
        y_tt = -radius * rv[:, None] * np.stack([c, s], axis=1)
        p = psi(y)
        dp = dpsi(y)
        d2p = d2psi(y)
        x = np.concatenate([y, p], axis=1)
        J = np.zeros((m, n, 2))
        J[:, :2, 0] = y_r
        J[:, :2, 1] = y_t
        J[:, 2:, 0] = np.einsum("mqa,ma->mq", dp, y_r)
        J[:, 2:, 1] = np.einsum("mqa,ma->mq", dp, y_t)
        H = np.zeros((m, 2, 2, n))
        # second derivatives: chain rule through the planar chart
        def d2(ya, yb, yab):
            out = np.zeros((m, n))
            out[:, :2] = yab
            out[:, 2:] = np.einsum("mqab,ma,mb->mq", d2p, ya, yb) + np.einsum(
                "mqa,ma->mq", dp, yab
            )
            return out
        H[:, 0, 0] = d2(y_r, y_r, np.zeros((m, 2)))
        H[:, 0, 1] = H[:, 1, 0] = d2(y_r, y_t, y_rt)
        H[:, 1, 1] = d2(y_t, y_t, y_tt)
        return x, J, H

    xs, Js, Hs = chart(rr, tt)

    if not with_boundary:
        return SampledImmersion(2, n, xs, Js, Hs, ww)

    ones = np.ones(ntheta)
    bx, bJ, _ = chart(ones, theta)
    bw = np.linalg.norm(bJ[:, :, 1], axis=1) * wt
    return SampledImmersion(2, n, xs, Js, Hs, ww, bx, bJ, bw, polar_conormals(bJ))


def _equatorial_disk_k3(n, radius, nr, nphi, ntheta):
    """Spherical-polar chart of the flat 3-disk spanning the first 3 coords."""
    r, wr = _gauss01(nr)
    phi, wphi = _gauss_interval(nphi, 0.0, np.pi)
    theta = np.arange(ntheta) * (2.0 * np.pi / ntheta)
    wt = 2.0 * np.pi / ntheta

    rr, pp, tt = [a.ravel() for a in np.meshgrid(r, phi, theta, indexing="ij")]
    ww = (wr[:, None, None] * wphi[None, :, None] * np.full(ntheta, wt)[None, None, :]).ravel()

    def omega(p, t):
        return np.stack([np.sin(p) * np.cos(t), np.sin(p) * np.sin(t), np.cos(p)], axis=1)

    def omega_p(p, t):
        return np.stack([np.cos(p) * np.cos(t), np.cos(p) * np.sin(t), -np.sin(p)], axis=1)

    def omega_t(p, t):
        return np.stack([-np.sin(p) * np.sin(t), np.sin(p) * np.cos(t), np.zeros_like(p)], axis=1)

    def omega_pt(p, t):
        return np.stack([-np.cos(p) * np.sin(t), np.cos(p) * np.cos(t), np.zeros_like(p)], axis=1)

    def omega_tt(p, t):
        return np.stack([-np.sin(p) * np.cos(t), -np.sin(p) * np.sin(t), np.zeros_like(p)], axis=1)

    def chart(rv, pv, tv):
        m = rv.shape[0]
        om, om_p, om_t = omega(pv, tv), omega_p(pv, tv), omega_t(pv, tv)
        x = np.zeros((m, n))
        x[:, :3] = radius * rv[:, None] * om
        J = np.zeros((m, n, 3))
        J[:, :3, 0] = radius * om
        J[:, :3, 1] = radius * rv[:, None] * om_p
        J[:, :3, 2] = radius * rv[:, None] * om_t
        H = np.zeros((m, 3, 3, n))
        H[:, 0, 1, :3] = H[:, 1, 0, :3] = radius * om_p
        H[:, 0, 2, :3] = H[:, 2, 0, :3] = radius * om_t
        H[:, 1, 1, :3] = -radius * rv[:, None] * om
        H[:, 1, 2, :3] = H[:, 2, 1, :3] = radius * rv[:, None] * omega_pt(pv, tv)
        H[:, 2, 2, :3] = radius * rv[:, None] * omega_tt(pv, tv)
        return x, J, H

    xs, Js, Hs = chart(rr, pp, tt)

    pb, tb = [a.ravel() for a in np.meshgrid(phi, theta, indexing="ij")]
    bx, bJ, _ = chart(np.ones(pb.shape[0]), pb, tb)
    bw = (wphi[:, None] * np.full(ntheta, wt)[None, :]).ravel() * radius**2 * np.sin(pb)
    return SampledImmersion(3, n, xs, Js, Hs, ww, bx, bJ, bw, polar_conormals(bJ))


def _const_graph_maps(n, height_vec):
    q = n - 2
    h = np.zeros(q)
    h[: len(height_vec)] = height_vec

    def psi(y):
        return np.broadcast_to(h, (y.shape[0], q)).copy()

    def dpsi(y):
        return np.zeros((y.shape[0], q, 2))

    def d2psi(y):
        return np.zeros((y.shape[0], q, 2, 2))

    return psi, dpsi, d2psi


def _poly_graph_maps(k, per_output_terms):
    fields = [make_field("polynomial", terms=t) for t in per_output_terms]
    q = len(fields)

    def psi(y):
        return np.stack([f.value(y) for f in fields], axis=1) if q else np.zeros((y.shape[0], 0))

    def dpsi(y):
        return (
            np.stack([f.gradient(y) for f in fields], axis=1)
            if q
            else np.zeros((y.shape[0], 0, k))
        )

    def d2psi(y):
        return (
            np.stack([f.hessian(y) for f in fields], axis=1)
            if q
            else np.zeros((y.shape[0], 0, k, k))
        )

    return psi, dpsi, d2psi


def _cube_graph(k, n, per_output_terms, halfwidth, nodes_per_axis):
    """Tensor Gauss grid on [-h, h]^k with a polynomial graph map; no boundary."""
    psi, dpsi, d2psi = _poly_graph_maps(k, per_output_terms)
    y1, w1 = _gauss_interval(nodes_per_axis, -halfwidth, halfwidth)
    grids = np.meshgrid(*([y1] * k), indexing="ij")
    ys = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([w1] * k), indexing="ij")
    ws = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    m = ys.shape[0]
    q = n - k
    p, dp, d2p = psi(ys), dpsi(ys), d2psi(ys)
    if p.shape[1] != q:
        raise ConfigError(f"graph map must have {q} output coordinates")
    xs = np.concatenate([ys, p], axis=1)
    Js = np.zeros((m, n, k))
    Js[:, :k, :] = np.broadcast_to(np.eye(k), (m, k, k))
    Js[:, k:, :] = dp
    Hs = np.zeros((m, k, k, n))
    Hs[:, :, :, k:] = d2p.transpose(0, 2, 3, 1)
    return SampledImmersion(k, n, xs, Js, Hs, ws)


def random_graph_terms(k, n, degree, seed):
    """Seeded random polynomial graph coefficients, one term list per height."""
    rng = np.random.default_rng(seed)
    exps = []
    for total in range(1, degree + 1):
        def rec(prefix, remaining, slots):
            if slots == 1:
                exps.append(prefix + [remaining])
                return
            for e in range(remaining + 1):
                rec(prefix + [e], remaining - e, slots - 1)
        rec([], total, k)
    per_output = []
    for _ in range(n - k):
        terms = [
            [float(rng.normal(0.0, 0.35 ** sum(e))), list(e)] for e in exps
        ]
        per_output.append(terms)
    return per_output


def make_immersion(kind: str, **params) -> SampledImmersion:
    """Build a catalog immersion.

    Kinds: ``equatorial-disk(n, k, radius)``, ``paraboloid-cap(curvature)``,
    ``tilted-disk(angle)``, ``graph(coeffs)`` and ``random-graph(seed,
    degree)``.  Structured quadrature grids: polar Gauss x trapezoid for
    disks, tensor Gauss cubes for graphs.
    """
    if kind == "equatorial-disk":
        n = int(params["n"])
        k = int(params.get("k", 2))
        radius = float(params.get("radius", 1.0))
        if k == 2:
            psi, dpsi, d2psi = _const_graph_maps(n, [])
            return _disk_graph(
                n, radius, psi, dpsi, d2psi,
                int(params.get("nr", 32)), int(params.get("ntheta", 64)),
            )
        if k == 3:
            return _equatorial_disk_k3(
                n, radius,
                int(params.get("nr", 12)), int(params.get("nphi", 12)),
                int(params.get("ntheta", 24)),
            )
        raise ConfigError("equatorial-disk supports k in {2, 3}")
    if kind == "paraboloid-cap":
        n = int(params.get("n", 3))
        c = float(params.get("curvature", 0.5))
        radius = float(params.get("radius", 1.0))
        terms = [[[c / 2.0, [2, 0]], [c / 2.0, [0, 2]]]] + [[] for _ in range(n - 3)]
        psi, dpsi, d2psi = _poly_graph_maps(2, [t if t else [[0.0, [0, 0]]] for t in terms])
        return _disk_graph(
            n, radius, psi, dpsi, d2psi,
            int(params.get("nr", 16)), int(params.get("ntheta", 32)),
            with_boundary=bool(params.get("with_boundary", True)),
        )
    if kind == "tilted-disk":
        n = int(params.get("n", 3))
        angle = float(params["angle"])
        h = np.sin(angle)
        radius = float(np.cos(angle))
        psi, dpsi, d2psi = _const_graph_maps(n, [h])
        return _disk_graph(
            n, radius, psi, dpsi, d2psi,
            int(params.get("nr", 16)), int(params.get("ntheta", 32)),
        )
    if kind == "graph":
        k = int(params.get("k", 2))
        n = int(params["n"])
        return _cube_graph(
            k, n, params["coeffs"],
            float(params.get("halfwidth", 0.5)),
            int(params.get("nodes_per_axis", 6 if k == 2 else 5)),
        )
    if kind == "random-graph":
        k = int(params.get("k", 2))
        n = int(params["n"])
        terms = random_graph_terms(k, n, int(params.get("degree", 2)), int(params["seed"]))
        return _cube_graph(
            k, n, terms,
            float(params.get("halfwidth", 0.5)),
            int(params.get("nodes_per_axis", 6 if k == 2 else 5)),
        )
    raise ConfigError(f"unknown immersion catalog name: {kind!r}")


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

IMMERSION_SCHEMA = "fbstab-immersion/1"


def immersion_to_dict(imm: SampledImmersion) -> dict:
    return {
        "schema": IMMERSION_SCHEMA,
        "k": imm.k,
        "n": imm.n,
        "interior": {
            "x": imm.xs.tolist(),
            "J": imm.Js.tolist(),
            "Hchart": imm.Hs.tolist(),
            "w": imm.ws.tolist(),
        },
        "boundary": {
            "x": imm.bxs.tolist(),
            "J": imm.bJs.tolist(),
            "wb": imm.bws.tolist(),
            "nu": imm.bnus.tolist(),
        },
    }


def immersion_from_dict(doc: dict) -> SampledImmersion:
    if doc.get("schema") != IMMERSION_SCHEMA:
        raise ConfigError(f"unsupported immersion schema: {doc.get('schema')!r}")
    k, n = int(doc["k"]), int(doc["n"])
    inter, bound = doc["interior"], doc["boundary"]
    bx = np.asarray(bound["x"], float).reshape(-1, n)
    return SampledImmersion(
        k, n,
        inter["x"], inter["J"], inter["Hchart"], inter["w"],
        bx,
        np.asarray(bound["J"], float).reshape(-1, n, k),
        np.asarray(bound["wb"], float).reshape(-1),
        np.asarray(bound["nu"], float).reshape(-1, n),
    )


def immersion_to_json(imm: SampledImmersion) -> str:
    return json.dumps(immersion_to_dict(imm), sort_keys=True, indent=2)


def immersion_from_json(text: str) -> SampledImmersion:
    return immersion_from_dict(json.loads(text))
