"""Sampled parametric k-submanifolds with boundary.

An immersion holds its quadrature samples as stacked arrays.  Interior
samples carry the chart Jacobian (columns span the tangent space), the chart
second derivatives and a chart-measure quadrature weight; boundary samples
carry the Jacobian, a (k-1)-dimensional Euclidean measure weight and the
outward unit conormal.  Frames (k Householder reflections over the stack; the
normal frame's orientation is a convention), fundamental forms and mean
curvature are computed for all samples at once by
``SampledImmersion.geometry()`` and cached, and so are the samples of a
metric and a domain that the second variation reads
(``SampledImmersion.ambient``); reductions (volumes, residual maxima) run in
fixed sample order so results are deterministic.  The kernels contract by
``einsum`` over contiguous sample-last stacks (sample index last).  One
layout rule holds for what an immersion, its geometry and its records keep:
the interior Jacobians J (n, k, m), the rim's Jacobians bJ (n, k, mb), the
chart Hessians (k, k, n, m) and the frame and form components are
sample-last (..., m); ``Js``, ``bJs`` and ``Hs`` are read-only sample-first
views of J, bJ and H.  The constructor takes such views; ``_last`` copies a
stack only where its transpose is not C-contiguous, so the catalog hands
over its sample-last J, bJ and H for free.  Vectors of R^n per sample (x, H,
grad u, the bracket) and the rim's positions, weights and conormals stay
sample-first, as the fields return them.  A ``NormalField`` is a normal
field by its components against the normal frames, in the same layout;
``projected_field`` gives the projected constants E^perp.

Every catalog immersion is a graph x = (y, psi(y)) over a polar,
spherical-polar or identity chart y of R^k, sampled by one chain rule.
"""

from __future__ import annotations

import itertools
import json
import weakref
from dataclasses import dataclass
from functools import cache, cached_property, wraps

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import conformal
from .domain import boundary_form as domain_boundary_form, outward_normal
from .errors import (ConfigError, DegenerateSampleError, InvalidSampleError, integer, number,
                     required)
from .fields import ConformalMetric, make_field

COND_LIMIT = 1e8
HADAMARD_FLOOR = 1e-8  # det / (G_11 G_22 G_33) for the k = 3 invariant bound

Array = np.ndarray


@dataclass(frozen=True)
class ResidualReport:
    """Pointwise residuals of one hypothesis check, their maximum and the
    sample that attains it; the threshold belongs to the caller."""

    name: str
    max_residual: float
    worst_index: int
    worst_point: Array
    residuals: Array


def _residual_report(name: str, residuals: Array, points: Array) -> ResidualReport:
    worst = int(np.argmax(residuals))
    residuals.flags.writeable = False
    return ResidualReport(name, float(residuals[worst]), worst, points[worst], residuals)


def _refuse(ok: Array, error: type, message: str) -> None:
    """Raise ``error(message.format(i))`` for the first sample i not ``ok``."""
    if not np.all(ok):
        raise error(message.format(np.argmin(ok)))


def _last(a: Array) -> Array:
    """The stack ``a`` (m, ...) with its sample axis last, (..., m),
    C-contiguous: a copy only where the transpose is not C-contiguous."""
    t = a.transpose(*range(1, a.ndim), 0)
    return t if t.flags.c_contiguous else t.copy()


def _first(a: Array) -> Array:
    """The C-contiguous (m, ...) stack of a sample-last array (..., m)."""
    return np.ascontiguousarray(a.transpose(-1, *range(a.ndim - 1)))


def _batched_frames(J: Array):
    """Orthonormal tangent/normal frames for a sample-last stack of
    Jacobians J (n, k, m): J = QR by k Householder reflections I - beta v v^T
    (Golub-Van Loan 5.2; beta = 0 for v = 0, as in LAPACK's dlarfg), each
    applied as a rank-1 update to the rows it changes of one working copy of
    J and of Q^T; Q^T starts as the first reflection itself.  Tangent: Q's
    first k columns signed by diag R, the in-order Gram-Schmidt of J's
    columns; normal: Q's last n-k.  Returns C-contiguous sample-last
    ``(tangent (k, n, m), normal (n-k, n, m), chart_to_frame (k, k, m))``
    with ``v_i = sum_a chart_to_frame[a, i] * J[:, a]``."""
    n, k, m = J.shape
    A = J.copy()
    for j in range(k):
        v = A[j:, j].copy()
        v[0] += np.copysign(np.sqrt(np.einsum("im,im->m", v, v)), v[0])
        vv = np.einsum("im,im->m", v, v)
        bv = v * np.divide(2.0, vv, out=np.zeros(m), where=vv > 0.0)
        A[j:] -= bv[:, None] * np.einsum("im,iam->am", v, A[j:])
        if j:
            Qt[j:] -= bv[:, None] * np.einsum("im,iam->am", v, Qt[j:])
        else:
            Qt = np.eye(n)[:, :, None] - bv[:, None] * v
    d = A[np.arange(k), np.arange(k)]
    s = np.where(d == 0.0, 1.0, np.sign(d))[:, None]
    return Qt[:k] * s, Qt[k:].copy(), _upper_inverse(A[:k] * s)


def _upper_inverse(R: Array) -> Array:
    """Inverses of a sample-last stack (k, k, m) of upper-triangular k x k
    matrices with nonzero diagonal, by back-substitution: row i of X =
    R^{-1} solves R_ii X_i = e_i - sum_{l>i} R_il X_l, from the last row up."""
    k = R.shape[0]
    X = np.zeros_like(R)
    for i in range(k - 1, -1, -1):
        rest = np.einsum("lm,ljm->jm", R[i, i + 1:], X[i + 1:])
        X[i] = (np.eye(k)[i][:, None] - rest) / R[i, i]
    return X


def _gram(J: Array) -> Array:
    """The Gram J^T J (k, k, m) of each sample of a sample-last stack J."""
    return np.einsum("xam,xbm->abm", J, J)


def _gram_spectrum(G: Array, det: bool = False):
    """Extreme eigenvalues ``(lmin, lmax)`` of each Gram of a sample-last
    stack G (k, k, m), or with ``det`` its determinant; closed forms for
    k = 2, and cofactors for the determinant at k = 3."""
    if det and G.shape[0] == 3:
        return (G[0, 0] * (G[1, 1] * G[2, 2] - G[1, 2] * G[1, 2])
                - G[0, 1] * (G[0, 1] * G[2, 2] - G[1, 2] * G[0, 2])
                + G[0, 2] * (G[0, 1] * G[1, 2] - G[1, 1] * G[0, 2]))
    if G.shape[0] != 2:
        G = _first(G)
        return np.linalg.det(G) if det else np.linalg.eigvalsh(G)[:, [0, -1]].T
    g11, g22, g12 = G[0, 0], G[1, 1], G[0, 1]
    if det:
        return g11 * g22 - g12 * g12
    mid, rad = 0.5 * (g11 + g22), np.hypot(0.5 * (g11 - g22), g12)
    return mid - rad, mid + rad


def _settled_by_invariants(G: Array) -> Array:
    """The samples of a sample-last 3 x 3 Gram stack that the invariants
    pass: cond <= tr G tr G^-1 = tr G c2 / det (c2 the sum of the principal
    2 x 2 minors) <= COND_LIMIT / 4.  As G_ij^2 <= G_ii G_jj, det carries
    round-off below 1e-14 G_11 G_22 G_33 and the minor of (i, j) below
    1e-15 G_ii G_jj; with det at least ``HADAMARD_FLOOR`` times that product
    (so each minor is above det / G_ll) the computed bound errs by at most
    about 1e-6 relative, far inside the factor 4.  Without that floor a det
    of round-off alone, from nearly dependent columns, gives a small false
    bound."""
    diag = G[[0, 1, 2], [0, 1, 2]]
    det = _gram_spectrum(G, det=True)
    c2 = (diag[1] * diag[2] - G[1, 2] * G[1, 2] + diag[0] * diag[2] - G[0, 2] * G[0, 2]
          + diag[0] * diag[1] - G[0, 1] * G[0, 1])
    return ((det > HADAMARD_FLOOR * diag[0] * diag[1] * diag[2])
            & (np.sum(diag, axis=0) * c2 <= 0.25 * COND_LIMIT * det))


def _check_conditioning(J: Array, where: str) -> Array:
    """Return the Gram J^T J of a sample-last stack J (n, k, m); reject
    samples where it is not finite (its trace shows a NaN or inf of J), is
    singular or has cond = lmax / lmin above ``COND_LIMIT``.  For k = 3 the
    samples ``_settled_by_invariants`` pass, and eigenvalues decide the rest;
    these carry round-off of about 1e-16 lmax, far below lmax / COND_LIMIT."""
    G = _gram(J)
    _refuse(np.isfinite(np.trace(G)), DegenerateSampleError, f"{where} sample {{}}: J not finite")
    rest = np.flatnonzero(~_settled_by_invariants(G)) if G.shape[0] == 3 else slice(None)
    index = np.arange(G.shape[-1])[rest]
    if not index.size:
        return G
    lmin, lmax = _gram_spectrum(G[..., rest])
    if np.any(lmin <= 0.0):
        bad = index[np.argmax(lmin <= 0.0)]
        raise DegenerateSampleError(f"{where} sample {bad} has rank-deficient Jacobian")
    cond2 = lmax / lmin
    if np.any(cond2 > COND_LIMIT):
        bad = np.argmax(cond2 > COND_LIMIT)
        raise DegenerateSampleError(
            f"{where} sample {index[bad]}: cond(J^T J) = {cond2[bad]:.3e} exceeds {COND_LIMIT:.0e}"
        )
    return G


@dataclass(frozen=True)
class ImmersionGeometry:
    """Per-sample frames and fundamental forms, cached and read-only."""

    tangent: Array           # (k, n, m)
    normal: Array            # (q, n, m), q = n - k
    alpha: Array             # (k, k, q, m) normal-frame components
    alpha_gram: Array        # (q, q, m) sum_ij alpha_ijr alpha_ijs: |alpha(., .) X|^2 = X^T G X
    H: Array                 # (m, n) Euclidean mean curvature vectors
    b_normal: Array          # (q, n, mb)

    def __post_init__(self):
        for a in vars(self).values():
            a.flags.writeable = False


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
    ):
        self.k = int(k)
        self.n = int(n)
        self.xs = np.asarray(interior_x, float)
        self.J = _last(np.asarray(interior_J, float))
        self.Hchart = _last(np.asarray(interior_H, float))
        self.ws = np.asarray(interior_w, float)
        if boundary_x is None:
            boundary_x = np.zeros((0, self.n))
            boundary_J = np.zeros((0, self.n, self.k))
            boundary_w = np.zeros((0,))
            boundary_nu = np.zeros((0, self.n))
        self.bxs = np.asarray(boundary_x, float)
        self.bJ = _last(np.asarray(boundary_J, float))
        self.bws = np.asarray(boundary_w, float)
        self.bnus = np.asarray(boundary_nu, float)
        self._geometry = None
        self._ambient = {}
        self._validate()
        for a in (self.xs, self.J, self.Hchart, self.ws, self.bxs, self.bJ, self.bws, self.bnus,
                  self.jacobian_factor):
            a.flags.writeable = False

    Js = property(lambda self: self.J.transpose(2, 0, 1), doc="J sample-first, (m, n, k)")
    Hs = property(lambda self: self.Hchart.transpose(3, 0, 1, 2), doc="Hchart sample-first")
    bJs = property(lambda self: self.bJ.transpose(2, 0, 1), doc="bJ sample-first, (mb, n, k)")

    def _validate(self):
        k, n = self.k, self.n
        if not 1 <= k <= n - 1:
            raise ConfigError(f"need 1 <= k <= n-1, got k={k}, n={n}")
        m = self.xs.shape[0]
        if m == 0:
            raise ConfigError("immersion has no interior samples")
        if (self.xs.shape != (m, n) or self.J.shape != (n, k, m)
                or self.Hchart.shape != (k, k, n, m) or self.ws.shape != (m,)):
            raise ConfigError("interior sample array shapes are inconsistent")
        mb = self.bxs.shape[0]
        if mb and (self.bxs.shape != (mb, n) or self.bJ.shape != (n, k, mb)
                   or self.bws.shape != (mb,) or self.bnus.shape != (mb, n)):
            raise ConfigError("boundary sample array shapes are inconsistent")
        for where, x, w in (("interior", self.xs, self.ws), ("boundary", self.bxs, self.bws)):
            _refuse(np.isfinite(x).all(axis=1), ConfigError, f"{where} sample {{}}: x not finite")
            _refuse((w > 0) & (w < np.inf), ConfigError, f"{where} sample {{}}: w not in (0, inf)")
        gram = _check_conditioning(self.J, "interior")
        # sqrt(det J^T J) per interior sample, from the conditioning check's
        # Gram; builds no frames, so volumes never pay for ``geometry()``
        self.jacobian_factor = np.sqrt(_gram_spectrum(gram, det=True))
        H = self.Hchart
        size = np.maximum(H.max(), -H.min())  # max |H|, NaN if H holds one
        if not np.isfinite(size):
            _refuse(np.all(np.isfinite(H), axis=(0, 1, 2)), ConfigError,
                    "chart second derivatives of interior sample {} are not finite")
        asym = max((np.max(np.abs(H[a, b] - H[b, a])) for a, b in zip(*np.triu_indices(k, 1))),
                   default=0.0)
        if asym > 1e-9 * (1.0 + size):
            raise ConfigError("chart second derivatives are not symmetric")
        if mb:
            _check_conditioning(self.bJ, "boundary")
            _refuse(np.abs(np.linalg.norm(self.bnus, axis=1) - 1.0) <= 1e-9, InvalidSampleError,
                    "boundary sample {}: the conormal is not a unit vector")
            # conormal must lie in the tangent space of the immersion
            off = np.einsum("rxm,mx->rm", self._boundary_normal, self.bnus)
            if np.max(np.linalg.norm(off, axis=0)) > 1e-8:
                raise InvalidSampleError("boundary conormal not tangent to the immersion")

    @property
    def n_interior(self) -> int:
        return self.xs.shape[0]

    @property
    def n_boundary(self) -> int:
        return self.bxs.shape[0]

    @cached_property
    def _boundary_normal(self) -> Array:
        """The normal frame at the boundary samples (q, n, mb), built once for
        validation and ``geometry()``."""
        return _batched_frames(self.bJ)[1]

    def geometry(self) -> ImmersionGeometry:
        if self._geometry is None:
            T, N, C = _batched_frames(self.J)
            # hn[a, b, r] = <d_a d_b x, N_r> and alpha_r = C^T hn_r C
            hn = np.einsum("abxm,rxm->abrm", self.Hchart, N)
            alpha = np.einsum("aim,bjm,abrm->ijrm", C, C, hn)
            H = np.einsum("iirm,rxm->xm", alpha, N)
            self._geometry = ImmersionGeometry(
                T, N, alpha, np.einsum("ijrm,ijsm->rsm", alpha, alpha), _first(H),
                self._boundary_normal)
        return self._geometry

    def ambient(self, metric: ConformalMetric | None, domain=None) -> "AmbientSamples":
        """The record of what this immersion reads of ``metric`` and
        ``domain`` independently of any normal field, built on first use and
        cached per ``(metric, domain)`` like ``geometry()``."""
        key = (metric, domain)
        record = self._ambient.get(key)
        if record is None:
            record = self._ambient[key] = AmbientSamples(self, metric, domain)
        return record


@dataclass(frozen=True)
class NormalField:
    """A normal field over a whole immersion by its normal-frame components.

    ``normal[..., r, i]`` = <X, N_r> and ``dperp[..., a, r, i]`` =
    <D^perp_{v_a} X, N_r> at interior sample i, ``boundary[..., r, j]`` =
    <X, bN_r> at boundary sample j, for the samples' normal frames N and bN
    and tangent frame v.  Leading axes stack fields.
    """

    normal: Array     # (..., q, m)
    dperp: Array      # (..., k, q, m)
    boundary: Array   # (..., q, mb)

    def scaled(self, f: Array, df: Array, bf: Array) -> NormalField:
        """The field fX, for f given by its interior values (m,), its
        derivatives v_a(f) along the tangent frame (k, m) and its boundary
        values (mb,): D^perp(fX) = v(f) X + f D^perp X."""
        dperp = f * self.dperp
        for a, dfa in enumerate(df):
            dperp[..., a, :, :] += dfa * self.normal
        return NormalField(f * self.normal, dperp, bf * self.boundary)


def projected_field(imm: SampledImmersion, E) -> NormalField:
    """The projected constants E^perp of the vectors ``E`` (..., n), stacked
    over E's leading axes, with D^perp_{v_i} E^perp = -alpha(v_i, E^tan).

    Boundary samples carry no chart curvature, so the field holds their
    components only; the boundary densities are tensorial and never need more.
    The rows of E meet each sample-last frame in one matmul that writes
    <E, F_p> straight into the C-contiguous result: no frame is copied.
    """
    geo = imm.geometry()
    E = np.asarray(E, float)
    rows = E.reshape(-1, E.shape[-1])

    def on(a, F):
        out = np.empty((len(a), len(F), F.shape[-1]))
        np.matmul(a, F, out=out.transpose(1, 0, 2))
        return out.reshape(*E.shape[:-1], *F.shape[::2])

    return NormalField(on(rows, geo.normal),
                       np.einsum("ijrm,...jm->...irm", geo.alpha, on(-rows, geo.tangent)),
                       on(rows, geo.b_normal))


def _entry(fn):
    """A ``cached_property`` whose arrays are made read-only, since every
    reader of the record shares them."""
    @wraps(fn)
    def read(self):
        value = fn(self)
        parts = (value if isinstance(value, tuple)
                 else vars(value).values() if isinstance(value, NormalField) else (value,))
        for a in parts:
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        return value
    return cached_property(read)


class AmbientSamples:
    """Samples of one (immersion, metric, domain) triple that no normal
    field X changes; each entry is evaluated the first time it is read.

    An entry lives in the record keyed by what it depends on, so it is
    evaluated once per immersion whichever reader asks: the field samples,
    their tangential and normal components, the rescaled second fundamental
    form, Hess u, the tangent-traced curvature operator A and the operator of
    S~(X, X) = |D~X|^2 - X^T (A + G~) X on the normal frame, the integration
    densities, the mean curvature bracket, the minimality residuals and the
    rescaled constants e^{-u} E_l^perp under ``(metric, None)``; the boundary
    form on the rim's normal frame and the free-boundary defects under
    ``(None, domain)``; the conformal boundary form of T~(X, X) = X^T M~ X
    under ``(metric, domain)``, laid out by the module's rule.  The residual
    entries are ``ResidualReport``s.  Caching is sound because the
    immersion's arrays and geometry are read-only and metrics and domains are
    frozen.  An entry that raises stores nothing, so every read raises again.
    The record holds its immersion weakly: the cache makes no reference
    cycle.
    """

    def __init__(self, imm: SampledImmersion, metric: ConformalMetric | None, domain):
        self.imm = weakref.proxy(imm)
        self.metric = metric
        self.domain = domain

    # -- key (metric, None): interior samples ---------------------------------

    @_entry
    def u(self) -> Array:
        return self.metric.field.value(self.imm.xs)

    @_entry
    def grad(self) -> Array:
        return self.metric.field.gradient(self.imm.xs)

    @_entry
    def hess(self) -> Array:
        return self.metric.field.hessian(self.imm.xs)

    @_entry
    def grad_tan(self) -> Array:
        """Tangent-frame components of grad u, sample-last (k, m)."""
        return np.einsum("kxm,xm->km", self.imm.geometry().tangent, _last(self.grad))

    @_entry
    def grad_nor(self) -> Array:
        """Normal-frame components of grad u, sample-last (q, m)."""
        return np.einsum("rxm,xm->rm", self.imm.geometry().normal, _last(self.grad))

    @_entry
    def sff(self) -> Array:
        """Second fundamental form of the rescaled metric, sample-last (k, k,
        q, m): alpha~(X, Y) = alpha(X, Y) - <X, Y> grad^perp u."""
        eye = np.eye(self.imm.k)[:, :, None, None]
        return self.imm.geometry().alpha - eye * self.grad_nor

    @_entry
    def hess_tangent(self) -> Array:
        """sum_i Hess u(v_i, v_i) over the tangent frame, (m,): the trace of
        Hess u less its trace on the normal frame."""
        return np.einsum("mxx->m", self.hess) - np.einsum("rrm->m", self.hess_normal)

    @_entry
    def hess_normal(self) -> Array:
        """Hess u on the normal frame, Hess u(N_r, N_s), sample-last (q, q, m)."""
        return _on_frame(self.imm.geometry().normal, self.hess)

    @_entry
    def curvature_normal(self) -> Array:
        """The tangent-traced curvature operator A on the normal frame (q, q,
        m): sum_i <R(X, v_i)X, v_i> = X^T A X for a normal field's components
        X.  ``curvature_form`` sums to 2 B(X, PX) - k B(X, X) - tr(PB)|X|^2,
        B = ``conformal.schouten`` and P the tangent projector; PX = 0 for a
        normal X, so A = -k N B N^T - (sum_i v_i^T B v_i) I_q."""
        geo, B = self.imm.geometry(), conformal.schouten(self.grad, self.hess)
        traced = np.einsum("iim->m", _on_frame(geo.tangent, B))
        return (-self.imm.k * _on_frame(geo.normal, B)
                - traced * np.eye(len(geo.normal))[:, :, None])

    @_entry
    def s_operator(self) -> Array:
        """A + G~ on the normal frame (q, q, m), A = ``curvature_normal`` and
        G~_rs = sum_ij alpha~_ijr alpha~_ijs from ``sff``: the zeroth-order
        part of S~(X, X) = |D~X|^2 - X^T (A + G~) X."""
        return self.curvature_normal + np.einsum("ijrm,ijsm->rsm", self.sff, self.sff)

    @_entry
    def density(self) -> Array:
        return _density(self.imm, self.u)

    @_entry
    def bracket(self) -> Array:
        """H - k grad^perp u, (m, n); the rescaled mean curvature vector is
        e^{-2u} times it."""
        geo = self.imm.geometry()
        return geo.H - self.imm.k * np.einsum("rxm,rm->mx", geo.normal, self.grad_nor)

    @_entry
    def minimality(self) -> ResidualReport:
        """|H~|_{g~} = e^{-u} |H - k grad^perp u| per interior sample."""
        return _residual_report("minimality", bracket_norms(self.u, self.bracket), self.imm.xs)

    # -- key (metric, None): boundary samples ---------------------------------

    @_entry
    def b_u(self) -> Array:
        return self.metric.field.value(self.imm.bxs)

    @_entry
    def b_grad(self) -> Array:
        return self.metric.field.gradient(self.imm.bxs)

    @_entry
    def nu_u(self) -> Array:
        """Conormal derivative nu(u) per boundary sample."""
        return np.sum(self.b_grad * self.imm.bnus, axis=1)

    @_entry
    def b_density(self) -> Array:
        """w_b e^{(k-1)u}, the rescaled (k-1)-measure of each boundary sample."""
        return self.imm.bws * np.exp((self.imm.k - 1) * self.b_u)

    def integrate(self, values) -> float:
        """Integral of per-sample values against the rescaled k-measure."""
        return float(np.sum(self.density * values))

    def integrate_boundary(self, values) -> float:
        """Integral of per-sample values against the rescaled (k-1)-measure."""
        return float(np.sum(self.b_density * values))

    @_entry
    def rescaled_constants(self) -> NormalField:
        """The rescaled constants e^{-u} E_l^perp of the canonical basis,
        stacked over l; v_a(e^{-u}) = -u_a e^{-u}."""
        f = np.exp(-self.u)
        return projected_field(self.imm, np.eye(self.imm.n)).scaled(
            f, -self.grad_tan * f, np.exp(-self.b_u))

    # -- key (None, domain) ---------------------------------------------------

    @_entry
    def boundary_form(self) -> tuple[Array, Array, Array, Array]:
        """At the boundary samples: the outward unit normals (mb, n);
        ``domain.boundary_form`` M and the normals on the rim's normal frame,
        bN_r^T M bN_s (q, q, mb) and <nhat, bN_r> (q, mb), sample-last; and
        <eta, nu> (mb,)."""
        nhat = outward_normal(self.domain, self.imm.bxs)
        bN = self.imm.geometry().b_normal
        return (nhat, _on_frame(bN, domain_boundary_form(self.domain, self.imm.bxs)),
                np.einsum("rxm,mx->rm", bN, nhat), -np.sum(nhat * self.imm.bnus, axis=1))

    @_entry
    def defect(self) -> ResidualReport:
        """Free-boundary angle defect |1 - |<nu, outward normal>|| per boundary
        sample; raises ``InvalidSampleError`` without boundary samples or for
        a sample off the domain boundary."""
        imm = self.imm
        if not imm.n_boundary:
            raise InvalidSampleError("immersion has no boundary samples")
        _check_on_boundary(self.domain, imm.bxs)
        return _residual_report(
            "free-boundary", angle_defects(imm.bnus, self.boundary_form[0]), imm.bxs)

    # -- key (metric, domain) -------------------------------------------------

    @_entry
    def t_operator(self) -> Array:
        """M~ = e^{u} <eta, nu> (M - eta(u) I_q) on the rim's normal frame (q,
        q, mb), M from ``boundary_form`` and eta(u) = -<grad u, nhat>: T~(X,
        X) = X^T M~ X for a field tangent to the domain boundary."""
        nhat, form, _, eta_dot_nu = self.imm.ambient(None, self.domain).boundary_form
        samples = self.imm.ambient(self.metric)
        eta_u = -np.sum(samples.b_grad * nhat, axis=1)
        return np.exp(samples.b_u) * eta_dot_nu * (form - eta_u * np.eye(len(form))[:, :, None])


def _on_frame(F: Array, S: Array) -> Array:
    """F_r^T S F_s (p, p, m) of a stack ``S`` (m, n, n) on a sample-last frame
    ``F`` (p, n, m), by two contractions."""
    return np.einsum("rym,sym->rsm", np.einsum("rxm,xym->rym", F, _last(S)), F)


def _density(imm: SampledImmersion, u: Array) -> Array:
    """w sqrt(det g) e^{ku}, the rescaled k-measure of each interior sample."""
    return imm.ws * imm.jacobian_factor * np.exp(imm.k * u)


def volume(imm: SampledImmersion, metric: ConformalMetric) -> float:
    """Rescaled k-volume, the sum of the interior densities; builds no
    ambient record."""
    return float(np.sum(_density(imm, metric.field.value(imm.xs))))


def bracket_norms(u: Array, bracket: Array) -> Array:
    """|H~|_{g~} = e^{-u} |bracket| per sample, for the bracket H - k grad^perp u."""
    return np.exp(-u) * np.linalg.norm(bracket, axis=1)


def _check_on_boundary(domain, bxs: Array) -> None:
    """Raise ``InvalidSampleError`` for a boundary sample off the domain boundary."""
    phi_vals = np.abs(domain.phi.value(bxs))
    if not np.max(phi_vals) <= 1e-7:
        bad = int(np.argmax(phi_vals))
        raise InvalidSampleError(
            f"boundary sample {bad} is off the domain boundary: |phi| = {phi_vals[bad]:.3e}"
        )


def angle_defects(nus: Array, outward: Array, factor=1.0) -> Array:
    """Angle defect |1 - |factor <nu, n>|| per boundary sample, for conormals
    ``nus`` and outward unit normals ``outward`` of the domain."""
    return np.abs(1.0 - np.abs(factor * np.sum(nus * outward, axis=1)))


def boundary_defects(imm: SampledImmersion, domain, metric: ConformalMetric) -> Array:
    """The angle defect of each boundary sample in the rescaled metric: the
    pairing of the rescaled unit vectors e^{-u} nu and e^{-u} n in the
    rescaled inner product.  Angles are conformally invariant, so it agrees
    with the Euclidean ``AmbientSamples.defect`` identically."""
    if imm.n_boundary == 0:
        return np.zeros(0)
    _check_on_boundary(domain, imm.bxs)
    scale = np.exp(-metric.field.value(imm.bxs))[:, None]
    return angle_defects(scale * imm.bnus, scale * outward_normal(domain, imm.bxs),
                         metric.factor(imm.bxs))


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

@cache
def _leggauss(m):
    t, w = leggauss(m)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _gauss01(m):
    return _gauss_interval(m, 0.0, 1.0)


def _gauss_interval(m, a, b):
    t, w = _leggauss(m)
    return a + (b - a) * (t + 1.0) / 2.0, w * (b - a) / 2.0


def _tensor_grid(rules):
    """Raveled nodes per axis and product weights of the tensor product of
    one-dimensional ``(nodes, weights)`` rules, first axis slowest."""
    w = rules[0][1]
    for _, wa in rules[1:]:
        w = np.multiply.outer(w, wa)
    return [g.ravel() for g in np.meshgrid(*(a for a, _ in rules), indexing="ij")], w.ravel()


def _graph_over_chart(y, dy, d2y, graph):
    """Samples ``(x, J, H)`` of the graph x = (y, psi(y)) over a chart y of
    R^k, x (m, n) and sample-last J (n, k, m) and H (k, k, n, m), from the
    sample-last ``dy[i, a]`` = d_a y_i and ``d2y[a, b, i]`` = d_a d_b y_i.
    ``graph(y)`` gives psi (m, q), D psi (m, q, k) and D^2 psi (m, q, k, k),
    or None for both of a constant psi; the chain rule gives the height rows,
    d_a psi = D psi d_a y and d_a d_b psi = D^2 psi(d_a y, d_b y) + D psi d_a d_b y.
    """
    p, dp, d2p = graph(y)
    (k, _, m), n = dy.shape, y.shape[1] + p.shape[1]
    J, H = np.zeros((n, k, m)), np.zeros((k, k, n, m))
    J[:k], H[:, :, :k] = dy, d2y
    if dp is not None:
        dp = _last(dp)
        np.einsum("qim,iam->qam", dp, dy, out=J[k:])
        np.einsum("abim,qim->abqm", d2y, dp, out=H[:, :, k:])
        H[:, :, k:] += np.einsum("iam,qijm,jbm->abqm", dy, _last(d2p), dy)
    return np.concatenate([y, p], axis=1), J, H


def _circle(theta):
    """Unit directions (cos theta, sin theta) with their first and second
    angle derivatives, sample-last in the layouts of ``_polar_chart``."""
    om = np.stack([np.cos(theta), np.sin(theta)])
    return om, np.stack([-om[1], om[0]])[:, None], -om[None, None]


def _sphere(phi, theta):
    """Unit directions (sin phi (cos theta, sin theta), cos phi), phi the
    angle from the last axis, with their angle derivatives in (phi, theta)."""
    c, dc, d2c = _circle(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    zero = np.zeros((1, len(phi)))
    om = np.concatenate([sp * c, cp[None]])
    dom = np.stack([np.concatenate([cp * c, -sp[None]]),
                    np.concatenate([sp * dc[:, 0], zero])], axis=1)
    d2om = np.empty((2, 2, 3, len(phi)))
    d2om[0, 0] = -om
    d2om[0, 1] = d2om[1, 0] = np.concatenate([cp * dc[:, 0], zero])
    d2om[1, 1] = np.concatenate([sp * d2c[0, 0], zero])
    return om, dom, d2om


def _polar_chart(radius, r, om, dom, d2om):
    """The chart y = R r omega of the radius-R k-ball for
    ``_graph_over_chart``, on the grid of radial nodes ``r`` (slowest) times
    the angular nodes of the directions omega (k, a), ``dom[i, c]`` = d_c
    omega_i and ``d2om[c, d, i]`` = d_c d_d omega_i, each broadcast over r:
    d_r y = R omega, d_r d_c y = R d_c omega and d_r^2 y = 0."""
    k, Rr = len(om), (radius * r)[:, None]
    dy = np.empty((k, k, len(r), om.shape[1]))
    dy[:, 0], dy[:, 1:] = radius * om[:, None], Rr * dom[:, :, None]
    d2y = np.zeros((k,) + dy.shape)
    d2y[0, 1:] = d2y[1:, 0] = radius * np.swapaxes(dom, 0, 1)[:, :, None]
    d2y[1:, 1:] = Rr * d2om[:, :, :, None]
    return (Rr[:, :, None] * om.T).reshape(-1, k), dy.reshape(k, k, -1), d2y.reshape(k, k, k, -1)


def _ball_graph(k, radius, graph, nr, ntheta, nphi=0, with_boundary=True):
    """A graph over the polar (k = 2) or spherical-polar (k = 3) chart of
    the radius-R k-ball.

    Radial Gauss nodes avoid the chart singularity at the center; theta
    takes trapezoid nodes and the polar angle phi Gauss nodes.  The rim is
    the same chart at r = 1.  Its weights are |d_theta x| w_theta for k = 2
    and the flat sphere's R^2 sin(phi) w_phi w_theta for k = 3, whose
    catalog graphs are flat.
    """
    theta = np.arange(ntheta) * (2.0 * np.pi / ntheta), np.full(ntheta, 2.0 * np.pi / ntheta)
    if k == 2:
        directions, angles = _circle, [theta]
    else:
        directions, angles = _sphere, [_gauss_interval(nphi, 0.0, np.pi), theta]
    rim, bw = _tensor_grid(angles)
    om = directions(*rim)
    xs, J, H = _graph_over_chart(*_polar_chart(radius, _gauss01(nr)[0], *om), graph)
    n, ws = xs.shape[1], _tensor_grid([_gauss01(nr), *angles])[1]
    interior = k, n, xs, J.transpose(2, 0, 1), H.transpose(3, 0, 1, 2), ws
    if not with_boundary:
        return SampledImmersion(*interior)
    bx, bJ, _ = _graph_over_chart(*_polar_chart(radius, np.ones(1), *om), graph)
    bJ = bJ.transpose(2, 0, 1)
    if k == 2:
        bw = np.linalg.norm(bJ[:, :, 1], axis=1) * bw
    else:
        bw = bw * radius**2 * np.sin(rim[0])
    return SampledImmersion(*interior, bx, bJ, bw, polar_conormals(bJ))


def _codimension(n, k):
    if not 1 <= k <= n - 1:
        raise ConfigError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    return n - k


def _const_graph(n, k, heights):
    """A constant graph (heights, 0, ...) in the last n - k coordinates: no derivatives."""
    q = _codimension(n, k)
    h = np.pad(np.asarray(heights, float), (0, q - len(heights)))

    def graph(y):
        return np.broadcast_to(h, (len(y), q)), None, None

    return graph


def _poly_graph(n, k, per_output_terms):
    """Polynomial graph map, one term list per height coordinate."""
    q = _codimension(n, k)
    if len(per_output_terms) != q:
        raise ConfigError(f"graph map must have {q} output coordinates")
    fields = [make_field("polynomial", terms=t) for t in per_output_terms]

    def graph(y):
        return (np.stack([f.value(y) for f in fields], axis=1),
                np.stack([f.gradient(y) for f in fields], axis=1),
                np.stack([f.hessian(y) for f in fields], axis=1))

    return graph


def _cube_graph(k, n, per_output_terms, halfwidth, nodes_per_axis):
    """Tensor Gauss grid on [-h, h]^k under the identity chart with a
    polynomial graph map; no boundary."""
    graph = _poly_graph(n, k, per_output_terms)
    ys, ws = _tensor_grid([_gauss_interval(nodes_per_axis, -halfwidth, halfwidth)] * k)
    ys = np.stack(ys, axis=1)
    m = ys.shape[0]
    xs, J, H = _graph_over_chart(
        ys, np.repeat(np.eye(k)[:, :, None], m, axis=2), np.zeros((k, k, k, m)), graph
    )
    return SampledImmersion(k, n, xs, J.transpose(2, 0, 1), H.transpose(3, 0, 1, 2), ws)


def random_graph_terms(k, n, degree, seed):
    """Seeded random polynomial graph coefficients, one term list per height."""
    rng = np.random.default_rng(seed)
    exps = [e for total in range(1, degree + 1)
            for e in itertools.product(range(total + 1), repeat=k) if sum(e) == total]
    return [[[float(rng.normal(0.0, 0.35 ** sum(e))), list(e)] for e in exps]
            for _ in range(n - k)]


def make_immersion(kind: str, **params) -> SampledImmersion:
    """Build a catalog immersion.

    Kinds: ``equatorial-disk(n, k, radius)``, ``paraboloid-cap(curvature)``,
    ``tilted-disk(angle)``, ``graph(coeffs)`` and ``random-graph(seed,
    degree)``.  Each is a graph over a chart of R^k on a structured grid: the
    polar (k = 2) or spherical-polar (k = 3) chart with radial Gauss nodes for
    disks, the identity chart on a tensor Gauss cube for graphs.
    """
    what = f"immersion {kind!r}"
    if kind == "equatorial-disk":
        n = integer(params, "n", required(params, "n", what), 1)
        k = integer(params, "k", 2, 1)
        radius = number(params, "radius", 1.0, 0.0, strict=True)
        if k not in (2, 3):
            raise ConfigError("equatorial-disk supports k in {2, 3}")
        return _ball_graph(
            k, radius, _const_graph(n, k, []),
            integer(params, "nr", 32 if k == 2 else 12, 1),
            integer(params, "ntheta", 64 if k == 2 else 24, 1), integer(params, "nphi", 12, 1),
        )
    if kind == "paraboloid-cap":
        n = integer(params, "n", 3, 1)
        c = number(params, "curvature", 0.5)
        radius = number(params, "radius", 1.0, 0.0, strict=True)
        with_boundary = params.get("with_boundary", True)
        if not isinstance(with_boundary, bool):
            raise ConfigError(f"with_boundary must be true or false, got {with_boundary!r}")
        terms = [[[c / 2.0, [2, 0]], [c / 2.0, [0, 2]]]] + [[[0.0, [0, 0]]]] * (n - 3)
        return _ball_graph(
            2, radius, _poly_graph(n, 2, terms),
            integer(params, "nr", 16, 1), integer(params, "ntheta", 32, 1),
            with_boundary=with_boundary,
        )
    if kind == "tilted-disk":
        n = integer(params, "n", 3, 1)
        angle = number(params, "angle", required(params, "angle", what))
        return _ball_graph(
            2, float(np.cos(angle)), _const_graph(n, 2, [np.sin(angle)]),
            integer(params, "nr", 16, 1), integer(params, "ntheta", 32, 1),
        )
    if kind in ("graph", "random-graph"):
        k = integer(params, "k", 2, 1)
        n = integer(params, "n", required(params, "n", what), 1)
        if kind == "graph":
            terms = required(params, "coeffs", what)
        else:
            terms = random_graph_terms(k, n, integer(params, "degree", 2),
                                       integer(params, "seed", required(params, "seed", what)))
        return _cube_graph(
            k, n, terms,
            number(params, "halfwidth", 0.5),
            integer(params, "nodes_per_axis", 6 if k == 2 else 5, 1),
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
