"""Level-set domains, boundary shape operators and convexity margins.

The ambient domain is Omega = {phi < 0} for a smooth level-set function, so
the outward normal is grad phi / |grad phi| and the inward normal eta its
negative.  Signs are calibrated on the unit sphere: with the inward normal,
its shape operator is the identity, so p-convexity of the ball is positive.

Boundary sweeps sample the margin from below; they are lower bounds refined
by a deterministic local polish, not exact global minima.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.stats import qmc
from scipy.special import ndtri

from .errors import ConfigError, DomainError, ProjectionError
from .fields import ConformalMetric, ScalarField, make_field

Array = np.ndarray

GRAD_FLOOR = 1e-10
# the polish replaces the sweep's worst point only when it lowers the margin
# by more than this, relative to max(1, |margin|): a round-off gain on a
# domain where every point ties would move the worst point arbitrarily
POLISH_GAIN = 1e-12


@dataclass(frozen=True)
class LevelSetDomain:
    """Bounded domain Omega = {phi < 0} with boundary {phi = 0}."""

    phi: ScalarField
    n: int
    bounding_radius: float
    name: str = ""


@dataclass(frozen=True)
class ConvexityReport:
    """Sampled p-convexity margins of the boundary in both metrics.

    ``margin`` entries are minima over sampled boundary points of the sum of
    the p smallest shape-operator eigenvalues (inward-normal convention).
    ``nu_u_range`` is the (min, max) of the exterior normal derivative of u.
    """

    p: int
    margin_g: float
    margin_gtilde: float
    worst_point_g: Array
    worst_point_gtilde: Array
    nu_u_range: tuple[float, float]
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "schema": "fbstab-convexity/1",
            "p": self.p,
            "margin_g": self.margin_g,
            "margin_gtilde": self.margin_gtilde,
            "worst_point_g": list(map(float, self.worst_point_g)),
            "worst_point_gtilde": list(map(float, self.worst_point_gtilde)),
            "nu_u_min": self.nu_u_range[0],
            "nu_u_max": self.nu_u_range[1],
            "n_samples": self.n_samples,
        }


def _unit_gradient(domain: LevelSetDomain, x) -> tuple[Array, Array]:
    """grad phi / |grad phi| and |grad phi| (keeping the last axis)."""
    g = domain.phi.gradient(x)
    norm = np.linalg.norm(g, axis=-1, keepdims=True)
    if np.any(norm < GRAD_FLOOR):
        raise DomainError("level-set gradient vanishes at a boundary point")
    return g / norm, norm


def outward_normal(domain: LevelSetDomain, x) -> Array:
    return _unit_gradient(domain, x)[0]


def inward_normal(domain: LevelSetDomain, x) -> Array:
    """Inward unit normal eta = -grad phi / |grad phi| (phi < 0 inside)."""
    return -outward_normal(domain, x)


def project_to_boundary(domain: LevelSetDomain, x, tol: float = 1e-12,
                        max_iter: int = 50) -> Array:
    """Newton iteration along grad phi until |phi| <= tol, for one point
    ``(n,)`` or a batch ``(..., n)``; each point stops at its first iterate
    within tol."""
    y = np.array(x, dtype=float)
    pts = y.reshape(-1, domain.n)
    todo = np.arange(len(pts))
    for _ in range(max_iter):
        val = domain.phi.value(pts[todo])
        far = np.abs(val) > tol
        todo, val = todo[far], val[far]
        if not todo.size:
            return y
        g = domain.phi.gradient(pts[todo])
        g2 = np.vecdot(g, g)
        if np.any(g2 < GRAD_FLOOR**2):
            raise ProjectionError("level-set gradient vanished during projection")
        pts[todo] -= (val / g2)[:, None] * g
    raise ProjectionError(f"projection did not reach |phi| <= {tol:g} in {max_iter} steps")


def boundary_form(domain: LevelSetDomain, x) -> Array:
    """Ambient matrix M with X^T M Y = <alpha_boundary(X, Y), eta> for tangent X, Y.

    M = P (Hess phi) P / |grad phi| with P the tangential projector, ``(..., n, n)``;
    the unit sphere gets +1 eigenvalues on the tangent space (inward-normal sign).
    """
    nhat, norm = _unit_gradient(domain, x)
    P = np.eye(domain.n) - nhat[..., :, None] * nhat[..., None, :]
    return np.einsum("...ab,...bc,...cd->...ad", P, domain.phi.hessian(x), P) / norm[..., None]


def boundary_tangent_basis(domain: LevelSetDomain, x) -> Array:
    """Deterministic orthonormal basis of the boundary tangent space, ``(..., n-1, n)``."""
    nhat = outward_normal(domain, x)
    eye = np.broadcast_to(np.eye(domain.n), nhat.shape + (domain.n,))
    Q, R = np.linalg.qr(np.concatenate([nhat[..., None], eye], axis=-1))
    d = np.diagonal(R[..., : domain.n], axis1=-2, axis2=-1)
    Q = Q * np.where(d == 0.0, 1.0, np.sign(d))[..., None, :]
    return np.swapaxes(Q[..., 1:], -1, -2)


def _conformal_terms(domain: LevelSetDomain, field: ScalarField, x) -> tuple[Array, Array]:
    """e^{-u} and eta(u) = <grad u, eta> at boundary points, the two terms of
    the conformal law kappa~ = e^{-u} (kappa - eta(u)), which keeps the order."""
    eta_u = np.sum(field.gradient(x) * inward_normal(domain, x), axis=-1)
    return np.exp(-field.value(x)), eta_u


def shape_operator(domain: LevelSetDomain, x, metric: ConformalMetric | None = None) -> Array:
    """Symmetric shape operators in orthonormal tangent bases, ``(..., n-1, n-1)``.

    Euclidean: restriction of ``boundary_form``.  Rescaled metric: the
    eigenvalues transform as kappa~ = e^{-u} (kappa - eta(u)), which is the
    operator e^{-u} (S - eta(u) I) in the same basis.
    """
    B = boundary_tangent_basis(domain, x)
    S = B @ boundary_form(domain, x) @ np.swapaxes(B, -1, -2)
    S = 0.5 * (S + np.swapaxes(S, -1, -2))
    if metric is None:
        return S
    scale, eta_u = _conformal_terms(domain, metric.field, x)
    return scale[..., None, None] * (S - eta_u[..., None, None] * np.eye(domain.n - 1))


def principal_curvatures(domain: LevelSetDomain, x, metric=None) -> Array:
    """Ascending principal curvatures, ``(..., n-1)``; the rescaled ones come
    from the Euclidean eigenvalues through the conformal law."""
    kappa = np.linalg.eigvalsh(shape_operator(domain, x))
    if metric is None:
        return kappa
    scale, eta_u = _conformal_terms(domain, metric.field, x)
    return scale[..., None] * (kappa - eta_u[..., None])


# ---------------------------------------------------------------------------
# boundary sampling
# ---------------------------------------------------------------------------

def sample_boundary(domain: LevelSetDomain, count: int = 2048, seed: int = 0) -> Array:
    """Deterministic boundary sweep: axis points plus Sobol directions.

    All rays from the origin at once are bracketed by doubling from just
    outside the bounding radius, bisected 60 times and Newton-projected; this
    assumes the domain star-shaped about an interior origin, as every catalog
    domain is.  Returns ``max(count, 2n)`` points.
    """
    n = domain.n
    dirs = np.stack([np.eye(n), -np.eye(n)], axis=1).reshape(2 * n, n)
    if count > len(dirs):
        need = count - len(dirs)
        sob = qmc.Sobol(d=n, scramble=True, seed=seed)
        uu = sob.random(1 << int(np.ceil(np.log2(need))))[:need]
        zz = ndtri(np.clip(uu, 1e-12, 1.0 - 1e-12))
        norms = np.linalg.norm(zz, axis=1)
        norms[norms == 0.0] = 1.0
        dirs = np.concatenate([dirs, zz / norms[:, None]])
    d = dirs / np.sqrt(np.vecdot(dirs, dirs))[:, None]
    hi = np.full(len(d), 1.001 * domain.bounding_radius)
    for _ in range(8):
        outside = domain.phi.value(hi[:, None] * d) > 0.0
        if np.all(outside):
            break
        hi = np.where(outside, hi, 2.0 * hi)
    else:
        raise ProjectionError("could not bracket the boundary along a ray")
    if float(domain.phi.value(np.zeros(n))) >= 0.0:
        raise DomainError("boundary sampler assumes the origin lies inside the domain")
    lo = np.zeros(len(d))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        inside = domain.phi.value(mid[:, None] * d) < 0.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return project_to_boundary(domain, (0.5 * (lo + hi))[:, None] * d)


def _check_p(domain: LevelSetDomain, p: int):
    if not 1 <= p <= domain.n - 1:
        raise ConfigError(f"need 1 <= p <= n-1, got p={p}")


def _swept_margin(domain: LevelSetDomain, p: int, metric: ConformalMetric | None,
                  pts: Array, kappa: Array) -> tuple[float, Array]:
    """Minimum over the sweep of the sum of the p smallest curvatures, then a
    Nelder-Mead polish over directions.  Each trial point is a Newton
    projection from the worst sweep point's radius along the trial direction;
    the polished point is kept only if it beats the sweep by ``POLISH_GAIN``."""
    sums = np.sum(kappa[:, :p], axis=1)
    worst = int(np.argmin(sums))
    margin, worst_point = float(sums[worst]), pts[worst]
    radius = np.linalg.norm(worst_point)

    def boundary_point(v):
        return project_to_boundary(domain, radius * (v / np.linalg.norm(v)))

    def objective(v):
        if np.linalg.norm(v) < 1e-8:
            return margin + 1.0
        try:
            return float(np.sum(principal_curvatures(domain, boundary_point(v), metric)[:p]))
        except (ProjectionError, DomainError):
            return margin + 1.0

    res = optimize.minimize(objective, worst_point / radius, method="Nelder-Mead",
                            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 400})
    if res.fun < margin - POLISH_GAIN * max(1.0, abs(margin)):
        margin = float(res.fun)
        worst_point = boundary_point(res.x)
    return margin, worst_point


def p_convexity_margin(domain: LevelSetDomain, p: int,
                       metric: ConformalMetric | None = None,
                       count: int = 2048, seed: int = 0) -> tuple[float, Array]:
    """Sampled lower envelope of the sum of the p smallest principal curvatures.

    Returns ``(margin, worst_point)``, refined by a derivative-free local
    polish from the worst sampled direction (deterministic).
    """
    _check_p(domain, p)
    pts = sample_boundary(domain, count, seed)
    return _swept_margin(domain, p, metric, pts, principal_curvatures(domain, pts, metric))


def convexity_report(domain: LevelSetDomain, field: ScalarField, p: int,
                     count: int = 2048, seed: int = 0) -> ConvexityReport:
    """Margins in both the Euclidean and the rescaled metric, plus the
    exterior normal derivative range of u, from one boundary sweep and one
    eigensolve per point."""
    _check_p(domain, p)
    pts = sample_boundary(domain, count, seed)
    kappa = principal_curvatures(domain, pts)
    scale, eta_u = _conformal_terms(domain, field, pts)
    margin_g, worst_g = _swept_margin(domain, p, None, pts, kappa)
    margin_gt, worst_gt = _swept_margin(domain, p, ConformalMetric(field, domain.n), pts,
                                        scale[:, None] * (kappa - eta_u[:, None]))
    return ConvexityReport(p=p, margin_g=margin_g, margin_gtilde=margin_gt,
                           worst_point_g=worst_g, worst_point_gtilde=worst_gt,
                           nu_u_range=(float(np.min(-eta_u)), float(np.max(-eta_u))),
                           n_samples=len(pts))


MARGIN_SLACK = 1e-9


def corollary_gate(report: ConvexityReport) -> str:
    """Classify the domain/exponent pair of a convexity report by boundary
    monotonicity of u.

    ``case-i``: boundary p-convex in the Euclidean metric and u strictly
    increasing in the exterior direction; ``case-ii``: p-convex in the
    rescaled metric and u strictly decreasing outward; otherwise ``none``.
    Either case upgrades the other metric's p-convexity to strict.
    """
    nu_min, nu_max = report.nu_u_range
    if report.margin_g >= -MARGIN_SLACK and nu_min > 0.0:
        return "case-i"
    if report.margin_gtilde >= -MARGIN_SLACK and nu_max < 0.0:
        return "case-ii"
    return "none"


# ---------------------------------------------------------------------------
# domain catalog
# ---------------------------------------------------------------------------

def make_domain(kind: str, n: int, **params) -> LevelSetDomain:
    """Catalog domains: ``ball(radius)``, ``ellipsoid(semi_axes)``,
    ``superellipsoid(exponent)``."""
    if kind == "ball":
        r = float(params.get("radius", 1.0))
        phi = make_field("radial-custom", coeffs=[-(r**2), 1.0])
        return LevelSetDomain(phi, n, bounding_radius=r, name=f"ball({r:g})")
    if kind == "ellipsoid":
        axes = np.asarray(params["semi_axes"], float)
        if axes.shape != (n,) or np.any(axes <= 0):
            raise ConfigError("ellipsoid needs n positive semi-axes")
        terms = [[1.0 / axes[i] ** 2, [2 if j == i else 0 for j in range(n)]] for i in range(n)]
        terms.append([-1.0, [0] * n])
        phi = make_field("polynomial", terms=terms)
        name = "ellipsoid(" + ",".join(f"{a:g}" for a in axes) + ")"
        return LevelSetDomain(phi, n, bounding_radius=float(np.max(axes)), name=name)
    if kind == "superellipsoid":
        m = int(params.get("exponent", 2))
        if m < 2:
            raise ConfigError("superellipsoid exponent must be >= 2")
        terms = [[1.0, [2 * m if j == i else 0 for j in range(n)]] for i in range(n)]
        terms.append([-1.0, [0] * n])
        phi = make_field("polynomial", terms=terms)
        radius = float(n ** (0.5 - 0.5 / m))
        return LevelSetDomain(phi, n, bounding_radius=radius, name=f"superellipsoid({m})")
    raise ConfigError(f"unknown domain catalog name: {kind!r}")


def check_gradient_tube(domain: LevelSetDomain, count: int = 256, seed: int = 0,
                        floor: float = 1e-6, tube: float = 1e-2) -> float:
    """Sampled minimum of |grad phi| on the tube |phi| <= tube, probed at each
    sweep point and one tube width either side along the normal."""
    pts = sample_boundary(domain, count, seed)
    offsets = (tube * np.array([-1.0, 0.0, 1.0]))[:, None, None]
    ys = pts + offsets * outward_normal(domain, pts)
    ys = ys[np.abs(domain.phi.value(ys)) <= tube]
    g = domain.phi.gradient(ys)
    lo = float(np.min(np.sqrt(np.vecdot(g, g)), initial=np.inf))
    if lo < floor:
        raise DomainError(f"|grad phi| = {lo:.2e} below {floor:g} near the boundary")
    return lo
