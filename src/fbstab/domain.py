"""Level-set domains, boundary shape operators and convexity margins.

The ambient domain is Omega = {phi < 0} for a smooth level-set function, so
the outward normal is grad phi / |grad phi| and the inward normal eta its
negative.  Signs are calibrated on the unit sphere: with the inward normal,
its shape operator is the identity, so p-convexity of the ball is positive.

Principal curvatures come from a Householder block, with no tangent basis.
The sweep finds the boundary point on each ray from an interior origin by
Newton safeguarded with the ray's sign bracket, and stops on the step, not
on |phi|, which would leave points about 1e-13 off the root.

A margin is a minimum over sampled boundary points, so it can only
overestimate the true minimum: a sweep refined by a deterministic local
polish is an upper bound, not a certified global minimum.  The exception is
a radial domain with a radial exponent, whose margins are the same at every
boundary point: ``convexity_report`` reads them exactly at one.  Both
metrics share the sweep and run one polish search each, in lockstep; a
search ends once a whole round of its trials is flat to the acceptance gain
``POLISH_GAIN``, and at the latest after ``POLISH_ROUNDS`` rounds.

Sweep rays and the polish pattern are Gaussian points: the Box-Muller map
(``gaussian``) of a seeded Kronecker sequence (``kronecker``), which also
gives the interior points of a sampled curvature bound.  The same seed
gives the same points, and no scipy module is loaded.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ProjectionError, integer, number, required
from .fields import ConformalMetric, ScalarField, make_field

Array = np.ndarray

GRAD_FLOOR = 1e-10
# the polish replaces the sweep's worst point only when it lowers the margin
# by more than this, relative to max(1, |margin|): a round-off gain on a
# domain where every point ties would move the worst point arbitrarily
POLISH_GAIN = 1e-12
# pattern search: most rounds, Gaussian offsets per round and their first scale
POLISH_ROUNDS = 40
POLISH_DIRS = 64
POLISH_CAP = 0.25


@dataclass(frozen=True)
class LevelSetDomain:
    """Bounded domain Omega = {phi < 0} with boundary {phi = 0}."""

    phi: ScalarField
    n: int
    bounding_radius: float
    name: str = ""


@dataclass(frozen=True)
class ConvexityReport:
    """p-convexity margins of the boundary in both metrics.

    ``margin`` entries are minima over the ``n_samples`` boundary points of
    the sum of the p smallest shape-operator eigenvalues (inward-normal
    convention): exact on the ``radial-exact`` route, sampled upper bounds
    on the ``sampled`` one.  ``nu_u_range`` is the (min, max) of the
    exterior normal derivative of u.  ``polish_rounds`` counts the rounds
    each polish search ran (Euclidean, rescaled), at most ``POLISH_ROUNDS``
    and 0 on the ``radial-exact`` route.
    """

    p: int
    margin_g: float
    margin_gtilde: float
    worst_point_g: Array
    worst_point_gtilde: Array
    nu_u_range: tuple[float, float]
    n_samples: int
    polish_rounds: tuple[int, int]
    route: str

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
            "polish_rounds_g": self.polish_rounds[0],
            "polish_rounds_gtilde": self.polish_rounds[1],
            "route": self.route,
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


def project_to_boundary(domain: LevelSetDomain, x, tol: float = 1e-12,
                        max_iter: int = 50) -> Array:
    """Newton iteration along grad phi until |phi| <= tol, for one point
    ``(n,)`` or a batch ``(..., n)``; each point stops at its first iterate
    within tol.  While every point is still far, the whole batch steps
    without index arrays."""
    y = np.array(x, dtype=float)
    pts = y.reshape(-1, domain.n)
    todo = slice(None)
    for _ in range(max_iter):
        val = domain.phi.value(pts[todo])
        far = np.abs(val) > tol
        if not far.all():
            todo, val = np.arange(len(pts))[todo][far], val[far]
        if not val.size:
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
    The product is two batched ``matmul`` calls, O(n^3) per point.
    """
    nhat, norm = _unit_gradient(domain, x)
    P = np.eye(domain.n) - nhat[..., :, None] * nhat[..., None, :]
    return P @ domain.phi.hessian(x) @ P / norm[..., None]


def _rescaled(field: ScalarField, x, nhat: Array, kappa: Array) -> tuple[Array, Array]:
    """kappa~ = e^{-u} (kappa - eta(u)), which keeps the order, and eta(u) =
    <grad u, -nhat> at boundary points x with outward normals nhat."""
    eta_u = np.sum(field.gradient(x) * -nhat, axis=-1)
    return np.exp(-field.value(x))[..., None] * (kappa - eta_u[..., None]), eta_u


def _curvatures_and_normals(domain: LevelSetDomain, x) -> tuple[Array, Array]:
    """Ascending Euclidean principal curvatures ``(..., n-1)`` and the outward
    unit normals ``(..., n)`` at boundary points x: the curvatures are the
    eigenvalues of the leading (n-1)x(n-1) block of Q (Hess phi / |grad phi|) Q,
    Q the Householder reflection sending the unit normal to -+e_n."""
    nhat, norm = _unit_gradient(domain, x)
    H = domain.phi.hessian(x) / norm[..., None]
    v = nhat + np.copysign(np.eye(domain.n)[-1], nhat[..., -1:])
    beta = 1.0 / np.abs(v[..., -1:])  # 2 / |v|^2, as |nhat| = 1
    # Q H Q = H - v z^T - z v^T with z = beta H v - beta^2 (v.Hv) v / 2
    w = beta * np.sum(H * v[..., None, :], axis=-1)
    z = w - 0.5 * beta * np.sum(v * w, axis=-1, keepdims=True) * v
    vz = v[..., :-1, None] * z[..., None, :-1]
    return np.linalg.eigvalsh(H[..., :-1, :-1] - (vz + np.swapaxes(vz, -1, -2))), nhat


# ---------------------------------------------------------------------------
# boundary sampling
# ---------------------------------------------------------------------------

def _ray_search(domain: LevelSetDomain, d: Array) -> Array:
    """Roots t of phi(t d) on unit rays ``d``: a doubling bracket, then Newton
    that bisects the sign bracket [lo, hi] for a step leaving it or not
    finite; a ray stops after taking its first step of at most 1e-12 t."""
    hi = np.full(len(d), 1.001 * domain.bounding_radius)
    for _ in range(8):
        outside = domain.phi.value(hi[:, None] * d) > 0.0
        if np.all(outside):
            break
        hi = np.where(outside, hi, 2.0 * hi)
    else:
        raise ProjectionError("could not bracket the boundary along a ray")
    if float(domain.phi.value(np.zeros(domain.n))) >= 0.0:
        raise DomainError("boundary sampler assumes the origin lies inside the domain")
    t, lo, todo = hi.copy(), np.zeros(len(d)), np.arange(len(d))
    for _ in range(60):
        x, tt = t[todo, None] * d[todo], t[todo]
        f = domain.phi.value(x)
        lo[todo] = np.where(f < 0.0, tt, lo[todo])
        hi[todo] = np.where(f < 0.0, hi[todo], tt)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = f / np.vecdot(domain.phi.gradient(x), d[todo])
        new, done = tt - step, np.abs(step) <= 1e-12 * tt
        keep = done | ((new > lo[todo]) & (new < hi[todo]))
        t[todo] = np.where(keep, new, 0.5 * (lo[todo] + hi[todo]))
        todo = todo[~done]
        if not todo.size:
            return t
    raise ProjectionError("ray search did not converge in 60 steps")


def kronecker(d: int, count: int, seed: int, start: int = 0) -> Array:
    """Points ``start .. start + count - 1`` of a seeded Kronecker sequence in
    [0, 1)^d (Roberts' R_d): point i is the fractional part of s + i alpha,
    alpha_j = g^-j for g the positive root of x^(d+1) = x + 1, and the shift
    s drawn from ``np.random.default_rng(seed)``.  A point depends on its
    index alone, so a draw from ``start`` is the tail of a longer one."""
    g = 2.0
    for _ in range(64):  # the fixed point g = (1 + g)^(1/(d+1)) contracts
        g = (1.0 + g) ** (1.0 / (d + 1))
    alpha = g ** -np.arange(1.0, d + 1)
    i = np.arange(start, start + count, dtype=float)[:, None]
    return (np.random.default_rng(seed).random(d) + i * alpha) % 1.0


def gaussian(d: int, count: int, seed: int) -> Array:
    """(count, d) standard normal points: the Box-Muller map of the
    Kronecker points in 2 ceil(d/2) dimensions, one coordinate pair per
    uniform pair."""
    u = kronecker(2 * -(-d // 2), count, seed)
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    angle = 2.0 * np.pi * u[:, 1::2]
    return np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1).reshape(count, -1)[:, :d]


def sample_boundary(domain: LevelSetDomain, count: int = 2048, seed: int = 0) -> Array:
    """Deterministic boundary sweep of ``max(count, 2n)`` points: axis and
    Gaussian rays from the origin (``_sweep_directions``), all searched at once
    by ``_ray_search`` and Newton-projected.  The domain must be star-shaped
    about an interior origin, as every catalog domain is."""
    d = _sweep_directions(domain.n, count, seed)
    return project_to_boundary(domain, _ray_search(domain, d)[:, None] * d)


@functools.lru_cache(maxsize=32)
def _sweep_directions(n: int, count: int, seed: int) -> Array:
    """The sweep's unit rays: 2n signed axes, then Gaussian points."""
    dirs = np.stack([np.eye(n), -np.eye(n)], axis=1).reshape(2 * n, n)
    if count > len(dirs):
        dirs = np.concatenate([dirs, gaussian(n, count - len(dirs), seed)])
    d = dirs / np.sqrt(np.vecdot(dirs, dirs))[:, None]
    d.flags.writeable = False
    return d


@functools.cache
def _polish_pattern(n: int) -> tuple[Array, Array]:
    """The polish's Gaussian pattern in n-1 chart coordinates and its
    quadratic fit, built once per dimension and read-only."""
    pattern = gaussian(n - 1, POLISH_DIRS, 0)
    squares = np.einsum("mi,mj->mij", pattern, pattern).reshape(POLISH_DIRS, -1)
    fit = np.linalg.pinv(np.column_stack([np.ones(POLISH_DIRS), pattern, squares]))
    pattern.flags.writeable = fit.flags.writeable = False
    return pattern, fit


def _pattern_search(p: int, pts: Array, kappa: Array, pattern: Array, fit: Array):
    """One search of ``_swept_margins``: yields each round's trials, is sent
    them projected with their p-sums, and lastly yields ``(margin, point,
    rounds)``."""
    n = pts.shape[1]
    sums = np.sum(kappa[:, :p], axis=1)
    worst = int(np.argmin(sums))
    margin, point = float(sums[worst]), pts[worst]
    origin = point / np.linalg.norm(point)
    tangent = np.linalg.qr(np.column_stack([origin, np.eye(n)]))[0][:, 1:].T
    cap, y, guess = POLISH_CAP, np.zeros(n - 1), np.zeros(n - 1)
    for rounds in range(1, POLISH_ROUNDS + 1):
        ys = np.vstack([y + cap * pattern, guess])
        dirs = origin + ys @ tangent
        trial, sums = yield np.linalg.norm(point) * dirs / np.linalg.norm(dirs, axis=1)[:, None]
        coef = fit @ sums[:-1]
        hess = 2.0 * coef[n:].reshape(n - 1, n - 1)
        step = np.zeros(n - 1)
        if np.linalg.eigvalsh(hess)[0] > 0.0:
            step = -np.linalg.solve(hess, coef[1:n])
            step *= POLISH_CAP / max(POLISH_CAP, cap * np.linalg.norm(step))
        guess = y + cap * step
        best = int(np.argmin(sums))
        gain = POLISH_GAIN * max(1.0, abs(margin))
        moved = sums[best] < margin - gain
        if moved:
            margin, point, y = float(sums[best]), trial[best], ys[best]
        elif np.max(sums) <= margin + gain:
            break  # flat to the gain over the whole round: converged
        if not moved or best == POLISH_DIRS:
            cap *= 0.5
    yield margin, point, rounds


def _swept_margins(domain: LevelSetDomain, p: int, metrics, pts: Array,
                   kappas) -> list[tuple[float, Array, int]]:
    """``(margin, worst_point, rounds)`` per metric (``None``: Euclidean) from
    its curvatures ``kappas`` at the sweep ``pts``: the minimum of the sum of
    the p smallest, then a batched pattern search (Torczon 1997) in chart
    coordinates y on the tangent plane at the worst sweep direction.  Each
    round a search tries a fixed Gaussian pattern in a cap about y plus the
    minimiser of a quadratic fitted to its last round, and moves only if its
    best trial beats the margin by ``POLISH_GAIN``; the cap halves unless a
    pattern trial was taken.  A search ends after ``POLISH_ROUNDS`` rounds, or
    earlier after a round that did not move it and whose every trial lies
    within ``POLISH_GAIN`` above its margin.  One search per metric, in
    lockstep: each round makes one projection and one eigensolve for the
    trials of the searches still live."""
    pattern, fit = _polish_pattern(domain.n)
    searches = [_pattern_search(p, pts, kappa, pattern, fit) for kappa in kappas]
    batches = [next(search) for search in searches]
    live = list(range(len(searches)))
    while live:
        trial = project_to_boundary(domain, np.concatenate([batches[i] for i in live]))
        kappa, nhat = _curvatures_and_normals(domain, trial)
        for i, x, k, nh in zip(live, *(np.split(a, len(live)) for a in (trial, kappa, nhat))):
            if metrics[i] is not None:
                k = _rescaled(metrics[i].field, x, nh, k)[0]
            batches[i] = searches[i].send((x, np.sum(k[:, :p], axis=1)))
        # a live search yields trials, an ended one its (margin, point, rounds)
        live = [i for i in live if not isinstance(batches[i], tuple)]
    return batches


def convexity_report(domain: LevelSetDomain, field: ScalarField, p: int,
                     count: int = 2048, seed: int = 0) -> ConvexityReport:
    """Margins in both the Euclidean and the rescaled metric, plus the
    exterior normal derivative range of u, from one eigensolve per boundary
    point.  On a radial domain (``domain.phi.radial``) with a radial exponent
    (``field.radial``) every ray from the origin meets the boundary at one
    radius and rotations about the origin fix phi and u, so both curvature
    sums and eta(u) are the same at every boundary point: the report reads
    them exactly at the one point on the ray +e_1, with no sweep and no
    polish (route ``radial-exact``).  Otherwise it sweeps ``count`` rays and
    polishes (route ``sampled``)."""
    if not 1 <= p <= domain.n - 1:
        raise ConfigError(f"need 1 <= p <= n-1, got p={p}")
    radial = domain.phi.radial and field.radial
    if radial:
        d = np.eye(domain.n)[:1]
        pts = project_to_boundary(domain, _ray_search(domain, d)[:, None] * d)
    else:
        pts = sample_boundary(domain, count, seed)
    kappa, nhat = _curvatures_and_normals(domain, pts)
    kappa_gt, eta_u = _rescaled(field, pts, nhat, kappa)
    kappas = [kappa, kappa_gt]
    if radial:
        margins = [(float(np.sum(k[:, :p], axis=1)[0]), pts[0], 0) for k in kappas]
    else:
        margins = _swept_margins(domain, p, [None, ConformalMetric(field, domain.n)], pts,
                                 kappas)
    (margin_g, worst_g, rounds_g), (margin_gt, worst_gt, rounds_gt) = margins
    return ConvexityReport(p=p, margin_g=margin_g, margin_gtilde=margin_gt,
                           worst_point_g=worst_g, worst_point_gtilde=worst_gt,
                           nu_u_range=(float(np.min(-eta_u)), float(np.max(-eta_u))),
                           n_samples=len(pts), polish_rounds=(rounds_g, rounds_gt),
                           route="radial-exact" if radial else "sampled")


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
        r = number(params, "radius", 1.0, 0.0, strict=True)
        phi = make_field("radial-custom", coeffs=[-(r**2), 1.0])
        return LevelSetDomain(phi, n, bounding_radius=r, name=f"ball({r:g})")
    if kind == "ellipsoid":
        axes = required(params, "semi_axes", "domain 'ellipsoid'")
        if not isinstance(axes, (list, tuple, np.ndarray)) or len(axes) != n:
            raise ConfigError(f"ellipsoid needs {n} positive semi-axes, got {axes!r}")
        axes = np.array([number({"semi_axes": a}, "semi_axes", None) for a in axes])
        if np.any(axes <= 0):
            raise ConfigError(f"ellipsoid needs {n} positive semi-axes, got {axes.tolist()}")
        terms = [[1.0 / axes[i] ** 2, [2 if j == i else 0 for j in range(n)]] for i in range(n)]
        terms.append([-1.0, [0] * n])
        phi = make_field("polynomial", terms=terms)
        name = "ellipsoid(" + ",".join(f"{a:g}" for a in axes) + ")"
        return LevelSetDomain(phi, n, bounding_radius=float(np.max(axes)), name=name)
    if kind == "superellipsoid":
        m = integer(params, "exponent", 2, 2)
        terms = [[1.0, [2 * m if j == i else 0 for j in range(n)]] for i in range(n)]
        terms.append([-1.0, [0] * n])
        phi = make_field("polynomial", terms=terms)
        radius = float(n ** (0.5 - 0.5 / m))
        return LevelSetDomain(phi, n, bounding_radius=radius, name=f"superellipsoid({m})")
    raise ConfigError(f"unknown domain catalog name: {kind!r}")

