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
boundary point: ``radial_margins`` reads them exactly at one.  Both metrics
share the sweep and run one polish search each, in lockstep; a search ends
once a whole round of its trials is flat to the acceptance gain
``POLISH_GAIN``, and at the latest after ``POLISH_ROUNDS`` rounds.

Sweep rays and the polish pattern are scrambled Sobol points mapped through
the normal quantile.  Both are numpy ports, bit for bit scipy's:
``Sobol`` is its scrambled Sobol engine and ``ndtri`` its Cephes normal
quantile, so that no scipy module is loaded.  The Joe–Kuo direction numbers
are read from the table file scipy ships, found without importing scipy.
"""

from __future__ import annotations

import functools
import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, ProjectionError, integer, number, required
from .fields import ConformalMetric, ScalarField, make_field

Array = np.ndarray

GRAD_FLOOR = 1e-10
# the polish replaces the sweep's worst point only when it lowers the margin
# by more than this, relative to max(1, |margin|): a round-off gain on a
# domain where every point ties would move the worst point arbitrarily
POLISH_GAIN = 1e-12
# pattern search: most rounds, Sobol offsets per round and their first scale
POLISH_ROUNDS = 40
POLISH_DIRS = 64
POLISH_CAP = 0.25
# bits per Sobol coordinate, the default of scipy's Sobol engine
SOBOL_BITS = 30
# Cephes ``ndtri`` (Moshier): numerator and monic denominator coefficients,
# highest power first, of the centre branch (in (y - 1/2)^2, for
# e^-2 < y < 1 - e^-2) and of the tail branches (in 1/r, r = sqrt(-2 log y),
# one for r < 8 and one beyond)
NDTRI_EXP_M2 = 0.13533528323661269189
NDTRI_CENTRE = (
    (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
     1.39312609387279679503E1, -1.23916583867381258016E0),
    (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
     -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
     1.59056225126211695515E1, -1.18331621121330003142E0),
)
NDTRI_NEAR = (
    (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
     4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
     -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4),
    (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
     1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
     -3.80806407691578277194E-2, -9.33259480895457427372E-4),
)
NDTRI_FAR = (
    (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
     1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
     3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9),
    (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
     2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
     2.89247864745380683936E-6, 6.79019408009981274425E-9),
)


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
    ``polish_rounds`` counts the rounds each polish search ran (Euclidean,
    rescaled), at most ``POLISH_ROUNDS``.
    """

    p: int
    margin_g: float
    margin_gtilde: float
    worst_point_g: Array
    worst_point_gtilde: Array
    nu_u_range: tuple[float, float]
    n_samples: int
    polish_rounds: tuple[int, int]

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


@functools.cache
def _sobol_numbers() -> tuple[Array, Array]:
    """Joe–Kuo primitive polynomials and initial direction numbers, read
    from the table scipy ships, which is found without importing scipy."""
    scipy_dir = Path(importlib.util.find_spec("scipy").origin).parent
    with np.load(scipy_dir / "stats" / "_sobol_direction_numbers.npz") as table:
        return table["poly"], table["vinit"]


@functools.cache
def _sobol_directions(d: int) -> Array:
    """(d, SOBOL_BITS) direction words by the Bratley–Fox recurrence, word j
    left-aligned to bit SOBOL_BITS - 1 - j."""
    poly, vinit = _sobol_numbers()
    v = np.ones((d, SOBOL_BITS), dtype=np.int64)
    for i in range(1, d):
        p = int(poly[i])
        m = p.bit_length() - 1
        row = [int(x) for x in vinit[i, :m]]
        for j in range(m, SOBOL_BITS):
            new = row[j - m]
            for k in range(1, m + 1):
                if (p >> (m - k)) & 1:
                    new ^= row[j - k] << k
            row.append(new)
        v[i] = row
    v <<= np.arange(SOBOL_BITS - 1, -1, -1)
    v.flags.writeable = False
    return v


class Sobol:
    """Scrambled Sobol points in [0, 1)^d, bit for bit those of scipy's
    ``Sobol(d=d, scramble=True, seed=seed)`` engine: Matoušek's
    linear matrix scramble and a digital shift, drawn from
    ``np.random.default_rng(seed)`` in scipy's order.  Successive ``random``
    calls continue one sequence, point i being point i - 1 XOR the scrambled
    direction word of the lowest set bit of i."""

    def __init__(self, d: int, seed: int):
        rng = np.random.default_rng(seed)
        place = np.arange(SOBOL_BITS - 1, -1, -1).astype(np.uint32)
        shift = rng.integers(0, 2, size=(d, SOBOL_BITS), dtype=np.uint32) @ (1 << place[::-1])
        lower = np.tril(rng.integers(0, 2, size=(d, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32))
        lower[:, range(SOBOL_BITS), range(SOBOL_BITS)] = 1
        # bit b of a word sits at index SOBOL_BITS - 1 - b of its bit vector
        bits = (_sobol_directions(d)[:, :, None] >> place).astype(np.uint32) & 1
        scrambled = np.einsum("dpk,djk->djp", lower, bits) & 1
        # row 0 steps from nothing to point 0, row c + 1 XORs bit c in
        self._steps = np.vstack([shift, (scrambled @ (1 << place)).T])
        self._count = 0
        self._last = np.zeros(d, dtype=np.uint32)

    def random(self, n: int) -> Array:
        """The next n >= 1 points, (n, d)."""
        i = np.arange(self._count, self._count + n)
        # frexp(i & -i)[1] is one more than the lowest set bit of i, 0 for i = 0
        words = np.take(self._steps, np.frexp(i & -i)[1], axis=0)
        words[0] ^= self._last
        np.bitwise_xor.accumulate(words, axis=0, out=words)
        self._count += n
        self._last = words[-1].copy()
        return words * 2.0**-SOBOL_BITS


def _rational(x: Array, coeffs) -> Array:
    """Cephes' ``x * polevl(x, num) / p1evl(x, den)``, Horner in its order."""
    num, den = coeffs
    top, bottom = np.full_like(x, num[0]), x + den[0]
    for c in num[1:]:
        top = top * x + c
    for c in den[1:]:
        bottom = bottom * x + c
    return x * top / bottom


def ndtri(y) -> Array:
    """The standard normal quantile, bit for bit ``scipy.special.ndtri``:
    Cephes' three rational branches, with the tail's two logarithms taken
    by ``math.log`` (the C library's, which scipy calls; numpy's vectorised
    log differs in the last bit).  0 maps to -inf, 1 to +inf, and anything
    outside [0, 1] or NaN to NaN, without a warning."""
    y = np.asarray(y, dtype=float)
    x = np.full(y.shape, np.nan)
    x[y == 0.0] = -np.inf
    x[y == 1.0] = np.inf
    upper = y > 1.0 - NDTRI_EXP_M2
    t = np.where(upper, 1.0 - y, y)
    inside = (y > 0.0) & (y < 1.0)
    centre = inside & (t > NDTRI_EXP_M2)
    c = t[centre] - 0.5
    # times Cephes' sqrt(2 pi)
    x[centre] = (c + c * _rational(c * c, NDTRI_CENTRE)) * 2.50662827463100050242
    tail = inside & ~centre
    r = np.sqrt(-2.0 * np.array([math.log(v) for v in t[tail]]))
    z = 1.0 / r
    fit = np.where(r < 8.0, _rational(z, NDTRI_NEAR), _rational(z, NDTRI_FAR))
    q = r - np.array([math.log(v) for v in r]) / r - fit
    x[tail] = np.where(upper[tail], q, -q)
    return x


def sample_boundary(domain: LevelSetDomain, count: int = 2048, seed: int = 0) -> Array:
    """Deterministic boundary sweep of ``max(count, 2n)`` points: axis and
    Sobol rays from the origin (``_sweep_directions``), all searched at once
    by ``_ray_search`` and Newton-projected.  The domain must be star-shaped
    about an interior origin, as every catalog domain is."""
    d = _sweep_directions(domain.n, count, seed)
    return project_to_boundary(domain, _ray_search(domain, d)[:, None] * d)


@functools.lru_cache(maxsize=32)
def _sweep_directions(n: int, count: int, seed: int) -> Array:
    """The sweep's unit rays: 2n signed axes, then scrambled Sobol points."""
    dirs = np.stack([np.eye(n), -np.eye(n)], axis=1).reshape(2 * n, n)
    if count > len(dirs):
        need = count - len(dirs)
        uu = Sobol(n, seed).random(1 << int(np.ceil(np.log2(need))))[:need]
        zz = ndtri(np.clip(uu, 1e-12, 1.0 - 1e-12))
        norms = np.linalg.norm(zz, axis=1)
        norms[norms == 0.0] = 1.0
        dirs = np.concatenate([dirs, zz / norms[:, None]])
    d = dirs / np.sqrt(np.vecdot(dirs, dirs))[:, None]
    d.flags.writeable = False
    return d


@functools.cache
def _polish_pattern(n: int) -> tuple[Array, Array]:
    """The polish's Sobol pattern in n-1 chart coordinates and its quadratic
    fit, built once per dimension and read-only."""
    pattern = ndtri(Sobol(n - 1, 0).random(POLISH_DIRS))
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
    round a search tries a fixed Sobol pattern in a cap about y plus the
    minimiser of a quadratic fitted to its last round, and moves only if its
    best trial beats the margin by ``POLISH_GAIN``; the cap halves unless a
    pattern trial was taken.  A search ends after ``POLISH_ROUNDS`` rounds, or
    earlier after a round that did not move it and whose every trial lies
    within ``POLISH_GAIN`` above its margin.  One search per metric, in
    lockstep: each round makes one projection and one eigensolve for the
    trials of the searches still live."""
    n = domain.n
    if not 1 <= p <= n - 1:
        raise ConfigError(f"need 1 <= p <= n-1, got p={p}")
    pattern, fit = _polish_pattern(n)
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
    exterior normal derivative range of u, from one boundary sweep and one
    eigensolve per point."""
    pts = sample_boundary(domain, count, seed)
    kappa, nhat = _curvatures_and_normals(domain, pts)
    kappa_gt, eta_u = _rescaled(field, pts, nhat, kappa)
    kappas = [kappa, kappa_gt]
    metrics = [None, ConformalMetric(field, domain.n)]
    (margin_g, worst_g, rounds_g), (margin_gt, worst_gt, rounds_gt) = _swept_margins(
        domain, p, metrics, pts, kappas)
    return ConvexityReport(p=p, margin_g=margin_g, margin_gtilde=margin_gt,
                           worst_point_g=worst_g, worst_point_gtilde=worst_gt,
                           nu_u_range=(float(np.min(-eta_u)), float(np.max(-eta_u))),
                           n_samples=len(pts), polish_rounds=(rounds_g, rounds_gt))


def radial_margins(domain: LevelSetDomain, field: ScalarField, p: int) -> tuple[float, float]:
    """Exact p-convexity margins ``(margin_g, margin_gtilde)`` of a radial
    domain (``domain.phi.radial``) for a radial exponent (``field.radial``).
    Every ray from the origin meets the boundary at one radius and rotations
    about the origin fix phi and u, so both curvature sums are the same at
    every boundary point; they are read at the one point on the ray +e_1,
    the sweep's first ray, by the sweep's kernels and so bit for bit its
    sample 0."""
    if not 1 <= p <= domain.n - 1:
        raise ConfigError(f"need 1 <= p <= n-1, got p={p}")
    d = np.eye(domain.n)[:1]
    x = project_to_boundary(domain, _ray_search(domain, d)[:, None] * d)
    kappa, nhat = _curvatures_and_normals(domain, x)
    kappa_gt = _rescaled(field, x, nhat, kappa)[0]
    return float(np.sum(kappa[:, :p], axis=1)[0]), float(np.sum(kappa_gt[:, :p], axis=1)[0])


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

