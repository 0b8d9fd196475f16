"""Constrained volume-gradient descent toward free boundary minimal disks.

The moving surface is a k=2 polar grid of control points in R^n: Gauss
radial rings plus a boundary ring pinned to the ambient boundary.  Chart
derivatives come from barycentric polynomial differentiation in the radius
and Fourier differentiation in the angle, so every grid yields a full
``SampledImmersion``; the flow builds one for the grid it returns.

Each fixed linear map of a grid is built once per ``(nr, ntheta)`` by
``grid_operators``: the radial factors [D; D2] and angular factors
[Dt; Dt2] that give the chart derivatives, the dense interior rows of the
stacked chart derivatives that assemble the Laplace-Beltrami operator,
and the per-ring filter.  A step is a few matrix products.  All grids of a
shape share one read-only copy; the flow keeps many grids alive, and a
copy per grid would multiply their memory.

The flow measures a grid straight from its chart derivatives, by the chart
Gram g = J^T J alone: it builds neither an immersion nor tangent or normal
frames.  One kernel, ``_gram_terms``, gives the Laplace-Beltrami
coefficients g^-1 and -g^ij Gamma^k_ij and the bracket H - 2 grad^perp u,
the normal part of g^ij d_ij x - 2 grad u, so the flow measures with the
operator it steps with; the rescaled volume sums w sqrt(det g) e^{2u} over
the det g and u already taken.  The certificate keeps the frame route of
``SampledImmersion.geometry()``.

The descent direction is the rescaled mean curvature vector in the interior
(the first variation is minus its pairing with the variation field, so
moving with the mean curvature vector shrinks volume) and, on the boundary
ring, the part of the negative rescaled conormal tangent to the ambient
boundary (admissible boundary variations slide along it).  Steps are
linearly implicit (Dziuk, Numer. Math. 1990): the Laplace-Beltrami operator
of the current grid, which maps the grid positions to the mean curvature
vector, is frozen and its interior block is solved at the new step, while
the rim moves explicitly.  Each step is then volume-backtracked and its rim
re-projected onto the boundary.

High angular modes on small-radius rings carry (m/r)^2 stiffness; smooth
fields have O(r^m) content there, so the stepped direction is low-pass
filtered per ring with a cutoff proportional to the radius.  The implicit
solve lifts the explicit (m/r)^2 step limit; what stays is the explicit
limit of the rim update, ``1 / (boundary_rate * |D[nr, nr]|)``.

A ``FlowState`` carries the ``GridMeasure`` of its grid: the operator
coefficients, u at every grid point, the bracket H - k grad^perp u, and
the rim's positions, conormals and the domain's outward normals there.
Each step takes its direction and operator from it and hands on the
accepted trial's measure, so every trial grid is measured once, and no
trial builds an immersion.

Free boundary critical points in a ball are saddle points: a disk lowers
volume by sliding its rim toward a pole, so an untempered boundary speed
drags the rim away before the interior has relaxed.  ``boundary_rate``
scales the rim speed (scaling a descent component keeps the descent sign)
so the interior residual reaches its target first.  For the same reason the
step starts at half the grid's explicit ``dt_stable`` and grows by 1.15 per
accepted step, rather than starting at the rim limit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cache

import numpy as np

from .domain import LevelSetDomain, outward_normal, project_to_boundary
from .errors import ConfigError, StepFailureError, integer, number
from .fields import ConformalMetric
from .submanifold import (SampledImmersion, _check_on_boundary, _gauss01, angle_defects,
                          bracket_norms, polar_conormals)

Array = np.ndarray

RIM_COLLAPSE = 1e-2  # rim extent, relative to the start, of a collapsed disk


def _diff_matrix(nodes: Array) -> Array:
    """Barycentric differentiation matrix on arbitrary distinct nodes."""
    x = np.asarray(nodes, float)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / np.prod(diff, axis=1)
    D = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -np.sum(D, axis=1))
    return D


@dataclass(frozen=True)
class GridOperators:
    """The fixed linear maps of every ``PolarGrid`` of one ``(nr, ntheta)``
    over the ring-major flattening of its N = (nr + 1) * ntheta points."""

    rs: Array                         # (nr + 1,) Gauss radii and the rim
    wr: Array                         # (nr,) Gauss weights
    D: Array                          # radial d/dr and d^2/dr^2
    D2: Array
    Dt: Array                         # spectral d/dtheta and d^2/dtheta^2
    Dt2: Array
    radial: Array                     # [D; D2]
    angular: Array                    # (2, 1, ntheta, ntheta) Dt, Dt2 over the rings
    ws: Array                         # (nr * ntheta,) interior quadrature weights
    chart: Array                      # (m, 5, N): d_r, d_rr, d_t, d_tt, d_rt
    lowpass: Array                    # (N, N) per-ring filter, block-diagonal
    dt_stable: float                  # explicit limit of the filtered (m/r)^2


@cache
def grid_operators(nr: int, ntheta: int) -> GridOperators:
    """The read-only operators shared by all grids of one shape.  Row p of
    ``chart[:, j]`` is derivative j at interior point p, the m = nr * ntheta
    rows that ``laplace_beltrami`` contracts.  The filter keeps the angular
    modes m <= max(1, 2 * mmax * r) of each ring."""
    r, wr = _gauss01(nr)
    rs = np.concatenate([r, [1.0]])
    D, Ir, It = _diff_matrix(rs), np.eye(nr + 1), np.eye(ntheta)
    D2 = D @ D
    mmax = ntheta // 2
    m = np.arange(mmax + 1)
    keep = np.minimum(np.maximum(1, np.floor(2.0 * mmax * rs).astype(int)), mmax)
    # row s of each inverse transform is an operator applied to e_s; the
    # Nyquist mode has no first derivative
    spec = np.fft.rfft(It)
    Dt, Dt2 = (np.fft.irfft(spec * mult, n=ntheta).T
               for mult in (np.where(m < mmax, 1j * m, 0.0), -(m**2.0)))
    blocks = np.fft.irfft(spec * (m <= keep[:, None, None]), n=ntheta)
    # the filter is block-diagonal, ring i's block at (i, i)
    lowpass = np.zeros((nr + 1, ntheta, nr + 1, ntheta))
    ring = np.arange(nr + 1)
    lowpass[ring, :, ring, :] = np.swapaxes(blocks, 1, 2)
    ops = GridOperators(
        rs, wr, D, D2, Dt, Dt2, np.vstack([D, D2]), np.stack([Dt, Dt2])[:, None],
        np.repeat(wr, ntheta) * (2.0 * np.pi / ntheta),
        np.stack([np.kron(D[:nr], It), np.kron(D2[:nr], It), np.kron(Ir[:nr], Dt),
                  np.kron(Ir[:nr], Dt2), np.kron(D[:nr], Dt)], axis=1),
        lowpass.reshape((nr + 1) * ntheta, -1), float(1.0 / np.max((keep / rs) ** 2)))
    for a in (ops.rs, ops.wr, ops.D, ops.D2, ops.Dt, ops.Dt2, ops.radial, ops.angular, ops.ws,
              ops.chart, ops.lowpass):
        a.flags.writeable = False
    return ops


class PolarGrid:
    """Control-point grid for a k=2 disk immersion in R^n.

    ``positions`` has shape (nr + 1, ntheta, n); the last radial ring is the
    boundary.  Its linear maps are ``ops = grid_operators(nr, ntheta)``.
    """

    def __init__(self, n: int, nr: int = 8, ntheta: int = 16):
        if ntheta % 2:
            raise ConfigError(f"flow grid ntheta must be even, got {ntheta}")
        self.n, self.nr, self.ntheta = n, nr, ntheta
        self.ops = ops = grid_operators(nr, ntheta)
        self.rs, self.wr, self.D, self.D2, self.Dt, self.Dt2, self.dt_stable = (
            ops.rs, ops.wr, ops.D, ops.D2, ops.Dt, ops.Dt2, ops.dt_stable)
        self.theta = np.arange(ntheta) * (2.0 * np.pi / ntheta)
        self.positions = np.zeros((nr + 1, ntheta, n))

    @classmethod
    def from_graph(cls, n: int, height_fn, nr: int = 8, ntheta: int = 16,
                   radius: float = 1.0) -> "PolarGrid":
        """Start from a graph over the equatorial disk: x = (y, psi(y)).

        ``height_fn(y) -> (m, n - 2)`` heights for planar points (m, 2).
        """
        grid = cls(n, nr, ntheta)
        circle = np.stack([np.cos(grid.theta), np.sin(grid.theta)], axis=-1)
        y = grid.positions[:, :, :2] = radius * (grid.rs[:, None, None] * circle)
        grid.positions[:, :, 2:] = np.reshape(height_fn(y.reshape(-1, 2)), (nr + 1, ntheta, n - 2))
        return grid

    def with_positions(self, positions: Array) -> "PolarGrid":
        out = copy.copy(self)
        out.positions = np.asarray(positions, float)
        return out

    def chart_derivatives(self):
        """``(P_r, P_rr, P_t, P_tt, P_rt)``, each shaped like ``positions``,
        from the factors: [D; D2] over the rings, [Dt; Dt2] along each ring,
        then D over the rings of P_t."""
        P = self.positions
        ops, shape = self.ops, (2,) + P.shape
        P_r, P_rr = (ops.radial @ P.reshape(len(P), -1)).reshape(shape)
        P_t, P_tt = ops.angular @ P
        return P_r, P_rr, P_t, P_tt, (ops.D @ P_t.reshape(len(P), -1)).reshape(P.shape)

    def immersion(self) -> SampledImmersion:
        """The grid's ``SampledImmersion``: Jacobians (m, n, 2), chart
        Hessians (m, 2, 2, n) and rim Jacobians (mb, n, 2) from
        ``chart_derivatives``."""
        nr, n = self.nr, self.n
        P_r, P_rr, P_t, P_tt, P_rt = self.chart_derivatives()
        Js = np.stack([P_r[:nr].reshape(-1, n), P_t[:nr].reshape(-1, n)], axis=2)
        # entries (rr, rt, tr, tt) of the chart Hessian, in row-major order
        Hs = np.stack([P_rr[:nr], P_rt[:nr], P_rt[:nr], P_tt[:nr]], axis=2).reshape(-1, 2, 2, n)
        bJs = np.stack([P_r[nr], P_t[nr]], axis=2)
        bws = np.linalg.norm(bJs[:, :, 1], axis=1) * (2.0 * np.pi / self.ntheta)
        return SampledImmersion(2, n, self.positions[:nr].reshape(-1, n), Js, Hs, self.ops.ws,
                                self.positions[nr], bJs, bws, polar_conormals(bJs))


def _gram_terms(x_r: Array, x_rr: Array, x_t: Array, x_tt: Array, x_rt: Array,
                grad: Array) -> tuple[Array, Array, Array]:
    """``(coef, bracket, det g)`` at the interior samples, from the five
    chart derivatives (each (m, n), in the order of ``GridOperators.chart``)
    and grad u there, by the chart Gram g = J^T J of J = [x_r | x_t].

    With A = g^ij d_ij x, the contraction g^ij Gamma^k_ij, where Gamma^k_ij =
    g^kl <d_ij x, d_l x>, is g^kl <A, d_l x>.  So c^k = -g^ij Gamma^k_ij is
    -(g^-1 J^T A)^k, and the mean curvature vector H = A + c^k d_k x is the
    normal part of A.  The projection is linear, so the bracket
    H - 2 grad^perp u is the normal part of A - 2 grad u: one tangential
    projection of the pair [A, A - 2 grad u] gives both c and the bracket.
    ``coef`` (m, 5) = (c^r, g^rr, c^t, g^tt, 2 g^rt) are the coefficients of
    the Laplace-Beltrami operator g^ij d_ij + c^k d_k, which maps x to H,
    per chart derivative.  The disks are 2-dimensional: g^-1 is the
    adjugate over det g, in closed form.
    """
    grr, grt, gtt = np.vecdot(x_r, x_r), np.vecdot(x_r, x_t), np.vecdot(x_t, x_t)
    det = grr * gtt - grt * grt
    irr, irt, itt = np.array([gtt, -grt, grr]) / det
    A = irr[:, None] * x_rr + itt[:, None] * x_tt + (2.0 * irt)[:, None] * x_rt
    pair = np.array([A, A - 2.0 * grad])
    # tangential coordinates g^-1 J^T v of v = A and v = A - 2 grad u, (2, m) each
    p_r, p_t = np.vecdot(pair, x_r), np.vecdot(pair, x_t)
    t_r, t_t = irr * p_r + irt * p_t, irt * p_r + itt * p_t
    coef = np.array([-t_r[0], irr, -t_t[0], itt, 2.0 * irt]).T
    return coef, pair[1] - t_r[1, :, None] * x_r - t_t[1, :, None] * x_t, det


def laplace_beltrami(grid: PolarGrid, coef: Array) -> Array:
    """Interior Laplace-Beltrami operator L = g^ij d_ij + c^k d_k on grid values.

    ``coef`` (m, 5) are per-row coefficients of the chart derivatives, those
    of ``_gram_terms`` or a row scaling of them.  Shape (nr * ntheta,
    (nr + 1) * ntheta) over the ring-major flattening of the grid, rim
    columns last, so that ``L @ positions.reshape(-1, n)`` is the mean
    curvature vector.  Row p contracts the five coefficients at p with
    ``grid.ops.chart[p]``.
    """
    return (coef[:, None, :] @ grid.ops.chart)[:, 0]


@dataclass(frozen=True)
class GridMeasure:
    """What the flow reads of one grid, measured once from its chart
    derivatives: the operator coefficients, u, the bracket and the rim.  A
    step hands the accepted trial's measure on to the next step."""

    coef: Array                       # (m, 5) (c^r, g^rr, c^t, g^tt, 2 g^rt)
    u: Array                          # (N,) conformal exponent, rim last
    bracket: Array                    # (m, n) H - k grad^perp u
    bxs: Array                        # (mb, n) rim positions
    bnus: Array                       # (mb, n) outward unit conormals of the disk
    rim_normals: Array                # (mb, n) outward unit normals of the domain


def _descent(measure: GridMeasure) -> tuple[Array, Array]:
    """Steepest-descent direction of rescaled volume from a measure: inside,
    the rescaled mean curvature vector (its pairing with the first variation
    is -|H~|^2 <= 0), H from the chart Gram (``_gram_terms``), not from
    ``geometry()``; on the rim, minus the rescaled conormal projected onto
    the ambient boundary's tangent space."""
    bnus, nhat, m = measure.bnus, measure.rim_normals, len(measure.bracket)
    interior = np.exp(-2.0 * measure.u[:m])[:, None] * measure.bracket
    nu_t = bnus - np.sum(bnus * nhat, axis=1, keepdims=True) * nhat
    return interior, -np.exp(-measure.u[m:])[:, None] * nu_t


@dataclass(frozen=True)
class FlowConfig:
    dt: float | None = None           # initial step; None: half the grid's dt_stable
    max_iter: int = 5000
    tol: float = 1e-3                 # target max |H~|
    boundary_tol: float = 1e-2        # target max angle defect
    boundary_rate: float = 0.1        # rim speed relative to interior
    max_backtracks: int = 20
    volume_slack: float = 1e-12       # times min(1, volume)

    def __post_init__(self):
        """Each option out of range or of the wrong type raises ``ConfigError``."""
        if self.dt is not None:
            number(vars(self), "dt", None, 0.0, strict=True)
        for key in ("max_iter", "max_backtracks"):
            integer(vars(self), key, None)
        for key in ("tol", "boundary_tol"):
            number(vars(self), key, None, 0.0)
        number(vars(self), "boundary_rate", None, 0.0, strict=True)
        number(vars(self), "volume_slack", None)


@dataclass(frozen=True)
class FlowState:
    grid: PolarGrid
    measure: GridMeasure              # of ``grid``
    step: float
    iteration: int
    volume: float
    residual: float                   # max |H~| over interior samples
    boundary_defect: float
    # per accepted grid: (residual, defect, volume, dt, backtracks)
    residual_history: tuple[tuple[float, float, float, float, int], ...]


def _filter_direction(grid: PolarGrid, direction: Array) -> Array:
    """Per-ring angular low-pass: keep modes m <= max(1, 2 * mmax * r)."""
    lowpass = grid.ops.lowpass
    return (lowpass @ direction.reshape(len(lowpass), -1)).reshape(direction.shape)


def _measurements(grid: PolarGrid, metric: ConformalMetric, domain: LevelSetDomain):
    """``(measure, volume, max |H~|, max angle defect)`` of one grid, from its
    chart derivatives; builds no immersion.  u is evaluated once at every
    grid point and grad u at the interior ones, and the volume sums
    w sqrt(det g) e^{2u} over the interior.  The rim is taken to lie on the
    domain boundary: ``flow_state`` checks the start's, and every trial's is
    projected there."""
    nr, n, P = grid.nr, grid.n, grid.positions
    derivs = grid.chart_derivatives()
    m = nr * grid.ntheta
    u = metric.field.value(P.reshape(-1, n))
    coef, bracket, det = _gram_terms(*(d[:nr].reshape(m, n) for d in derivs),
                                     metric.field.gradient(P[:nr].reshape(m, n)))
    # the rim Jacobians [d_r x | d_t x]
    bnus = polar_conormals(np.stack([derivs[0][nr], derivs[2][nr]], axis=2))
    nhat = outward_normal(domain, P[nr])
    vol = float(np.sum(grid.ops.ws * np.sqrt(det) * np.exp(2 * u[:m])))
    return (GridMeasure(coef, u, bracket, P[nr], bnus, nhat), vol,
            float(np.max(bracket_norms(u[:m], bracket))),
            float(np.max(angle_defects(bnus, nhat))))


def flow_state(grid: PolarGrid, metric: ConformalMetric, domain: LevelSetDomain,
               dt: float | None = None) -> FlowState:
    """The state of a start grid; raises ``InvalidSampleError`` for a rim
    point off the domain boundary."""
    _check_on_boundary(domain, grid.positions[grid.nr])
    measure, vol, res, defect = _measurements(grid, metric, domain)
    if dt is None:
        dt = 0.5 * grid.dt_stable
    return FlowState(grid, measure, dt, 0, vol, res, defect, ((res, defect, vol, 0.0, 0),))


def flow_step(state: FlowState, metric: ConformalMetric, domain: LevelSetDomain,
              config: FlowConfig | None = None) -> FlowState:
    """One linearly implicit step with boundary re-projection and volume
    backtracking: the accepted rescaled volume never grows beyond the slack.

    With d the descent direction (the rim part scaled by ``boundary_rate``),
    E = diag(e^{-2u}) and L the interior Laplace-Beltrami operator of the
    current grid, the interior velocity solves
    (I - dt E L_II) V_I = d_I + dt E L_IB d_B and the rim keeps V_B = d_B.
    Each backtrack re-solves at the halved step with the same L.  The step
    size never exceeds the rim's explicit limit,
    ``1 / (boundary_rate * |D[nr, nr]|)``."""
    cfg = config or FlowConfig()
    grid, measure = state.grid, state.measure
    interior, boundary = _descent(measure)
    rim = cfg.boundary_rate * boundary
    m = len(interior)
    EL = laplace_beltrami(grid, np.exp(-2.0 * measure.u[:m])[:, None] * measure.coef)
    EL_II, EL_rim = EL[:, :m], EL[:, m:] @ rim
    # explicit limit of the rim update, the one part of the step left explicit
    cap = float(1.0 / (cfg.boundary_rate * abs(grid.D[grid.nr, grid.nr])))
    dt = float(min(state.step, cap))
    for backtracks in range(cfg.max_backtracks + 1):
        # S = I - dt E L_II
        S = -dt * EL_II
        S.flat[:: m + 1] += 1.0
        try:
            V = np.linalg.solve(S, interior + dt * EL_rim)
        except np.linalg.LinAlgError:
            raise StepFailureError(
                f"singular implicit system at iteration {state.iteration}, dt = {dt:.6e}") from None
        direction = np.concatenate([V, rim]).reshape(grid.positions.shape)
        trial = grid.positions + dt * _filter_direction(grid, direction)
        trial[grid.nr] = project_to_boundary(domain, trial[grid.nr], tol=1e-12)
        new_grid = grid.with_positions(trial)
        new_measure, vol, res, defect = _measurements(new_grid, metric, domain)
        if vol <= state.volume + cfg.volume_slack * min(1.0, state.volume):
            next_dt = min(dt * 1.15, cap) if backtracks == 0 else dt
            return FlowState(
                new_grid, new_measure, next_dt, state.iteration + 1, vol, res, defect,
                state.residual_history + ((res, defect, vol, dt, backtracks),),
            )
        dt *= 0.5
    raise StepFailureError(f"backtracking exhausted after {cfg.max_backtracks} halvings at "
                           f"iteration {state.iteration}")


def run_flow(grid: PolarGrid, metric: ConformalMetric, domain: LevelSetDomain,
             config: FlowConfig | None = None):
    """Iterate flow steps until residual targets or the iteration budget.

    Returns ``(final immersion, converged, final state)``; the state carries
    the history of residual, defect, volume, step size and backtracks.
    Raises ``StepFailureError`` once the rim has collapsed toward a point.
    """
    cfg = config or FlowConfig()
    state = flow_state(grid, metric, domain, cfg.dt)
    extent = np.max(np.ptp(grid.positions[grid.nr], axis=0))
    for _ in range(cfg.max_iter):
        if state.residual <= cfg.tol and state.boundary_defect <= cfg.boundary_tol:
            break
        state = flow_step(state, metric, domain, cfg)
        if np.max(np.ptp(state.grid.positions[grid.nr], axis=0)) < RIM_COLLAPSE * extent:
            raise StepFailureError(f"the rim collapsed at iteration {state.iteration}")
    converged = state.residual <= cfg.tol and state.boundary_defect <= cfg.boundary_tol
    return state.grid.immersion(), converged, state
