"""Constrained volume-gradient descent toward free boundary minimal disks.

The moving surface is a k=2 polar grid of control points in R^n: Gauss
radial rings plus a boundary ring pinned to the ambient boundary.  Chart
derivatives come from barycentric polynomial differentiation in the radius
and Fourier differentiation in the angle, so every grid yields a full
``SampledImmersion``; the flow builds one, validated, for the grid it
returns.

Each fixed linear map of a grid is one dense matrix over the flattened grid,
built once per ``(nr, ntheta)`` by ``grid_operators``: the stacked chart
derivatives, whose interior rows also assemble the Laplace-Beltrami
operator, and the per-ring filter.  A step is a few matrix products.  All
grids of a shape share one read-only copy; the flow keeps many grids alive,
and a copy per grid would multiply their memory.

The flow measures a grid straight from its chart stack, by the chart Gram
g = J^T J alone: it builds neither an immersion nor tangent or normal
frames.  The Laplace-Beltrami coefficients g^-1 and -g^ij Gamma^k_ij give
the mean curvature vector H (the operator applied to x), and the tangential
projector J g^-1 J^T gives grad^perp u, so the flow measures with the
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
coefficients, u, the bracket H - k grad^perp u, and the rim's positions,
conormals and the domain's outward normals there.  Each step takes its
direction and operator from it and hands on the accepted trial's measure,
so every trial grid is measured once, and no trial builds an immersion.

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
from scipy.linalg import block_diag
from scipy.linalg.lapack import dgesv

from .domain import LevelSetDomain, outward_normal, project_to_boundary
from .errors import ConfigError, StepFailureError
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
    ws: Array                         # (nr * ntheta,) interior quadrature weights
    chart: Array                      # (N, 5, N): d_r, d_rr, d_t, d_tt, d_rt
    lowpass: Array                    # (N, N) per-ring filter, block-diagonal
    dt_stable: float                  # explicit limit of the filtered (m/r)^2


@cache
def grid_operators(nr: int, ntheta: int) -> GridOperators:
    """The read-only operators shared by all grids of one shape.  Row p of
    ``chart[:, j]`` is derivative j at point p, so ``chart[:m]`` are the
    interior rows that ``laplace_beltrami`` contracts.  The filter keeps the
    angular modes m <= max(1, 2 * mmax * r) of each ring."""
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
    ops = GridOperators(
        rs, wr, D, D2, Dt, Dt2, np.repeat(wr, ntheta) * (2.0 * np.pi / ntheta),
        np.stack([np.kron(D, It), np.kron(D2, It), np.kron(Ir, Dt), np.kron(Ir, Dt2),
                  np.kron(D, Dt)], axis=1),
        block_diag(*np.swapaxes(blocks, 1, 2)), float(1.0 / np.max((keep / rs) ** 2)))
    for a in (ops.rs, ops.wr, ops.D, ops.D2, ops.Dt, ops.Dt2, ops.ws, ops.chart, ops.lowpass):
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
        """``(P_r, P_rr, P_t, P_tt, P_rt)``, each shaped like ``positions``."""
        N, n = len(self.ops.chart), self.n
        out = self.ops.chart.reshape(-1, N) @ self.positions.reshape(N, n)
        return tuple(np.moveaxis(out.reshape(self.nr + 1, self.ntheta, 5, n), 2, 0))

    def samples(self) -> tuple[Array, Array, Array, Array]:
        """``(xs, Js, Hs, bJs)`` in the layout of ``SampledImmersion``: the
        interior positions (m, n), Jacobians (m, n, 2) and chart Hessians
        (m, 2, 2, n), and the rim Jacobians (mb, n, 2), from one product of
        the chart stack."""
        nr, n = self.nr, self.n
        P_r, P_rr, P_t, P_tt, P_rt = self.chart_derivatives()
        Js = np.stack([P_r[:nr].reshape(-1, n), P_t[:nr].reshape(-1, n)], axis=2)
        # entries (rr, rt, tr, tt) of the chart Hessian, in row-major order
        Hs = np.stack([P_rr[:nr], P_rt[:nr], P_rt[:nr], P_tt[:nr]], axis=2).reshape(-1, 2, 2, n)
        bJs = np.stack([P_r[nr], P_t[nr]], axis=2)
        return self.positions[:nr].reshape(-1, n), Js, Hs, bJs

    def immersion(self, validate: bool = False) -> SampledImmersion:
        xs, Js, Hs, bJs = self.samples()
        bws = np.linalg.norm(bJs[:, :, 1], axis=1) * (2.0 * np.pi / self.ntheta)
        return SampledImmersion(2, self.n, xs, Js, Hs, self.ops.ws, self.positions[self.nr],
                                bJs, bws, polar_conormals(bJs), validate=validate)


def _tangential(Js: Array, ginv: Array, v: Array) -> tuple[Array, Array]:
    """``(g^-1 J^T v, J g^-1 J^T v)`` per sample, by ``vecdot``."""
    t = np.vecdot(ginv, np.vecdot(Js, v[:, :, None], axis=1)[:, None])
    return t, np.vecdot(Js, t[:, None])


def _gram_terms(Js: Array, Hs: Array) -> tuple[Array, Array, Array, Array]:
    """``(g^-1, c, H, det g)`` at the interior samples, from the Jacobians
    ``Js`` (m, n, 2) and chart Hessians ``Hs`` (m, 2, 2, n) by the chart
    Gram g = J^T J.

    With A = g^ij d_ij x, the contraction g^ij Gamma^k_ij, where Gamma^k_ij =
    g^kl <d_ij x, d_l x>, is g^kl <A, d_l x>.  So c^k = -g^ij Gamma^k_ij is
    -(g^-1 J^T A)^k, and the mean curvature vector H = A + c^k d_k x is the
    normal part of A.  g^-1 and c are the coefficients of the
    Laplace-Beltrami operator g^ij d_ij + c^k d_k, which maps x to H.  The
    disks are 2-dimensional: g^-1 is the adjugate over det g, in closed form.
    """
    J0, J1 = Js[:, :, 0], Js[:, :, 1]
    g00, g01, g11 = np.vecdot(J0, J0), np.vecdot(J0, J1), np.vecdot(J1, J1)
    det = g00 * g11 - g01 * g01
    inv = 1.0 / det
    ginv = np.stack([g11 * inv, -g01 * inv, -g01 * inv, g00 * inv], axis=1).reshape(-1, 2, 2)
    A = (ginv.reshape(-1, 1, 4) @ Hs.reshape(len(inv), 4, -1))[:, 0]
    coords, tangential = _tangential(Js, ginv, A)
    return ginv, -coords, A - tangential, det


def laplace_beltrami(grid: PolarGrid, ginv: Array, c: Array) -> Array:
    """Interior Laplace-Beltrami operator L = g^ij d_ij + c^k d_k on grid values.

    ``ginv`` and ``c`` are the coefficients of ``_gram_terms`` of the grid's
    samples.  Shape (nr * ntheta, (nr + 1) * ntheta) over the ring-major
    flattening of the grid, rim columns last, so that
    ``L @ positions.reshape(-1, n)`` is the mean curvature vector.  Row p
    contracts the five coefficients at p with ``grid.ops.chart[p]``.
    """
    coef = np.stack([c[:, 0], ginv[:, 0, 0], c[:, 1], ginv[:, 1, 1], 2.0 * ginv[:, 0, 1]],
                    axis=1)
    return (coef[:, None, :] @ grid.ops.chart[:len(coef)])[:, 0]


@dataclass(frozen=True)
class GridMeasure:
    """What the flow reads of one grid, measured once from its chart stack:
    the operator coefficients, the bracket and the rim.  A step hands the
    accepted trial's measure on to the next step."""

    ginv: Array                       # (m, 2, 2) inverse chart Gram
    c: Array                          # (m, 2) -g^ij Gamma^k_ij
    u: Array                          # (m,) conformal exponent
    bracket: Array                    # (m, n) H - k grad^perp u
    bxs: Array                        # (mb, n) rim positions
    bnus: Array                       # (mb, n) outward unit conormals of the disk
    rim_normals: Array                # (mb, n) outward unit normals of the domain


def _descent(measure: GridMeasure, metric: ConformalMetric) -> tuple[Array, Array]:
    """Steepest-descent direction of rescaled volume from a measure: inside,
    the rescaled mean curvature vector (its pairing with the first variation
    is -|H~|^2 <= 0), H from the chart Gram (``_gram_terms``), not from
    ``geometry()``; on the rim, minus the rescaled conormal projected onto
    the ambient boundary's tangent space."""
    bnus, nhat = measure.bnus, measure.rim_normals
    interior = np.exp(-2.0 * measure.u)[:, None] * measure.bracket
    nu_t = bnus - np.sum(bnus * nhat, axis=1, keepdims=True) * nhat
    return interior, -np.exp(-metric.field.value(measure.bxs))[:, None] * nu_t


@dataclass(frozen=True)
class FlowConfig:
    dt: float | None = None           # initial step; None: half the grid's dt_stable
    max_iter: int = 5000
    tol: float = 1e-3                 # target max |H~|
    boundary_tol: float = 1e-2        # target max angle defect
    boundary_rate: float = 0.1        # rim speed relative to interior
    max_backtracks: int = 20
    volume_slack: float = 1e-12       # times min(1, volume)


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
    chart stack; builds no immersion.  grad^perp u = grad u - J g^-1 J^T
    grad u, and the volume sums w sqrt(det g) e^{2u} over the same samples.
    The rim is taken to lie on the domain boundary: ``flow_state`` checks the
    start's, and every trial's is projected there."""
    xs, Js, Hs, bJs = grid.samples()
    ginv, c, H, det = _gram_terms(Js, Hs)
    u, grad = metric.field.value(xs), metric.field.gradient(xs)
    bracket = H - 2 * (grad - _tangential(Js, ginv, grad)[1])
    bxs, bnus = grid.positions[grid.nr], polar_conormals(bJs)
    nhat = outward_normal(domain, bxs)
    vol = float(np.sum(grid.ops.ws * np.sqrt(det) * np.exp(2 * u)))
    return (GridMeasure(ginv, c, u, bracket, bxs, bnus, nhat), vol,
            float(np.max(bracket_norms(u, bracket))), float(np.max(angle_defects(bnus, nhat))))


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
    interior, boundary = _descent(measure, metric)
    rim = cfg.boundary_rate * boundary
    EL = np.exp(-2.0 * measure.u)[:, None] * laplace_beltrami(grid, measure.ginv, measure.c)
    m = len(interior)
    EL_II, EL_IB = EL[:, :m], EL[:, m:]
    # explicit limit of the rim update, the one part of the step left explicit
    cap = float(1.0 / (cfg.boundary_rate * abs(grid.D[grid.nr, grid.nr])))
    dt = float(min(state.step, cap))
    for backtracks in range(cfg.max_backtracks + 1):
        *_, V, info = dgesv(np.eye(m) - dt * EL_II, interior + dt * (EL_IB @ rim))
        if info > 0:
            raise StepFailureError(
                f"singular implicit system at iteration {state.iteration}, dt = {dt:.6e}")
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
    return state.grid.immersion(validate=True), converged, state
