"""Constrained volume-gradient descent toward free boundary minimal disks.

The moving surface is a k=2 polar grid of control points in R^n: Gauss
radial rings plus a boundary ring pinned to the ambient boundary.  Chart
derivatives come from barycentric polynomial differentiation in the radius
and Fourier differentiation in the angle, so every grid yields a full
``SampledImmersion``.  The flow measures it from the chart Gram g = J^T J
alone and builds no tangent or normal frames: the Laplace-Beltrami
coefficients g^-1 and -g^ij Gamma^k_ij give the mean curvature vector H
(the operator applied to x), and the tangential projector J g^-1 J^T gives
grad^perp u, so the flow measures with the operator it steps with.  The
certificate keeps the frame route of ``SampledImmersion.geometry()``.

The descent direction is the rescaled mean curvature vector in the interior
(the first variation is minus its pairing with the variation field, so
moving with the mean curvature vector shrinks volume) and, on the boundary
ring, the part of the negative rescaled conormal tangent to the ambient
boundary (admissible boundary variations slide along it).  Steps are
linearly implicit (Dziuk, Numer. Math. 1990): the Laplace-Beltrami operator
of the current immersion, which maps the grid positions to the mean
curvature vector, is frozen and its interior block is solved at the new
step, while the rim moves explicitly.  Each step is then volume-backtracked
and its rim re-projected onto the boundary.

High angular modes on small-radius rings carry (m/r)^2 stiffness; smooth
fields have O(r^m) content there, so the stepped direction is low-pass
filtered per ring with a cutoff proportional to the radius.  The implicit
solve lifts the explicit (m/r)^2 step limit; what stays is the explicit
limit of the rim update, ``1 / (boundary_rate * |D[nr, nr]|)``.

A ``FlowState`` carries the ``GridMeasure`` of its grid: the immersion,
the operator coefficients, the bracket H - k grad^perp u and the rim's
outward normals.  Each step takes its direction and operator from it and
hands on the accepted trial's measure, so every trial grid is built and
measured once.

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
from dataclasses import dataclass, replace

import numpy as np

from .domain import LevelSetDomain, project_to_boundary
from .errors import StepFailureError
from .fields import ConformalMetric
from .submanifold import (
    SampledImmersion,
    _gauss01,
    angle_defects,
    boundary_normals,
    bracket_norms,
    polar_conormals,
    volume,
)

Array = np.ndarray

RIM_COLLAPSE = 1e-2  # rim extent, relative to the start, of a collapsed disk
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


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


def _theta_derivatives(values: Array) -> tuple[Array, Array]:
    """Spectral d/dtheta and d^2/dtheta^2 along axis 1 of a (nr, ntheta, ...)
    array, from one transform."""
    ntheta = values.shape[1]
    spec = np.fft.rfft(values, axis=1)
    m = np.arange(spec.shape[1]).astype(float)
    first = 1j * m
    if ntheta % 2 == 0:
        first[-1] = 0.0
    shape = (1, -1) + (1,) * (values.ndim - 2)
    return tuple(np.fft.irfft(spec * mult.reshape(shape), n=ntheta, axis=1)
                 for mult in (first, -(m**2)))


class PolarGrid:
    """Control-point grid for a k=2 disk immersion in R^n.

    ``positions`` has shape (nr + 1, ntheta, n); the last radial ring is the
    boundary.
    """

    def __init__(self, n: int, nr: int = 8, ntheta: int = 16):
        if ntheta % 2:
            raise ValueError("ntheta must be even")
        self.n = n
        self.nr = nr
        self.ntheta = ntheta
        r, wr = _gauss01(nr)
        self.rs = np.concatenate([r, [1.0]])
        self.wr = wr
        self.theta = np.arange(ntheta) * (2.0 * np.pi / ntheta)
        self.D = _diff_matrix(self.rs)
        self.D2 = self.D @ self.D
        self.Dt, self.Dt2 = (d[0] for d in _theta_derivatives(np.eye(ntheta)[None]))
        self.positions = np.zeros((nr + 1, ntheta, n))
        mmax = ntheta // 2
        keep = np.minimum(np.maximum(1, np.floor(2.0 * mmax * self.rs).astype(int)), mmax)
        # explicit Euler limit of the filtered angular Laplacian, (m/r)^2
        self.dt_stable = float(1.0 / np.max((keep / self.rs) ** 2))

    @classmethod
    def from_graph(cls, n: int, height_fn, nr: int = 8, ntheta: int = 16,
                   radius: float = 1.0) -> "PolarGrid":
        """Start from a graph over the equatorial disk: x = (y, psi(y)).

        ``height_fn(y) -> (m, n - 2)`` heights for planar points (m, 2).
        """
        grid = cls(n, nr, ntheta)
        rr = grid.rs[:, None]
        cc = np.cos(grid.theta)[None, :]
        ss = np.sin(grid.theta)[None, :]
        y = radius * np.stack([rr * cc, rr * ss], axis=-1)
        flat = y.reshape(-1, 2)
        heights = np.asarray(height_fn(flat), float).reshape(nr + 1, ntheta, n - 2)
        grid.positions[:, :, :2] = y
        grid.positions[:, :, 2:] = heights
        return grid

    def with_positions(self, positions: Array) -> "PolarGrid":
        out = copy.copy(self)
        out.positions = np.asarray(positions, float)
        return out

    def chart_derivatives(self):
        P = self.positions
        P_r = np.einsum("ij,jtn->itn", self.D, P)
        P_rr = np.einsum("ij,jtn->itn", self.D2, P)
        P_t, P_tt = _theta_derivatives(P)
        P_rt = np.einsum("ij,jtn->itn", self.D, P_t)
        return P_r, P_rr, P_t, P_tt, P_rt

    def immersion(self, validate: bool = False) -> SampledImmersion:
        nr, ntheta, n = self.nr, self.ntheta, self.n
        P_r, P_rr, P_t, P_tt, P_rt = self.chart_derivatives()
        wt = 2.0 * np.pi / ntheta
        xs = self.positions[:nr].reshape(-1, n)
        Js = np.stack([P_r[:nr].reshape(-1, n), P_t[:nr].reshape(-1, n)], axis=2)
        # entries (rr, rt, tr, tt) of the chart Hessian, in row-major order
        Hs = np.stack([P_rr[:nr], P_rt[:nr], P_rt[:nr], P_tt[:nr]], axis=2)
        Hs = Hs.reshape(-1, 2, 2, n)
        ws = np.repeat(self.wr, ntheta) * wt

        bJs = np.stack([P_r[nr], P_t[nr]], axis=2)
        bws = np.linalg.norm(P_t[nr], axis=1) * wt
        return SampledImmersion(
            2, n, xs, Js, Hs, ws, self.positions[nr], bJs, bws, polar_conormals(bJs),
            validate=validate,
        )


def _gram_terms(imm: SampledImmersion) -> tuple[Array, Array, Array]:
    """``(g^-1, c, H)`` at the interior samples, from the chart Gram g = J^T J.

    With A = g^ij d_ij x, the contraction g^ij Gamma^k_ij, where Gamma^k_ij =
    g^kl <d_ij x, d_l x>, is g^kl <A, d_l x>.  So c^k = -g^ij Gamma^k_ij is
    -(g^-1 J^T A)^k, and the mean curvature vector H = A + c^k d_k x is the
    normal part of A.  g^-1 and c are the coefficients of the
    Laplace-Beltrami operator g^ij d_ij + c^k d_k, which maps x to H.  The
    disks are 2-dimensional, so g^-1 is the 2 x 2 adjugate over det g.
    """
    m, n, k = imm.Js.shape
    Jt = np.swapaxes(imm.Js, 1, 2)
    g = Jt @ imm.Js
    det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    ginv = g[:, ::-1, ::-1] * (_ADJUGATE_SIGNS / det[:, None, None])
    A = (ginv.reshape(m, 1, k * k) @ imm.Hs.reshape(m, k * k, n))[:, 0]
    c = -(ginv @ (Jt @ A[:, :, None]))[:, :, 0]
    return ginv, c, A + (imm.Js @ c[:, :, None])[:, :, 0]


def laplace_beltrami(grid: PolarGrid, ginv: Array, c: Array) -> Array:
    """Interior Laplace-Beltrami operator L = g^ij d_ij + c^k d_k on grid values.

    ``ginv`` and ``c`` are the coefficients of ``_gram_terms`` of the grid's
    immersion.  Shape (nr * ntheta, (nr + 1) * ntheta) over the ring-major
    flattening of the grid, rim columns last, so that
    ``L @ positions.reshape(-1, n)`` is the mean curvature vector.
    """
    nr, nt = grid.nr, grid.ntheta
    c2 = ginv.reshape(nr, nt, 2, 2)
    c1 = c.reshape(nr, nt, 2)
    Dr, Dr2 = grid.D[:nr], grid.D2[:nr]
    radial = c2[..., 0, 0, None] * Dr2[:, None] + c1[..., 0, None] * Dr[:, None]
    angular = c2[..., 1, 1, None] * grid.Dt2 + c1[..., 1, None] * grid.Dt
    # L[i, t, j, s]: radial couples rings at equal angles, angular couples
    # angles on one ring, and the mixed term couples both
    L = np.zeros((nr, nt, nr + 1, nt))
    t, i = np.arange(nt), np.arange(nr)
    L[:, t, :, t] = radial.transpose(1, 0, 2)
    L[i, :, i, :] += angular
    L += (2.0 * c2[..., 0, 1, None, None] * Dr[:, None, :, None]) * grid.Dt[None, :, None, :]
    return L.reshape(nr * nt, (nr + 1) * nt)


@dataclass(frozen=True)
class GridMeasure:
    """What the flow reads of one immersion, measured once from its chart
    Gram: the operator coefficients, the bracket and the rim normals.  A
    step hands the accepted trial's measure on to the next step."""

    immersion: SampledImmersion
    ginv: Array                       # (m, 2, 2) inverse chart Gram
    c: Array                          # (m, 2) -g^ij Gamma^k_ij
    u: Array                          # (m,) conformal exponent
    bracket: Array                    # (m, n) H - k grad^perp u
    rim_normals: Array                # (mb, n) outward unit normals of the domain


def _measure(imm: SampledImmersion, metric: ConformalMetric,
             domain: LevelSetDomain) -> GridMeasure:
    """Measure ``imm`` without frames: grad^perp u = grad u - J g^-1 J^T grad u."""
    ginv, c, H = _gram_terms(imm)
    grad = metric.field.gradient(imm.xs)
    tangential = imm.Js @ (ginv @ (np.swapaxes(imm.Js, 1, 2) @ grad[:, :, None]))
    nhat = boundary_normals(imm, domain) if imm.n_boundary else np.zeros((0, imm.n))
    return GridMeasure(imm, ginv, c, metric.field.value(imm.xs),
                       H - imm.k * (grad - tangential[:, :, 0]), nhat)


def _descent(measure: GridMeasure, metric: ConformalMetric) -> tuple[Array, Array]:
    """``first_variation_direction`` from a measure."""
    imm, nhat = measure.immersion, measure.rim_normals
    interior = np.exp(-2.0 * measure.u)[:, None] * measure.bracket
    nu_t = imm.bnus - np.sum(imm.bnus * nhat, axis=1, keepdims=True) * nhat
    return interior, -np.exp(-metric.field.value(imm.bxs))[:, None] * nu_t


def first_variation_direction(imm: SampledImmersion, metric: ConformalMetric,
                              domain: LevelSetDomain):
    """Steepest-descent direction of rescaled volume.

    Interior: the rescaled mean curvature vector (its pairing with the first
    variation is -|H~|^2 <= 0), with H from the chart Gram as the flow
    measures it (``_gram_terms``), not from ``geometry()``.  Boundary: minus
    the rescaled conormal, projected onto the ambient boundary's tangent
    space.  Raises ``InvalidSampleError`` for a boundary sample off the
    domain boundary and ``DomainError`` where grad phi vanishes there (see
    ``boundary_normals``).
    """
    return _descent(_measure(imm, metric, domain), metric)


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

    @property
    def immersion(self) -> SampledImmersion:
        return self.measure.immersion


def _filter_direction(grid: PolarGrid, direction: Array) -> Array:
    """Per-ring angular low-pass: keep modes m <= max(1, 2 * mmax * r)."""
    mmax = grid.ntheta // 2
    spec = np.fft.rfft(direction, axis=1)
    m = np.arange(spec.shape[1])
    keep = np.maximum(1, np.floor(2.0 * mmax * grid.rs).astype(int))
    mask = (m[None, :] <= keep[:, None]).astype(float)
    spec *= mask[:, :, None]
    return np.fft.irfft(spec, n=grid.ntheta, axis=1)


def _measurements(grid: PolarGrid, metric: ConformalMetric, domain: LevelSetDomain):
    """``(measure, volume, max |H~|, max angle defect)`` of one grid."""
    measure = _measure(grid.immersion(), metric, domain)
    imm = measure.immersion
    res = float(np.max(bracket_norms(measure.u, measure.bracket)))
    defect = float(np.max(angle_defects(imm.bnus, measure.rim_normals)))
    return measure, volume(imm, metric), res, defect


def flow_state(grid: PolarGrid, metric: ConformalMetric, domain: LevelSetDomain,
               dt: float | None = None) -> FlowState:
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
    current immersion, the interior velocity solves
    (I - dt E L_II) V_I = d_I + dt E L_IB d_B and the rim keeps V_B = d_B.
    Each backtrack re-solves at the halved step with the same L.  The step
    size never exceeds the rim's explicit limit,
    ``1 / (boundary_rate * |D[nr, nr]|)``."""
    cfg = config or FlowConfig()
    grid, measure = state.grid, state.measure
    interior, boundary = _descent(measure, metric)
    rim = cfg.boundary_rate * boundary
    L = laplace_beltrami(grid, measure.ginv, measure.c)
    EL = np.exp(-2.0 * measure.u)[:, None] * L
    m = len(interior)
    EL_II, EL_IB = EL[:, :m], EL[:, m:]
    # explicit limit of the rim update, the one part of the step left explicit
    cap = float(1.0 / (cfg.boundary_rate * abs(grid.D[grid.nr, grid.nr])))
    dt = float(min(state.step, cap))
    for backtracks in range(cfg.max_backtracks + 1):
        V = np.linalg.solve(np.eye(m) - dt * EL_II, interior + dt * (EL_IB @ rim))
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
    raise StepFailureError(
        f"backtracking exhausted after {cfg.max_backtracks} halvings at "
        f"iteration {state.iteration}"
    )


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
    final = state.grid.immersion(validate=True)
    # hand back one immersion: the validated build replaces the carried copy
    state = replace(state, measure=replace(state.measure, immersion=final))
    return final, converged, state
