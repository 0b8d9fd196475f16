"""Descent flow: directions, stepping contracts, convergence."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import block_diag

import oracles
from fbstab import domain as dm
from fbstab import flow as fl
from fbstab import scenarios as sc
from fbstab import submanifold as sub
from fbstab.errors import ConfigError, InvalidSampleError, StepFailureError
from fbstab.fields import ConformalMetric, ScalarField, make_field

DOM3 = dm.make_domain("ball", 3, radius=1.0)
M3 = ConformalMetric(make_field("zero"), 3)


def flat_grid(n=3, nr=6, ntheta=16):
    return fl.PolarGrid.from_graph(
        n, lambda y: np.zeros((y.shape[0], n - 2)), nr=nr, ntheta=ntheta
    )


def bump_grid(amp=0.2, nr=6, ntheta=16):
    return fl.PolarGrid.from_graph(
        3, lambda y: amp * (1 - np.sum(y * y, axis=1))[:, None], nr=nr, ntheta=ntheta
    )


@pytest.mark.parametrize("option", [
    {"boundary_rate": 0.0}, {"dt": -1e-3}, {"max_backtracks": -1}],
    ids=["boundary-rate-zero", "dt-negative", "max-backtracks-negative"])
def test_flow_config_refuses_values_the_step_cannot_use(option):
    """A Python caller gets the same check as the config block: a zero rim
    rate would divide by zero in the step, a negative step or halving count
    would reach the step loop."""
    [(key, value)] = option.items()
    with pytest.raises(ConfigError, match=f"{key} must be .*, got {value!r}"):
        fl.FlowConfig(**option)


def test_grid_immersion_matches_catalog_quadrature():
    imm = flat_grid().immersion()
    assert abs(sub.volume(imm, M3) - np.pi) < 1e-12
    assert abs(oracles.boundary_volume(imm, M3) - 2 * np.pi) < 1e-12
    assert imm.ambient(M3).minimality.max_residual <= 1e-12
    assert imm.ambient(None, DOM3).defect.max_residual <= 1e-12


def test_direction_zero_on_minimal_orthogonal():
    imm = flat_grid().immersion()
    interior, boundary = oracles.first_variation_direction(imm, M3, DOM3)
    assert np.max(np.abs(interior)) < 1e-13
    assert np.max(np.abs(boundary)) < 1e-13


def test_direction_opposes_volume_growth_on_paraboloid():
    imm = sub.make_immersion("paraboloid-cap", curvature=0.5, n=3)
    dom = dm.make_domain("ball", 3, radius=np.sqrt(1.0625))
    interior, boundary = oracles.first_variation_direction(imm, M3, dom)
    geo = imm.geometry()
    # magnitude equals |H| for the flat exponent, direction along H
    assert np.allclose(np.linalg.norm(interior, axis=1),
                       np.linalg.norm(geo.H, axis=1), atol=1e-12)
    pairing = oracles.first_variation_value(imm, M3, interior, boundary)
    assert pairing < 0


def test_tilted_disk_boundary_direction_reduces_defect():
    tilt = sub.make_immersion("tilted-disk", angle=np.deg2rad(10), n=3)
    interior, boundary = oracles.first_variation_direction(tilt, M3, DOM3)
    assert np.max(np.abs(interior)) < 1e-12  # a flat disk is minimal
    assert np.max(np.linalg.norm(boundary, axis=1)) > 1e-2
    pairing = oracles.first_variation_value(tilt, M3, interior, boundary)
    assert pairing < 0


def test_direction_rejects_rim_off_the_boundary():
    """The direction reads the domain's outward normals at the rim samples,
    so a rim pushed off the ambient boundary is refused."""
    grid = bump_grid()
    positions = grid.positions.copy()
    positions[grid.nr] *= 1.01
    imm = grid.with_positions(positions).immersion()
    with pytest.raises(InvalidSampleError, match="off the domain boundary"):
        oracles.first_variation_direction(imm, M3, DOM3)


def rotated_sin_grid(n=4, angle=0.7, amp=0.1, nr=6, ntheta=16):
    c, s = np.cos(angle), np.sin(angle)

    def height(y):
        h = np.zeros((y.shape[0], n - 2))
        h[:, 0] = amp * (1 - np.sum(y * y, axis=1)) * (s * y[:, 0] + c * y[:, 1])
        return h

    return fl.PolarGrid.from_graph(n, height, nr=nr, ntheta=ntheta)


@pytest.mark.parametrize("grid", [bump_grid(), rotated_sin_grid(), flat_grid(nr=8)],
                         ids=["radial-bump-n3", "rotated-sin-n4", "flat-n3"])
def test_laplace_beltrami_of_positions_is_mean_curvature(grid):
    """L x = H: the grid operator, assembled from the chart metric and
    Christoffel symbols, reproduces the frame-based mean curvature vector.
    The sin bump is non-radial, so it checks the angular matrices' orientation."""
    imm = grid.immersion()
    L = fl.laplace_beltrami(grid, oracles.immersion_gram_terms(imm)[0])
    assert L.shape == (grid.nr * grid.ntheta, (grid.nr + 1) * grid.ntheta)
    Lx = L @ grid.positions.reshape(-1, grid.n)
    assert np.max(np.abs(Lx - imm.geometry().H)) < 1e-10


@pytest.mark.parametrize("imm", [
    bump_grid().immersion(), rotated_sin_grid().immersion(), flat_grid(nr=8).immersion(),
    sub.make_immersion("paraboloid-cap", curvature=0.5, n=3),
], ids=["radial-bump-n3", "rotated-sin-n4", "flat-n3", "paraboloid-cap"])
def test_gram_mean_curvature_matches_frames(imm):
    """The flow measures H from the chart Gram, the certificate from frames:
    the two routes agree to round-off."""
    H = oracles.immersion_gram_terms(imm)[1]
    assert np.max(np.abs(H - imm.geometry().H)) <= 1e-12


def test_flow_steps_build_no_frames(monkeypatch):
    """A step measures each trial grid once, straight from its chart
    derivatives: ten steps build no ``SampledImmersion`` and neither tangent
    nor normal frames, and take the Gram terms once per trial grid."""
    frames, terms, immersions = [], [], []
    batched_frames, gram_terms = sub._batched_frames, fl._gram_terms
    init = sub.SampledImmersion.__init__

    def counted_frames(*args):
        frames.append(1)
        return batched_frames(*args)

    def counted_terms(*derivs):
        terms.append(derivs[0])
        return gram_terms(*derivs)

    def counted_init(self, *args, **kwargs):
        immersions.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sub, "_batched_frames", counted_frames)
    monkeypatch.setattr(fl, "_gram_terms", counted_terms)
    monkeypatch.setattr(sub.SampledImmersion, "__init__", counted_init)
    state = fl.flow_state(bump_grid(), M3, DOM3)
    for _ in range(10):
        state = fl.flow_step(state, M3, DOM3)
    assert frames == [] and immersions == []
    trials = 1 + sum(1 + row[4] for row in state.residual_history[1:])
    assert len(terms) == trials
    assert len({id(Js) for Js in terms}) == trials


def test_flow_builds_no_ambient_record(monkeypatch):
    """The flow measures its grids without the second variation's cached
    ambient samples."""
    def refuse(*args):
        raise AssertionError("the flow built an ambient record")

    monkeypatch.setattr(sub.SampledImmersion, "ambient", refuse)
    state = fl.flow_state(bump_grid(), M3, DOM3)
    for _ in range(5):
        state = fl.flow_step(state, M3, DOM3)
    oracles.first_variation_direction(state.grid.immersion(), M3, DOM3)


def test_angular_derivatives_from_one_transform():
    """Both theta-derivatives are exact on the resolved modes and agree with
    the grid's differentiation matrices; the chart Hessian stack is symmetric."""
    grid = bump_grid()
    theta = grid.theta
    modes = np.stack([np.sin(3 * theta), np.cos(5 * theta)], axis=1)[None]
    d1, d2 = oracles.theta_derivatives(modes)
    exact = np.stack([3 * np.cos(3 * theta), -5 * np.sin(5 * theta)], axis=1)
    assert np.max(np.abs(d1[0] - exact)) < 1e-12
    assert np.max(np.abs(d2[0] + np.array([9.0, 25.0]) * modes[0])) < 1e-12
    assert np.max(np.abs(grid.Dt @ modes[0] - d1[0])) < 1e-12
    assert np.max(np.abs(grid.Dt2 @ modes[0] - d2[0])) < 1e-12
    _, P_rr, P_t, P_tt, P_rt = grid.chart_derivatives()
    Hs, nr = grid.immersion().Hs, grid.nr
    assert np.array_equal(Hs[:, 0, 1], Hs[:, 1, 0])
    for (a, b), P in (((0, 0), P_rr), ((0, 1), P_rt), ((1, 1), P_tt)):
        assert np.array_equal(Hs[:, a, b], P[:nr].reshape(-1, grid.n))


def benchmark_start(name):
    """``(grid, metric, domain)`` of a flow start of the benchmark, unrotated:
    the two registry flows and the n = 3 sin bump of amplitude 0.1, all of
    them 6 x 16 grids."""
    if name == "sin-b3":
        return rotated_sin_grid(n=3, angle=0.0, amp=0.1), M3, DOM3
    built = sc.build_scenario(name)
    return sc.flow_grid_for(built.scenario), built.metric, built.domain


BENCHMARK_STARTS = ("flow-bump-b3", "flow-sin-cap-b4", "sin-b3")


def _relative_gap(new, old):
    """Normwise relative gap |new - old| / |old| in the Frobenius norm."""
    return np.linalg.norm(new - old) / np.linalg.norm(old)


@pytest.mark.parametrize("name", BENCHMARK_STARTS)
def test_cached_operator_kernels_match_their_oracles(name):
    """Each kernel that steps on the cached operators agrees with the route
    it replaced within 1e-13 normwise relative: the chart derivatives
    (compared as one stack), the Gram terms with the start's grad u, the
    Laplace-Beltrami operator and the per-ring filter.  Entrywise, d_rr x
    differs by up to 1.5e-13 where it is at most 0.6: D^2 has entries of
    1.1e3, and both routes are about 4.6e-13 from the exact value there."""
    grid, metric, _ = benchmark_start(name)
    assert _relative_gap(np.stack(grid.chart_derivatives()),
                         np.stack(oracles.chart_derivatives_fft(grid))) <= 1e-13
    imm = grid.immersion()
    grad = metric.field.gradient(imm.xs)
    derivs = (imm.Js[..., 0], imm.Hs[:, 0, 0], imm.Js[..., 1], imm.Hs[:, 1, 1], imm.Hs[:, 0, 1])
    for new, old in zip(fl._gram_terms(*derivs, grad), oracles.gram_terms_matmul(*derivs, grad)):
        assert _relative_gap(new, old) <= 1e-13
    coef = oracles.gram_terms_matmul(*derivs, grad)[0]
    assert _relative_gap(fl.laplace_beltrami(grid, coef),
                         oracles.laplace_beltrami_scatter(grid, coef)) <= 1e-13
    direction = np.random.default_rng(3).normal(size=grid.positions.shape)
    assert _relative_gap(fl._filter_direction(grid, direction),
                         oracles.filter_direction_rfft(grid, direction)) <= 1e-13


@pytest.mark.parametrize("name", BENCHMARK_STARTS)
def test_ten_steps_match_the_oracle_routes(name, monkeypatch):
    """Ten steps on the cached operators land within 1e-14 of ten steps by
    FFTs, scattered operators and batched Gram products, with the same step
    sizes and backtracks."""
    grid, metric, dom = benchmark_start(name)

    def ten_steps():
        state = fl.flow_state(grid, metric, dom)
        for _ in range(10):
            state = fl.flow_step(state, metric, dom)
        return state

    new = ten_steps()
    oracles.use_flow_oracles(monkeypatch)
    old = ten_steps()
    assert [row[3:] for row in new.residual_history] == [row[3:] for row in old.residual_history]
    assert np.max(np.abs(new.grid.positions - old.grid.positions)) <= 1e-14


def test_grids_of_one_shape_share_read_only_operators():
    """The operators are built once per (nr, ntheta): grids of other
    dimensions and their position copies hold the same arrays, and no
    holder can write to them."""
    a, b = fl.PolarGrid(3, 6, 16), fl.PolarGrid(4, 6, 16)
    grids = (a, b, a.with_positions(a.positions + 1.0), rotated_sin_grid())
    ops = fl.grid_operators(6, 16)
    assert all(g.ops is ops for g in grids)
    assert fl.PolarGrid(3, 8, 16).ops is not ops
    for name in ("rs", "wr", "D", "D2", "Dt", "Dt2"):
        assert all(getattr(g, name) is getattr(ops, name) for g in grids)
    assert all(g.dt_stable == ops.dt_stable for g in grids)
    for name in ("rs", "wr", "D", "D2", "Dt", "Dt2", "radial", "angular", "chart", "lowpass"):
        array = getattr(ops, name)
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0


def test_lowpass_is_the_block_diagonal_of_its_ring_filters():
    """The filter holds ring i's block at (i, i) and +0.0 everywhere else:
    bit for bit ``scipy.linalg.block_diag`` of its diagonal blocks."""
    for nr, nt in ((6, 16), (8, 24)):
        lowpass = fl.grid_operators(nr, nt).lowpass
        blocks = [lowpass[i * nt:(i + 1) * nt, i * nt:(i + 1) * nt] for i in range(nr + 1)]
        assert np.array_equal(lowpass.view(np.int64), block_diag(*blocks).view(np.int64))


def test_singular_implicit_system_raises_typed_error(monkeypatch):
    """A zero pivot in the implicit solve ends the step with a
    ``StepFailureError`` that names the iteration and dt.  With u = 0 and
    L_II = I / dt the system matrix I - dt e^{-2u} L_II is exactly zero."""
    grid = bump_grid()
    state = fl.flow_state(grid, M3, DOM3, dt=0.0625)
    m = grid.nr * grid.ntheta

    def singular(g, coef):
        return np.hstack([16.0 * np.eye(m), np.zeros((m, g.ntheta))])

    monkeypatch.setattr(fl, "laplace_beltrami", singular)
    with pytest.raises(StepFailureError,
                       match=r"singular implicit system at iteration 0, dt = 6\.25"):
        fl.flow_step(state, M3, DOM3)


def test_fixed_point_step():
    grid = flat_grid()
    state = fl.flow_state(grid, M3, DOM3)
    out = fl.flow_step(state, M3, DOM3)
    assert np.max(np.abs(out.grid.positions - grid.positions)) < 1e-12
    # 175 times the explicit dt_stable, below the rim limit
    big = fl.flow_state(grid, M3, DOM3, dt=0.2)
    out = fl.flow_step(big, M3, DOM3)
    assert out.residual_history[-1][3] == 0.2
    assert np.max(np.abs(out.grid.positions - grid.positions)) < 1e-12


def test_step_decreases_volume_and_projects_boundary():
    grid = bump_grid()
    state = fl.flow_state(grid, M3, DOM3)
    out = fl.flow_step(state, M3, DOM3)
    assert out.volume <= state.volume + 1e-12
    phi_vals = np.abs(DOM3.phi.value(out.grid.positions[grid.nr]))
    assert np.max(phi_vals) <= 1e-9


def test_state_carries_the_accepted_measure():
    """Each step hands on the measure of its accepted grid.  After ten more
    steps, every state's grid still builds the immersion of the positions it
    was accepted with, bit for bit, and its measure equals the measure read
    off that immersion bit for bit: no later step writes into an earlier
    grid or measure."""
    states = [fl.flow_state(bump_grid(), M3, DOM3)]
    snapshots = [states[0].grid.positions.copy()]
    for _ in range(10):
        states.append(fl.flow_step(states[-1], M3, DOM3))
        snapshots.append(states[-1].grid.positions.copy())
    for state, positions in zip(states, snapshots):
        imm = state.grid.immersion()
        fresh = state.grid.with_positions(positions).immersion()
        for name in ("xs", "Js", "Hs", "ws", "bxs", "bJs", "bws", "bnus"):
            assert np.array_equal(getattr(imm, name), getattr(fresh, name))
        want = oracles.immersion_measure(imm, M3, DOM3)
        for field in dataclasses.fields(fl.GridMeasure):
            assert np.array_equal(getattr(state.measure, field.name),
                                  getattr(want, field.name)), field.name


MEASURED_GRIDS = {
    "radial-bump-n3": (bump_grid, "ball", "radial-spherical"),
    "rotated-sin-n4": (rotated_sin_grid, "ball", "radial-spherical"),
    "flat-n3": (lambda: flat_grid(nr=8), "ball", "zero"),
}


@pytest.mark.parametrize("name", MEASURED_GRIDS)
def test_trial_measure_matches_the_immersion_route(name):
    """A trial grid measured from its chart derivatives agrees with the
    route through its immersion: ``volume``, ``bracket_norms``,
    ``polar_conormals`` and the domain's ``outward_normal`` at the rim of
    ``grid.immersion()``.  Everything but the volume is bit-identical (the
    oracle hands ``_gram_terms`` contiguous copies of the immersion's
    columns, as the flow does); the volume's det g comes from the flow's
    ``vecdot`` Gram, not the immersion's ``einsum`` Gram, and agrees within
    1e-15 relative."""
    make, domain_name, field_name = MEASURED_GRIDS[name]
    grid = make()
    metric = ConformalMetric(make_field(field_name), grid.n)
    dom = dm.make_domain(domain_name, grid.n, radius=1.0)
    measure, vol, res, defect = fl._measurements(grid, metric, dom)
    imm = grid.immersion()
    want = oracles.immersion_measure(imm, metric, dom)
    assert abs(vol - sub.volume(imm, metric)) <= 1e-15 * sub.volume(imm, metric)
    assert res == np.max(sub.bracket_norms(want.u[:len(want.bracket)], want.bracket))
    assert np.array_equal(measure.bnus, sub.polar_conormals(imm.bJs))
    assert np.array_equal(measure.rim_normals, dm.outward_normal(dom, imm.bxs))
    assert defect == np.max(sub.angle_defects(imm.bnus, want.rim_normals))
    for field in dataclasses.fields(fl.GridMeasure):
        assert np.array_equal(getattr(measure, field.name), getattr(want, field.name))


def _counting_domain(domain):
    """``domain`` with its level-set function's value and gradient calls counted."""
    calls = Counter()

    def counted(kind, fn):
        def call(x):
            calls[kind] += 1
            return fn(x)
        return call

    phi = domain.phi
    return dataclasses.replace(domain, phi=ScalarField.analytic(
        counted("value", phi.value_fn), counted("gradient", phi.grad_fn), phi.hess_fn)), calls


def test_the_rim_is_checked_once_at_the_start(monkeypatch):
    """``flow_state`` checks the start's rim against the domain; a trial's rim
    has just been projected onto the boundary, so a step evaluates phi only
    inside the projection.  A start off the boundary is still refused."""
    dom, calls = _counting_domain(DOM3)
    state = fl.flow_state(bump_grid(), M3, dom)
    assert calls == {"value": 1, "gradient": 1}
    in_projection = []
    project = fl.project_to_boundary

    def projected(*args, **kwargs):
        before = calls["value"]
        out = project(*args, **kwargs)
        in_projection.append(calls["value"] - before)
        return out

    monkeypatch.setattr(fl, "project_to_boundary", projected)
    calls.clear()
    for _ in range(3):
        state = fl.flow_step(state, M3, dom)
    assert len(in_projection) == 3 and calls["value"] == sum(in_projection)
    positions = bump_grid().positions.copy()
    positions[-1] *= 1.01
    with pytest.raises(InvalidSampleError, match="off the domain boundary"):
        fl.flow_state(bump_grid().with_positions(positions), M3, DOM3)


def test_each_trial_evaluates_the_field_once(monkeypatch):
    """Ten steps of ``flow-sin-cap-b4`` pin the work per trial grid: u once
    at its N points, grad u once at its m interior points, and, beyond the
    projection's calls, one gradient of phi, for the rim's outward normals.
    The descent reads the rim's u from the measure.  ``GridOperators.chart``
    holds the m interior rows only."""
    grid, metric, dom = benchmark_start("flow-sin-cap-b4")
    N, m, n = (grid.nr + 1) * grid.ntheta, grid.nr * grid.ntheta, grid.n
    assert grid.ops.chart.shape == (m, 5, N)
    field, evaluations = metric.field, []

    def counted(kind, fn):
        def call(x):
            evaluations.append((kind, x.shape))
            return fn(x)
        return call

    metric = ConformalMetric(ScalarField.analytic(
        counted("value", field.value_fn), counted("gradient", field.grad_fn), field.hess_fn,
        radial=field.radial), metric.dim)
    dom, calls = _counting_domain(dom)
    in_projection, project = Counter(), fl.project_to_boundary

    def projected(*args, **kwargs):
        before = Counter(calls)
        out = project(*args, **kwargs)
        in_projection.update(calls - before)
        return out

    monkeypatch.setattr(fl, "project_to_boundary", projected)
    state = fl.flow_state(grid, metric, dom)
    evaluations.clear()
    calls.clear()
    for _ in range(10):
        state = fl.flow_step(state, metric, dom)
    trials = sum(1 + row[4] for row in state.residual_history[1:])
    assert evaluations == [("value", (N, n)), ("gradient", (m, n))] * trials
    assert calls - in_projection == Counter({"gradient": trials})


def test_backtracking_exhaustion_raises():
    grid = bump_grid()
    state = fl.flow_state(grid, M3, DOM3)
    # a negative slack makes any step unacceptable
    cfg = fl.FlowConfig(volume_slack=-1.0, max_backtracks=3)
    with pytest.raises(StepFailureError):
        fl.flow_step(state, M3, DOM3, cfg)


def test_volume_slack_is_relative_at_small_volumes(monkeypatch):
    """At a volume of 1e-8 the absolute slack (1e-12) would let a trial grow
    the volume by 1e-13 every step; taken relative to the volume it makes
    the step backtrack."""
    state = fl.flow_state(bump_grid(), M3, DOM3)
    state = dataclasses.replace(state, volume=1e-8)
    volumes = [1e-8 + 1e-13, 1e-8]
    measurements = fl._measurements

    def measured(*args):
        imm, _, res, defect = measurements(*args)
        return imm, volumes.pop(0), res, defect

    monkeypatch.setattr(fl, "_measurements", measured)
    out = fl.flow_step(state, M3, DOM3)
    assert out.volume == 1e-8 and out.residual_history[-1][4] == 1


def test_collapsed_rim_ends_the_run(monkeypatch):
    """A start that leaves the basin of a free boundary disk shrinks its rim
    toward a boundary point; the run ends there with a typed error instead
    of stepping on to max_iter."""
    steps = []
    flow_step = fl.flow_step

    def counted(*args, **kwargs):
        steps.append(1)
        return flow_step(*args, **kwargs)

    monkeypatch.setattr(fl, "flow_step", counted)
    s = sc.Scenario(name="radial-bump-cap-b4", n=4, k=2,
                    field_spec={"name": "radial-spherical"},
                    flow_spec={"initial": "radial-bump", "amplitude": 0.1,
                               "nr": 6, "ntheta": 16})
    built = sc.build_scenario(s)
    with pytest.raises(StepFailureError, match="rim collapsed"):
        fl.run_flow(sc.flow_grid_for(s), built.metric, built.domain,
                    fl.FlowConfig(max_iter=5000))
    assert len(steps) <= 600


def test_flow_converges_and_volume_monotone():
    grid = bump_grid()
    cfg = fl.FlowConfig(max_iter=5000)
    state = fl.flow_state(grid, M3, DOM3, cfg.dt)
    volumes = [state.volume]
    while state.iteration < cfg.max_iter and not (
        state.residual <= cfg.tol and state.boundary_defect <= cfg.boundary_tol
    ):
        state = fl.flow_step(state, M3, DOM3, cfg)
        volumes.append(state.volume)
    assert state.residual <= cfg.tol
    assert state.boundary_defect <= cfg.boundary_tol
    assert state.iteration <= 5000
    diffs = np.diff(volumes)
    assert np.max(diffs) <= 1e-12
    assert len(state.residual_history) == state.iteration + 1


def test_flow_returns_to_disk_and_feeds_certificate():
    dom = dm.make_domain("ball", 4, radius=1.0)
    metric = ConformalMetric(make_field("radial-spherical"), 4)

    def height(y):
        h = np.zeros((y.shape[0], 2))
        h[:, 0] = 0.05 * (1 - np.sum(y * y, axis=1)) * y[:, 1]
        return h

    grid = fl.PolarGrid.from_graph(4, height, nr=6, ntheta=16)
    imm, converged, state = fl.run_flow(grid, metric, dom, fl.FlowConfig(max_iter=5000))
    assert converged
    assert state.residual <= 1e-3
    assert imm.ambient(None, dom).defect.max_residual <= 1e-2

    # the relaxed immersion is a valid certificate input at its own residual
    from fbstab import variation as var

    cfg = var.CertificateConfig(
        minimality_tol=2e-3, free_boundary_tol=1e-2, curvature_points=2048
    )
    rep = var.instability_certificate(imm, metric, dom, cfg)
    assert rep.verdict == "unstable-certified"
    assert abs(rep.traced_total + 8 * np.pi) < 1e-3
    assert not rep.failed_hypotheses


@pytest.mark.parametrize("name, steps", [("flow-bump-b3", 43), ("flow-sin-cap-b4", 43),
                                         ("sin-b3", 36)], ids=BENCHMARK_STARTS)
def test_registry_flows_converge_in_few_steps(name, steps):
    """The linearly implicit step lifts the explicit (m/r)^2 limit: both
    registry starts converge in 43 steps (about 1,000 explicit), and the
    benchmark's n = 3 sin bump in 36 (about 374), none with a backtrack.
    The counts are pinned so that any change of the trajectory shows."""
    grid, metric, dom = benchmark_start(name)
    _, converged, state = fl.run_flow(grid, metric, dom, fl.FlowConfig(max_iter=5000))
    assert converged
    assert state.iteration == steps
    assert all(row[4] == 0 for row in state.residual_history)
    volumes = np.array([row[2] for row in state.residual_history])
    assert np.max(np.diff(volumes)) <= 1e-12


def test_history_records_the_step_ramp():
    grid = bump_grid()
    cfg = fl.FlowConfig(max_iter=5000)
    _, converged, state = fl.run_flow(grid, M3, DOM3, cfg)
    assert converged
    hist = state.residual_history
    assert len(hist) == state.iteration + 1
    assert hist[0][3:] == (0.0, 0)
    assert hist[-1][:3] == (state.residual, state.boundary_defect, state.volume)
    # the rim update stays explicit: its limit caps every accepted step
    cap = 1.0 / (cfg.boundary_rate * abs(grid.D[grid.nr, grid.nr]))
    dts = np.array([row[3] for row in hist[1:]])
    assert np.all(dts > 0) and np.max(dts) <= cap
    assert dts[0] == 0.5 * grid.dt_stable
    # without backtracks the step grows by 1.15 until the cap
    assert all(row[4] == 0 for row in hist)
    assert np.allclose(dts[1:], np.minimum(1.15 * dts[:-1], cap), rtol=1e-15, atol=0)
