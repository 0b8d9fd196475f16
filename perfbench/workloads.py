"""The benchmark's workloads: inputs made from a seed, ops and their checks.

A workload is built once (that is its set-up) and then run in rounds.  A
round is a fixed list of groups; a group is a list of ops timed one by one
and checked together, after the timed loop, by ``Workload.check``.  Every
round is identical, so a run always measures whole rounds of the same mix.

The library is reached through module attributes (``scenarios.build_scenario``
and so on), looked up at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from fbstab import domain, fields, flow, scenarios, submanifold, variation


@dataclass(frozen=True)
class Group:
    label: str
    ops: tuple[tuple[str, Callable[[], object]], ...]


class Certificate:
    """``fbstab stability``: build the scenario cold, then certify it."""

    SCENARIOS = ("cap-disk-b4k2", "flat-disk-b5k3", "hyperbolic-disk-b4")

    def __init__(self, seed: int):
        self.config = variation.CertificateConfig(seed=seed)
        self.round = tuple(
            Group(name, ((name, partial(self._op, name)),)) for name in self.SCENARIOS
        )

    def _op(self, name):
        built = scenarios.build_scenario(name)
        return variation.instability_certificate(
            built.immersion, built.metric, built.domain, self.config)

    def check(self, group: Group, results) -> str | None:
        (report,) = results
        expected = scenarios.scenario(group.label).expected
        want = expected["verdict"]["value"]
        if report.verdict != want:
            return f"verdict {report.verdict}, want {want}"
        if "traced_total" in expected:
            e = expected["traced_total"]
            if not abs(report.traced_total - e["value"]) <= e["tol"]:
                return f"traced_total {report.traced_total!r}, want {e['value']!r} +- {e['tol']:g}"
        if group.label == "hyperbolic-disk-b4" and not any(
                "curvature" in f for f in report.failed_hypotheses):
            return "curvature hypothesis not among the failed hypotheses"
        return None


class SecondVariation:
    """One Q(X, X) per op over a prebuilt immersion, X the projected
    constant field of one vector of a seeded orthonormal basis."""

    SCENARIOS = ("flat-disk-b4k2", "cap-disk-b4k2", "cap-disk-b5k3")
    BASIS_RTOL = 1e-9

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.built = {}
        groups = []
        for name in self.SCENARIOS:
            built = scenarios.build_scenario(name)
            built.immersion.geometry()
            n = built.immersion.n
            basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
            self.built[name] = built
            groups.append(Group(name, tuple(
                (f"{name}/B{i}", partial(self._op, built, basis[:, i])) for i in range(n)
            )))
        self.round = tuple(groups)
        self._canonical = {}

    @staticmethod
    def _op(built, direction):
        imm = built.immersion
        return variation.second_variation(
            imm, built.metric, variation.projected_field(imm, direction), built.domain)

    def _canonical_trace(self, name: str) -> float:
        """Trace over the canonical basis, computed once, outside any op."""
        if name not in self._canonical:
            built = self.built[name]
            n = built.immersion.n
            self._canonical[name] = sum(
                self._op(built, e).value for e in np.eye(n))
        return self._canonical[name]

    def check(self, group: Group, results) -> str | None:
        for r in results:
            if r.warnings:
                return f"warnings: {list(r.warnings)}"
        trace = sum(r.value for r in results)
        if group.label.startswith("flat-"):
            e = scenarios.scenario(group.label).expected["traced_total"]
            if not abs(trace - e["value"]) <= e["tol"]:
                return f"trace {trace!r}, want {e['value']!r} +- {e['tol']:g}"
            return None
        canonical = self._canonical_trace(group.label)
        if not abs(trace - canonical) <= self.BASIS_RTOL * abs(canonical):
            return f"trace {trace!r} differs from the canonical-basis trace {canonical!r}"
        return None


class Flow:
    """``fbstab flow``: build the control grid, then flow to convergence."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.config = flow.FlowConfig(max_iter=5000)
        bump = scenarios.build_scenario("flow-bump-b3")
        sin_cap = scenarios.build_scenario("flow-sin-cap-b4")
        spec = sin_cap.scenario.flow_spec
        inputs = (
            ("flow-bump-b3", bump.metric, bump.domain,
             partial(scenarios.flow_grid_for, bump.scenario)),
            ("flow-sin-cap-b4", sin_cap.metric, sin_cap.domain,
             partial(_rotated_sin_bump, 4, rng.uniform(0.0, 2.0 * np.pi),
                     spec["amplitude"], spec["nr"], spec["ntheta"])),
            ("flow-sin-b3", fields.ConformalMetric(fields.make_field("zero"), 3),
             domain.make_domain("ball", 3, radius=1.0),
             partial(_rotated_sin_bump, 3, rng.uniform(0.0, 2.0 * np.pi), 0.1, 6, 16)),
        )
        self.inputs = {}
        for label, metric, dom, make_grid in inputs:
            v0 = submanifold.volume(make_grid().immersion(), metric)
            self.inputs[label] = (metric, dom, make_grid, v0)
        self.round = tuple(
            Group(label, ((label, partial(self._op, label)),)) for label in self.inputs
        )

    def _op(self, label):
        metric, dom, make_grid, _ = self.inputs[label]
        return flow.run_flow(make_grid(), metric, dom, self.config)

    def check(self, group: Group, results) -> str | None:
        ((_, converged, state),) = results
        cfg = self.config
        v0 = self.inputs[group.label][3]
        if not converged:
            return f"not converged after {state.iteration} iterations"
        if not state.residual <= cfg.tol:
            return f"residual {state.residual:.3e} > {cfg.tol:g}"
        if not state.boundary_defect <= cfg.boundary_tol:
            return f"defect {state.boundary_defect:.3e} > {cfg.boundary_tol:g}"
        if not state.volume <= v0:
            return f"volume grew: {state.volume!r} > {v0!r}"
        return None


def _rotated_sin_bump(n, angle, amplitude, nr, ntheta):
    """The registry's sin-bump start, rotated by ``angle`` in the disk plane
    (``angle = 0`` is the registry profile)."""
    direction = np.array([np.sin(angle), np.cos(angle)])

    def height(y):
        h = np.zeros((y.shape[0], n - 2))
        h[:, 0] = amplitude * (1.0 - np.sum(y * y, axis=1)) * (y @ direction)
        return h

    return flow.PolarGrid.from_graph(n, height, nr=nr, ntheta=ntheta)


WORKLOADS = {
    "certificate": Certificate,
    "second-variation": SecondVariation,
    "flow": Flow,
}
