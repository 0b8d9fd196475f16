"""Named scenarios, verification suites and report emission.

A scenario bundles a catalog domain, conformal exponent and immersion with
the dimensions (n, k, p) and optional expected values.  Suites execute the
library operations over scenarios, compare against expectations and collect
one ``CheckResult`` per assertion; a suite never aborts on first failure
and every failure carries the offending sample or point.

Reports serialize deterministically: identical configuration and seed give
byte-identical JSON.  Wall-clock timings therefore appear only in the text
format, never in JSON or CSV.
"""

from __future__ import annotations

import csv
import io
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import conformal, domain as domain_mod, flow as flow_mod
from . import submanifold as sub
from . import variation as var
from .errors import ConfigError, DimensionError, integer, number, required
from .fields import ConformalMetric, ScalarField, make_field
from .submanifold import SampledImmersion, make_immersion

REPORT_SCHEMA = "fbstab-report/1"

SUITE_NAMES = ("identities", "traces", "bounds", "certificate", "flow")
# immersion resolutions a ``quadrature`` override may set
QUADRATURE_KEYS = ("nr", "ntheta", "nphi", "nodes_per_axis")
# keys a scenario's flow spec may set (``flow_grid_for``)
FLOW_KEYS = {"initial", "amplitude", "nr", "ntheta"}
# keys a scenario's ``expected`` may set: the report values ``fbstab
# stability`` compares, and the two the suites read
EXPECTED_KEYS = ("traced_total", "bound_lhs", "bound_rhs", "verdict", "fb_defect", "margin_p1")


@dataclass(frozen=True)
class Scenario:
    """A named configuration: domain, exponent, immersion and dimensions."""

    name: str
    n: int
    k: int
    p: int | None = None
    domain_spec: dict = dc_field(default_factory=lambda: {"kind": "ball", "radius": 1.0})
    field_spec: dict = dc_field(default_factory=lambda: {"name": "zero"})
    immersion_spec: dict = dc_field(default_factory=lambda: {"kind": "equatorial-disk"})
    flow_spec: dict | None = None
    expected: dict = dc_field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        for key, minimum in (("n", 1), ("k", 1), ("seed", 0)):
            integer(vars(self), key, None, minimum)
        if self.p is not None:
            integer(vars(self), "p", None, 1)
        if not 1 <= self.k <= self.n - 1:
            raise ConfigError(f"scenario {self.name}: need 1 <= k <= n-1")
        if not isinstance(self.expected, dict):
            raise ConfigError(f"scenario {self.name}: 'expected' must be a JSON object")
        for key, spec in self.expected.items():
            if key not in EXPECTED_KEYS:
                raise ConfigError(f"scenario {self.name}: unknown expected key {key!r}; "
                                  f"choose from {list(EXPECTED_KEYS)}")
            kind, noun = (str, "string") if key == "verdict" else ((int, float), "number")
            if not (isinstance(spec, dict) and isinstance(spec.get("value"), kind)
                    and isinstance(spec.get("tol", 0.0), (int, float))):
                raise ConfigError(f"scenario {self.name}: expected {key!r} must be an object with "
                                  f"a {noun} 'value' and an optional number 'tol'")


@dataclass(frozen=True)
class BuiltScenario:
    scenario: Scenario
    domain: domain_mod.LevelSetDomain
    metric: ConformalMetric
    immersion: SampledImmersion


def _catalog(spec: dict, key: str, what: str) -> tuple[str, dict]:
    """The catalog name ``spec[key]`` and the other entries, its parameters."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} must be a JSON object, got {spec!r}")
    return required(spec, key, what), {k: v for k, v in spec.items() if k != key}


def build_scenario(sc: Scenario | str, quadrature: dict | None = None) -> BuiltScenario:
    """Materialize a scenario at the configured quadrature resolution.

    Deterministic for a fixed seed: rebuilding yields byte-identical arrays.
    """
    if isinstance(sc, str):
        sc = scenario(sc)
    kind, params = _catalog(sc.domain_spec, "kind", "domain")
    dom = domain_mod.make_domain(kind, sc.n, **params)
    name, params = _catalog(sc.field_spec, "name", "field")
    field = make_field(name, **params)
    if field.dim not in (None, sc.n):
        raise ConfigError(f"scenario {sc.name}: field {name!r} {params} is on R^{field.dim}, "
                          f"not R^{sc.n}")
    metric = ConformalMetric(field, sc.n)
    kind, imm_spec = _catalog(sc.immersion_spec, "kind", "immersion")
    imm_spec.setdefault("n", sc.n)
    if kind in ("equatorial-disk", "graph", "random-graph"):
        imm_spec.setdefault("k", sc.k)
    if kind == "random-graph":
        imm_spec.setdefault("seed", sc.seed)
    if quadrature:
        for key in QUADRATURE_KEYS:
            if key in quadrature:
                imm_spec[key] = quadrature[key]
    imm = make_immersion(kind, **imm_spec)
    return BuiltScenario(sc, dom, metric, imm)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_PI = np.pi
# rescaled-volume of the flat unit k-disk under the curvature +1 exponent:
# half the k-sphere volume (2*pi for k=2, pi^2 for k=3)
_HEMI = {2: 2.0 * _PI, 3: _PI**2}


def _disk(name, n, k, field_name, expected, radius=1.0, domain_radius=1.0, p=None):
    return Scenario(
        name=name, n=n, k=k, p=p,
        domain_spec={"kind": "ball", "radius": domain_radius},
        field_spec={"name": field_name},
        immersion_spec={"kind": "equatorial-disk", "radius": radius},
        expected=expected,
    )


def _flat_disk_total(n, k):
    # traced quadratic form of the flat unit k-disk in the unit ball:
    # -(n-k) * vol_{k-1}(boundary sphere)
    bvol = {2: 2.0 * _PI, 3: 4.0 * _PI}[k]
    return -(n - k) * bvol


def _registry() -> dict[str, Scenario]:
    reg = {}

    for n, k in ((4, 2), (5, 2), (5, 3), (6, 3)):
        total = _flat_disk_total(n, k)
        reg[f"flat-disk-b{n}k{k}"] = _disk(
            f"flat-disk-b{n}k{k}", n, k, "zero",
            expected={
                "traced_total": {"value": total, "tol": 1e-5 * abs(total), "kind": "derived"},
                "verdict": {"value": "unstable-certified"},
            },
        )
        cap_total = -k * (n - k) * _HEMI[k]
        reg[f"cap-disk-b{n}k{k}"] = _disk(
            f"cap-disk-b{n}k{k}", n, k, "radial-spherical",
            expected={
                "traced_total": {"value": cap_total, "tol": 1e-4, "kind": "derived"},
                "bound_lhs": {"value": cap_total, "tol": 1e-4, "kind": "derived"},
                # boundary flux of u along the rescaled conormal: the
                # curvature +1 exponent has radial slope -1 at the unit
                # sphere, so 2 * flux = -2 * vol_{k-1}(boundary)
                "bound_rhs": {
                    "value": -2.0 * {2: 2.0 * _PI, 3: 4.0 * _PI}[k],
                    "tol": 1e-7,
                    "kind": "derived",
                },
                "verdict": {"value": "unstable-certified"},
            },
        )

    reg["hyperbolic-disk-b4"] = _disk(
        "hyperbolic-disk-b4", 4, 2, "radial-hyperbolic",
        expected={"verdict": {"value": "inconclusive"}},
        radius=0.5, domain_radius=0.5,
    )

    reg["radial-custom-disk-b4"] = Scenario(
        name="radial-custom-disk-b4", n=4, k=2,
        domain_spec={"kind": "ball", "radius": 1.0},
        field_spec={"name": "radial-custom", "coeffs": [0.1, 0.3, -0.15]},
        immersion_spec={"kind": "equatorial-disk", "radius": 1.0},
    )

    reg["tilted-disk-b3"] = Scenario(
        name="tilted-disk-b3", n=3, k=2,
        domain_spec={"kind": "ball", "radius": 1.0},
        field_spec={"name": "zero"},
        immersion_spec={"kind": "tilted-disk", "angle": np.deg2rad(10.0)},
        expected={"fb_defect": {"value": 1.0 - np.cos(np.deg2rad(10.0)), "tol": 1e-9}},
    )

    # the cap's rim (unit planar radius, height c/2) lies on this ball's sphere
    reg["paraboloid-b3"] = Scenario(
        name="paraboloid-b3", n=3, k=2,
        domain_spec={"kind": "ball", "radius": float(np.sqrt(1.0 + 0.5**2 / 4.0))},
        field_spec={"name": "zero"},
        immersion_spec={"kind": "paraboloid-cap", "curvature": 0.5},
    )

    reg["flow-bump-b3"] = Scenario(
        name="flow-bump-b3", n=3, k=2,
        flow_spec={"initial": "radial-bump", "amplitude": 0.2, "nr": 6, "ntheta": 16},
    )
    reg["flow-sin-cap-b4"] = Scenario(
        name="flow-sin-cap-b4", n=4, k=2, field_spec={"name": "radial-spherical"},
        flow_spec={"initial": "sin-bump", "amplitude": 0.05, "nr": 6, "ntheta": 16},
    )

    reg["sphere-convexity-b4"] = Scenario(
        name="sphere-convexity-b4", n=4, k=2,
        domain_spec={"kind": "ball", "radius": 1.0},
        field_spec={"name": "radial-spherical"},
        immersion_spec={"kind": "equatorial-disk"},
    )
    # ellipsoid(2,1,1) with its long axis on x3: the equatorial unit disk is
    # its waist and meets the boundary orthogonally
    reg["ellipsoid-211"] = Scenario(
        name="ellipsoid-211", n=3, k=2,
        domain_spec={"kind": "ellipsoid", "semi_axes": [1.0, 1.0, 2.0]},
        field_spec={"name": "zero"},
        immersion_spec={"kind": "equatorial-disk"},
        expected={"margin_p1": {"value": 0.25, "tol": 1e-3, "kind": "derived"}},
    )
    return reg


SCENARIOS = _registry()


def scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigError(f"unknown scenario: {name!r}") from None


def flow_grid_for(sc: Scenario) -> flow_mod.PolarGrid:
    """Initial control grid for a flow scenario."""
    if sc.flow_spec is None:
        raise ConfigError(f"scenario {sc.name} has no flow specification")
    spec = sc.flow_spec
    if not isinstance(spec, dict) or not set(spec) <= FLOW_KEYS:
        raise ConfigError(f"flow spec must be an object of {sorted(FLOW_KEYS)}, got {spec!r}")
    amp = number(spec, "amplitude", 0.1)
    nr, ntheta = integer(spec, "nr", 8, 1), integer(spec, "ntheta", 16, 1)
    kind = spec.get("initial", "radial-bump")
    if kind not in ("radial-bump", "sin-bump", "flat"):
        raise ConfigError(f"unknown flow initial shape: {kind!r}")

    def height(y):
        h = np.zeros((y.shape[0], sc.n - 2))
        if kind != "flat":
            h[:, 0] = amp * (1.0 - np.sum(y * y, axis=1)) * (y[:, 1] if kind == "sin-bump" else 1.0)
        return h
    return flow_mod.PolarGrid.from_graph(sc.n, height, nr=nr, ntheta=ntheta)


# ---------------------------------------------------------------------------
# suite machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    suite: str
    scenario: str
    name: str
    passed: bool
    achieved: float | None
    expected: float | None
    tol: float | None
    detail: str = ""
    worst_point: tuple | None = None

    def to_dict(self) -> dict:
        """Every field, the worst point as a list."""
        point = self.worst_point
        return dict(vars(self), worst_point=None if point is None else list(point))


@dataclass
class SuiteResult:
    suites: tuple[str, ...]
    seed: int
    checks: tuple[CheckResult, ...]
    runtimes: dict = dc_field(default_factory=dict)

    @property
    def n_passed(self) -> int:
        return sum(c.passed for c in self.checks)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        ordered = sorted(self.checks, key=lambda c: (c.suite, c.scenario, c.name))
        return {
            "schema": REPORT_SCHEMA,
            "seed": self.seed,
            "suites": sorted(self.suites),
            "n_checks": len(self.checks),
            "n_passed": self.n_passed,
            "all_passed": self.all_passed,
            "checks": [c.to_dict() for c in ordered],
        }


class _Collector:
    def __init__(self, suite: str):
        self.suite = suite
        self.checks: list[CheckResult] = []

    def close(self, scenario_name, name, achieved, expected, tol,
              detail="", worst_point=None, rel=False):
        """Record |achieved - expected| <= tol (relative when ``rel``)."""
        scale = max(abs(expected), 1e-300) if rel else 1.0
        passed = bool(abs(achieved - expected) <= tol * scale)
        self.checks.append(CheckResult(
            self.suite, scenario_name, name, passed,
            float(achieved), float(expected), float(tol), detail,
            tuple(map(float, worst_point)) if worst_point is not None else None,
        ))

    def below(self, scenario_name, name, achieved, tol, detail="", worst_point=None):
        """Record achieved <= tol (a residual bound)."""
        self.checks.append(CheckResult(
            self.suite, scenario_name, name, bool(achieved <= tol),
            float(achieved), None, float(tol), detail,
            tuple(map(float, worst_point)) if worst_point is not None else None,
        ))

    def require(self, scenario_name, name, condition, detail="", achieved=None):
        self.checks.append(CheckResult(
            self.suite, scenario_name, name, bool(condition),
            None if achieved is None else float(achieved), None, None, detail,
        ))

    def error(self, scenario_name, name, exc):
        self.checks.append(CheckResult(
            self.suite, scenario_name, name, False, None, None, None,
            f"{type(exc).__name__}: {exc}",
        ))

    @contextmanager
    def guard(self, scenario_name, name="setup"):
        """Record exceptions as failed checks so one scenario cannot
        abort the remainder of a suite."""
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - suites must not abort
            self.error(scenario_name, name, exc)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

_IDENTITY_SCENARIOS = (
    "flat-disk-b4k2",
    "cap-disk-b4k2",
    "cap-disk-b5k3",
    "radial-custom-disk-b4",
)

_BOUND_SCENARIOS = (
    "flat-disk-b4k2", "flat-disk-b5k2", "flat-disk-b5k3", "flat-disk-b6k3",
    "cap-disk-b4k2", "cap-disk-b5k2", "cap-disk-b5k3", "cap-disk-b6k3",
)

_CERT_SCENARIOS = (
    "flat-disk-b4k2", "flat-disk-b5k2", "flat-disk-b5k3", "flat-disk-b6k3",
    "cap-disk-b4k2", "hyperbolic-disk-b4",
)


def _suite_identities(col: _Collector, seed: int, quadrature):
    rng = np.random.default_rng(seed)
    for name in _IDENTITY_SCENARIOS:
        with col.guard(name):
            built = build_scenario(name, quadrature)
            imm, metric, dom = built.immersion, built.metric, built.domain
            geo = imm.geometry()

            basis = np.concatenate([geo.tangent, geo.normal])
            gram = np.einsum("axm,bxm->abm", basis, basis) - np.eye(imm.n)[:, :, None]
            col.below(name, "frame-gram-identity", float(np.max(np.abs(gram))), 1e-10)

            sym = float(np.max(np.abs(geo.alpha - geo.alpha.transpose(1, 0, 2, 3))))
            col.below(name, "alpha-symmetry", sym, 1e-9)

            # trace of the rescaled second fundamental form vs the mean
            # curvature law e^{2u} H~ = H - k grad^perp u, at every sample
            g = metric.field.gradient(imm.xs)
            gperp = np.einsum("rxm,rm->mx", geo.normal, np.einsum("rxm,mx->rm", geo.normal, g))
            lhs = np.einsum("iirm,rxm->mx", imm.ambient(metric).sff, geo.normal)
            col.below(name, "conformal-sff-trace",
                      float(np.max(np.abs(lhs - (geo.H - imm.k * gperp)))), 1e-9)

            if imm.ambient(metric).minimality.max_residual <= 1e-8:
                X = var.rescaled_constants(imm, metric)
                gap_s = var.s_tilde_transformed(imm, X, metric) - var.s_tilde_direct(imm, X, metric)
                gap_t = (var.t_tilde_transformed(imm, X, metric, dom)
                         - var.t_tilde_direct(imm, X, metric, dom))
                col.below(name, "interior-transform-closure", float(np.max(np.abs(gap_s))), 1e-7)
                col.below(name, "boundary-transform-closure",
                          float(np.max(np.abs(gap_t), initial=0.0)), 1e-7)

            d_resc = sub.boundary_defects(imm, dom, metric)
            gap = np.abs(imm.ambient(None, dom).defect.residuals - d_resc) if d_resc.size else 0.0
            col.below(name, "defect-conformal-invariance", float(np.max(gap)), 1e-12)

    # curvature pairing consistency on random points and planes
    for fname in ("radial-spherical", "radial-hyperbolic"):
        with col.guard(f"field:{fname}"):
            field = make_field(fname)
            worst = 0.0
            for _ in range(40):
                x = rng.uniform(-0.4, 0.4, size=4)
                A = rng.normal(size=(4, 2))
                Q, _ = np.linalg.qr(A)
                X, Y = Q[:, 0], Q[:, 1]
                R = conformal.riemann(field, x, X, Y, X)
                num = np.exp(2.0 * field.value(x)) * float(R @ Y)
                den = np.exp(4.0 * field.value(x))
                worst = max(worst, abs(num / den - conformal.sectional_curvature(field, x, X, Y)))
            col.below(f"field:{fname}", "riemann-sectional-consistency", worst, 1e-8)

    # finite differences reproduce analytic derivatives on polynomials; the
    # truncation bound 100 h^2 is checked at a step where it dominates the
    # eps/h^2 roundoff floor of second differences
    with col.guard("field:polynomial"):
        _fd_agreement_checks(col, rng)


def _fd_agreement_checks(col, rng):
    terms = [[0.3, [2, 0, 0]], [-0.2, [1, 1, 0]], [0.15, [0, 1, 2]]]
    exact = make_field("polynomial", terms=terms)
    xs = rng.uniform(-1.0, 1.0, size=(20, 3))
    h = 1e-4
    fd = ScalarField.finite_difference(exact.value_fn, step=h)
    err = max(
        float(np.max(np.abs(fd.gradient(xs) - exact.gradient(xs)))),
        float(np.max(np.abs(fd.hessian(xs) - exact.hessian(xs)))),
    )
    col.below("field:polynomial", "finite-difference-agreement", err, 100 * h**2)
    fd_default = ScalarField.finite_difference(exact.value_fn)
    err_g = float(np.max(np.abs(fd_default.gradient(xs) - exact.gradient(xs))))
    col.below("field:polynomial", "finite-difference-gradient-default-step",
              err_g, 100 * fd_default.step**2)


def _suite_traces(col: _Collector, seed: int, quadrature):
    rng = np.random.default_rng(seed)
    with col.guard("random-graphs"):
        dims = [(4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (6, 3)]
        worst = 0.0
        worst_where = None
        for case in range(200):
            n, k = dims[case % len(dims)]
            imm = make_immersion(
                "random-graph", n=n, k=k, seed=seed * 1000 + case, degree=2,
                nodes_per_axis=5 if k == 3 else 6,
            )
            traces = var.trace_s_euclid(imm)
            i = int(np.argmax(np.abs(traces)))
            if abs(traces[i]) > worst:
                worst = float(abs(traces[i]))
                worst_where = imm.xs[i]
        col.below(
            "random-graphs", "interior-trace-vanishes", worst, 1e-8,
            worst_point=worst_where,
            detail="200 seeded random polynomial graphs, k in {2,3}, n in {4,5,6}",
        )

        imm = make_immersion("random-graph", n=5, k=3, seed=seed + 7, degree=2)
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        drift = float(np.max(np.abs(
            var.trace_s_euclid(imm) - var.trace_s_euclid(imm, basis=Q.T)
        )))
        col.below("random-graphs", "interior-trace-basis-invariance", drift, 1e-12)

    for name in ("flat-disk-b4k2", "flat-disk-b5k3"):
        with col.guard(name):
            built = build_scenario(name, quadrature)
            imm, dom = built.immersion, built.domain
            n, k = built.scenario.n, built.scenario.k
            vals = var.trace_t_euclid(imm, dom)
            col.below(
                name, "boundary-trace-pointwise",
                float(np.max(np.abs(vals + (n - k)))), 1e-10,
                detail=f"each boundary sample contributes -(n-k) = {-(n-k)}",
            )

    for name in ("cap-disk-b4k2", "cap-disk-b5k3", "radial-custom-disk-b4"):
        with col.guard(name):
            built = build_scenario(name, quadrature)
            imm, metric, dom = built.immersion, built.metric, built.domain
            s_vals, s_res = var.traced_interior_density(imm, metric)
            t_vals, t_res = var.traced_boundary_density(imm, metric, dom)
            i = int(np.argmax(s_res))
            col.below(name, "interior-trace-identity-residual", float(s_res[i]), 1e-7,
                      worst_point=imm.xs[i])
            j = int(np.argmax(t_res))
            col.below(name, "boundary-trace-identity-residual", float(t_res[j]), 1e-7,
                      worst_point=imm.bxs[j])
            if name == "cap-disk-b4k2":
                col.below(name, "boundary-trace-vanishes",
                          float(np.max(np.abs(t_vals))), 1e-7)
                col.below(name, "interior-trace-constant",
                          float(np.max(np.abs(s_vals + 4.0))), 1e-9,
                          detail="curvature +1 and no normal gradient: trace = -k(n-k)")

    with col.guard("cap-disk-b4k2"):
        built = build_scenario("cap-disk-b4k2", quadrature)
        imm, metric, dom = built.immersion, built.metric, built.domain
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        v0, _ = var.traced_interior_density(imm, metric)
        v1, _ = var.traced_interior_density(imm, metric, basis=Q.T)
        col.below("cap-disk-b4k2", "rescaled-trace-basis-invariance",
                  float(np.max(np.abs(v0 - v1))), 1e-10)


def _suite_bounds(col: _Collector, seed: int, quadrature):
    for name in _BOUND_SCENARIOS:
        with col.guard(name):
            built = build_scenario(name, quadrature)
            imm, metric = built.immersion, built.metric
            report = var.interior_bound(imm, metric)
            col.require(
                name, "interior-bound-slack", report.slack >= -1e-6,
                detail=f"slack = {report.slack:.6e}", achieved=report.slack,
            )
            col.require(
                name, "interior-bound-hypotheses", not report.warnings,
                detail="; ".join(report.warnings),
            )
            exp = built.scenario.expected
            if "bound_lhs" in exp:
                col.close(name, "interior-bound-lhs", report.lhs,
                          exp["bound_lhs"]["value"], exp["bound_lhs"]["tol"])
            if "bound_rhs" in exp:
                col.close(name, "interior-bound-rhs", report.rhs,
                          exp["bound_rhs"]["value"], exp["bound_rhs"]["tol"])
            if built.scenario.field_spec["name"] == "zero":
                col.below(name, "interior-bound-flat-zero",
                          max(abs(report.lhs), abs(report.rhs)), 1e-9)

    with col.guard("flat-disk-b4k2", "interior-bound-dimension-gate"):
        try:
            bad = sub.make_immersion("equatorial-disk", n=3, k=2, nr=8, ntheta=16)
            var.interior_bound(bad, ConformalMetric(make_field("zero"), 3))
            col.require("flat-disk-b4k2", "interior-bound-dimension-gate", False,
                        detail="k = n-1 was not rejected")
        except DimensionError:
            col.require("flat-disk-b4k2", "interior-bound-dimension-gate", True)


def _suite_certificate(col: _Collector, seed: int, quadrature):
    cfg = var.CertificateConfig(seed=seed)
    for name in _CERT_SCENARIOS:
        with col.guard(name, "certificate"):
            built = build_scenario(name, quadrature)
            imm, metric, dom = built.immersion, built.metric, built.domain
            report = var.instability_certificate(
                imm, metric, dom, var.CertificateConfig(seed=seed, p=built.scenario.p))
            exp = built.scenario.expected
            if "traced_total" in exp:
                e = exp["traced_total"]
                col.close(name, "traced-total", report.traced_total, e["value"], e["tol"])
            if "verdict" in exp:
                col.require(
                    name, "verdict", report.verdict == exp["verdict"]["value"],
                    detail=f"verdict={report.verdict}; failed={list(report.failed_hypotheses)}",
                )
            if name == "hyperbolic-disk-b4":
                col.require(
                    name, "curvature-hypothesis-flagged",
                    any("curvature" in f for f in report.failed_hypotheses),
                    detail="; ".join(report.failed_hypotheses),
                )

    # dimension gate: hypersurfaces and curves are rejected outright
    with col.guard("dimension-gate", "certificate-rejects-hypersurface"):
        bad = sub.make_immersion("equatorial-disk", n=3, k=2, nr=8, ntheta=16)
        dom3 = domain_mod.make_domain("ball", 3, radius=1.0)
        try:
            var.instability_certificate(
                bad, ConformalMetric(make_field("zero"), 3), dom3, cfg
            )
            col.require("dimension-gate", "certificate-rejects-hypersurface", False,
                        detail="k = n-1 accepted")
        except DimensionError as exc:
            col.require("dimension-gate", "certificate-rejects-hypersurface", True,
                        detail=str(exc))

    # convexity margins backing the certificate hypotheses
    ball4 = domain_mod.make_domain("ball", 4, radius=1.0)
    with col.guard("sphere-convexity-b4"):
        spherical = make_field("radial-spherical")
        reports = {p: domain_mod.convexity_report(ball4, spherical, p, count=256, seed=seed)
                   for p in (1, 2, 3)}
        for p, rep in reports.items():
            col.close("sphere-convexity-b4", f"sphere-margin-p{p}", rep.margin_g, float(p), 1e-9)
        col.close("sphere-convexity-b4", "sphere-rescaled-margin", reports[2].margin_gtilde,
                  0.0, 1e-7, worst_point=reports[2].worst_point_gtilde)
    with col.guard("ellipsoid-211"):
        ell = build_scenario("ellipsoid-211")
        want = ell.scenario.expected["margin_p1"]
        rep = domain_mod.convexity_report(ell.domain, ell.metric.field, 1, count=512, seed=seed)
        col.close("ellipsoid-211", "ellipsoid-margin-p1", rep.margin_g, want["value"],
                  want["tol"], worst_point=rep.worst_point_g)

    gate_cases = (
        ("ball-quadratic", make_field("polynomial",
                                      terms=[[1.0, [2, 0, 0, 0]], [1.0, [0, 2, 0, 0]],
                                             [1.0, [0, 0, 2, 0]], [1.0, [0, 0, 0, 2]]]),
         "case-i"),
        ("ball-spherical", make_field("radial-spherical"), "case-ii"),
        ("ball-flat", make_field("zero"), "none"),
    )
    for label, f, want in gate_cases:
        with col.guard("corollary-gate", f"gate-{label}"):
            got = domain_mod.corollary_gate(domain_mod.convexity_report(ball4, f, 2, 128, seed))
            col.require("corollary-gate", f"gate-{label}", got == want,
                        detail=f"got {got}, want {want}")


def _suite_flow(col: _Collector, seed: int, quadrature):
    dom3 = domain_mod.make_domain("ball", 3, radius=1.0)
    metric3 = ConformalMetric(make_field("zero"), 3)

    with col.guard("flow-fixed-point"):
        flat = flow_mod.PolarGrid.from_graph(3, lambda y: np.zeros((y.shape[0], 1)))
        state = flow_mod.flow_state(flat, metric3, dom3, dt=0.2)
        stepped = flow_mod.flow_step(state, metric3, dom3)
        moved = float(np.max(np.abs(stepped.grid.positions - flat.positions)))
        col.below("flow-fixed-point", "flat-disk-unmoved", moved, 1e-12)

    with col.guard("flow-bump-b3"):
        grid = flow_grid_for(scenario("flow-bump-b3"))
        cfg = flow_mod.FlowConfig(max_iter=5000)
        final, converged, st = flow_mod.run_flow(grid, metric3, dom3, cfg)
        col.require("flow-bump-b3", "flow-converged", converged,
                    detail=f"iterations={st.iteration}, residual={st.residual:.2e}, "
                           f"defect={st.boundary_defect:.2e}")
        col.below("flow-bump-b3", "flow-final-mean-curvature", st.residual, cfg.tol)
        col.below("flow-bump-b3", "flow-final-defect", st.boundary_defect, cfg.boundary_tol)

    with col.guard("flow-sin-cap-b4"):
        sc4 = scenario("flow-sin-cap-b4")
        built = build_scenario(sc4, None)
        grid4 = flow_grid_for(sc4)
        final4, conv4, st4 = flow_mod.run_flow(grid4, built.metric, built.domain,
                                               flow_mod.FlowConfig(max_iter=5000))
        col.require("flow-sin-cap-b4", "flow-converged", conv4,
                    detail=f"iterations={st4.iteration}, residual={st4.residual:.2e}")


_SUITES = {
    "identities": _suite_identities,
    "traces": _suite_traces,
    "bounds": _suite_bounds,
    "certificate": _suite_certificate,
    "flow": _suite_flow,
}


def run_suite(names, seed: int = 0, quadrature: dict | None = None) -> SuiteResult:
    """Execute one or more verification suites; failures never abort a suite."""
    if isinstance(names, str):
        names = (names,)
    for name in names:
        if name not in _SUITES:
            raise ConfigError(f"unknown suite: {name!r}; choose from {SUITE_NAMES}")
    checks: list[CheckResult] = []
    runtimes: dict[str, float] = {}
    for name in names:
        col = _Collector(name)
        start = time.perf_counter()
        try:
            _SUITES[name](col, seed, quadrature)
        except Exception as exc:  # noqa: BLE001 - record, do not abort the run
            col.error("(suite)", "suite-completed", exc)
        runtimes[name] = time.perf_counter() - start
        checks.extend(col.checks)
    return SuiteResult(tuple(names), seed, tuple(checks), runtimes)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def emit_report(result: SuiteResult, format: str = "json") -> bytes:
    """Serialize a suite result; JSON and CSV are byte-deterministic."""
    if format == "json":
        return (json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n").encode()
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "scenario", "name", "passed", "achieved",
                         "expected", "tol", "detail", "worst_point"])
        for c in sorted(result.checks, key=lambda c: (c.suite, c.scenario, c.name)):
            writer.writerow([
                c.suite, c.scenario, c.name, int(c.passed),
                "" if c.achieved is None else repr(c.achieved),
                "" if c.expected is None else repr(c.expected),
                "" if c.tol is None else repr(c.tol),
                c.detail,
                "" if c.worst_point is None else ";".join(repr(v) for v in c.worst_point),
            ])
        return buf.getvalue().encode()
    if format == "text":
        lines = [f"suites: {', '.join(result.suites)}   seed: {result.seed}"]
        for c in sorted(result.checks, key=lambda c: (c.suite, c.scenario, c.name)):
            status = "PASS" if c.passed else "FAIL"
            extra = ""
            if c.achieved is not None:
                extra = f" achieved={c.achieved:.6e}"
                if c.expected is not None:
                    extra += f" expected={c.expected:.6e}"
                if c.tol is not None:
                    extra += f" tol={c.tol:g}"
            lines.append(f"[{status}] {c.suite}/{c.scenario}/{c.name}{extra}")
            if c.detail:
                lines.append(f"        {c.detail}")
        lines.append(f"passed {result.n_passed}/{len(result.checks)}")
        for name, t in result.runtimes.items():
            lines.append(f"runtime[{name}] = {t:.2f}s")
        return ("\n".join(lines) + "\n").encode()
    raise ConfigError(f"unknown report format: {format!r}")


def sample_dump_csv(built: BuiltScenario) -> bytes:
    """Per-sample CSV of traced densities and residuals for plotting."""
    imm, metric, dom = built.immersion, built.metric, built.domain
    _, _, tangency = var._hypothesis_residuals(imm, metric, dom)
    s_vals, s_res = var.traced_interior_density(imm, metric)
    t_vals, t_res = var.traced_boundary_density(imm, metric, dom, tangency)
    euclid = var.trace_s_euclid(imm)
    minres = imm.ambient(metric).minimality.residuals
    defects = imm.ambient(None, dom).defect.residuals if imm.n_boundary else None
    n = imm.n
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["index", "kind"] + [f"x{i}" for i in range(n)]
        + ["trace_interior", "identity_residual", "euclid_trace", "minimality_residual"]
    )
    for i in range(imm.n_interior):
        writer.writerow(
            [i, "interior"] + [repr(float(v)) for v in imm.xs[i]]
            + [repr(float(s_vals[i])), repr(float(s_res[i])),
               repr(float(euclid[i])), repr(float(minres[i]))]
        )
    for i in range(imm.n_boundary):
        writer.writerow(
            [i, "boundary"] + [repr(float(v)) for v in imm.bxs[i]]
            + [repr(float(t_vals[i])), repr(float(t_res[i])), "",
               repr(float(defects[i]))]
        )
    return buf.getvalue().encode()
