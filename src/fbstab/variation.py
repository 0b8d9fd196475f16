"""Second-variation quadratic forms, trace identities and the certificate.

For a normal field X along a k-submanifold, the interior density is
S(X,X) = |D^perp X|^2 - sum_i <R(X,v_i)X, v_i> - <alpha, X>^2 and the
boundary density T(X,X) = <D_X X, nu> reduces, through the free boundary
condition, to the ambient boundary's second fundamental form.  Q = int S +
int T is the second variation when the immersion is minimal and meets the
boundary orthogonally.

A ``NormalField`` (``submanifold``) is its components against the
immersion's normal frames, so it is normal by construction: values and
covariant normal derivatives at the interior samples, values at the boundary
samples, sample-last (..., m) and with optional leading axes that stack
fields.  Every form returns the density of the field it is given, one per
field and sample, ``(..., m)`` for S and ``(..., mb)`` for T, with no
differencing across samples.  What no field changes (Hess u and the
operators on the normal frames) the forms, traces, bound and certificate
read from the immersion's cached ``geometry()`` and ``ambient(metric,
domain)`` records, so after the first call a form does only the work that X
changes.  The direct route is S~ = |D~X|^2 - X^T (A + G~) X and T~ = X^T M~
X: sum_i <R(X,v_i)X, v_i> = X^T A X with A = -k N B N^T - (sum_i v_i^T B
v_i) I_q for the Schouten tensor B, as X is normal, G~ is the Gram of the
rescaled second fundamental form and M~ = e^{u} <eta, nu> (M - eta(u) I_q).

The Euclidean traces sum the forms over the projected constants E_l^perp
of an orthonormal basis (canonical by default), stacked by
``projected_field``; the rescaled traces and the certificate sum them over
the rescaled constants e^{-u} E_l^perp of ``rescaled_constants``, built once
per immersion and metric.  Invariance under rotating the basis is tested,
not assumed.  The rescaled densities have two routes, Euclidean data plus a
transformation law and direct evaluation with the conformal connection and
curvature; their agreement is a test obligation, and Q(X, X) takes the
direct route.

The certificate's hypotheses are exact where symmetry allows: for a radial
exponent the curvature minimum is a 1-d minimum along one ray, and on a
radial domain with a radial exponent the convexity margins are read at one
boundary point.  Otherwise both are sampled bounds, and the failure text
names which.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conformal
from .domain import LevelSetDomain, convexity_report, kronecker
from .errors import ConfigError, DimensionError, PreconditionError, integer, number
from .fields import ConformalMetric
from .submanifold import NormalField, SampledImmersion, projected_field

Array = np.ndarray

TANGENCY_TOL = 1e-8


def _norm2(X: Array) -> Array:
    """|X|^2 per sample from components ``X`` (..., q, m)."""
    return np.einsum("...rm,...rm->...m", X, X)


def _squares(a: Array) -> Array:
    """Sum of squares over the two axes before the sample axis."""
    return np.einsum("...ijm,...ijm->...m", a, a)


def _pair(S: Array, X: Array) -> Array:
    """X^T S X per sample for a sample-last stack ``S`` (q, q, m) and
    components ``X`` (..., q, m)."""
    return np.einsum("...rm,rsm,...sm->...m", X, S, X)


def _tangent_rim(imm: SampledImmersion, X: NormalField, domain: LevelSetDomain,
                 tangency_tol: float) -> Array:
    """X's boundary components, once X is checked tangent to the domain
    boundary."""
    Xb, nhat = X.boundary, imm.ambient(None, domain).boundary_form[2]
    limit = tangency_tol * (1.0 + np.sqrt(_norm2(Xb)))
    bad = np.abs(np.einsum("...rm,rm->...m", Xb, nhat)) > limit
    if np.any(bad):
        j = int(np.argmax(np.any(bad.reshape(-1, bad.shape[-1]), axis=0)))
        raise PreconditionError(f"field is not tangent to the domain boundary at boundary "
                                f"sample {j}")
    return Xb


# ---------------------------------------------------------------------------
# quadratic forms, one density per field and sample
# ---------------------------------------------------------------------------

def s_euclid(imm: SampledImmersion, X: NormalField) -> Array:
    """Interior density in the Euclidean metric: |D^perp X|^2 - <alpha, X>^2."""
    return _squares(X.dperp) - _pair(imm.geometry().alpha_gram, X.normal)


def t_euclid(imm: SampledImmersion, X: NormalField, domain: LevelSetDomain,
             tangency_tol: float = TANGENCY_TOL) -> Array:
    """Boundary density <alpha_boundary(X, X), nu> through the level set.

    Requires X tangent to the ambient boundary (the free boundary condition
    transports normal fields into the boundary's tangent space); callers
    working with approximately orthogonal immersions may widen the tolerance
    to the measured boundary defect.
    """
    _, form, _, eta_dot_nu = imm.ambient(None, domain).boundary_form
    return _pair(form, _tangent_rim(imm, X, domain, tangency_tol)) * eta_dot_nu


def s_tilde_transformed(imm: SampledImmersion, X: NormalField,
                        metric: ConformalMetric) -> Array:
    """Interior density of the rescaled metric from Euclidean data.

    S~(X,X) = S(X,X) + (grad^tan u)(|X|^2) + |X|^2 div_Sigma(grad u)
    + k |X|^2 |grad u|^2 + k Hess u(X, X); valid where the immersion is
    minimal for the rescaled metric.
    """
    record = imm.ambient(metric)
    Xn = X.normal
    X2 = _norm2(Xn)
    deriv_term = 2.0 * np.einsum("im,...irm,...rm->...m", record.grad_tan, X.dperp, Xn)
    g2 = np.einsum("mx,mx->m", record.grad, record.grad)
    return (s_euclid(imm, X) + deriv_term + X2 * record.hess_tangent + imm.k * X2 * g2
            + imm.k * _pair(record.hess_normal, Xn))


def s_tilde_direct(imm: SampledImmersion, X: NormalField,
                   metric: ConformalMetric) -> Array:
    """Interior density of the rescaled metric computed from first principles.

    Uses only the conformal connection, curvature tensor and second
    fundamental form; no minimality assumption.  Dual route to
    ``s_tilde_transformed`` for closure testing.  |D~X|^2 = |D^perp X +
    grad^T u (x) X|^2, and X^T (A + G~) X reads the record's ``s_operator``,
    built from the Schouten tensor, the frames and ``sff``, not Hess u.
    """
    record = imm.ambient(metric)
    Xn = X.normal
    return (_squares(X.dperp + record.grad_tan[:, None] * Xn[..., None, :, :])
            - _pair(record.s_operator, Xn))


def t_tilde_transformed(imm: SampledImmersion, X: NormalField, metric: ConformalMetric,
                        domain: LevelSetDomain, tangency_tol: float = TANGENCY_TOL) -> Array:
    """Boundary density of the rescaled metric from Euclidean data:
    e^{u} (T(X,X) - |X|^2 nu(u))."""
    record, Xb = imm.ambient(metric), X.boundary
    bracket = t_euclid(imm, X, domain, tangency_tol) - _norm2(Xb) * record.nu_u
    return np.exp(record.b_u) * bracket


def t_tilde_direct(imm: SampledImmersion, X: NormalField, metric: ConformalMetric,
                   domain: LevelSetDomain, tangency_tol: float = TANGENCY_TOL) -> Array:
    """Boundary density of the rescaled metric via the conformal boundary form.

    Applies the conformal transformation of the ambient boundary's second
    fundamental form and the rescaled conormal, X^T M~ X with M~ the
    record's ``t_operator``; dual route to ``t_tilde_transformed``.
    """
    return _pair(imm.ambient(metric, domain).t_operator, _tangent_rim(imm, X, domain, tangency_tol))


# ---------------------------------------------------------------------------
# traces over projected and rescaled constant fields
# ---------------------------------------------------------------------------

def _basis(n: int, basis=None) -> Array:
    if basis is None:
        return np.eye(n)
    basis = np.asarray(basis, float)
    if basis.shape != (n, n) or np.max(np.abs(basis @ basis.T - np.eye(n))) > 1e-10:
        raise PreconditionError("trace basis must be orthonormal")
    return basis


def trace_s_euclid(imm: SampledImmersion, basis=None) -> Array:
    """Sum of S(E^perp, E^perp) over an orthonormal basis at every interior
    sample; zero pointwise on any immersion (tested, not assumed) -- the
    returned values are the achieved residuals for reporting."""
    return np.sum(s_euclid(imm, projected_field(imm, _basis(imm.n, basis))), axis=0)


def trace_t_euclid(imm: SampledImmersion, domain: LevelSetDomain, basis=None) -> Array:
    """Boundary trace: sum of <alpha_boundary(E^perp, E^perp), nu> at every
    boundary sample."""
    return np.sum(t_euclid(imm, projected_field(imm, _basis(imm.n, basis)), domain), axis=0)


def rescaled_constants(imm: SampledImmersion, metric: ConformalMetric,
                       basis=None) -> NormalField:
    """The rescaled constants e^{-u} E_l^perp of an orthonormal basis
    (canonical by default), stacked over l.

    The canonical stack is the ambient record's ``rescaled_constants``,
    built once per immersion and metric through ``NormalField.scaled`` and
    read-only.  E -> e^{-u} E^perp is linear, so another basis rotates it.
    """
    X = imm.ambient(metric).rescaled_constants
    if basis is None:
        return X
    B = _basis(imm.n, basis)
    return NormalField(*(np.tensordot(B, a, axes=1) for a in (X.normal, X.dperp, X.boundary)))


def traced_interior_density(imm: SampledImmersion, metric: ConformalMetric, basis=None):
    """Per-interior-sample traced rescaled density and identity residual.

    The density sums ``s_tilde_transformed`` over ``rescaled_constants``;
    the residual compares e^{2u} * value with k |grad^perp u|^2 - e^{2u}
    K~(T, N), the total tangent-normal sectional curvature, which needs no
    field.  Returns ``(values (m,), residuals (m,))``.
    """
    k, q = imm.k, imm.n - imm.k
    record = imm.ambient(metric)
    X = rescaled_constants(imm, metric, basis)
    values = np.sum(s_tilde_transformed(imm, X, metric), axis=0)
    ut2, un2 = _norm2(record.grad_tan), _norm2(record.grad_nor)
    g2 = np.einsum("mx,mx->m", record.grad, record.grad)
    # e^{2u} K~(T, N) = sum_{i,r} u_i^2 + u_r^2 - |grad u|^2 - Hess u(v_i, v_i) - Hess u(N_r, N_r)
    curvature = (q * ut2 + k * un2 - k * q * g2 - q * record.hess_tangent
                 - k * np.einsum("rrm->m", record.hess_normal))
    return values, np.abs(np.exp(2.0 * record.u) * values - (k * un2 - curvature))


def traced_boundary_density(imm: SampledImmersion, metric: ConformalMetric,
                            domain: LevelSetDomain,
                            tangency_tol: float = TANGENCY_TOL, basis=None):
    """Per-boundary-sample traced rescaled density and identity residual.

    The density sums ``t_tilde_transformed`` over ``rescaled_constants``;
    the residual compares e^u * value with -(n-k) nu(u) + sum_l
    <alpha_boundary(E_l^perp, E_l^perp), nu>, the latter evaluated as the
    trace of the boundary form on the rim's normal frame.  The projected
    constants E_l^perp = e^{u} X~_l must be tangent to the domain boundary
    within the absolute ``tangency_tol``.  Returns ``(values (mb,),
    residuals (mb,))``.
    """
    if imm.n_boundary == 0:
        return np.zeros(0), np.zeros(0)
    record, X = imm.ambient(metric), rescaled_constants(imm, metric, basis)
    _, form, nhat, eta_dot_nu = imm.ambient(None, domain).boundary_form
    tangency = np.exp(record.b_u) * np.abs(np.einsum("...rm,rm->...m", X.boundary, nhat))
    if np.max(tangency) > tangency_tol:
        raise PreconditionError("projected fields are not tangent to the domain boundary; "
                                "free boundary condition violated")
    # tangency is the check above, on the unscaled components; the form's
    # relative limit is not applied again to the rescaled ones
    values = t_tilde_transformed(imm, X, metric, domain, tangency_tol=np.inf).sum(axis=0)
    display = -(imm.n - imm.k) * record.nu_u + eta_dot_nu * np.einsum("rrm->m", form)
    return values, np.abs(np.exp(record.b_u) * values - display)


# ---------------------------------------------------------------------------
# integral bound, second variation, certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Traced interior integral against its boundary-flux upper bound."""

    lhs: float
    rhs: float
    slack: float
    curvature_min: float
    warnings: tuple[str, ...]

    @property
    def holds(self) -> bool:
        return self.slack >= -1e-6


def _hypothesis_residuals(imm: SampledImmersion, metric: ConformalMetric,
                          domain: LevelSetDomain | None = None):
    """``(minimality, defect, tangency_tol)``: the maximal minimality residual,
    the maximal free-boundary defect and the tangency tolerance it allows.
    Both maxima are read from the immersion's ambient records' reports.

    Without a domain or boundary samples the defect is inf and the tolerance
    ``TANGENCY_TOL``.  The defect is 1 - cos(angle) while field misalignment
    scales with sin(angle), so the tolerance widens to 2 sqrt(2 defect).
    """
    minimality = imm.ambient(metric).minimality.max_residual
    if domain is None or not imm.n_boundary:
        return minimality, np.inf, TANGENCY_TOL
    defect = imm.ambient(None, domain).defect.max_residual
    return minimality, defect, max(TANGENCY_TOL, 2.0 * np.sqrt(2.0 * defect))


def _bound_rhs(imm: SampledImmersion, metric: ConformalMetric) -> float:
    """Twice the boundary flux of u along the rescaled conormal, 2 int e^{-u} nu(u)."""
    record = imm.ambient(metric)
    return 2.0 * record.integrate_boundary(np.exp(-record.b_u) * record.nu_u)


def interior_bound(imm: SampledImmersion, metric: ConformalMetric,
                   minimality_tol: float = 1e-6) -> BoundReport:
    """Traced interior integral <= 2 * boundary flux of u along the conormal.

    lhs integrates the traced rescaled interior density; rhs = 2 times the
    integral over the boundary of the conormal derivative of u in the
    rescaled metric.  Valid for 2 <= k <= n-2 on immersions minimal for the
    rescaled metric with non-negative curvature; the curvature check takes the
    exact minimum over 2-planes at each interior sample, a sampled bound over
    space.  Violated hypotheses are attached as warnings, never silently
    dropped.
    """
    k, n = imm.k, imm.n
    if not 2 <= k <= n - 2:
        raise DimensionError(f"interior bound needs 2 <= k <= n-2, got k={k}, n={n}")
    warnings = []
    minimality, _, _ = _hypothesis_residuals(imm, metric)
    if minimality > minimality_tol:
        warnings.append(f"minimality residual {minimality:.3e} exceeds {minimality_tol:g}")
    record = imm.ambient(metric)
    curv_min = float(np.min(conformal.min_sectional_curvature(record.u, record.grad, record.hess)))
    if curv_min < -1e-9:
        warnings.append(f"curvature hypothesis unverified: sampled min {curv_min:.3e} < 0")
    values, _ = traced_interior_density(imm, metric)
    lhs = record.integrate(values)
    rhs = _bound_rhs(imm, metric)
    return BoundReport(lhs, rhs, rhs - lhs, curv_min, tuple(warnings))


@dataclass(frozen=True)
class SecondVariationResult:
    value: float
    interior_term: float
    boundary_term: float
    q_form_only: bool
    warnings: tuple[str, ...]


def second_variation(imm: SampledImmersion, metric: ConformalMetric,
                     X: NormalField, domain: LevelSetDomain,
                     minimality_tol: float = 1e-6,
                     free_boundary_tol: float = 1e-6) -> SecondVariationResult:
    """Q(X, X) = int S + int T with the requested metric's volume elements.

    Coincides with the second variation of volume when the immersion is
    minimal and meets the boundary orthogonally; otherwise the result is
    flagged as the bare quadratic form.  ``X`` is one field: a stack raises
    ``ConfigError``, as the integrals would sum its per-field values.
    """
    if X.normal.ndim != 2:
        raise ConfigError(f"Q(X, X) takes one field, got a stack of shape {X.normal.shape[:-2]}")
    minimality, defect, tangency = _hypothesis_residuals(imm, metric, domain)
    warnings = []
    if minimality > minimality_tol:
        warnings.append(f"not minimal at tolerance {minimality_tol:g}")
    if np.isfinite(defect) and defect > free_boundary_tol:
        warnings.append(f"free boundary defect exceeds {free_boundary_tol:g}")
    record = imm.ambient(metric)
    interior_term = record.integrate(s_tilde_direct(imm, X, metric))
    boundary_term = record.integrate_boundary(t_tilde_direct(imm, X, metric, domain, tangency))
    return SecondVariationResult(interior_term + boundary_term, interior_term, boundary_term,
                                 q_form_only=bool(warnings), warnings=tuple(warnings))


@dataclass(frozen=True)
class CertificateConfig:
    """Tolerances and sampling budgets for the instability certificate."""

    p: int | None = None                 # defaults to n - k
    certify_tol: float = 1e-6            # traced total must be below -certify_tol
    minimality_tol: float = 1e-6
    free_boundary_tol: float = 1e-6
    hypothesis_margin: float = 1e-9
    curvature_points: int = 10_000       # Kronecker points; non-radial exponents only
    convexity_samples: int = 1024        # sweep rays; non-radial domains or exponents only
    seed: int = 0

    def __post_init__(self):
        """Each option out of range or of the wrong type raises ``ConfigError``."""
        if self.p is not None:
            integer(vars(self), "p", None, 1)
        for key in ("certify_tol", "minimality_tol", "free_boundary_tol", "hypothesis_margin"):
            number(vars(self), key, None, 0.0)
        for key in ("curvature_points", "convexity_samples"):
            integer(vars(self), key, None, 1)
        integer(vars(self), "seed", None)


@dataclass(frozen=True)
class StabilityReport:
    """Traced second variation, bound chain, hypothesis checks and verdict."""

    n: int
    k: int
    p: int
    traced_interior: float
    traced_boundary: float
    traced_total: float
    bound_rhs: float
    bound_slack: float
    ineq2_min: float
    ineq2_max: float
    ineq2_mean: float
    ineq2_residual_max: float
    interior_identity_residual_max: float
    minimality_residual: float
    free_boundary_defect: float
    curvature_min: float
    margin_g: float
    margin_gtilde: float
    strict_conditions: tuple[str, ...]
    failed_hypotheses: tuple[str, ...]
    verdict: str
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "schema": "fbstab-stability/1",
            "n": self.n,
            "k": self.k,
            "p": self.p,
            "traced_interior": self.traced_interior,
            "traced_boundary": self.traced_boundary,
            "traced_total": self.traced_total,
            "bound_rhs": self.bound_rhs,
            "bound_slack": self.bound_slack,
            "ineq2": {
                "min": self.ineq2_min,
                "max": self.ineq2_max,
                "mean": self.ineq2_mean,
                "residual_max": self.ineq2_residual_max,
            },
            "interior_identity_residual_max": self.interior_identity_residual_max,
            "residuals": {
                "minimality": self.minimality_residual,
                # inf (no boundary samples) is not JSON; the failure says why
                "free_boundary": (self.free_boundary_defect
                                  if np.isfinite(self.free_boundary_defect) else None),
            },
            "curvature_min": self.curvature_min,
            "margin_g": self.margin_g,
            "margin_gtilde": self.margin_gtilde,
            "strict_conditions": list(self.strict_conditions),
            "failed_hypotheses": list(self.failed_hypotheses),
            "verdict": self.verdict,
            "warnings": list(self.warnings),
        }


def _sample_domain_interior(domain: LevelSetDomain, count: int, seed: int) -> Array:
    R = domain.bounding_radius
    pts = np.zeros((0, domain.n))
    attempts = 0
    draw = 1 << int(np.ceil(np.log2(max(count, 256) * 2)))
    while pts.shape[0] < count and attempts < 12:
        raw = kronecker(domain.n, draw, seed, start=attempts * draw) * (2 * R) - R
        inside = raw[domain.phi.value(raw) < 0.0]
        pts = np.vstack([pts, inside])
        attempts += 1
    if pts.shape[0] < count:
        raise PreconditionError("could not sample enough interior points of the domain")
    return pts[:count]


def instability_certificate(imm: SampledImmersion, metric: ConformalMetric,
                            domain: LevelSetDomain,
                            config: CertificateConfig | None = None) -> StabilityReport:
    """Trace the second variation over projected rescaled constants and
    certify instability when the traced total is negative and every
    hypothesis check passes.

    The verdict is ``unstable-certified`` only if the traced total lies below
    ``-certify_tol`` and the curvature sign, the p-convexity margins in both
    metrics, the minimality residual and the free-boundary defect all pass;
    each failed hypothesis is listed in the report.  The curvature minimum is
    exact over 2-planes; over space it is the 1-d minimum along a ray over
    the closure's radii [0, ``domain.bounding_radius``] for a radial exponent
    (``ScalarField.radial``; every catalog domain is star-shaped about the
    origin), and otherwise a sampled bound at ``curvature_points`` interior
    Kronecker points.  It is computed first, as it needs no immersion data.
    The convexity margins are those of ``convexity_report``: exact, at one
    boundary point, when both the domain's level-set function and the
    exponent are radial, and otherwise sampled upper bounds over
    ``convexity_samples`` rays.  Each failed hypothesis names its kind:
    ``radial-1d`` or ``sampled`` curvature, the report's ``radial-exact`` or
    ``sampled`` route for a margin.
    """
    cfg = config or CertificateConfig()
    k, n = imm.k, imm.n
    p = cfg.p if cfg.p is not None else n - k
    if not 2 <= k <= min(n - 2, n - p):
        raise DimensionError(
            f"certificate requires 2 <= k <= min(n-2, n-p); got k={k}, n={n}, p={p}"
        )

    u = metric.field
    if u.radial:
        curv_kind = "radial-1d"
        curv_min = conformal.radial_min_sectional_curvature(u, n, domain.bounding_radius)
    else:
        curv_kind = "sampled"
        xs = _sample_domain_interior(domain, cfg.curvature_points, cfg.seed)
        curv_min = float(np.min(conformal.min_sectional_curvature(
            u.value(xs), u.gradient(xs), u.hessian(xs))))

    failed = []
    warnings = []

    minimality, fb_defect, tangency = _hypothesis_residuals(imm, metric, domain)
    if minimality > cfg.minimality_tol:
        failed.append(f"minimality: residual {minimality:.3e} > {cfg.minimality_tol:g}")
    if fb_defect > cfg.free_boundary_tol:
        failed.append(f"free-boundary: defect {fb_defect:.3e} > {cfg.free_boundary_tol:g}")

    s_vals, s_res = traced_interior_density(imm, metric)
    t_vals, t_res = traced_boundary_density(imm, metric, domain, tangency)
    record = imm.ambient(metric)
    traced_interior = record.integrate(s_vals)
    traced_boundary = record.integrate_boundary(t_vals)
    traced_total = traced_interior + traced_boundary
    bound_rhs = _bound_rhs(imm, metric)

    if curv_min < -cfg.hypothesis_margin:
        failed.append(f"curvature: {curv_kind} min {curv_min:.3e} < 0")

    convexity = convexity_report(domain, u, p, cfg.convexity_samples, cfg.seed)
    margin_g, margin_gt = convexity.margin_g, convexity.margin_gtilde
    if margin_g < -cfg.hypothesis_margin:
        failed.append(f"convexity (euclidean): {convexity.route} margin {margin_g:.3e} < 0")
    if margin_gt < -cfg.hypothesis_margin:
        failed.append(f"convexity (rescaled): {convexity.route} margin {margin_gt:.3e} < 0")

    strict = []
    if curv_min > cfg.hypothesis_margin:
        strict.append("positive-curvature")
    if margin_g > cfg.hypothesis_margin:
        strict.append("strict-convexity-euclidean")
    if margin_gt > cfg.hypothesis_margin:
        strict.append("strict-convexity-rescaled")
    if not strict:
        warnings.append("no strictness condition holds; certified sign rests on margins")

    certified = traced_total < -cfg.certify_tol and not failed
    if not failed and traced_total >= -cfg.certify_tol:
        warnings.append("traced total is not negative at the declared tolerance")

    return StabilityReport(
        n=n, k=k, p=p,
        traced_interior=traced_interior,
        traced_boundary=traced_boundary,
        traced_total=traced_total,
        bound_rhs=bound_rhs,
        bound_slack=bound_rhs - traced_interior,
        ineq2_min=float(np.min(t_vals)) if t_vals.size else 0.0,
        ineq2_max=float(np.max(t_vals)) if t_vals.size else 0.0,
        ineq2_mean=float(np.mean(t_vals)) if t_vals.size else 0.0,
        ineq2_residual_max=float(np.max(t_res)) if t_res.size else 0.0,
        interior_identity_residual_max=float(np.max(s_res)),
        minimality_residual=minimality,
        free_boundary_defect=fb_defect,
        curvature_min=curv_min,
        margin_g=margin_g,
        margin_gtilde=margin_gt,
        strict_conditions=tuple(strict),
        failed_hypotheses=tuple(failed),
        verdict="unstable-certified" if certified else "inconclusive",
        warnings=tuple(warnings),
    )
