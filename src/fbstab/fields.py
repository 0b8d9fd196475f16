"""Conformal exponents u and the rescaled metrics e^{2u} * Euclidean.

A ``ScalarField`` bundles a scalar function with its gradient and Hessian.
All curvature and second-variation formulas downstream consume exactly these
three evaluations, so the field is the single entry point for analytic data.
Derivatives are either closed forms (``ScalarField.analytic``) or central
differences of the value at a declared step (``ScalarField.finite_difference``).

Evaluation is vectorized: points may be a single ``(n,)`` vector or any
``(..., n)`` batch; results broadcast over the leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from numbers import Real
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, PreconditionError, required

Array = np.ndarray

DEFAULT_FD_STEP = 1e-5


def _as_points(x) -> Array:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        raise PreconditionError("a point must have at least one coordinate, got a 0-d array")
    return x


@dataclass(frozen=True)
class ScalarField:
    """Scalar function on R^n with gradient and Hessian evaluation.

    ``value_fn`` maps ``(..., n) -> (...)``; ``grad_fn`` maps
    ``(..., n) -> (..., n)``; ``hess_fn`` maps ``(..., n) -> (..., n, n)``.
    ``finite_difference`` generates the derivative callables from ``value_fn``
    by central differences at ``step``; analytic fields have ``step`` 0.
    ``radial`` declares u(x) = p(|x|^2), invariant under rotations about
    the origin; only the catalog's radial exponents and ``zero`` set it.
    ``dim`` is the n of R^n for a field with per-coordinate data, else None.
    """

    value_fn: Callable[[Array], Array]
    grad_fn: Callable[[Array], Array]
    hess_fn: Callable[[Array], Array]
    step: float = 0.0
    name: str = dc_field(default="", compare=False)
    radial: bool = False
    dim: int | None = None

    def value(self, x) -> Array:
        return np.asarray(self.value_fn(_as_points(x)), dtype=float)

    def gradient(self, x) -> Array:
        return np.asarray(self.grad_fn(_as_points(x)), dtype=float)

    def hessian(self, x) -> Array:
        """Hessians ``(..., n, n)``, symmetrised for finite-difference fields."""
        h = np.asarray(self.hess_fn(_as_points(x)), dtype=float)
        if self.step == 0.0:
            return h
        return 0.5 * (h + np.swapaxes(h, -1, -2))

    @staticmethod
    def analytic(value_fn, grad_fn, hess_fn, name="", radial=False, dim=None) -> "ScalarField":
        """A field with closed-form derivatives.  ``hess_fn`` must return
        bitwise symmetric matrices (h[..., i, j] == h[..., j, i] exactly):
        ``hessian`` passes them through unsymmetrised."""
        return ScalarField(value_fn, grad_fn, hess_fn, name=name, radial=radial, dim=dim)

    @staticmethod
    def finite_difference(value_fn, step=DEFAULT_FD_STEP, name="") -> "ScalarField":
        """Wrap a plain scalar function, deriving grad/hess by central differences."""
        if isinstance(step, bool) or not (isinstance(step, Real) and 0 < step < np.inf):
            raise PreconditionError(
                f"finite-difference step must be a finite positive number, got {step!r}")

        def grad_fn(x):
            n = x.shape[-1]
            shifts = step * np.eye(n)
            xp = x[..., None, :] + shifts          # (..., n, n)
            xm = x[..., None, :] - shifts
            return (value_fn(xp) - value_fn(xm)) / (2.0 * step)

        def hess_fn(x):
            n = x.shape[-1]
            eye = np.eye(n)
            f0 = value_fn(x)
            hess = np.zeros(x.shape[:-1] + (n, n))
            for i in range(n):
                ei = step * eye[i]
                hess[..., i, i] = (
                    value_fn(x + ei) - 2.0 * f0 + value_fn(x - ei)
                ) / step**2
                for j in range(i):
                    ej = step * eye[j]
                    hess[..., i, j] = (
                        value_fn(x + ei + ej)
                        - value_fn(x + ei - ej)
                        - value_fn(x - ei + ej)
                        + value_fn(x - ei - ej)
                    ) / (4.0 * step**2)
                    hess[..., j, i] = hess[..., i, j]
            return hess

        return ScalarField(value_fn, grad_fn, hess_fn, step=step, name=name)


@dataclass(frozen=True)
class ConformalMetric:
    """The metric e^{2u} * <.,.> on a subset of R^n; the Euclidean metric is
    the case u = 0, ``make_field("zero")``."""

    field: ScalarField
    dim: int

    def factor(self, x) -> Array:
        """Conformal factor e^{2u(x)}."""
        return np.exp(2.0 * self.field.value(x))


# ---------------------------------------------------------------------------
# field catalog
# ---------------------------------------------------------------------------

def _zero_field() -> ScalarField:
    return ScalarField.analytic(
        lambda x: np.zeros(x.shape[:-1]),
        lambda x: np.zeros_like(x),
        lambda x: np.zeros(x.shape[:-1] + (x.shape[-1], x.shape[-1])),
        name="zero", radial=True,
    )


def _linear_field(a) -> ScalarField:
    a = np.asarray(a, dtype=float)
    if a.ndim != 1:
        raise ConfigError(f"field 'linear' needs a list of numbers a, got {a.tolist()!r}")

    def value(x):
        return x @ a

    def grad(x):
        return np.broadcast_to(a, x.shape).copy()

    def hess(x):
        n = x.shape[-1]
        return np.zeros(x.shape[:-1] + (n, n))

    return ScalarField.analytic(value, grad, hess, name="linear", dim=len(a))


def _radial_field(p, dp, d2p, name, open_unit_ball=False) -> ScalarField:
    """u(x) = p(s) with s = |x|^2; derivatives follow by the chain rule."""

    def check(s):
        if open_unit_ball and np.any(s >= 1.0):
            raise DomainError(f"field '{name}' is defined only for |x| < 1")

    def value(x):
        s = np.sum(x * x, axis=-1)
        check(s)
        return p(s)

    def grad(x):
        s = np.sum(x * x, axis=-1)
        check(s)
        return 2.0 * dp(s)[..., None] * x

    def hess(x):
        s = np.sum(x * x, axis=-1)
        check(s)
        h = 4.0 * d2p(s)[..., None, None] * (x[..., :, None] * x[..., None, :])
        i = np.arange(x.shape[-1])
        h[..., i, i] += 2.0 * dp(s)[..., None]  # 2 p' I, added in place
        return h

    return ScalarField.analytic(value, grad, hess, name=name, radial=True)


def _radial_custom_field(coeffs) -> ScalarField:
    c = np.asarray(coeffs, dtype=float)
    dc = np.polynomial.polynomial.polyder(c) if c.size > 1 else np.zeros(1)
    d2c = np.polynomial.polynomial.polyder(dc) if dc.size > 1 else np.zeros(1)
    pv = np.polynomial.polynomial.polyval
    return _radial_field(
        lambda s: pv(s, c), lambda s: pv(s, dc), lambda s: pv(s, d2c), "radial-custom"
    )


def _monomial_sums(coef: Array, exps: Array, slots: Array, nslots: int):
    """x -> (P, nslots) over the P points of x, with row r adding coef_r *
    x^exps_r into slot slots_r.  All monomials evaluate as one stack of
    factors x_j^e_rj, each power with e >= 2 taken once per point (1 and x_j
    need none), and each slot sums its rows in row order."""
    n = exps.shape[1]
    coord = np.broadcast_to(np.arange(n), exps.shape)
    high = exps >= 2
    powers, at = np.unique(exps[high] * n + coord[high], return_inverse=True)
    factor = np.where(exps == 0, 0, 1 + coord)      # columns of [1, x, x_j^p]
    factor[high] = 1 + n + at

    def evaluate(x):
        X = x.reshape(-1, n)
        table = np.concatenate(
            [np.ones((len(X), 1)), X, X[:, powers % n] ** (powers // n)], axis=1
        )
        terms = coef * np.prod(table[:, factor], axis=-1)
        out = np.zeros((len(X), nslots))
        np.add.at(out.T, slots, terms.T)
        return out

    return evaluate


def _polynomial_field(terms) -> ScalarField:
    """Multivariate polynomial u(x) = sum_t c_t * prod_i x_i^{e_ti}.

    ``terms`` is a list of ``[coeff, [e_1, ..., e_n]]`` entries.  The
    derivatives are the monomials d_i: c_t e_ti x^(e_t - delta_i) and d_i d_j:
    c_t e_ti (e_tj - delta_ij) x^(e_t - delta_i - delta_j), j <= i, of all
    terms at once; the Hessian mirrors its lower triangle.
    """
    coeffs = np.array([t[0] for t in terms], dtype=float)
    exps = np.array([t[1] for t in terms], dtype=int)
    if exps.ndim != 2 or np.any(exps < 0):
        raise ConfigError("polynomial terms need non-negative exponent tuples")
    n = exps.shape[1]
    eye = np.eye(n, dtype=int)
    slot = np.arange(n)
    value = _monomial_sums(coeffs, exps, np.zeros(len(exps), int), 1)
    d1 = exps != 0                                               # (t, i)
    grad_sums = _monomial_sums(
        (coeffs[:, None] * exps)[d1], (exps[:, None, :] - eye)[d1],
        np.broadcast_to(slot, exps.shape)[d1], n,
    )
    fac2 = exps[:, :, None] * (exps[:, None, :] - eye)           # (t, i, j)
    d2 = (fac2 != 0) & (slot[:, None] >= slot[None, :])
    hess_sums = _monomial_sums(
        (coeffs[:, None, None] * fac2)[d2],
        (exps[:, None, None, :] - eye[:, None, :] - eye[None, :, :])[d2],
        np.broadcast_to(slot[:, None] * n + slot[None, :], fac2.shape)[d2], n * n,
    )
    upper = np.triu_indices(n, 1)

    def hess(x):
        out = hess_sums(x).reshape(x.shape[:-1] + (n, n))
        out[..., upper[0], upper[1]] = out[..., upper[1], upper[0]]
        return out

    return ScalarField.analytic(
        lambda x: value(x).reshape(x.shape[:-1]),
        lambda x: grad_sums(x).reshape(x.shape),
        hess, name="polynomial", dim=n,
    )


def make_field(name: str, **params) -> ScalarField:
    """Build a catalog field by name.

    Catalog: ``zero``, ``linear(a)``, ``radial-spherical``,
    ``radial-hyperbolic``, ``radial-custom(coeffs)`` (polynomial in |x|^2) and
    ``polynomial(terms)``.  ``radial-spherical`` is ln(2/(1+|x|^2)), the
    exponent of the constant-curvature +1 metric; ``radial-hyperbolic`` is
    ln(2/(1-|x|^2)) on the open unit ball, curvature -1.
    """
    if name == "zero":
        return _zero_field()
    if name == "linear":
        return _linear_field(required(params, "a", "field 'linear'"))
    if name == "radial-spherical":
        return _radial_field(
            lambda s: np.log(2.0) - np.log1p(s),
            lambda s: -1.0 / (1.0 + s),
            lambda s: 1.0 / (1.0 + s) ** 2,
            "radial-spherical",
        )
    if name == "radial-hyperbolic":
        return _radial_field(
            lambda s: np.log(2.0) - np.log(1.0 - s),
            lambda s: 1.0 / (1.0 - s),
            lambda s: 1.0 / (1.0 - s) ** 2,
            "radial-hyperbolic",
            open_unit_ball=True,
        )
    if name == "radial-custom":
        return _radial_custom_field(required(params, "coeffs", "field 'radial-custom'"))
    if name == "polynomial":
        return _polynomial_field(required(params, "terms", "field 'polynomial'"))
    raise ConfigError(f"unknown field catalog name: {name!r}")


FIELD_NAMES = (
    "zero",
    "linear",
    "radial-spherical",
    "radial-hyperbolic",
    "radial-custom",
    "polynomial",
)
