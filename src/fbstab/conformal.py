"""Curvature of the conformally flat metric e^{2u} * Euclidean.

Sign convention used throughout the package (and by every oracle in the test
suite): R(X,Y)Z = D_Y D_X Z - D_X D_Y Z + D_[X,Y] Z, and the sectional
curvature of an orthonormal plane is K(X,Y) = <R(X,Y)X, Y>/(|X|^2|Y|^2 -
<X,Y>^2).  With this pairing the round sphere has K = +1.

All operations are pure functions of immutable inputs and safe to call
concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError
from .fields import ScalarField

ORTHONORMAL_TOL = 1e-10


def riemann(field: ScalarField, x, X, Y, Z) -> np.ndarray:
    """Curvature vector R(X,Y)Z of e^{2u} * Euclidean at x (flat base).

    Multilinear in X, Y, Z and antisymmetric under swapping X and Y.  All
    arguments may carry leading batch axes ``(..., n)`` that broadcast
    together, e.g. points ``(m, 1, n)`` against frame vectors ``(m, k, n)``.
    """
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    Z = np.asarray(Z, float)
    g = field.gradient(x)
    h = field.hessian(x)

    def dot(a, b):
        return np.sum(a * b, axis=-1, keepdims=True)

    def hess(v):
        return (h @ v[..., None])[..., 0]

    xu, yu, zu = dot(X, g), dot(Y, g), dot(Z, g)
    xz, yz = dot(X, Z), dot(Y, Z)
    g2 = dot(g, g)
    hY = hess(Y)
    hX = hess(X)
    hZ = hess(Z)
    return (
        xu * zu * Y
        - yu * zu * X
        - xu * yz * g
        + yu * xz * g
        - xz * hY
        + yz * hX
        - xz * g2 * Y
        + yz * g2 * X
        - dot(X, hZ) * Y
        + dot(Y, hZ) * X
    )


def sectional_curvature(field: ScalarField, x, X, Y) -> float:
    """Sectional curvature of span{X, Y} for Euclid-orthonormal X, Y.

    K = e^{-2u} (X(u)^2 + Y(u)^2 - |grad u|^2 - Hess u(X,X) - Hess u(Y,Y)).
    Symmetric in X and Y and invariant under rotating the plane.
    """
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    if (
        abs(X @ X - 1.0) > ORTHONORMAL_TOL
        or abs(Y @ Y - 1.0) > ORTHONORMAL_TOL
        or abs(X @ Y) > ORTHONORMAL_TOL
    ):
        raise PreconditionError("sectional curvature needs an orthonormal pair")
    u = field.value(x)
    g = field.gradient(x)
    h = field.hessian(x)
    return float(
        np.exp(-2.0 * u)
        * ((X @ g) ** 2 + (Y @ g) ** 2 - g @ g - X @ h @ X - Y @ h @ Y)
    )


def min_sectional_curvature(field: ScalarField, xs) -> np.ndarray:
    """Minimum sectional curvature over all 2-planes at each of the points
    ``xs`` (m, n); returns (m,).

    With A = grad u grad u^T - Hess u the formula above reads K(X, Y) =
    e^{-2u} (<AX, X> + <AY, Y> - |grad u|^2), so by Ky Fan's principle the
    minimum over orthonormal pairs is e^{-2u} (l1 + l2 - |grad u|^2), with
    l1 <= l2 the two smallest eigenvalues of A.
    """
    xs = np.asarray(xs, float)
    u = field.value(xs)
    g = field.gradient(xs)
    lam = np.linalg.eigvalsh(g[:, :, None] * g[:, None, :] - field.hessian(xs))
    return np.exp(-2.0 * u) * (lam[:, 0] + lam[:, 1] - np.sum(g * g, axis=1))

