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
# radial minimum: a grid over [0, R], then zoom rounds over the argmin's cells
RADIAL_GRID = 257
RADIAL_ZOOM_ROUNDS = 6
RADIAL_ZOOM = 33


def schouten(grad, hess) -> np.ndarray:
    """B = Hess u - grad u grad u^T + |grad u|^2 I / 2 ``(m, n, n)`` at m
    points, from grad u ``(m, n)`` and Hess u ``(m, n, n)`` there.  Minus the
    curvature form is its Kulkarni-Nomizu product with <.,.>, so
    ``curvature_form`` and ``curvature_normal`` state the curvature once."""
    B = hess - grad[:, :, None] * grad[:, None, :]
    return B + 0.5 * np.sum(grad * grad, axis=1)[:, None, None] * np.eye(grad.shape[1])


def curvature_form(grad, hess, X, Y, Z, W) -> np.ndarray:
    """Euclidean pairing <R(X,Y)Z, W> of e^{2u} * Euclidean at m points,
    given grad u ``(m, n)`` and Hess u ``(m, n, n)`` there.

    Vectors are ``(m, j, n)`` stacks that broadcast in ``j``; returns
    ``(m, j)``.  Antisymmetric under X <-> Y and under Z <-> W.  With B =
    ``schouten(grad, hess)`` the form is -[B(X,Z)<Y,W> + B(Y,W)<X,Z> -
    B(X,W)<Y,Z> - B(Y,Z)<X,W>], B applied to the X and Y stacks only.  The
    caller evaluates the field, so samples held by an immersion's ambient
    record feed the form without a new evaluation.
    """
    def dot(a, b):
        return np.einsum("...n,...n->...", a, b)

    B = schouten(grad, hess)
    bX, bY = X @ B, Y @ B
    return (dot(bX, W) * dot(Y, Z) + dot(bY, Z) * dot(X, W)
            - dot(bX, Z) * dot(Y, W) - dot(bY, W) * dot(X, Z))


def riemann(field: ScalarField, x, X, Y, Z) -> np.ndarray:
    """Curvature vector R(X,Y)Z of e^{2u} * Euclidean at x (flat base).

    Multilinear in X, Y, Z and antisymmetric under swapping X and Y.  All
    arguments may carry leading batch axes ``(..., n)`` that broadcast
    together, e.g. points ``(m, 1, n)`` against frame vectors ``(m, k, n)``.
    Its components are ``curvature_form`` against the coordinate axes.
    """
    x, X, Y, Z = np.broadcast_arrays(*(np.asarray(a, float) for a in (x, X, Y, Z)))
    n = x.shape[-1]
    pts = x.reshape(-1, n)
    X, Y, Z = (a.reshape(-1, 1, n) for a in (X, Y, Z))
    form = curvature_form(field.gradient(pts), field.hessian(pts), X, Y, Z, np.eye(n)[None])
    return form.reshape(x.shape)


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


def min_sectional_curvature(u, grad, hess) -> np.ndarray:
    """Minimum sectional curvature over all 2-planes at each of m points,
    given u ``(m,)``, grad u ``(m, n)`` and Hess u ``(m, n, n)`` there;
    returns (m,).

    With A = grad u grad u^T - Hess u the formula above reads K(X, Y) =
    e^{-2u} (<AX, X> + <AY, Y> - |grad u|^2), so by Ky Fan's principle the
    minimum over orthonormal pairs is e^{-2u} (l1 + l2 - |grad u|^2), with
    l1 <= l2 the two smallest eigenvalues of A.  As with ``curvature_form``,
    the caller evaluates the field.
    """
    lam = np.linalg.eigvalsh(grad[:, :, None] * grad[:, None, :] - hess)
    return _ky_fan_minimum(u, grad, lam)


def _ky_fan_minimum(u, grad, lam) -> np.ndarray:
    """e^{-2u} (l1 + l2 - |grad u|^2) from the ascending spectrum ``lam``
    ``(m, n)`` of A = grad u grad u^T - Hess u."""
    return np.exp(-2.0 * u) * (lam[:, 0] + lam[:, 1] - np.sum(grad * grad, axis=1))


def _axis_min_sectional_curvature(field: ScalarField, n: int, r) -> np.ndarray:
    """``min_sectional_curvature`` at the points r e_1 of R^n for a radial u.
    There grad u is a multiple of e_1 and Hess u = 2p' I + 4p'' x x^T is
    diagonal, so A has exact zeros off its diagonal, and its sorted
    diagonal is its spectrum without an eigensolve."""
    x = np.zeros((len(r), n))
    x[:, 0] = r
    u, grad, hess = field.value(x), field.gradient(x), field.hessian(x)
    lam = np.sort(grad * grad - np.diagonal(hess, axis1=1, axis2=2), axis=1)
    return _ky_fan_minimum(u, grad, lam)


def radial_min_sectional_curvature(field: ScalarField, n: int, radius: float) -> float:
    """Minimum over 2-planes and |x| <= radius of the sectional curvature for
    a radial u (``field.radial``): ``min_sectional_curvature`` along r e_1,
    r in [0, radius], read off the axis diagonal, by a grid with both ends
    and zoom rounds around its argmin.  The field raises its
    ``DomainError`` where it is undefined."""
    r = np.linspace(0.0, radius, RADIAL_GRID)
    k = _axis_min_sectional_curvature(field, n, r)
    r0, k0, h = r[np.argmin(k)], np.min(k), radius / (RADIAL_GRID - 1)
    for _ in range(RADIAL_ZOOM_ROUNDS):
        r = np.clip(np.linspace(r0 - h, r0 + h, RADIAL_ZOOM), 0.0, radius)
        k = _axis_min_sectional_curvature(field, n, r)
        if np.min(k) < k0:
            r0, k0 = r[np.argmin(k)], np.min(k)
        h *= 2.0 / (RADIAL_ZOOM - 1)
    return float(k0)
