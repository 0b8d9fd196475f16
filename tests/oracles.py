"""Independent references for the tests; no verb, suite or script calls them.

These kinds live here:

* oracles with a route of their own: the immersion frames by LAPACK QR,
  the QR shape operator and its tangent basis, the Christoffel symbols and
  the connection correction, the curvature form written out term by term
  without the Schouten tensor, the tangent-traced curvature operator on all
  of R^n, the inward normal, the gradient-tube probe,
  the first-variation pairing and the boundary volume;
* the term-by-term loop that the stacked polynomial field must reproduce
  bit for bit, the convexity polish run for all its rounds, against which
  the tests hold the early-stopping polish, and the boundary sweep by 60
  bisection steps per ray, against whose roots they hold the safeguarded
  Newton sweep;
* the flow's per-step routes before its grid operators were cached: chart
  derivatives by FFT and ``einsum``, the Laplace-Beltrami operator scattered
  by fancy indexing, the per-ring filter by ``rfft``, the Gram terms by
  batched 2 x 2 matrix products and the implicit solve by
  ``np.linalg.solve``, against which the tests hold each cached-operator
  kernel and whole flow steps;
* helpers that only tests call, over the package's own kernels: the
  principal curvatures of the Householder kernel, the Euclidean metric, the
  rescaled inner product, the volume scale e^{ku}, the flow's measure of an
  immersion (the immersion route that the flow's measure of a chart stack
  is held to) and its descent direction;
* sample-first ``np.einsum`` statements and batched matrix products of the
  per-sample kernels that the package contracts over sample-last stacks,
  reading the geometry's frames sample-first through ``geometry_first``:
  the chart chain rule and the Jacobian Gram, the second fundamental form
  and mean curvature of ``SampledImmersion.geometry()``, its Jacobian
  factor, the S-terms, the traced interior and boundary densities, and the
  direct rescaled density with the curvature vector R(X, v_i)X written out
  term by term, and the direct rescaled boundary density unfused: the
  boundary form's pair less |X|^2 eta(u), times e^{u} <eta, nu>.  They read
  the same geometry as the package, so a comparison isolates one kernel.
  The S-terms and the traces state the projected constants by the frames
  against the basis, and the direct densities read a field's ambient
  vectors, rebuilt from its normal-frame components by ``ambient_field``;
* the projected constants by ``np.tensordot`` over the frames, which
  ``projected_field`` must reproduce bit for bit;
* the conditioning check by ``eigvalsh`` of every sample's Gram, which the
  k = 3 invariant screen must reproduce decision for decision and message
  for message, and the boundary form by a three-operand ``np.einsum``.
"""

import numpy as np

from types import SimpleNamespace

from fbstab import domain as dm
from fbstab import flow as fl
from fbstab.conformal import schouten
from fbstab.errors import DegenerateSampleError, DomainError, ProjectionError
from fbstab.fields import ConformalMetric, ScalarField, make_field
from fbstab.submanifold import (COND_LIMIT, _batched_frames, _check_on_boundary, _first, _gram,
                                _last, _upper_inverse)


# ---------------------------------------------------------------------------
# conformal connection
# ---------------------------------------------------------------------------

def connection_correction(field: ScalarField, x, X, Y) -> np.ndarray:
    """Difference of Levi-Civita connections: corr = X(u)Y + Y(u)X - <X,Y> grad u.

    For constant extensions of X, Y the rescaled-metric connection is the flat
    directional derivative plus this vector.
    """
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    g = field.gradient(x)
    return (X @ g) * Y + (Y @ g) * X - (X @ Y) * g


def riemann_vector(field: ScalarField, x, X, Y, Z) -> np.ndarray:
    """R(X,Y)Z as a vector, term by term; arguments broadcast over leading
    axes ``(..., n)``.  ``conformal.curvature_form`` is its pairing with a
    fourth vector."""
    g = field.gradient(x)
    h = field.hessian(x)

    def dot(a, b):
        return np.sum(a * b, axis=-1, keepdims=True)

    def hess(v):
        return (h @ v[..., None])[..., 0]

    xu, yu, zu = dot(X, g), dot(Y, g), dot(Z, g)
    xz, yz = dot(X, Z), dot(Y, Z)
    g2 = dot(g, g)
    return (
        xu * zu * Y - yu * zu * X - xu * yz * g + yu * xz * g
        - xz * hess(Y) + yz * hess(X) - xz * g2 * Y + yz * g2 * X
        - dot(X, hess(Z)) * Y + dot(Y, hess(Z)) * X
    )


def curvature_form_expanded(grad, hess, X, Y, Z, W) -> np.ndarray:
    """``conformal.curvature_form`` written out as the pairings of grad u
    and Hess u with the four vectors, without the Schouten tensor."""
    g = grad[:, None, :]

    def dot(a, b):
        return np.einsum("...n,...n->...", a, b)

    hX, hY = X @ hess, Y @ hess
    xu, yu, zu, wu = dot(X, g), dot(Y, g), dot(Z, g), dot(W, g)
    xz, xw, yz, yw = dot(X, Z), dot(X, W), dot(Y, Z), dot(Y, W)
    return (
        zu * (xu * yw - yu * xw)
        + wu * (yu * xz - xu * yz)
        + dot(g, g) * (yz * xw - xz * yw)
        + yz * dot(hX, W)
        - xz * dot(hY, W)
        + xw * dot(hY, Z)
        - yw * dot(hX, Z)
    )


def tangent_curvature(grad, hess, tangent) -> np.ndarray:
    """The symmetric ``(m, n, n)`` A with V^T A V = sum_i <R(V, v_i)V, v_i>
    for every V, the v_i the rows of ``tangent`` ``(m, k, n)``.  X = Z = V
    and Y = W = v_i in ``curvature_form`` give A = BP + PB - tr(P) B - tr(PB)
    I, with B = ``schouten`` and P = T^T T; V need not be normal.  The
    ambient record's ``curvature_normal`` is N A N^T in closed form."""
    B = schouten(grad, hess)
    P = np.swapaxes(tangent, 1, 2) @ tangent
    BP = B @ P
    return (BP + np.swapaxes(BP, 1, 2) - np.einsum("mii->m", P)[:, None, None] * B
            - np.einsum("mij,mji->m", P, B)[:, None, None] * np.eye(B.shape[1]))


def christoffel(field: ScalarField, x) -> np.ndarray:
    """Christoffel symbols Gamma^c_{ab} of e^{2u} * Euclidean at x.

    Gamma^c_{ab} = delta_a^c u_b + delta_b^c u_a - delta_{ab} u^c.
    """
    g = field.gradient(x)
    n = g.shape[-1]
    eye = np.eye(n)
    return (
        eye[:, None, :] * g[None, :, None]
        + eye[None, :, :] * g[:, None, None]
        - eye[:, :, None] * g[None, None, :]
    ).transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# polynomial fields
# ---------------------------------------------------------------------------

def polynomial_loop(terms):
    """``(value, gradient, hessian)`` of sum_t c_t prod_i x_i^{e_ti}, one term
    and one coordinate at a time; ``fields._polynomial_field`` adds the same
    products in the same order."""
    coeffs = np.array([t[0] for t in terms], dtype=float)
    exps = np.array([t[1] for t in terms], dtype=int)
    n = exps.shape[1]

    def monomials(x, e):
        return np.prod(np.where(e > 0, x ** e, 1.0), axis=-1)

    def value(x):
        out = np.zeros(x.shape[:-1])
        for c, e in zip(coeffs, exps):
            out += c * monomials(x, e)
        return out

    def grad(x):
        out = np.zeros_like(x)
        for c, e in zip(coeffs, exps):
            for i in range(n):
                if e[i] == 0:
                    continue
                ei = e.copy()
                ei[i] -= 1
                out[..., i] += c * e[i] * monomials(x, ei)
        return out

    def hess(x):
        out = np.zeros(x.shape[:-1] + (n, n))
        for c, e in zip(coeffs, exps):
            for i in range(n):
                if e[i] == 0:
                    continue
                for j in range(i + 1):
                    eij = e.copy()
                    eij[i] -= 1
                    if eij[j] == 0:
                        continue
                    fac = e[i] * eij[j]
                    eij[j] -= 1
                    term = c * fac * monomials(x, eij)
                    out[..., i, j] += term
                    if i != j:
                        out[..., j, i] += term
        return out

    return value, grad, hess


# ---------------------------------------------------------------------------
# level-set boundary
# ---------------------------------------------------------------------------

def inward_normal(domain: dm.LevelSetDomain, x) -> np.ndarray:
    """Inward unit normal eta = -grad phi / |grad phi| (phi < 0 inside)."""
    return -dm.outward_normal(domain, x)


def project_to_boundary_indexed(domain: dm.LevelSetDomain, x, tol: float = 1e-12,
                                max_iter: int = 50) -> np.ndarray:
    """``domain.project_to_boundary`` with an index array of the points still
    far from every iteration on, the first included."""
    y = np.array(x, dtype=float)
    pts = y.reshape(-1, domain.n)
    todo = np.arange(len(pts))
    for _ in range(max_iter):
        val = domain.phi.value(pts[todo])
        far = np.abs(val) > tol
        todo, val = todo[far], val[far]
        if not todo.size:
            return y
        g = domain.phi.gradient(pts[todo])
        g2 = np.vecdot(g, g)
        if np.any(g2 < dm.GRAD_FLOOR**2):
            raise ProjectionError("level-set gradient vanished during projection")
        pts[todo] -= (val / g2)[:, None] * g
    raise ProjectionError(f"projection did not reach |phi| <= {tol:g} in {max_iter} steps")


def boundary_form_einsum(domain: dm.LevelSetDomain, x) -> np.ndarray:
    """``domain.boundary_form`` as P (Hess phi) P / |grad phi| by one
    three-operand ``np.einsum``, P the tangential projector."""
    g = domain.phi.gradient(x)
    norm = np.linalg.norm(g, axis=-1, keepdims=True)
    nhat = g / norm
    P = np.eye(domain.n) - nhat[..., :, None] * nhat[..., None, :]
    return np.einsum("...ab,...bc,...cd->...ad", P, domain.phi.hessian(x), P) / norm[..., None]


def boundary_tangent_basis(domain: dm.LevelSetDomain, x) -> np.ndarray:
    """Deterministic orthonormal basis of the boundary tangent space, ``(..., n-1, n)``."""
    nhat = dm.outward_normal(domain, x)
    eye = np.broadcast_to(np.eye(domain.n), nhat.shape + (domain.n,))
    Q, R = np.linalg.qr(np.concatenate([nhat[..., None], eye], axis=-1))
    d = np.diagonal(R[..., : domain.n], axis1=-2, axis2=-1)
    Q = Q * np.where(d == 0.0, 1.0, np.sign(d))[..., None, :]
    return np.swapaxes(Q[..., 1:], -1, -2)


def principal_curvatures(domain: dm.LevelSetDomain, x, metric=None) -> np.ndarray:
    """Ascending principal curvatures ``(..., n-1)`` from the package's
    Householder kernel; the rescaled ones follow by the conformal law at its
    normals."""
    kappa, nhat = dm._curvatures_and_normals(domain, x)
    return kappa if metric is None else dm._rescaled(metric.field, x, nhat, kappa)[0]


def shape_operator(domain: dm.LevelSetDomain, x,
                   metric: ConformalMetric | None = None) -> np.ndarray:
    """Symmetric shape operators in orthonormal tangent bases, ``(..., n-1, n-1)``.

    Euclidean: restriction of ``boundary_form``.  Rescaled metric: the
    eigenvalues transform as kappa~ = e^{-u} (kappa - eta(u)), which is the
    operator e^{-u} (S - eta(u) I) in the same basis.
    """
    B = boundary_tangent_basis(domain, x)
    S = B @ dm.boundary_form(domain, x) @ np.swapaxes(B, -1, -2)
    S = 0.5 * (S + np.swapaxes(S, -1, -2))
    if metric is None:
        return S
    eta_u = np.sum(metric.field.gradient(x) * -dm.outward_normal(domain, x), axis=-1)
    scale = np.exp(-metric.field.value(x))
    return scale[..., None, None] * (S - eta_u[..., None, None] * np.eye(domain.n - 1))


def convexity_margins_fixed_rounds(domain: dm.LevelSetDomain, field: ScalarField, p: int,
                                   count: int, seed: int):
    """``[(margin_g, worst_g), (margin_gtilde, worst_gtilde)]`` from the same
    sweep and pattern search as ``dm.convexity_report``, with both searches
    run in lockstep for all ``POLISH_ROUNDS`` rounds: no search stops at a
    flat round."""
    n = domain.n
    pts = dm.sample_boundary(domain, count, seed)
    kappa, nhat = dm._curvatures_and_normals(domain, pts)
    metrics = [None, ConformalMetric(field, n)]
    kappas = [kappa, dm._rescaled(field, pts, nhat, kappa)[0]]
    pattern = dm._polish_pattern(n)[0]
    squares = np.einsum("mi,mj->mij", pattern, pattern).reshape(dm.POLISH_DIRS, -1)
    fit = np.linalg.pinv(np.column_stack([np.ones(dm.POLISH_DIRS), pattern, squares]))

    def search(kappa):
        sums = np.sum(kappa[:, :p], axis=1)
        worst = int(np.argmin(sums))
        margin, point = float(sums[worst]), pts[worst]
        origin = point / np.linalg.norm(point)
        tangent = np.linalg.qr(np.column_stack([origin, np.eye(n)]))[0][:, 1:].T
        cap, y, guess = dm.POLISH_CAP, np.zeros(n - 1), np.zeros(n - 1)
        for _ in range(dm.POLISH_ROUNDS):
            ys = np.vstack([y + cap * pattern, guess])
            dirs = origin + ys @ tangent
            trial, sums = yield np.linalg.norm(point) * dirs / np.linalg.norm(dirs, axis=1)[:, None]
            coef = fit @ sums[:-1]
            hess = 2.0 * coef[n:].reshape(n - 1, n - 1)
            step = np.zeros(n - 1)
            if np.linalg.eigvalsh(hess)[0] > 0.0:
                step = -np.linalg.solve(hess, coef[1:n])
                step *= dm.POLISH_CAP / max(dm.POLISH_CAP, cap * np.linalg.norm(step))
            guess = y + cap * step
            best = int(np.argmin(sums))
            moved = sums[best] < margin - dm.POLISH_GAIN * max(1.0, abs(margin))
            if moved:
                margin, point, y = float(sums[best]), trial[best], ys[best]
            if not moved or best == dm.POLISH_DIRS:
                cap *= 0.5
        yield margin, point

    searches = [search(k) for k in kappas]
    batches = [next(s) for s in searches]
    for _ in range(dm.POLISH_ROUNDS):
        trial = dm.project_to_boundary(domain, np.concatenate(batches))
        kappa, nhat = dm._curvatures_and_normals(domain, trial)
        blocks = zip(metrics, *(np.split(a, len(metrics)) for a in (trial, kappa, nhat)))
        for i, (metric, x, k, nh) in enumerate(blocks):
            if metric is not None:
                k = dm._rescaled(metric.field, x, nh, k)[0]
            batches[i] = searches[i].send((x, np.sum(k[:, :p], axis=1)))
    return batches


def bisection_sweep(domain: dm.LevelSetDomain, count: int, seed: int):
    """``(d, t)``: the unit rays of ``dm.sample_boundary`` and their roots by
    bisection, the sweep's doubling bracket and then 60 halvings of [0, hi]
    on every ray; projecting the midpoints ``t d`` gives a bisection sweep."""
    d = dm._sweep_directions(domain.n, count, seed)
    hi = np.full(len(d), 1.001 * domain.bounding_radius)
    for _ in range(8):
        outside = domain.phi.value(hi[:, None] * d) > 0.0
        if np.all(outside):
            break
        hi = np.where(outside, hi, 2.0 * hi)
    lo = np.zeros(len(d))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        inside = domain.phi.value(mid[:, None] * d) < 0.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return d, 0.5 * (lo + hi)


def check_gradient_tube(domain: dm.LevelSetDomain, count: int = 256, seed: int = 0,
                        floor: float = 1e-6, tube: float = 1e-2) -> float:
    """Sampled minimum of |grad phi| on the tube |phi| <= tube, probed at each
    sweep point and one tube width either side along the normal."""
    pts = dm.sample_boundary(domain, count, seed)
    offsets = (tube * np.array([-1.0, 0.0, 1.0]))[:, None, None]
    ys = pts + offsets * dm.outward_normal(domain, pts)
    ys = ys[np.abs(domain.phi.value(ys)) <= tube]
    g = domain.phi.gradient(ys)
    lo = float(np.min(np.sqrt(np.vecdot(g, g)), initial=np.inf))
    if lo < floor:
        raise DomainError(f"|grad phi| = {lo:.2e} below {floor:g} near the boundary")
    return lo


# ---------------------------------------------------------------------------
# immersions
# ---------------------------------------------------------------------------

def euclidean_metric(n: int) -> ConformalMetric:
    """The Euclidean metric of R^n, the conformal metric of u = 0."""
    return ConformalMetric(make_field("zero"), n)


def metric_inner(metric: ConformalMetric, x, X, Y) -> np.ndarray:
    """The rescaled inner product e^{2u(x)} <X, Y>."""
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    return metric.factor(x) * np.sum(X * Y, axis=-1)


def volume_scale(metric: ConformalMetric, x, k: int) -> np.ndarray:
    """Scale factor e^{k u(x)} of the induced k-dimensional measure."""
    return np.exp(k * metric.field.value(x))


def boundary_volume(imm, metric: ConformalMetric) -> float:
    """Rescaled (k-1)-volume of the boundary; weights already carry Euclidean
    measure."""
    return float(np.sum(imm.bws * volume_scale(metric, imm.bxs, imm.k - 1)))


def first_variation_value(imm, metric: ConformalMetric, interior_dirs, boundary_dirs) -> float:
    """Pairing of a variation field with the first variation of volume:
    -int <X, H~> dV + int <X, nu~> dA in the rescaled metric."""
    record = imm.ambient(metric)
    H_conf = np.exp(-2.0 * record.u)[:, None] * record.bracket
    fac = metric.factor(imm.xs)
    vals = -fac * np.sum(np.asarray(interior_dirs) * H_conf, axis=1)
    dens = imm.ws * imm.jacobian_factor * volume_scale(metric, imm.xs, imm.k)
    total = float(np.sum(dens * vals))
    if imm.n_boundary:
        u_b = metric.field.value(imm.bxs)
        nu_conf = np.exp(-u_b)[:, None] * imm.bnus
        bvals = metric.factor(imm.bxs) * np.sum(np.asarray(boundary_dirs) * nu_conf, axis=1)
        total += float(np.sum(imm.bws * volume_scale(metric, imm.bxs, imm.k - 1) * bvals))
    return float(total)


def immersion_gram_terms(imm, grad=None):
    """``flow._gram_terms`` of a k = 2 immersion's Jacobian columns and
    chart Hessian entries, in the order of the grid's chart derivatives, as
    contiguous copies like the flow's own arrays (``vecdot`` may sum a
    strided column in another order); with grad u = 0 (the default) the
    bracket is H."""
    Js, Hs = imm.Js, imm.Hs
    derivs = (Js[..., 0], Hs[:, 0, 0], Js[..., 1], Hs[:, 1, 1], Hs[:, 0, 1])
    return fl._gram_terms(*map(np.ascontiguousarray, derivs),
                          np.zeros_like(imm.xs) if grad is None else grad)


def immersion_measure(imm, metric: ConformalMetric, domain: dm.LevelSetDomain):
    """The flow's ``GridMeasure`` of an immersion, read off its arrays: the
    Gram terms of ``imm.Js`` and ``imm.Hs`` with grad u at ``imm.xs``, u at
    the interior samples then the rim, and the immersion's rim, conormals
    and outward normals.  The flow measures a grid from its chart
    derivatives instead and builds no immersion; the tests hold the two to
    each other."""
    coef, bracket, _ = immersion_gram_terms(imm, metric.field.gradient(imm.xs))
    _check_on_boundary(domain, imm.bxs)
    return fl.GridMeasure(coef, metric.field.value(np.concatenate([imm.xs, imm.bxs])), bracket,
                          imm.bxs, imm.bnus, dm.outward_normal(domain, imm.bxs))


def first_variation_direction(imm, metric: ConformalMetric, domain: dm.LevelSetDomain):
    """The flow's steepest-descent direction of rescaled volume, ``flow._descent``
    of the immersion's measure: ``(interior (m, n), boundary (mb, n))``.
    Raises ``InvalidSampleError`` for a boundary sample off the domain
    boundary and ``DomainError`` where grad phi vanishes there."""
    return fl._descent(immersion_measure(imm, metric, domain))


# ---------------------------------------------------------------------------
# immersion frames by LAPACK
# ---------------------------------------------------------------------------

def lapack_frames(Js):
    """``submanifold._batched_frames`` by LAPACK: a QR of [J | I] per sample,
    each column of Q signed by R's diagonal.  Its normal frame may differ
    from the package's by a rotation of the normal space."""
    m, n, k = Js.shape
    A = np.concatenate([Js, np.broadcast_to(np.eye(n), (m, n, n))], axis=2)
    Q, R = np.linalg.qr(A)
    d = np.diagonal(R[:, :, :n], axis1=1, axis2=2)
    s = np.where(d == 0.0, 1.0, np.sign(d))
    Qt = np.swapaxes(Q, 1, 2)
    tangent = np.multiply(Qt[:, :k], s[:, :k, None], order="C")
    normal = np.multiply(Qt[:, k:], s[:, k:, None], order="C")
    return tangent, normal, _first(_upper_inverse(_last(R[:, :k, :k] * s[:, :k, None])))


# ---------------------------------------------------------------------------
# flow kernels before the cached grid operators
# ---------------------------------------------------------------------------

def theta_derivatives(values):
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


def chart_derivatives_fft(grid):
    """``PolarGrid.chart_derivatives`` by ``einsum`` in the radius and FFT in
    the angle."""
    P = grid.positions
    P_r = np.einsum("ij,jtn->itn", grid.D, P)
    P_rr = np.einsum("ij,jtn->itn", grid.D2, P)
    P_t, P_tt = theta_derivatives(P)
    P_rt = np.einsum("ij,jtn->itn", grid.D, P_t)
    return P_r, P_rr, P_t, P_tt, P_rt


def gram_terms_matmul(x_r, x_rr, x_t, x_tt, x_rt, grad):
    """``flow._gram_terms`` by batched 2 x 2 matrix products on the stacked
    Jacobians and chart Hessians: c = -g^-1 J^T A, H = A + J c and
    grad^perp u = grad u - J g^-1 J^T grad u, each projected on its own."""
    Js = np.stack([x_r, x_t], axis=2)
    m, n, k = Js.shape
    Hs = np.stack([x_rr, x_rt, x_rt, x_tt], axis=1).reshape(m, k, k, n)
    Jt = np.swapaxes(Js, 1, 2)
    g = Jt @ Js
    det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    ginv = g[:, ::-1, ::-1] * (np.array([[1.0, -1.0], [-1.0, 1.0]]) / det[:, None, None])
    A = (ginv.reshape(m, 1, k * k) @ Hs.reshape(m, k * k, n))[:, 0]
    c = -(ginv @ (Jt @ A[:, :, None]))[:, :, 0]
    perp = grad - (Js @ (ginv @ (Jt @ grad[:, :, None])))[:, :, 0]
    coef = np.stack([c[:, 0], ginv[:, 0, 0], c[:, 1], ginv[:, 1, 1], 2.0 * ginv[:, 0, 1]], axis=1)
    return coef, A + (Js @ c[:, :, None])[:, :, 0] - 2.0 * perp, det


def laplace_beltrami_scatter(grid, coef):
    """``flow.laplace_beltrami`` scattered block by block into a zero array."""
    nr, nt = grid.nr, grid.ntheta
    cr, grr, ct, gtt, grt2 = np.moveaxis(coef.reshape(nr, nt, 5), 2, 0)
    Dr, Dr2 = grid.D[:nr], grid.D2[:nr]
    radial = grr[..., None] * Dr2[:, None] + cr[..., None] * Dr[:, None]
    angular = gtt[..., None] * grid.Dt2 + ct[..., None] * grid.Dt
    L = np.zeros((nr, nt, nr + 1, nt))
    t, i = np.arange(nt), np.arange(nr)
    L[:, t, :, t] = radial.transpose(1, 0, 2)
    L[i, :, i, :] += angular
    L += (grt2[..., None, None] * Dr[:, None, :, None]) * grid.Dt[None, :, None, :]
    return L.reshape(nr * nt, (nr + 1) * nt)


def filter_direction_rfft(grid, direction):
    """``flow._filter_direction`` by ``rfft``, a mode mask and ``irfft``."""
    mmax = grid.ntheta // 2
    spec = np.fft.rfft(direction, axis=1)
    m = np.arange(spec.shape[1])
    keep = np.maximum(1, np.floor(2.0 * mmax * grid.rs).astype(int))
    spec *= (m[None, :] <= keep[:, None]).astype(float)[:, :, None]
    return np.fft.irfft(spec, n=grid.ntheta, axis=1)


def use_flow_oracles(monkeypatch):
    """Make the flow step through the routes above."""
    monkeypatch.setattr(fl.PolarGrid, "chart_derivatives", chart_derivatives_fft)
    monkeypatch.setattr(fl, "_gram_terms", gram_terms_matmul)
    monkeypatch.setattr(fl, "laplace_beltrami", laplace_beltrami_scatter)
    monkeypatch.setattr(fl, "_filter_direction", filter_direction_rfft)


# ---------------------------------------------------------------------------
# einsum statements of the batched kernels
# ---------------------------------------------------------------------------

def graph_over_chart_einsum(y, dy, d2y, graph):
    """``submanifold._graph_over_chart``: ``(x, J, H)`` by one sample-first
    ``einsum`` for D^2 psi(d_a y, d_b y) and batched products for the rest,
    from and to the kernel's sample-last chart derivatives, J and H."""
    p, dp, d2p = graph(y)
    m, k = y.shape
    dy, d2y = _first(dy), _first(d2y)
    curv = np.einsum("mia,mqij,mjb->mabq", dy, d2p, dy, optimize="greedy")
    tangential = (d2y.reshape(m, k * k, k) @ np.swapaxes(dp, 1, 2)).reshape(m, k, k, -1)
    H = np.concatenate([d2y, curv + tangential], axis=3)
    return np.concatenate([y, p], axis=1), _last(np.concatenate([dy, dp @ dy], axis=1)), _last(H)


def gram_matmul(J):
    """``submanifold._gram``: J^T J by a batched matrix product over the
    sample-first stack of the sample-last J, returned sample-last (k, k, m)."""
    Js = _first(J)
    return _last(np.swapaxes(Js, 1, 2) @ Js)


def conditioning_eigvalsh(J, where):
    """``submanifold._check_conditioning`` by ``eigvalsh`` of every sample's
    Gram (the package's ``_gram`` of the sample-last J): a rank-deficient
    sample first, then the first whose cond = lmax / lmin exceeds
    ``COND_LIMIT``."""
    lam = np.linalg.eigvalsh(_first(_gram(J)))
    lmin, lmax = lam[:, 0], lam[:, -1]
    if np.any(lmin <= 0.0):
        bad = int(np.argmax(lmin <= 0.0))
        raise DegenerateSampleError(f"{where} sample {bad} has rank-deficient Jacobian")
    cond2 = lmax / lmin
    if np.any(cond2 > COND_LIMIT):
        bad = int(np.argmax(cond2 > COND_LIMIT))
        raise DegenerateSampleError(
            f"{where} sample {bad}: cond(J^T J) = {cond2[bad]:.3e} exceeds {COND_LIMIT:.0e}")


def geometry_first(imm):
    """The frames and alpha of ``imm.geometry()`` and its chart_to_frame,
    sample-first: ``tangent`` (m, k, n), ``normal`` (m, q, n), ``alpha`` (m,
    k, k, q), ``b_normal`` (mb, q, n) and ``chart_to_frame`` (m, k, k)."""
    geo = imm.geometry()
    return SimpleNamespace(tangent=_first(geo.tangent), normal=_first(geo.normal),
                           alpha=_first(geo.alpha), b_normal=_first(geo.b_normal),
                           chart_to_frame=_first(_batched_frames(imm.J)[2]))


def geometry_einsum(imm):
    """``(alpha, H)`` of ``SampledImmersion.geometry()``, alpha sample-first,
    and its ``jacobian_factor``."""
    N, C = (_first(a) for a in _batched_frames(imm.J)[1:])
    hn = np.einsum("mrx,mabx->mabr", N, imm.Hs)
    alpha = np.einsum("mai,mbj,mabr->mijr", C, C, hn)
    H = np.einsum("miir,mrx->mx", alpha, N)
    gram = np.einsum("mxa,mxb->mab", imm.Js, imm.Js)
    return alpha, H, np.sqrt(np.linalg.det(gram))


def in_basis(frames, basis=None):
    """Components ``[..., l]`` of frame vectors against the basis rows; the
    frames themselves for the canonical basis."""
    return frames if basis is None else frames @ np.asarray(basis, float).T


def ambient_field(imm, X):
    """The ambient vectors of a ``NormalField``: ``(values (..., m, n), dperp
    (..., m, k, q), boundary values (..., mb, n))``, sample-first."""
    geo = imm.geometry()
    return (np.einsum("...rm,rxm->...mx", X.normal, geo.normal),
            np.einsum("...irm->...mir", X.dperp),
            np.einsum("...rm,rxm->...mx", X.boundary, geo.b_normal))


def s_euclid_terms_einsum(alpha, TB, NB):
    """``variation.s_euclid`` of the projected constants of a basis, from the
    frames against it: S(E_l^perp, E_l^perp), (m, n)."""
    a1 = np.einsum("mijr,mjl->milr", alpha, TB)
    a2 = np.einsum("mijr,mrl->mijl", alpha, NB)
    return np.sum(a1**2, axis=(1, 3)) - np.sum(a2**2, axis=(1, 2))


def traced_interior_density_einsum(imm, metric: ConformalMetric, basis=None):
    """``variation.traced_interior_density``: ``(values, residuals)``."""
    geo = geometry_first(imm)
    k = imm.k
    T, N, alpha = geo.tangent, geo.normal, geo.alpha
    NB = in_basis(N, basis)
    u = metric.field.value(imm.xs)
    g = metric.field.gradient(imm.xs)
    h = metric.field.hessian(imm.xs)
    g2 = np.sum(g * g, axis=1)
    ut = np.einsum("mkn,mn->mk", T, g)
    un = np.einsum("mqn,mn->mq", N, g)
    div = np.einsum("mkn,mnp,mkp->m", T, h, T)
    s_g = s_euclid_terms_einsum(alpha, in_basis(T, basis), NB)
    XV = np.einsum("mqn,mql->mnl", N, NB)
    X2 = np.einsum("mql->ml", NB**2)
    hxx = np.einsum("mnl,mnp,mpl->ml", XV, h, XV)
    ut2 = np.sum(ut**2, axis=1)
    display = s_g - X2 * ut2[:, None] + X2 * div[:, None] + k * X2 * g2[:, None] + k * hxx
    values = np.exp(-2.0 * u) * np.sum(display, axis=1)
    ht = np.einsum("mkn,mnp,mkp->mk", T, h, T)
    hn = np.einsum("mqn,mnp,mqp->mq", N, h, N)
    terms = (ut[:, :, None] ** 2 + un[:, None, :] ** 2 - g2[:, None, None]
             - ht[:, :, None] - hn[:, None, :])
    ksum = np.exp(-2.0 * u) * np.sum(terms, axis=(1, 2))
    gperp2 = np.sum(un**2, axis=1)
    residuals = np.abs(np.exp(2.0 * u) * values - (k * gperp2 - np.exp(2.0 * u) * ksum))
    return values, residuals


def traced_boundary_density_einsum(imm, metric: ConformalMetric, domain, basis=None):
    """``variation.traced_boundary_density`` without its tangency check:
    ``(values, residuals, tangency)``."""
    bN = geometry_first(imm).b_normal
    bNB = in_basis(bN, basis)
    u = metric.field.value(imm.bxs)
    nu_u = np.sum(metric.field.gradient(imm.bxs) * imm.bnus, axis=1)
    nhat = dm.outward_normal(domain, imm.bxs)
    M = dm.boundary_form(domain, imm.bxs)
    eta_dot_nu = -np.sum(nhat * imm.bnus, axis=1)
    XV = np.einsum("mqn,mql->mnl", bN, bNB)
    tangency = np.abs(np.einsum("mnl,mn->ml", XV, nhat))
    X2 = np.sum(bNB**2, axis=1)
    t_g = np.einsum("mnl,mnp,mpl->ml", XV, M, XV) * eta_dot_nu[:, None]
    values = np.exp(-u) * np.sum(t_g - X2 * nu_u[:, None], axis=1)
    PN = np.einsum("mqn,mqp->mnp", bN, bN)
    pair_sum = eta_dot_nu * np.einsum("mnp,mpn->m", M, PN)
    residuals = np.abs(np.exp(u) * values - (-(imm.n - imm.k) * nu_u + pair_sum))
    return values, residuals, tangency


def s_tilde_direct_einsum(imm, V, dperp, metric: ConformalMetric):
    """``variation.s_tilde_direct`` of the normal field with ambient values
    ``V`` (m, n) and normal derivative ``dperp`` (m, k, q): the curvature
    vector R(X, v_i)X paired with v_i, and the connection and second
    fundamental form terms, the latter by the transformation law."""
    geo = geometry_first(imm)
    g = metric.field.gradient(imm.xs)
    u_i = np.einsum("mkn,mn->mk", geo.tangent, g)
    Xn = np.einsum("mqn,mn->mq", geo.normal, V)
    grad_term = np.sum((dperp + u_i[:, :, None] * Xn[:, None, :]) ** 2, axis=(1, 2))
    R = riemann_vector(metric.field, imm.xs[:, None], V[:, None], geo.tangent, V[:, None])
    curv = np.einsum("min,min->m", R, geo.tangent)
    gperp = np.einsum("mqn,mn->mq", geo.normal, g)
    sff = geo.alpha - np.eye(imm.k)[None, :, :, None] * gperp[:, None, None, :]
    sff_X = np.einsum("mijr,mr->mij", sff, Xn)
    return grad_term - curv - np.sum(sff_X**2, axis=(1, 2))


def t_tilde_direct_einsum(imm, X, metric: ConformalMetric, domain):
    """``variation.t_tilde_direct`` without its tangency check, unfused:
    e^{u} (<M X, X> - |X|^2 eta(u)) <eta, nu> per field and boundary sample,
    (..., mb), for the domain's boundary form M."""
    V = ambient_field(imm, X)[2]
    nhat = dm.outward_normal(domain, imm.bxs)
    eta_u = -np.sum(metric.field.gradient(imm.bxs) * nhat, axis=1)
    eta_dot_nu = -np.sum(nhat * imm.bnus, axis=1)
    pair = np.einsum("...mx,mxy,...my->...m", V, dm.boundary_form(domain, imm.bxs), V)
    X2 = np.einsum("...rm,...rm->...m", X.boundary, X.boundary)
    return np.exp(metric.field.value(imm.bxs)) * ((pair - X2 * eta_u) * eta_dot_nu)


def projected_field_tensordot(imm, E):
    """``submanifold.projected_field`` by ``np.tensordot`` of ``E`` (..., n)
    against the frames: ``(normal, dperp, boundary)``."""
    geo = imm.geometry()
    E = np.asarray(E, float)
    minus_Et = np.tensordot(-E, geo.tangent, axes=(-1, 1))
    return (np.tensordot(E, geo.normal, axes=(-1, 1)),
            np.einsum("ijrm,...jm->...irm", geo.alpha, minus_Et),
            np.tensordot(E, geo.b_normal, axes=(-1, 1)))
