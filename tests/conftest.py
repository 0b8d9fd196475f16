"""Shared fixtures and independent oracles for the test suite.

The curvature oracle below never touches the closed-form curvature code
path: it builds the rescaled metric's Christoffel symbols and differentiates
them by finite differences, following the sign convention
R(X,Y)Z = D_Y D_X Z - D_X D_Y Z + D_[X,Y] Z used across the package.
"""

import numpy as np
import pytest

import oracles
from fbstab.fields import ConformalMetric, make_field
from fbstab import domain as dm
from fbstab import scenarios as sc

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    """Always show the one-line-per-criterion acceptance outcomes."""
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def riemann_oracle(field, x, X, Y, Z, h=1e-6):
    """R(X,Y)Z for constant extensions of X, Y, Z, via finite-differenced
    Christoffel symbols (no curvature formula involved)."""
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    Z = np.asarray(Z, float)

    def cov_XZ(pt):
        return np.einsum("cab,a,b->c", oracles.christoffel(field, pt), X, Z)

    def cov_YZ(pt):
        return np.einsum("cab,a,b->c", oracles.christoffel(field, pt), Y, Z)

    n = len(x)
    eye = np.eye(n)
    d_along_Y = sum(
        Y[d] * (cov_XZ(x + h * eye[d]) - cov_XZ(x - h * eye[d])) / (2 * h) for d in range(n)
    )
    d_along_X = sum(
        X[d] * (cov_YZ(x + h * eye[d]) - cov_YZ(x - h * eye[d])) / (2 * h) for d in range(n)
    )
    G = oracles.christoffel(field, x)
    second_Y = np.einsum("cab,a,b->c", G, Y, cov_XZ(x))
    second_X = np.einsum("cab,a,b->c", G, X, cov_YZ(x))
    return (d_along_Y + second_Y) - (d_along_X + second_X)


def random_orthonormal_pair(rng, n):
    Q, _ = np.linalg.qr(rng.normal(size=(n, 2)))
    return Q[:, 0], Q[:, 1]


def sphere_patch(radius=1.0, n_u=10, n_v=10):
    """Interior samples of a round 2-sphere patch in R^3 (closed-form chart).

    Chart (u, v) -> radius * (sin v cos u, sin v sin u, cos v) over a patch
    away from the poles; used as an analytic benchmark surface.
    """
    from fbstab.submanifold import SampledImmersion

    us = np.linspace(0.3, 1.2, n_u)
    vs = np.linspace(0.6, 1.4, n_v)
    uu, vv = [a.ravel() for a in np.meshgrid(us, vs, indexing="ij")]
    m = uu.size
    R = radius
    cu, su, cv, sv = np.cos(uu), np.sin(uu), np.cos(vv), np.sin(vv)
    xs = R * np.stack([sv * cu, sv * su, cv], axis=1)
    J = np.zeros((m, 3, 2))
    J[:, :, 0] = R * np.stack([-sv * su, sv * cu, np.zeros(m)], axis=1)
    J[:, :, 1] = R * np.stack([cv * cu, cv * su, -sv], axis=1)
    H = np.zeros((m, 2, 2, 3))
    H[:, 0, 0] = R * np.stack([-sv * cu, -sv * su, np.zeros(m)], axis=1)
    H[:, 0, 1] = H[:, 1, 0] = R * np.stack([-cv * su, cv * cu, np.zeros(m)], axis=1)
    H[:, 1, 1] = R * np.stack([-sv * cu, -sv * su, -cv], axis=1)
    w = np.full(m, (us[1] - us[0]) * (vs[1] - vs[0]))
    return SampledImmersion(2, 3, xs, J, H, w)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def ball4():
    return dm.make_domain("ball", 4, radius=1.0)


@pytest.fixture(scope="session")
def metric_zero4():
    return ConformalMetric(make_field("zero"), 4)


@pytest.fixture(scope="session")
def metric_cap4():
    return ConformalMetric(make_field("radial-spherical"), 4)


@pytest.fixture(scope="session")
def flat_b4():
    return sc.build_scenario("flat-disk-b4k2")


@pytest.fixture(scope="session")
def cap_b4():
    return sc.build_scenario("cap-disk-b4k2")


@pytest.fixture(scope="session")
def cap_b5k3():
    return sc.build_scenario("cap-disk-b5k3")


@pytest.fixture(scope="session")
def custom_b4():
    return sc.build_scenario("radial-custom-disk-b4")


@pytest.fixture(scope="session")
def ellipsoid_disk_b4():
    """The unit equatorial 2-disk in a domain that is not a ball, with a
    radial exponent: its rim lies on the boundary, as the first two semi-axes
    are 1, but the certificate's convexity margins are swept."""
    return sc.Scenario(name="ellipsoid-disk-b4", n=4, k=2,
                       domain_spec={"kind": "ellipsoid", "semi_axes": [1.0, 1.0, 0.8, 0.7]},
                       field_spec={"name": "radial-spherical"})
