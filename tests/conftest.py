import numpy as np
import pytest

from finslerforms import builtins as bi
from finslerforms import connection
from finslerforms.jets import gcos, gsin
from finslerforms.metric import FinslerStructure


@pytest.fixture(autouse=True)
def cold_point_tower():
    """Drop the tower ``connection.tower_at`` keeps, so that a test that counts
    the work at a point does not find a tower an earlier test built there."""
    connection._POINT_TOWER = None


@pytest.fixture(scope="session")
def euclidean():
    return bi.get_metric("euclidean")


@pytest.fixture(scope="session")
def randers():
    return bi.get_metric("randers-torus")


@pytest.fixture(scope="session")
def riemannian_torus():
    return bi.get_metric("riemannian-torus")


@pytest.fixture(scope="session")
def sphere():
    return bi.get_metric("riemannian-sphere")


@pytest.fixture(scope="session")
def quartic():
    return bi.get_metric("quartic-torus")


def randers_base_fields(cos=gcos, sin=gsin):
    """a(xs) and b(xs) of the :func:`randers_base` metric, written with the
    given ``cos`` and ``sin`` (symbolic ones for an oracle)."""

    def a(xs):
        return [
            [1.2 + 0.2 * cos(xs[0]), 0.1 * sin(xs[1])],
            [0.1 * sin(xs[1]), 1.0 + 0.1 * sin(xs[0] + xs[1])],
        ]

    def b(xs):
        return [0.3 * cos(xs[1]), 0.2 * sin(xs[0])]

    return a, b


@pytest.fixture(scope="session")
def randers_base():
    """Genuinely Finsler 2D Randers metric whose a and b depend on x.

    On every built-in family the horizontal derivatives of the Cartan layers
    (nabla_h_T, nabla_nabla0T, deltaCmix) vanish identically; here they do not.
    """
    a, b = randers_base_fields()
    return FinslerStructure.randers(a, b, dim=2, label="randers-base-dependent")


def base_dependent_randers(n):
    """Genuinely Finsler Randers metric on n axes whose a and b depend on x:
    a_ij = (1.2 + 0.2 cos x_i) delta_ij + 0.05 sin(x_i + x_j) for i != j,
    b_i = 0.2 cos x_(i+1), indices mod n."""

    def a(xs):
        return [
            [1.2 + 0.2 * gcos(xs[i]) if i == j else 0.05 * gsin(xs[i] + xs[j]) for j in range(n)]
            for i in range(n)
        ]

    def b(xs):
        return [0.2 * gcos(xs[(i + 1) % n]) for i in range(n)]

    return FinslerStructure.randers(a, b, dim=n, label=f"randers-base-dependent-{n}d")


@pytest.fixture(scope="session")
def randers_base_3d():
    return base_dependent_randers(3)


@pytest.fixture(scope="session")
def randers_base_4d():
    return base_dependent_randers(4)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240722)


def sample_points(s, count, seed=11):
    return bi.random_chart_points(np.random.default_rng(seed), s, count)
