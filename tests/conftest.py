import numpy as np
import pytest

from finslerforms import builtins as bi
from finslerforms import connection
from finslerforms.jets import gcos, grad_wrt, gsin, gsqrt
from finslerforms.metric import FinslerStructure, inverse_components


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
    (nabla0T, nabla_nabla0T, deltaCmix) vanish identically; here they do not.
    """
    a, b = randers_base_fields()
    return FinslerStructure.randers(a, b, dim=2, label="randers-base-dependent")


def base_dependent_randers_fields(n):
    """a(xs) and b(xs) of :func:`base_dependent_randers`:
    a_ij = (1.2 + 0.2 cos x_i) delta_ij + 0.05 sin(x_i + x_j) for i != j,
    b_i = 0.2 cos x_(i+1), indices mod n."""

    def a(xs):
        return [
            [1.2 + 0.2 * gcos(xs[i]) if i == j else 0.05 * gsin(xs[i] + xs[j]) for j in range(n)]
            for i in range(n)
        ]

    def b(xs):
        return [0.2 * gcos(xs[(i + 1) % n]) for i in range(n)]

    return a, b


def base_dependent_randers(n):
    """Genuinely Finsler Randers metric on n axes whose a and b depend on x
    (:func:`base_dependent_randers_fields`)."""
    a, b = base_dependent_randers_fields(n)
    return FinslerStructure.randers(a, b, dim=n, label=f"randers-base-dependent-{n}d")


def randers_spray(a, b, xs, ys):
    """G^i of F = alpha + beta in closed form, from a(xs), b(xs) and their
    first x partials alone (Chern & Shen, Riemann-Finsler Geometry (2005),
    ch. 2): G^i = G^i_alpha + (r_00 - 2 alpha s_0) / (2F) y^i + alpha s^i_0.

    G^i_alpha = 1/2 gamma^i_jk y^j y^k with gamma the Christoffel symbols of
    a; b_i|j = d_j b_i - b_k gamma^k_ij is the covariant derivative of beta
    for alpha, r_ij and s_ij its symmetric and antisymmetric parts,
    s_j = b^i s_ij and s^i_j = a^ih s_hj.  An oracle independent of F^2, of
    g and of the engine's Christoffel rule; ``xs`` and ``ys`` may be jets."""
    n = len(xs)
    A, B = a(xs), b(xs)
    dA = grad_wrt(lambda p, q: a(p), (xs, ys), 0)  # dA[c][i][j] = d_c a_ij
    dB = grad_wrt(lambda p, q: b(p), (xs, ys), 0)  # dB[c][i] = d_c b_i
    Ai = inverse_components(A, n)
    rn = range(n)
    low = [[[0.5 * (dA[k][i][j] + dA[j][i][k] - dA[i][j][k]) for k in rn] for j in rn] for i in rn]
    gamma = [[[sum(Ai[i][l] * low[l][j][k] for l in rn) for k in rn] for j in rn] for i in rn]
    cov = [[dB[j][i] - sum(B[k] * gamma[k][i][j] for k in rn) for j in rn] for i in rn]
    r = [[0.5 * (cov[i][j] + cov[j][i]) for j in rn] for i in rn]
    sk = [[0.5 * (cov[i][j] - cov[j][i]) for j in rn] for i in rn]
    alpha = gsqrt(sum(A[i][j] * ys[i] * ys[j] for i in rn for j in rn))
    F = alpha + sum(B[i] * ys[i] for i in rn)
    r00 = sum(r[i][j] * ys[i] * ys[j] for i in rn for j in rn)
    b_up = [sum(Ai[i][h] * B[h] for h in rn) for i in rn]
    s0 = sum(b_up[i] * sk[i][j] * ys[j] for i in rn for j in rn)
    si0 = [sum(Ai[i][h] * sk[h][j] * ys[j] for h in rn for j in rn) for i in rn]
    scale = (r00 - 2.0 * alpha * s0) / (2.0 * F)
    return [
        0.5 * sum(gamma[i][j][k] * ys[j] * ys[k] for j in rn for k in rn)
        + scale * ys[i]
        + alpha * si0[i]
        for i in rn
    ]


@pytest.fixture(scope="session")
def randers_base_3d():
    return base_dependent_randers(3)


@pytest.fixture(scope="session")
def randers_base_4d():
    return base_dependent_randers(4)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240722)


@pytest.fixture()
def outer_sums(monkeypatch):
    """The number of pairs of each matrix product ``connection.sum_products``
    takes (``connection._outer_sum``), in call order."""
    calls, outer_sum = [], connection._outer_sum

    def spied(pairs):
        calls.append(len(pairs))
        return outer_sum(pairs)

    monkeypatch.setattr(connection, "_outer_sum", spied)
    return calls


def custom_twin(s):
    """The custom structure of ``s``'s F^2 on its chart, whose g is the F^2
    Hessian (:func:`metric.f2_hessian`) where ``s`` has its family's g."""
    return FinslerStructure.custom(s._f2, s.dim, chart=s.chart, label=f"{s.label}-custom")


# the root kernel a count reads: the family's g of a structure, or the F^2 of
# its custom twin, which the Hessian route evaluates under nested jets
ROOTS = ["family-g", "custom-f2"]


def counted_root(s, root, monkeypatch):
    """(structure, calls) for a root of :data:`ROOTS`: ``s`` with one entry
    appended to ``calls`` per call of its g kernel, or its :func:`custom_twin`
    with one per evaluation of F^2."""
    if root == "custom-f2":
        s = custom_twin(s)
    name = {"family-g": "g", "custom-f2": "f2"}[root]
    calls, kernel = [], getattr(s, name)
    monkeypatch.setattr(s, name, lambda xs, ys: calls.append(1) or kernel(xs, ys))
    return s, calls


def sample_points(s, count, seed=11):
    return bi.random_chart_points(np.random.default_rng(seed), s, count)
