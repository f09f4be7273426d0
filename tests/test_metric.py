import math
import re

import numpy as np
import pytest

from finslerforms import builtins as bi
from finslerforms.connection import LocalTower, pack, tower_at
from finslerforms.errors import (
    ConfigError,
    DomainError,
    NotPositiveDefinite,
    OutOfChart,
    SingularMetric,
    ZeroVector,
)
from finslerforms.jets import JetRequest, fd_partial, gsin, gsqrt
from finslerforms.metric import (
    ChartSpec,
    FinslerStructure,
    _cholesky_check,
    ginv_array,
    metric_components,
)

from conftest import base_dependent_randers, custom_twin, sample_points

FAMILIES = ["euclidean", "randers-torus", "riemannian-torus", "riemannian-sphere", "quartic-torus"]


@pytest.mark.parametrize("name", bi.METRIC_IDS)
def test_builtin_label_is_its_id(name):
    assert bi.get_metric(name).label == name


class TestNormEvaluation:
    def test_euclidean_norm(self, euclidean):
        assert euclidean.F([0.1, 0.2], [3.0, 4.0]) == pytest.approx(5.0, abs=1e-14)

    def test_randers_shifted_norm(self, randers):
        assert randers.F([0.1, 0.2], [1.0, 0.0]) == pytest.approx(1.5, abs=1e-14)

    def test_sphere_equator_unit(self, sphere):
        assert sphere.F([math.pi / 2, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-14)

    def test_zero_vector_rejected(self, euclidean):
        with pytest.raises(ZeroVector):
            euclidean.F([0.1, 0.2], [0.0, 0.0])

    def test_out_of_chart_rejected(self, sphere):
        with pytest.raises(OutOfChart):
            sphere.F([-0.5, 0.0], [1.0, 0.0])

    @pytest.mark.parametrize("method", ["F", "normalize_to_indicatrix", "sphere_point"])
    @pytest.mark.parametrize(
        "x, y", [([math.nan, 0.2], [1.0, 0.0]), ([0.1, 0.2], [1.0, math.inf])], ids=["x", "y"]
    )
    def test_non_finite_coordinate_rejected(self, euclidean, method, x, y):
        with pytest.raises(DomainError, match="non-finite coordinate"):
            getattr(euclidean, method)(x, y)

    def test_randers_positivity_guard(self):
        with pytest.raises(ConfigError, match="a-norm of b"):
            FinslerStructure.randers(a=[[1, 0], [0, 1]], b=[1.1, 0.0])

    def test_degenerate_riemannian_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            FinslerStructure.riemannian([[1.0, 2.0], [2.0, 1.0]])


class TestPointShape:
    """x and y are each 1-D of length dim at every pointwise entry; any other
    shape is a DomainError, not a y read in part, an IndexError or a TypeError."""

    BAD = {
        "y-too-long": lambda n: ([0.1] * n, [1.0, 0.5] + [7.0] * (n - 1)),
        "x-too-short": lambda n: ([0.1] * (n - 1), [1.0] * n),
        "x-2d": lambda n: ([[0.1] * n], [1.0] * n),
        "y-scalar": lambda n: ([0.1] * n, 1.0),
    }
    ENTRIES = {
        "tower_at": lambda s, x, y: tower_at(s, (x, y)),
        "F": lambda s, x, y: s.F(x, y),
        "form-at": lambda s, x, y: bi.get_form("dx1", s).at(s, (x, y)),
        "fundamental_tensor": lambda s, x, y: s.fundamental_tensor((x, y)),
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("dim", [2, 3])
    def test_wrong_shape_rejected(self, dim, bad, entry, randers_base, randers_base_3d):
        s = randers_base if dim == 2 else randers_base_3d
        x, y = self.BAD[bad](dim)
        with pytest.raises(DomainError, match=re.escape(f"need shape ({dim},)")):
            self.ENTRIES[entry](s, x, y)


def loop_validate(s):
    """Reference for FinslerStructure._validate: one sample at a time, x-major."""
    xs, dirs = s._sample_points()
    for x in xs:
        for u in dirs:
            where = f"x={x.tolist()}, y={u.tolist()}"
            f2 = s.f2(list(x), list(u))
            if not np.isfinite(f2) or f2 <= 0.0:
                raise NotPositiveDefinite(f"{s.label}: F^2 not positive at {where}")
            g = np.array(metric_components(s, list(x), list(u)), float)
            _cholesky_check(g, where=where, label=s.label)


def _shrinking(xs, ys):
    # F^2 = (2 - x1)|y|^2, not positive from x1 = pi on
    return (2.0 - xs[0]) * (ys[0] * ys[0] + ys[1] * ys[1])


def _flattening(xs, ys):
    # g = diag(1, (x1 - pi)^2 + 1e-30): positive, but its second pivot is 1e-15 at x1 = pi
    d = xs[0] - math.pi
    return ys[0] * ys[0] + (d * d + 1e-30) * (ys[1] * ys[1])


class TestBatchedValidation:
    @pytest.mark.parametrize(
        "f2, message",
        [(_shrinking, "F^2 not positive at"), (_flattening, "Cholesky pivot below threshold at")],
        ids=["non-positive-f2", "cholesky-pivot"],
    )
    def test_first_failing_sample_is_named(self, f2, message):
        # a custom structure: its g is the Hessian of the F^2 put in below
        s = FinslerStructure.custom(FinslerStructure.euclidean(2)._f2, 2, label="euclidean")
        s._f2 = f2
        with pytest.raises(NotPositiveDefinite) as want:
            loop_validate(s)
        with pytest.raises(NotPositiveDefinite) as got:
            s._validate()
        assert str(got.value) == str(want.value)
        xs, dirs = s._sample_points()
        assert str(got.value) == f"euclidean: {message} x={xs[3].tolist()}, y={dirs[0].tolist()}"


class TestSpherePoints:
    def test_normalize_euclidean(self, euclidean):
        z = euclidean.normalize_to_indicatrix([0.1, 0.2], [3.0, 4.0])
        assert np.allclose(z.y, [0.6, 0.8], atol=1e-14)

    def test_normalize_randers(self, randers):
        z = randers.normalize_to_indicatrix([0.1, 0.2], [1.0, 0.0])
        assert np.allclose(z.y, [2.0 / 3.0, 0.0], atol=1e-14)

    def test_normalize_idempotent(self, randers, rng):
        for z in sample_points(randers, 5):
            z2 = randers.normalize_to_indicatrix(z.x, z.y)
            assert np.max(np.abs(z2.y - z.y)) < 1e-12

    def test_constructor_renormalizes_small_drift(self, randers):
        z = randers.normalize_to_indicatrix([0.1, 0.2], [1.0, 0.4])
        z2 = randers.sphere_point(z.x, z.y * (1.0 + 5e-7))
        assert abs(randers.F(z2.x, z2.y) - 1.0) < 1e-10

    def test_constructor_rejects_far_points(self, randers):
        with pytest.raises(DomainError):
            randers.sphere_point([0.1, 0.2], [2.0, 0.0])


class TestHomogeneityAndEuler:
    def test_homogeneity_suite(self):
        """F is 1-homogeneous, g is 0-homogeneous and C is (-1)-homogeneous in y."""
        rng = np.random.default_rng(2)
        for name in FAMILIES:
            s = bi.get_metric(name)
            for z in bi.random_chart_points(rng, s, 20):
                x, y = list(z.x), list(z.y)
                F1 = s.F(x, y)
                g1 = s.fundamental_tensor((x, y)).data
                C1 = s.cartan_tensor((x, y)).data
                for lam in (0.5, 2.0, 7.0):
                    assert s.F(x, list(lam * np.asarray(y))) == pytest.approx(lam * F1, rel=1e-10)
                for lam in (0.5, 2.0):
                    ys = list(lam * np.asarray(y))
                    assert np.allclose(s.fundamental_tensor((x, ys)).data, g1, atol=1e-10)
                    assert np.allclose(s.cartan_tensor((x, ys)).data, C1 / lam, atol=1e-10)

    def test_euler_identities(self):
        rng = np.random.default_rng(3)
        for name in FAMILIES:
            s = bi.get_metric(name)
            for z in bi.random_chart_points(rng, s, 20):
                x, y = z.x, z.y
                F = s.F(x, y)
                g = s.fundamental_tensor((x, y)).data
                C = s.cartan_tensor((x, y)).data
                T = s.cartan_trace((x, y)).data
                ell = s.hilbert_form((x, y)).data
                assert abs(y @ g @ y - F * F) < 1e-10 * (1 + F * F)
                assert abs(ell @ y - F) < 1e-10 * (1 + F)
                assert np.max(np.abs(np.einsum("kij,k->ij", C, y))) < 1e-10
                assert abs(T @ y) < 1e-10


class TestTensorLayer:
    def test_riemannian_cartan_vanishes(self, riemannian_torus, sphere):
        for s in (riemannian_torus, sphere):
            for z in sample_points(s, 5):
                assert np.max(np.abs(s.cartan_tensor((z.x, z.y)).data)) < 1e-12
                assert np.max(np.abs(s.cartan_trace((z.x, z.y)).data)) < 1e-12

    def test_riemannian_metric_is_coefficient_matrix(self, riemannian_torus):
        for z in sample_points(riemannian_torus, 5):
            g1 = riemannian_torus.fundamental_tensor((z.x, z.y)).data
            g2 = riemannian_torus.fundamental_tensor((z.x, 2.5 * z.y)).data
            assert np.allclose(g1, g2, atol=1e-12)

    def test_inverse_metric_identity(self):
        rng = np.random.default_rng(8)
        for name in FAMILIES:
            s = bi.get_metric(name)
            for z in bi.random_chart_points(rng, s, 10):
                g = s.fundamental_tensor((z.x, z.y)).data
                gi = s.inverse_metric((z.x, z.y)).data
                assert np.max(np.abs(g @ gi - np.eye(s.dim))) < 1e-12

    def test_non_finite_inverse_metric_is_singular(self, randers):
        """An inverse with a non-finite entry is refused, not reported."""
        z = sample_points(randers, 1)[0]
        tower = LocalTower(randers, list(z.x), list(z.y))
        vars(tower)["gi"] = [[math.inf, 0.0], [0.0, 1.0]]
        with pytest.raises(SingularMetric, match="inverse metric is not finite"):
            ginv_array(tower)

    def test_randers_metric_matches_fd_hessian(self, randers):
        """Half the finite-difference y-Hessian of F^2 reproduces the metric."""
        for z in sample_points(randers, 5):
            g = randers.fundamental_tensor((z.x, z.y)).data
            for i in range(2):
                for j in range(2):
                    orders = [0, 0]
                    orders[i] += 1
                    orders[j] += 1
                    fd = 0.5 * fd_partial(
                        JetRequest(randers.f2, (list(z.x), list(z.y)), ((0, 0), tuple(orders)))
                    )
                    assert abs(g[i, j] - fd) < 1e-7

    def test_randers_cartan_matches_fd(self, randers):
        for z in sample_points(randers, 3):
            C = randers.cartan_tensor((z.x, z.y)).data

            def g01(xs, ys):
                from finslerforms.metric import metric_components

                return metric_components(randers, xs, ys)[0][1]

            for k in range(2):
                orders = [0, 0]
                orders[k] = 1
                fd = 0.5 * fd_partial(JetRequest(g01, (list(z.x), list(z.y)), ((0, 0), tuple(orders))))
                assert abs(C[k, 0, 1] - fd) < 1e-7

    def test_cartan_totally_symmetric(self, randers, quartic):
        for s in (randers, quartic):
            for z in sample_points(s, 5):
                C = s.cartan_tensor((z.x, z.y)).data
                for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
                    assert np.max(np.abs(C - np.transpose(C, perm))) < 1e-12

    def test_hilbert_form(self, euclidean, randers):
        ell = euclidean.hilbert_form(([0.1, 0.2], [3.0, 4.0])).data
        assert np.allclose(ell, [0.6, 0.8], atol=1e-14)
        for z in sample_points(randers, 5):
            ell = randers.hilbert_form((z.x, z.y)).data
            g = randers.fundamental_tensor((z.x, z.y)).data
            F = randers.F(z.x, z.y)
            assert np.max(np.abs(ell - g @ z.y / F)) < 1e-10

    def test_cartan_trace_contraction_oracle(self, randers):
        for z in sample_points(randers, 5):
            T = randers.cartan_trace((z.x, z.y)).data
            C = randers.cartan_tensor((z.x, z.y)).data
            gi = randers.inverse_metric((z.x, z.y)).data
            assert np.max(np.abs(T - np.einsum("ik,ikj->j", gi, C))) < 1e-12

    def test_variance_tags(self, randers):
        z = sample_points(randers, 1)[0]
        assert randers.fundamental_tensor((z.x, z.y)).variance == "ll"
        assert randers.inverse_metric((z.x, z.y)).variance == "uu"
        assert randers.cartan_tensor((z.x, z.y)).variance == "lll"


# every built-in whose family gives g in closed form, then the base-dependent Randers metrics
CLOSED_FORMS = [k for k in bi.METRIC_IDS if bi.get_metric(k).family != "custom"] + [
    "randers-base", "base-dependent-2", "base-dependent-3", "base-dependent-4",
]


class TestFamilyG:
    """The family's g in closed form against the F^2 Hessian of its custom
    twin: g and C at seeded points, on a (B,) batch and on a grid tower.
    Riemannian and Euclidean families are hex-identical leaf by leaf, with
    the same leaf shapes; Randers ones agree to REL_TOL.  y lies on the
    indicatrix, so C and g share a scale: both are held to the largest
    |g_ij|, since where C nearly cancels either route rounds to some 1e-13
    of the largest |C_ijk|."""

    REL_TOL = 1e-14

    @staticmethod
    def metric(name, randers_base):
        if name == "randers-base":
            return randers_base
        if name.startswith("base-dependent-"):
            return base_dependent_randers(int(name[-1]))
        return bi.get_metric(name)

    @staticmethod
    def grid_coords(s, base=2, fiber=3, seed=5):
        """Coordinates shaped as a quadrature grid's, base axes then fiber
        axes: each x_i varies along its own base axis, and y = u / F(x, u)
        for unit directions u on the n - 1 fiber axes.  (A QuadratureGrid
        takes 8 nodes per axis at least, over 2 million nodes in 4D.)"""
        n = s.dim
        ndim = 2 * n - 1
        xs = []
        for i in range(n):
            lo, hi = s.chart.interior(i)
            shape = [1] * ndim
            shape[i] = base
            xs.append(np.linspace(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo), base).reshape(shape))
        u = np.random.default_rng(seed).normal(size=(n,) + (1,) * n + (fiber,) * (n - 1))
        u /= np.sqrt(np.sum(u * u, axis=0))
        F = gsqrt(s.f2(xs, list(u)))
        return xs, [c / F for c in u]

    def coordinates(self, s):
        """(kind, xs, ys): three seeded points, a batch of 5 and a grid."""
        out = [("point", list(z.x), list(z.y)) for z in sample_points(s, 3)]
        pts = sample_points(s, 5, seed=12)
        out.append(("batch", list(np.array([z.x for z in pts]).T), list(np.array([z.y for z in pts]).T)))
        return out + [("grid", *self.grid_coords(s))]

    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_matches_the_f2_hessian(self, name, randers_base):
        s = self.metric(name, randers_base)
        twin = custom_twin(s)
        leaves = lambda tower: [v for row in tower.g for v in row] + [
            v for block in tower.C for row in block for v in row
        ]
        for kind, xs, ys in self.coordinates(s):
            got, want = LocalTower(s, xs, ys), LocalTower(twin, xs, ys)
            if s.family == "randers":
                scale = np.max(np.abs(pack(want.g, 2)))
                for layer, rank in (("g", 2), ("C", 3)):
                    a, b = (pack(getattr(t, layer), rank) for t in (got, want))
                    assert np.max(np.abs(a - b)) <= self.REL_TOL * scale, (kind, layer)
            else:
                a, b = leaves(got), leaves(want)
                assert [np.shape(v) for v in a] == [np.shape(v) for v in b], kind
                hexes = lambda vs: [[w.hex() for w in np.ravel(v).tolist()] for v in vs]
                assert hexes(a) == hexes(b), kind


class TestChartSpec:
    def test_margin_validation(self):
        with pytest.raises(ConfigError):
            ChartSpec(bounds=((0.0, 1.0),), periodic=(False,), excluded_margin=(0.6,))

    def test_empty_interval(self):
        with pytest.raises(ConfigError):
            ChartSpec(bounds=((1.0, 1.0),), periodic=(True,))


# constructor inputs that are ConfigErrors, each with the words of its message
MALFORMED_CONSTRUCTIONS = {
    "chart-of-another-dimension": (
        lambda: FinslerStructure.euclidean(2, chart=ChartSpec.torus(3)), "chart dimension"
    ),
    "callable-a-without-dim": (
        lambda: FinslerStructure.riemannian(lambda xs: [[1.0, 0.0], [0.0, 1.0]]), "dim is required"
    ),
    "non-square-a": (
        lambda: FinslerStructure.riemannian([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), "must be square"
    ),
    "non-symmetric-a": (
        lambda: FinslerStructure.riemannian([[1.0, 0.5], [0.0, 1.0]]), "must be symmetric"
    ),
    # the closed forms read a(x) as given, where the F^2 Hessian saw its symmetric part
    "non-symmetric-callable-a": (
        lambda: FinslerStructure.riemannian(lambda xs: [[1.0, 0.1 * gsin(xs[0])], [0.0, 1.0]], dim=2),
        "must be symmetric",
    ),
    "non-symmetric-callable-randers-a": (
        lambda: FinslerStructure.randers(
            lambda xs: [[1.0, 0.1], [0.0, 1.0]], lambda xs: [0.1, 0.0], dim=2
        ),
        "must be symmetric",
    ),
    "a-of-the-wrong-size": (
        lambda: FinslerStructure.riemannian(np.eye(2), dim=3), "does not match coefficient matrix"
    ),
    "randers-b-of-the-wrong-length": (
        lambda: FinslerStructure.randers(np.eye(2), [0.1, 0.0, 0.0]), "drift vector length"
    ),
    "chart-axis-lists-of-different-lengths": (
        lambda: ChartSpec(bounds=((0.0, 1.0), (0.0, 1.0)), periodic=(True,)), "inconsistent lengths"
    ),
}


@pytest.mark.parametrize("build, message", MALFORMED_CONSTRUCTIONS.values(), ids=MALFORMED_CONSTRUCTIONS)
def test_malformed_construction_is_a_config_error(build, message):
    with pytest.raises(ConfigError, match=message):
        build()
