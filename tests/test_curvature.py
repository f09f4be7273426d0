import math

import numpy as np
import pytest

from finslerforms import builtins as bi
from finslerforms.connection import TensorField, pack, tower_at
from finslerforms.curvature import (
    checked_flag,
    flag_curvature_tensor,
    hh_components,
    hv_components,
    ricci_components,
    ricci_identity_residual,
    vv_components,
)
from finslerforms.errors import DomainError
from finslerforms.jets import gcos, gsin
from finslerforms.quadrature import QuadratureGrid

from conftest import sample_points

FLAT = ["euclidean", "randers-torus", "quartic-torus"]


def sphere_riemann(theta):
    """R^h_kij of the unit round sphere in the (theta, phi) chart."""
    R = np.zeros((2, 2, 2, 2))
    s2 = math.sin(theta) ** 2
    R[0, 1, 0, 1] = s2
    R[0, 1, 1, 0] = -s2
    R[1, 0, 1, 0] = 1.0
    R[1, 0, 0, 1] = -1.0
    return R


class TestFlatFamilies:
    def test_all_blocks_vanish(self):
        for name in FLAT:
            s = bi.get_metric(name)
            for z in sample_points(s, 5):
                tower = tower_at(s, (z.x, z.y))
                blocks = (
                    pack(hh_components(tower), 4),
                    pack(hv_components(tower), 4),
                    checked_flag(tower),
                    pack(ricci_components(tower), 2),
                )
                for block in blocks:
                    assert np.max(np.abs(block)) < 1e-10, name
        # the vv block vanishes for flat metrics with C = 0 only
        e = bi.get_metric("euclidean")
        z = sample_points(e, 1)[0]
        assert np.max(np.abs(pack(vv_components(tower_at(e, (z.x, z.y))), 4))) < 1e-14


class TestSphereClosedForms:
    def test_riemann_tensor(self, sphere):
        for z in sample_points(sphere, 5):
            R = pack(hh_components(tower_at(sphere, (z.x, z.y))), 4)
            assert np.max(np.abs(R - sphere_riemann(z.x[0]))) < 1e-6

    def test_ricci_is_einstein_with_constant_one(self, sphere):
        for z in sample_points(sphere, 5):
            ric = pack(ricci_components(tower_at(sphere, (z.x, z.y))), 2)
            a = np.diag([1.0, math.sin(z.x[0]) ** 2])
            assert np.max(np.abs(ric - a)) < 1e-6
            assert np.max(np.abs(ric - ric.T)) < 1e-8

    def test_hv_and_vv_vanish(self, sphere):
        for z in sample_points(sphere, 3):
            tower = tower_at(sphere, (z.x, z.y))
            assert np.max(np.abs(pack(hv_components(tower), 4))) < 1e-8
            assert np.max(np.abs(pack(vv_components(tower), 4))) < 1e-14

    def test_last_pair_antisymmetry(self, sphere):
        for z in sample_points(sphere, 5):
            R = pack(hh_components(tower_at(sphere, (z.x, z.y))), 4)
            assert np.max(np.abs(R + R.transpose(0, 1, 3, 2))) < 1e-8


class TestFlagTensor:
    def test_dual_formulas_agree(self):
        """Direct nonlinear-connection curvature vs y-contraction of hh."""
        for name in FLAT + ["riemannian-torus", "riemannian-sphere"]:
            s = bi.get_metric(name)
            for z in sample_points(s, 5):
                flag = flag_curvature_tensor(s, (z.x, z.y), cross_check=True)
                assert flag.variance == "ull"

    def test_antisymmetric_last_pair(self, sphere):
        for z in sample_points(sphere, 5):
            f = flag_curvature_tensor(sphere, (z.x, z.y)).data
            assert np.max(np.abs(f + f.transpose(0, 2, 1))) < 1e-10


class TestVvBlock:
    def test_exact_antisymmetry(self, randers, quartic):
        for s in (randers, quartic):
            for z in sample_points(s, 5):
                Q = pack(vv_components(tower_at(s, (z.x, z.y))), 4)
                assert np.max(np.abs(Q + Q.transpose(0, 1, 3, 2))) < 1e-14

    def test_brute_force_contraction(self, randers):
        for z in sample_points(randers, 3):
            tower = tower_at(randers, (z.x, z.y))
            Q = pack(vv_components(tower), 4)
            Cv = pack(tower.Cmix, 3)
            expected = np.einsum("hrj,rki->hkij", Cv, Cv) - np.einsum(
                "hri,rkj->hkij", Cv, Cv
            )
            assert np.max(np.abs(Q - expected)) < 1e-12


class TestRicciIdentity:
    def test_flat_constant_field(self, randers):
        X = TensorField.from_vector(lambda xs: [0.7, -0.2])
        for z in sample_points(randers, 3):
            res = ricci_identity_residual(tower_at(randers, (z.x, z.y)), X)
            assert np.max(np.abs(res.data)) < 1e-12

    def test_flat_trig_field(self, euclidean):
        X = TensorField.from_vector(lambda xs: [0.0, gsin(xs[0])])
        for z in sample_points(euclidean, 3):
            res = ricci_identity_residual(tower_at(euclidean, (z.x, z.y)), X)
            assert np.max(np.abs(res.data)) < 1e-8

    def test_sphere_coordinate_field(self, sphere):
        X = TensorField.from_vector(lambda xs: [0.0, 1.0])
        for z in sample_points(sphere, 5):
            res = ricci_identity_residual(tower_at(sphere, (z.x, z.y)), X)
            assert np.max(np.abs(res.data)) < 1e-5

    def test_random_trig_fields_all_families(self):
        rng = np.random.default_rng(17)
        for name in ("euclidean", "randers-torus", "riemannian-sphere"):
            s = bi.get_metric(name)
            worst = 0.0
            for _ in range(10):
                X = bi.random_trig_vector(rng, s, trig_degree=2)
                for z in bi.random_chart_points(rng, s, 2):
                    res = ricci_identity_residual(tower_at(s, (z.x, z.y)), X)
                    worst = max(worst, float(np.max(np.abs(res.data))))
            assert worst < 1e-5, name

    def test_random_trig_fields_base_dependent(self, randers_base):
        rng = np.random.default_rng(18)
        for _ in range(2):
            X = bi.random_trig_vector(rng, randers_base, trig_degree=2)
            for z in bi.random_chart_points(rng, randers_base, 2):
                res = ricci_identity_residual(tower_at(randers_base, (z.x, z.y)), X)
                assert np.max(np.abs(res.data)) < 1e-5

    @pytest.mark.parametrize("name", ["randers-torus", "randers-torus-3d", "riemannian-torus"])
    def test_grid_tower_equals_point_tower(self, name):
        """On a grid tower, where N vanishes on the two Randers tori so the
        horizontal partials skip the y pass, the residual reads its vertical
        term off the field's own y partials: at three nodes it equals the
        residual of the point tower there, bit for bit."""
        s = bi.get_metric(name)
        n = s.dim
        grid = QuadratureGrid.for_structure(s, (8,) * n, (8,) * (n - 1))
        tower = grid.tower(s)
        X = TensorField(
            lambda xs, ys: [gsin(xs[i]) * ys[(i + 1) % n] + gcos(xs[(i + 1) % n]) for i in range(n)],
            "u",
        )
        shape = np.broadcast_shapes(*(np.shape(v) for v in tower.xs + tower.ys))
        res = ricci_identity_residual(tower, X).data
        res = np.broadcast_to(res, res.shape[:3] + shape)
        for node in [(0,) * len(shape), tuple(d // 2 for d in shape), tuple(d - 1 for d in shape)]:
            x, y = ([float(np.broadcast_to(v, shape)[node]) for v in vs] for vs in (tower.xs, tower.ys))
            want = ricci_identity_residual(tower_at(s, (x, y)), X).data
            assert want.tobytes() == np.ascontiguousarray(res[(Ellipsis, *node)]).tobytes()

    @pytest.mark.parametrize(
        "variance, components", [("l", [1.0, 0.0]), ("ll", [[1.0, 0.0], [0.0, 1.0]])]
    )
    def test_field_that_is_not_a_vector_is_rejected(self, randers, variance, components):
        X = TensorField(lambda xs, ys: components, variance)
        z = sample_points(randers, 1)[0]
        with pytest.raises(DomainError, match="expects a vector field"):
            ricci_identity_residual(tower_at(randers, (z.x, z.y)), X)


class TestHvVariants:
    def test_both_variants_reported(self, randers):
        z = sample_points(randers, 1)[0]
        P = pack(hv_components(tower_at(randers, (z.x, z.y))), 4)
        assert P.shape == (2, 2, 2, 2)
        # locally Minkowski: the hv block vanishes identically
        assert np.max(np.abs(P)) < 1e-12
