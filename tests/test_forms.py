import math

import numpy as np
import pytest

from finslerforms import builtins as bi
from finslerforms.connection import LocalTower, TensorField
from finslerforms.curvature import ricci_trace
from finslerforms.errors import DegreeMismatch, DegreeOverflow, DegreeUnderflow
from finslerforms.forms import (
    HorizontalForm,
    associate_one_form,
    bochner_scalar,
    deltaH_coeffs,
    energy_identity_residuals,
    horizontal_codifferential,
    horizontal_differential,
    horizontal_laplacian,
    is_h_harmonic,
    laplacian_expansion,
    pointwise_inner,
    weitzenbock_residual,
)
from finslerforms.jets import gcos, gsin

from conftest import sample_points


def trig_point(s, seed=11):
    return sample_points(s, 1, seed=seed)[0]


class TestHorizontalDifferential:
    def test_flat_sine_coefficient(self, euclidean):
        phi = HorizontalForm(1, lambda xs, ys: [0.0, gsin(xs[0])])
        z = trig_point(euclidean)
        d = horizontal_differential(euclidean, phi).at(euclidean, (z.x, z.y))
        assert d.data[0, 1] == pytest.approx(math.cos(z.x[0]), abs=1e-12)
        assert d.data[0, 1] == pytest.approx(-d.data[1, 0], abs=1e-14)

    def test_constant_coefficients_closed(self, euclidean, randers):
        for s in (euclidean, randers):
            phi = HorizontalForm(1, lambda xs, ys: [0.4, -1.2])
            z = trig_point(s)
            d = horizontal_differential(s, phi).at(s, (z.x, z.y))
            assert np.max(np.abs(d.data)) < 1e-12

    def test_degree_overflow(self, euclidean):
        top = HorizontalForm(2, lambda xs, ys: [[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(DegreeOverflow):
            horizontal_differential(euclidean, top)

    def test_output_antisymmetry_random_forms(self, randers, rng):
        for _ in range(5):
            phi = bi.random_trig_form(rng, randers, 1)
            z = trig_point(randers, seed=int(rng.integers(1, 1000)))
            d = horizontal_differential(randers, phi).at(randers, (z.x, z.y)).data
            assert np.max(np.abs(d + d.T)) < 1e-12


class TestHorizontalCodifferential:
    def test_flat_sine(self, euclidean):
        psi = HorizontalForm(1, lambda xs, ys: [gsin(xs[0]), 0.0])
        z = trig_point(euclidean)
        d = horizontal_codifferential(euclidean, psi).at(euclidean, (z.x, z.y))
        assert float(d.data) == pytest.approx(-math.cos(z.x[0]), abs=1e-12)

    def test_constant_on_randers_torus(self, randers):
        psi = HorizontalForm(1, lambda xs, ys: [1.0, 2.0])
        z = trig_point(randers)
        d = horizontal_codifferential(randers, psi).at(randers, (z.x, z.y))
        assert abs(float(d.data)) < 1e-12

    def test_degree_underflow(self, euclidean):
        f = HorizontalForm(0, lambda xs, ys: 1.0)
        with pytest.raises(DegreeUnderflow):
            horizontal_codifferential(euclidean, f)

    def test_degree_one_reduction_formula(self, randers):
        """Co-differential of a 1-form equals the explicit divergence form."""
        phi = HorizontalForm(1, lambda xs, ys: [gsin(xs[0] + xs[1]), gcos(xs[0])])
        z = trig_point(randers)
        tower = LocalTower(randers, list(z.x), list(z.y))
        got = deltaH_coeffs(tower, phi)
        # manual: -(g^{ij} nabla_i phi_j - g^{ij} phi_j nabla_0 T_i)
        from finslerforms.connection import cov_h
        from finslerforms.jets import grad_x, grad_y

        val = phi.coeffs(tower.xs, tower.ys)
        nab = cov_h(tower, val, grad_x(phi.coeffs, *((tower.xs, tower.ys))), grad_y(phi.coeffs, tower.xs, tower.ys), "l")
        manual = 0.0
        for i in range(2):
            for j in range(2):
                manual -= tower.gi[i][j] * (nab[i][j] - val[j] * tower.nabla0T[i])
        assert abs(got - manual) < 1e-12


class TestLaplacian:
    def test_flat_torus_hodge_oracle(self, euclidean):
        phi = HorizontalForm(1, lambda xs, ys: [gsin(xs[0]), 0.0])
        z = trig_point(euclidean)
        lap = horizontal_laplacian(euclidean, phi).at(euclidean, (z.x, z.y))
        assert np.allclose(lap.data, [math.sin(z.x[0]), 0.0], atol=1e-6)

    def test_constant_form_harmonic(self, euclidean):
        phi = HorizontalForm(1, lambda xs, ys: [0.3, 0.8])
        z = trig_point(euclidean)
        lap = horizontal_laplacian(euclidean, phi).at(euclidean, (z.x, z.y))
        assert np.max(np.abs(lap.data)) < 1e-12

    def test_composition_matches_expansion(self, rng):
        """Composed and expanded Laplacians agree for degrees 1 and 2."""
        for name in ("euclidean", "randers-torus"):
            s = bi.get_metric(name)
            for p in (1, 2):
                for _ in range(3):
                    phi = bi.random_trig_form(rng, s, p)
                    z = trig_point(s, seed=int(rng.integers(1, 1000)))
                    a = horizontal_laplacian(s, phi).at(s, (z.x, z.y)).data
                    b = laplacian_expansion(s, phi).at(s, (z.x, z.y)).data
                    assert np.max(np.abs(a - b)) < 1e-5, (name, p)

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_composition_matches_expansion_base_dependent(self, randers_base, rng, p):
        s = randers_base
        phi = bi.random_trig_form(rng, s, p)
        for z in bi.random_chart_points(rng, s, 2):
            a = horizontal_laplacian(s, phi).at(s, (z.x, z.y)).data
            b = laplacian_expansion(s, phi).at(s, (z.x, z.y)).data
            assert np.max(np.abs(a - b)) < 1e-5

    def test_expansion_on_sphere_against_composition(self, sphere, rng):
        phi = bi.random_trig_form(rng, sphere, 1)
        z = trig_point(sphere)
        a = horizontal_laplacian(sphere, phi).at(sphere, (z.x, z.y)).data
        b = laplacian_expansion(sphere, phi).at(sphere, (z.x, z.y)).data
        assert np.max(np.abs(a - b)) < 1e-5


class TestInnerProduct:
    def test_orthonormal_values(self, euclidean):
        z = trig_point(euclidean)
        dx1 = HorizontalForm(1, lambda xs, ys: [1.0, 0.0])
        area = HorizontalForm(2, lambda xs, ys: [[0.0, 1.0], [-1.0, 0.0]])
        assert pointwise_inner(euclidean, dx1, dx1, (z.x, z.y)) == pytest.approx(1.0, abs=1e-14)
        assert pointwise_inner(euclidean, area, area, (z.x, z.y)) == pytest.approx(1.0, abs=1e-14)

    def test_degree_mismatch(self, euclidean):
        z = trig_point(euclidean)
        a = HorizontalForm(1, lambda xs, ys: [1.0, 0.0])
        b = HorizontalForm(0, lambda xs, ys: 1.0)
        with pytest.raises(DegreeMismatch):
            pointwise_inner(euclidean, a, b, (z.x, z.y))

    def test_positive_definite_on_random_forms(self, randers, rng):
        for _ in range(20):
            p = int(rng.integers(1, 3))
            phi = bi.random_trig_form(rng, randers, p)
            z = trig_point(randers, seed=int(rng.integers(1, 10000)))
            v = pointwise_inner(randers, phi, phi, (z.x, z.y))
            arr = phi.at(randers, (z.x, z.y)).data
            if np.max(np.abs(arr)) > 1e-12:
                assert v > 0.0


class TestAssociatedForm:
    def test_euclidean_constant_field(self, euclidean):
        X = TensorField.from_vector(lambda xs: [1.0, 0.0])
        af = associate_one_form(euclidean, X)
        z = trig_point(euclidean)
        assert np.allclose(af.horizontal.at(euclidean, (z.x, z.y)).data, [1.0, 0.0], atol=1e-14)
        vert = af.vertical(list(z.x), list(z.y))
        assert np.max(np.abs(np.asarray(vert, float))) < 1e-12

    def test_riemannian_horizontal_part_y_independent(self, riemannian_torus):
        X = TensorField.from_vector(lambda xs: [gsin(xs[0]), 1.0])
        af = associate_one_form(riemannian_torus, X)
        z = trig_point(riemannian_torus)
        a = af.horizontal.at(riemannian_torus, (z.x, z.y)).data
        z2 = riemannian_torus.normalize_to_indicatrix(z.x, z.y + np.array([0.3, -0.1]))
        b = af.horizontal.at(riemannian_torus, (z2.x, z2.y)).data
        assert np.max(np.abs(a - b)) < 1e-10

    def test_verticality(self, randers, sphere, rng):
        for s in (randers, sphere):
            X = bi.random_trig_vector(rng, s)
            af = associate_one_form(s, X)
            for z in sample_points(s, 3):
                vert = af.vertical(list(z.x), list(z.y))
                assert abs(sum(v * y for v, y in zip(vert, z.y))) < 1e-8

    def test_randers_horizontal_is_lowered_field(self, randers):
        X = TensorField.from_vector(lambda xs: [1.0, 0.0])
        af = associate_one_form(randers, X)
        for z in sample_points(randers, 3):
            got = af.horizontal.at(randers, (z.x, z.y)).data
            g = randers.fundamental_tensor((z.x, z.y)).data
            assert np.max(np.abs(got - g @ [1.0, 0.0])) < 1e-12


class TestWeitzenbock:
    def test_flat_constant_field(self, randers):
        X = TensorField.from_vector(lambda xs: [1.0, -2.0])
        z = trig_point(randers)
        res = weitzenbock_residual(randers, X, (z.x, z.y))
        assert np.max(np.abs(res.data)) < 1e-12

    def test_residual_equals_minus_laplacian(self, rng):
        for name in ("euclidean", "randers-torus", "riemannian-sphere"):
            s = bi.get_metric(name)
            X = bi.random_trig_vector(rng, s)
            af = associate_one_form(s, X)
            for z in sample_points(s, 2):
                res = weitzenbock_residual(s, X, (z.x, z.y)).data
                lap = horizontal_laplacian(s, af.horizontal).at(s, (z.x, z.y)).data
                assert np.max(np.abs(res + lap)) < 1e-5, name

    def test_riemannian_trace_terms_drop(self, sphere, rng):
        """On Riemannian inputs the Cartan-trace terms vanish identically."""
        X = bi.random_trig_vector(rng, sphere)
        z = trig_point(sphere)
        tower = LocalTower(sphere, list(z.x), list(z.y))
        assert np.max(np.abs(np.asarray(tower.nabla0T, float))) < 1e-10
        assert np.max(np.abs(np.asarray(tower.nabla_nabla0T, float))) < 1e-8


class TestBochnerScalar:
    def test_flat_families_zero(self, euclidean, randers, rng):
        for s in (euclidean, randers):
            X = bi.random_trig_vector(rng, s)
            for z in sample_points(s, 3):
                assert abs(bochner_scalar(s, X, (z.x, z.y))) < 1e-10

    def test_sphere_equator_spot_value(self, sphere):
        X = TensorField.from_vector(lambda xs: [0.0, 1.0])
        K = bochner_scalar(sphere, X, ([math.pi / 2, 0.3], [1.0, 0.0]))
        assert K == pytest.approx(1.0, abs=1e-6)

    def test_riemannian_reduction_to_ricci_quadratic(self, sphere, rng):
        X = bi.random_trig_vector(rng, sphere)
        for z in sample_points(sphere, 3):
            K = bochner_scalar(sphere, X, (z.x, z.y))
            Xv = np.array(X.components(list(z.x), list(z.y)), float)
            ric = ricci_trace(sphere, (z.x, z.y)).data
            assert abs(K - Xv @ ric @ Xv) < 1e-8


class TestEnergyIdentities:
    def test_flat_constant(self, euclidean):
        X = TensorField.from_vector(lambda xs: [1.0, 1.0])
        z = trig_point(euclidean)
        r1, r2 = energy_identity_residuals(euclidean, X, (z.x, z.y))
        assert abs(r1) < 1e-14 and abs(r2) < 1e-14

    def test_flat_trig(self, euclidean):
        X = TensorField.from_vector(lambda xs: [0.0, gsin(xs[0])])
        z = trig_point(euclidean)
        r1, r2 = energy_identity_residuals(euclidean, X, (z.x, z.y))
        assert abs(r1) < 1e-8 and abs(r2) < 1e-8

    def test_randers_trig(self, randers, rng):
        X = bi.random_trig_vector(rng, randers)
        for z in sample_points(randers, 3):
            r1, r2 = energy_identity_residuals(randers, X, (z.x, z.y))
            assert abs(r1) < 1e-5 and abs(r2) < 1e-5


class TestHarmonicVerdict:
    def test_flat_basis_form_harmonic(self, euclidean):
        grid = bi.default_grid(euclidean)
        rep = is_h_harmonic(euclidean, bi.get_form("dx1", euclidean), grid, tol=1e-8)
        assert rep["verdict"] == "harmonic"
        assert rep["laplacian_norm"] < 1e-10
        assert rep["equivalence_consistent"]

    def test_flat_sine_form_not_harmonic(self, euclidean):
        grid = bi.default_grid(euclidean)
        rep = is_h_harmonic(euclidean, bi.get_form("sin-x1-dx1", euclidean), grid, tol=1e-8)
        assert rep["verdict"] == "not harmonic"
        assert rep["laplacian_norm"] > 0.1
        assert max(rep["dH_norm"], rep["deltaH_norm"]) > 0.1
        assert rep["equivalence_consistent"]

    def test_constant_randers_basis_form_harmonic(self, randers):
        grid = bi.default_grid(randers)
        rep = is_h_harmonic(randers, bi.get_form("dx1", randers), grid, tol=1e-8)
        assert rep["verdict"] == "harmonic"
        assert rep["equivalence_consistent"]
