import math
import warnings

import numpy as np
import pytest

from finslerforms import builtins as bi
from finslerforms.connection import LocalTower
from finslerforms.errors import DegreeMismatch, GridError, PoleSingularity
from finslerforms.forms import (
    HorizontalForm,
    horizontal_codifferential,
    horizontal_differential,
    horizontal_laplacian,
    inner_coeffs,
    is_h_harmonic,
    laplacian_expansion,
)
from finslerforms.jets import Jet, gcos, gsin
from finslerforms.metric import FinslerStructure
from finslerforms.quadrature import (
    AxisSpec,
    QuadratureGrid,
    adjointness_defect,
    bochner_integral,
    divergence_integral_check,
    form_grid_norm,
    global_inner_product,
    integrate_scalar,
    volume_density,
)

TWO_PI = 2.0 * math.pi


def small_grid(s, base=16, fiber=32):
    counts = (base,) * s.dim
    fc = (fiber,) if s.dim == 2 else (fiber, 16)
    return QuadratureGrid.for_structure(s, counts, fc)


class TestGridConstruction:
    def test_minimum_node_count(self):
        with pytest.raises(GridError):
            AxisSpec(0.0, 1.0, True, 4)

    def test_weights_positive(self, euclidean):
        grid = small_grid(euclidean)
        assert np.all(grid.weights_full() > 0.0)

    def test_doubling(self, euclidean):
        grid = small_grid(euclidean)
        g2 = grid.doubled()
        assert g2.num_nodes == 8 * grid.num_nodes
        assert g2.tolerance == grid.tolerance / 4.0


class TestVolumeDensity:
    def test_euclidean_density_constant_one(self, euclidean):
        for th in (0.3, 1.2, 4.0):
            vd = volume_density(euclidean, [0.5, 0.1], [th])
            assert vd.value == pytest.approx(1.0, abs=1e-12)

    def test_orientation_flip_changes_raw_sign(self, randers):
        a = volume_density(randers, [0.5, 0.1], [0.7])
        b = volume_density(randers, [0.5, 0.1], [-0.7], fiber_sign=-1.0)
        assert a.raw == pytest.approx(-b.raw, rel=1e-12)
        assert a.value > 0.0 and b.value > 0.0

    def test_positive_at_all_nodes(self, randers, quartic):
        for s in (randers, quartic):
            grid = small_grid(s)
            assert np.all(grid.density(s) > 0.0)

    def test_pole_singularity(self):
        e3 = bi.get_metric("euclidean-3d")
        with pytest.raises(PoleSingularity):
            volume_density(e3, [0.1, 0.2, 0.3], [1e-9, 0.4])


class TestMasses:
    def test_euclidean_torus_mass(self, euclidean):
        grid = small_grid(euclidean)
        mass = integrate_scalar(euclidean, lambda xs, ys: 1.0, grid)
        assert mass == pytest.approx(TWO_PI**3, rel=1e-8)

    def test_riemannian_torus_mass_oracle(self, riemannian_torus):
        """Total measure equals circle volume times the base area element."""
        grid = QuadratureGrid.for_structure(riemannian_torus, (32, 32), (64,))
        mass = integrate_scalar(riemannian_torus, lambda xs, ys: 1.0, grid)
        N = 256
        t = np.linspace(0, TWO_PI, N, endpoint=False)
        X1, X2 = np.meshgrid(t, t, indexing="ij")
        det = (1.3 + 0.3 * np.cos(X1)) * (1.1 + 0.2 * np.sin(X2)) - (
            0.1 * np.sin(X1 + X2)
        ) ** 2
        vol = np.sqrt(det).sum() * (TWO_PI / N) ** 2
        assert mass == pytest.approx(TWO_PI * vol, rel=1e-6)

    def test_three_dimensional_mass_margin_error(self):
        """Polar margins exclude a sliver of relative size about 5e-7."""
        e3 = bi.get_metric("euclidean-3d")
        grid = QuadratureGrid.for_structure(e3, (8, 8, 8), (16, 16))
        mass = integrate_scalar(e3, lambda xs, ys: 1.0, grid)
        expect = 4.0 * math.pi * TWO_PI**3
        assert abs(mass / expect - 1.0) < 1e-6
        assert abs(mass / expect - 1.0) > 1e-8  # the documented margin defect

    def test_sphere_band_mass(self, sphere):
        grid = QuadratureGrid.for_structure(sphere, (32, 32), (64,))
        mass = integrate_scalar(sphere, lambda xs, ys: 1.0, grid)
        m = bi.SPHERE_BAND_MARGIN
        expect = TWO_PI**2 * (math.cos(m) - math.cos(math.pi - m))
        assert mass == pytest.approx(expect, rel=1e-6)

    def test_odd_harmonic_integrates_to_zero(self, euclidean):
        grid = small_grid(euclidean)
        val = integrate_scalar(euclidean, lambda xs, ys: gsin(xs[0]), grid)
        assert abs(val) < 1e-10


class TestSelfConvergence:
    def test_doubling_leaves_trig_integrals_fixed(self, randers):
        grid = small_grid(randers)
        f = lambda xs, ys: gsin(xs[0]) * gcos(xs[1]) + gcos(2.0 * xs[0]) + 1.0
        a = integrate_scalar(randers, f, grid)
        b = integrate_scalar(randers, f, grid.doubled())
        assert abs(a - b) / (1.0 + abs(b)) < 1e-6


class TestGlobalInnerProducts:
    def test_basis_form_norms(self, euclidean):
        grid = small_grid(euclidean)
        dx1 = bi.get_form("dx1", euclidean)
        dx2 = bi.get_form("dx2", euclidean)
        assert global_inner_product(euclidean, dx1, dx1, grid) == pytest.approx(TWO_PI**3, rel=1e-10)
        assert abs(global_inner_product(euclidean, dx1, dx2, grid)) < 1e-12

    def test_sine_norm(self, euclidean):
        grid = small_grid(euclidean)
        sf = bi.get_form("sin-x1-dx1", euclidean)
        assert global_inner_product(euclidean, sf, sf, grid) == pytest.approx(
            0.5 * TWO_PI**3, rel=1e-6
        )

    def test_degree_mismatch(self, euclidean):
        grid = small_grid(euclidean)
        with pytest.raises(DegreeMismatch):
            global_inner_product(
                euclidean, bi.get_form("dx1", euclidean), bi.get_form("one", euclidean), grid
            )


class TestDivergenceIntegral:
    def test_flat_sine(self, euclidean):
        grid = small_grid(euclidean)
        defect = divergence_integral_check(euclidean, bi.get_form("sin-x1-dx1", euclidean), grid)
        assert defect < 1e-8

    def test_constant_form_exact_zero(self, randers):
        grid = small_grid(randers)
        defect = divergence_integral_check(randers, bi.get_form("dx1", randers), grid)
        assert defect == 0.0

    def test_randers_trig_forms(self, randers, rng):
        grid = small_grid(randers)
        for _ in range(3):
            pi_form = bi.random_trig_form(rng, randers, 1)
            assert divergence_integral_check(randers, pi_form, grid) < 1e-5

    def test_warns_on_bounded_chart(self, sphere):
        grid = small_grid(sphere)
        with pytest.warns(UserWarning, match="boundary flux"):
            divergence_integral_check(sphere, bi.get_form("dx1", sphere), grid)


class TestAdjointness:
    def test_flat_integration_by_parts(self, euclidean):
        grid = small_grid(euclidean)
        phi = bi.get_form("sin-x1", euclidean)
        psi = bi.get_form("cos-x1-dx1", euclidean)
        assert adjointness_defect(euclidean, phi, psi, grid) < 1e-8

    def test_constants_trivially_adjoint(self, randers):
        grid = small_grid(randers)
        phi = bi.get_form("one", randers)
        psi = bi.get_form("dx1", randers)
        assert adjointness_defect(randers, phi, psi, grid) < 1e-14

    def test_randers_random_pairs(self, randers, rng):
        grid = small_grid(randers)
        for p in (0, 1):
            for _ in range(3):
                phi = bi.random_trig_form(rng, randers, p)
                psi = bi.random_trig_form(rng, randers, p + 1)
                assert adjointness_defect(randers, phi, psi, grid) < 1e-4


class TestBochnerIntegral:
    def test_constant_field_on_tori(self, euclidean, randers):
        for s in (euclidean, randers):
            grid = small_grid(s)
            X = bi.get_field("d1", s)
            res = bochner_integral(s, X, grid)
            assert abs(res["K_integral"]) < 1e-12
            assert abs(res["grad_norm_integral"]) < 1e-12
            assert abs(res["sum"]) < 1e-8
            assert res["divergence_defect"] < 1e-10

    def test_divergence_identity_for_arbitrary_field(self, euclidean):
        grid = small_grid(euclidean)
        X = bi.get_field("sin-x1-d1", euclidean)
        res = bochner_integral(euclidean, X, grid)
        assert res["divergence_defect"] < 1e-6
        assert res["grad_norm_integral"] > 0.1

    def test_randers_trig_divergence_identity(self, randers, rng):
        grid = small_grid(randers)
        X = bi.random_trig_vector(rng, randers)
        res = bochner_integral(randers, X, grid)
        assert res["divergence_defect"] < 1e-5



def base_dependent_randers():
    """Genuinely Finsler Randers metric whose a and b depend on the base point."""

    def a(xs):
        return [
            [1.2 + 0.2 * gcos(xs[0]), 0.1 * gsin(xs[1])],
            [0.1 * gsin(xs[1]), 1.0 + 0.1 * gsin(xs[0] + xs[1])],
        ]

    def b(xs):
        return [0.3 * gcos(xs[1]), 0.2 * gsin(xs[0])]

    return FinslerStructure.randers(a, b, dim=2)


class TestFormsOnGridTower:
    """Operator-built forms evaluate on the grid's cached tower."""

    @pytest.fixture(scope="class")
    def setting(self):
        s = base_dependent_randers()
        grid = small_grid(s, base=8, fiber=16)
        phi = bi.random_trig_form(np.random.default_rng(5), s, 1)
        return s, grid, phi

    def test_norms_match_a_fresh_tower_bit_for_bit(self, setting):
        s, grid, phi = setting
        for op in (
            horizontal_differential,
            horizontal_codifferential,
            horizontal_laplacian,
            laplacian_expansion,
        ):
            form = op(s, phi)
            on_grid = form_grid_norm(s, form, grid)
            vals = form.coeffs(*grid.coords_for(s))  # a fresh LocalTower
            inner = inner_coeffs(grid.tower(s), vals, vals, form.degree)
            fresh = math.sqrt(max(integrate_scalar(s, inner, grid), 0.0))
            assert on_grid.hex() == fresh.hex(), form.label

    def test_is_h_harmonic_builds_no_tower_once_warm(self, setting, monkeypatch):
        s, grid, phi = setting
        first = is_h_harmonic(s, phi, grid)
        builds = 0
        init = LocalTower.__init__

        def counted(tower, s_, xs, ys):
            nonlocal builds
            if not any(isinstance(v, Jet) for v in list(xs) + list(ys)):
                builds += 1
            init(tower, s_, xs, ys)

        monkeypatch.setattr(LocalTower, "__init__", counted)
        again = is_h_harmonic(s, phi, grid)
        assert builds == 0
        assert again == first
