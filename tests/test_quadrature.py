import math
import tracemalloc
import warnings

import numpy as np
import pytest

from finslerforms import builtins as bi
from finslerforms import quadrature
from finslerforms.connection import LocalTower
from finslerforms.errors import DegreeMismatch, DomainError, GridError, PoleSingularity
from finslerforms.forms import (
    HorizontalForm,
    deltaH_coeffs,
    horizontal_codifferential,
    horizontal_differential,
    horizontal_laplacian,
    inner_coeffs,
    is_h_harmonic,
    laplacian_expansion,
    lowered_form,
)
from finslerforms.jets import Jet, _reciprocal, gcos, grad_wrt, gsin, gsqrt, tree_map
from finslerforms.metric import FinslerStructure, hilbert_components
from finslerforms.quadrature import (
    AxisSpec,
    QuadratureGrid,
    adjointness_defect,
    bochner_integral,
    divergence_integral_check,
    fiber_direction,
    form_grid_norm,
    global_inner_product,
    integrate_scalar,
    volume_density,
)

from conftest import base_dependent_randers

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

    def test_one_axis_is_refused(self):
        """S^0 has no angle: a 1-D metric is a GridError, never an IndexError."""
        s = FinslerStructure.euclidean(1)
        for fiber in ((), (8,), None):
            with pytest.raises(GridError, match="n >= 2"):
                QuadratureGrid.for_structure(s, (8,), fiber)

    @pytest.mark.parametrize("name", ["riemannian-sphere", "randers-torus-3d"])
    def test_nodes_and_samples_are_read_only(self, name):
        """The coordinates a grid hands out cannot be written in place, nor
        can the axes they are views of, so a table kept per node set
        (``jets.trig_sum``) stays valid for as long as the grid lives."""
        s = bi.get_metric(name)
        grid = QuadratureGrid.for_structure(s, (8,) * s.dim, (8,) * (s.dim - 1))
        xs, ys, thetas, u, F = grid._samples(s)
        for a in (*grid.coords_for(s)[0], *ys, *thetas, *u, F):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0
            base = a
            while base is not None:
                assert not base.flags.writeable
                base = base.base
        assert all(a is b for a, b in zip(grid.coords_for(s)[0], xs))

    def test_doubling(self, euclidean):
        grid = small_grid(euclidean)
        g2 = grid.doubled()
        assert g2.num_nodes == 8 * grid.num_nodes
        assert g2.tolerance == grid.tolerance / 4.0

    @pytest.mark.parametrize("count", [9, 12, 20])
    def test_gauss_legendre_count_off_a_multiple_of_eight_is_refused(self, count):
        """An axis has exactly the nodes it is asked for: 8-node Gauss-Legendre
        panels cannot make this count, so it is refused rather than rounded
        (12 once gave 16 nodes); a periodic axis takes it."""
        with pytest.raises(GridError, match="multiple of 8"):
            AxisSpec(0.0, 1.0, False, count)
        assert len(AxisSpec(0.0, 1.0, True, count).nodes_weights()[0]) == count

    def test_grid_shape_is_its_counts(self):
        s = bi.get_metric("euclidean-3d")
        grid = QuadratureGrid.for_structure(s, (8, 8, 8), (24, 8))
        assert grid.shape == (8, 8, 8, 24, 8)
        with pytest.raises(GridError, match="multiple of 8"):
            QuadratureGrid.for_structure(s, (8, 8, 8), (12, 8))


def shuffle_density(s, xs, thetas):
    """Reference density: the top coefficient of omega wedge (d omega)^(n-1).

    The Hilbert form omega is pulled back through (x, theta) -> (x, y) with
    y = u(theta) / F(x, u), differentiated in all 2n - 1 variables, and
    wedged by the shuffle expansion written out for n = 2 and n = 3.
    """
    n = s.dim
    d = 2 * n - 1

    def w_fn(xi):
        u = fiber_direction(xi[n:])
        invF = _reciprocal(gsqrt(s.f2(xi[:n], u)))
        return hilbert_components(s, xi[:n], [uk * invF for uk in u]) + [0.0] * (d - n)

    xi = list(xs) + list(thetas)
    w = w_fn(xi)
    dw = grad_wrt(w_fn, (xi,), 0)  # dw[a][b] = d_a w_b
    A = [[dw[a][b] - dw[b][a] for b in range(d)] for a in range(d)]
    if n == 2:
        top = w[0] * A[1][2] - w[1] * A[0][2] + w[2] * A[0][1]
    else:
        top = 0.0
        for k in range(5):
            b, c, dd, e = [i for i in range(5) if i != k]
            B = 2.0 * (A[b][c] * A[dd][e] - A[b][dd] * A[c][e] + A[b][e] * A[c][dd])
            top = top + (-1.0) ** k * w[k] * B
    return ((-1.0) ** ((n * (n - 1)) // 2)) / math.factorial(n - 1) * top


class TestVolumeDensity:
    def test_euclidean_density_constant_one(self, euclidean):
        for th in (0.3, 1.2, 4.0):
            vd = volume_density(euclidean, [0.5, 0.1], [th])
            assert vd.value == pytest.approx(1.0, abs=1e-12)

    def test_euclidean_3d_density_is_sin_theta1(self):
        """The flat density is the round sphere's, prod_k sin^(n-2-k) theta_(k+1)
        over the polar angles; in n = 4 and 5 ``raw`` is its negative (the
        orientation of the angle order), so ``value`` is compared there."""
        e3 = bi.get_metric("euclidean-3d")
        for th in ([0.3, 0.2], [1.2, 4.0], [2.9, 5.5]):
            vd = volume_density(e3, [0.1, 0.2, 0.3], th)
            assert vd.raw == pytest.approx(math.sin(th[0]), rel=1e-14)
        rng = np.random.default_rng(4)
        for n in (3, 4, 5):
            s = FinslerStructure.euclidean(n)
            for _ in range(3):
                th = [*rng.uniform(0.2, 2.9, n - 2), rng.uniform(0.0, TWO_PI)]
                want = math.prod(math.sin(th[k]) ** (n - 2 - k) for k in range(n - 2))
                vd = volume_density(s, [0.1] * n, th)
                assert vd.value == pytest.approx(want, rel=1e-14)
        grid = small_grid(e3, base=8, fiber=8)
        th1 = grid.axis_arrays()[3]
        assert np.allclose(grid.density(e3), np.sin(th1), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("name", bi.METRIC_IDS + ("randers-base",))
    def test_matches_shuffle_expansion(self, name, randers_base):
        s = randers_base if name == "randers-base" else bi.get_metric(name)
        grid = small_grid(s, base=8, fiber=8)
        arrays = grid.axis_arrays()
        ref = np.broadcast_to(shuffle_density(s, arrays[: s.dim], arrays[s.dim :]), grid.shape)
        assert np.max(np.abs(grid.density(s) / ref - 1.0)) < 1e-14
        rng = np.random.default_rng(3)
        for z in bi.random_chart_points(rng, s, 4):
            theta = rng.uniform(0.2, 2.9, s.dim - 1)
            want = shuffle_density(s, z.x.tolist(), theta.tolist())
            assert volume_density(s, z.x, theta).raw == pytest.approx(want, rel=1e-14)

    def test_raw_density_positive_in_the_standard_orientation(self, randers):
        for th in (0.7, 2.5, 5.0):
            vd = volume_density(randers, [0.5, 0.1], [th])
            assert vd.raw > 0.0 and vd.value == vd.raw

    def test_positive_at_all_nodes(self, randers, quartic):
        for s in (randers, quartic):
            grid = small_grid(s)
            assert np.all(grid.density(s) > 0.0)

    def test_density_is_stored_at_its_own_shape(self, monkeypatch):
        """On an x-independent metric the density is fiber-shaped, and the SM
        volume and a p = 1 adjointness defect equal, bit for bit, those taken
        with the density broadcast to the full grid shape."""
        s = bi.get_metric("randers-torus-3d")
        grid = QuadratureGrid.for_structure(s, (8, 8, 8), (16, 8))
        rng = np.random.default_rng(6)
        phi, psi = (bi.random_trig_form(rng, s, p) for p in (1, 2))
        density = grid.density(s)
        assert density.shape == (1, 1, 1, 16, 8)
        got = [integrate_scalar(s, 1.0, grid), adjointness_defect(s, phi, psi, grid)]
        monkeypatch.setattr(grid, "density", lambda _: np.broadcast_to(density, grid.shape))
        want = [integrate_scalar(s, 1.0, grid), adjointness_defect(s, phi, psi, grid)]
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_density_evaluates_no_f2_of_its_own(self, randers_base, monkeypatch):
        """The density reads the fiber samples u(theta) and F(x, u) that the
        grid's coordinates were made of."""
        grid = small_grid(randers_base)
        grid.tower(randers_base).g
        f2 = randers_base.f2
        calls = []
        monkeypatch.setattr(randers_base, "f2", lambda xs, ys: calls.append(1) or f2(xs, ys))
        assert np.all(grid.density(randers_base) > 0.0)
        assert calls == []

    def test_vanishing_density_is_a_grid_error(self, euclidean, monkeypatch):
        """A raw density that is 0 at one node is refused."""
        grid = QuadratureGrid.for_structure(euclidean, (8, 8), (8,))
        raw_density = quadrature._raw_density

        def zero_at_one_node(*args):
            raw = np.array(np.broadcast_to(raw_density(*args), grid.shape))
            raw[3, 4, 5] = 0.0
            return raw

        monkeypatch.setattr(quadrature, "_raw_density", zero_at_one_node)
        with pytest.raises(GridError, match="volume density vanishes"):
            grid.density(euclidean)

    def test_pole_singularity(self):
        e3 = bi.get_metric("euclidean-3d")
        with pytest.raises(PoleSingularity):
            volume_density(e3, [0.1, 0.2, 0.3], [1e-9, 0.4])
        with pytest.raises(PoleSingularity):  # every polar angle, not only the first
            volume_density(FinslerStructure.euclidean(4), [0.1] * 4, [1.0, math.pi - 1e-9, 0.4])

    @pytest.mark.parametrize("name, x, theta", [
        ("euclidean", [0.5, 0.1], [0.3, 5.0]),
        ("euclidean-3d", [0.1, 0.2, 0.3], [0.3]),
    ])
    def test_wrong_number_of_angles(self, name, x, theta):
        with pytest.raises(DomainError, match="fiber angles"):
            volume_density(bi.get_metric(name), x, theta)


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


# metric, base and fiber counts of the settings the inner-product routes are
# pinned on: minors that span all nodes, vary over the base alone, and vary
# over the fiber alone
ROUTE_SETTINGS = {
    "base-dependent-randers": (lambda: base_dependent_randers(2), (16, 16), (24,)),
    "riemannian-torus": (lambda: bi.get_metric("riemannian-torus"), (16, 16), (24,)),
    "randers-torus-3d": (lambda: bi.get_metric("randers-torus-3d"), (8, 8, 8), (16, 8)),
}


def y_weighted(phi):
    """phi times 2 + y^1: a form that varies along the fiber on every metric."""
    return HorizontalForm(
        phi.degree,
        lambda xs, ys: tree_map(lambda v: v * (2.0 + ys[0]), phi.coeffs(xs, ys)),
        label=f"y-weighted({phi.label})",
    )


class TestInnerProductRoutes:
    """global_inner_product meets w * rho by the shapes of its factors; each
    route agrees with the integral of the pointwise inner product."""

    @pytest.fixture(scope="class", params=list(ROUTE_SETTINGS))
    def setting(self, request):
        make, base, fiber = ROUTE_SETTINGS[request.param]
        s = make()
        return s, QuadratureGrid.for_structure(s, base, fiber)

    @staticmethod
    def routes_taken(monkeypatch, s, grid):
        """The routes a call takes: 1 where it reads a fiber marginal, 2 where
        it reduces a factor times w * rho over the fiber."""
        taken, wr = set(), grid.weighted_density(s)
        marginal, fiber_sum = QuadratureGrid.fiber_marginal, quadrature._fiber_sum

        def spy_marginal(self, *args):
            taken.add(1)
            return marginal(self, *args)

        def spy_fiber_sum(W, *args):
            if W is not wr:
                taken.add(2)
            return fiber_sum(W, *args)

        monkeypatch.setattr(QuadratureGrid, "fiber_marginal", spy_marginal)
        monkeypatch.setattr(quadrature, "_fiber_sum", spy_fiber_sum)
        return taken

    @staticmethod
    def assert_matches_pointwise(s, grid, phi, psi):
        tower = grid.tower(s)
        inner = inner_coeffs(tower, phi.on(tower), psi.on(tower), phi.degree)
        want = integrate_scalar(s, inner, grid)
        got = global_inner_product(s, phi, psi, grid)
        assert abs(got - want) <= 1e-14 * abs(want), (phi.label, psi.label, got, want)

    def test_every_degree_and_route(self, setting, monkeypatch):
        """Two forms of x alone take route 1, one of x alone against one that
        varies along the fiber route 2, two that vary route 3 (neither)."""
        s, grid = setting
        rng = np.random.default_rng(8)
        for p in range(s.dim + 1):
            phi, chi, omega = (bi.random_trig_form(rng, s, p) for _ in range(3))
            varying, other = y_weighted(omega), y_weighted(chi)
            cases = {
                (phi, chi): {1},
                (phi, phi): {1},
                (phi, varying): {2},
                (varying, chi): {2},
                (varying, other): set(),
                (varying, varying): set(),
            }
            for (a, b), routes in cases.items():
                taken = self.routes_taken(monkeypatch, s, grid)
                self.assert_matches_pointwise(s, grid, a, b)
                assert taken == routes, (p, a.label, b.label)
                monkeypatch.undo()

    def test_operators_that_depend_on_y(self, setting):
        """delta_H and the expanded Laplacian of forms of x alone vary along
        the fiber where g^ij does, against forms of x alone and each other."""
        s, grid = setting
        rng = np.random.default_rng(11)
        for p in range(s.dim + 1):
            phi = bi.random_trig_form(rng, s, p)
            if p < s.dim:
                ops = [horizontal_codifferential(s, bi.random_trig_form(rng, s, p + 1))
                       for _ in range(2)]
            else:
                ops = [laplacian_expansion(s, phi), laplacian_expansion(s, y_weighted(phi))]
            for a, b in ((phi, ops[0]), (ops[1], phi), (ops[0], ops[1]), (ops[0], ops[0])):
                self.assert_matches_pointwise(s, grid, a, b)

    def test_constant_one_axis_and_structural_zero_factors(self, setting):
        """dx1 has the float leaves 1.0 and the structural zero 0.0;
        sin-x1-dx1 reads one axis; a form whose every component is the
        structural zero adds no term."""
        s, grid = setting
        rng = np.random.default_rng(9)
        dx1, sin1 = bi.get_form("dx1", s), bi.get_form("sin-x1-dx1", s)
        trig = bi.random_trig_form(rng, s, 1)
        varying = y_weighted(bi.random_trig_form(rng, s, 1))
        for a, b in ((dx1, dx1), (sin1, sin1), (dx1, trig), (sin1, trig),
                     (dx1, varying), (varying, sin1)):
            self.assert_matches_pointwise(s, grid, a, b)
        zero = HorizontalForm(1, lambda xs, ys: [0.0] * s.dim)
        assert global_inner_product(s, zero, varying, grid) == 0.0

    def test_forms_of_x_alone_allocate_no_node_array(self):
        """On a warm 3D grid the norm of a seeded trig 1-form or 2-form is
        base-sized work against the cached fiber marginals: its allocations
        peak below one array over the 65,536 nodes."""
        s = bi.get_metric("randers-torus-3d")
        grid = QuadratureGrid.for_structure(s, (8, 8, 8), (16, 8))
        rng = np.random.default_rng(10)
        forms = [bi.random_trig_form(rng, s, p) for p in (1, 2)]
        for phi in forms:
            form_grid_norm(s, phi, grid)
        tracemalloc.start()
        try:
            for phi in forms:
                form_grid_norm(s, phi, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid.num_nodes * 8


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

    def test_warns_on_bounded_chart(self, sphere, randers):
        """Integration by parts holds only up to boundary flux on the sphere
        chart, which has a non-periodic axis; the torus chart has none."""
        phi, psi = bi.get_form("sin-x1", sphere), bi.get_form("dx1", sphere)
        with pytest.warns(UserWarning, match="boundary flux"):
            adjointness_defect(sphere, phi, psi, small_grid(sphere))
        phi, psi = bi.get_form("sin-x1", randers), bi.get_form("dx1", randers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            adjointness_defect(randers, phi, psi, small_grid(randers))


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

    def test_integrated_identity_on_a_base_dependent_metric(self, randers_base, rng):
        """sum = ||d_H X_flat||^2 + ||delta_H X_flat||^2 - int (X^j (nabla_0 T)_j) delta_H X_flat.

        On this metric nabla_0 T does not vanish, and the last term is a few
        percent of the sum, so it is asserted to matter.
        """
        s = randers_base
        grid = QuadratureGrid.for_structure(s, (16, 16), (24,))
        X = bi.random_trig_vector(rng, s)
        res = bochner_integral(s, X, grid)
        flat = lowered_form(s, X)
        d_flat = horizontal_differential(s, flat)
        delta_flat = horizontal_codifferential(s, flat)
        tower = grid.tower(s)
        Xv = X.components(*grid.coords_for(s))
        XT = sum(Xv[j] * tower.nabla0T[j] for j in range(s.dim))
        cross = integrate_scalar(s, XT * deltaH_coeffs(tower, flat), grid)
        rhs = (
            global_inner_product(s, d_flat, d_flat, grid)
            + global_inner_product(s, delta_flat, delta_flat, grid)
            - cross
        )
        assert res["sum"] == pytest.approx(rhs, rel=1e-9)
        assert abs(cross) > 1e-2 * abs(rhs)



class TestFormsOnGridTower:
    """Operator-built forms evaluate on the grid's cached tower."""

    @pytest.fixture(scope="class")
    def setting(self, randers_base):
        s = randers_base
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
            fresh = form_grid_norm(s, HorizontalForm(form.degree, lambda xs, ys: vals), grid)
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



# grid inputs that are refused, as calls on the 2D euclidean metric and a grid
# of it, each with its error and the words of its message
REFUSED_GRID_INPUTS = {
    "axis-hi-not-above-lo": (lambda s, grid: AxisSpec(1.0, 1.0, True, 8), GridError, "empty axis"),
    "base-counts-of-the-wrong-length": (
        lambda s, grid: QuadratureGrid.for_structure(s, (8, 8, 8), (8,)),
        GridError,
        "one base node count per chart axis",
    ),
    "dimension-without-default-grid": (
        lambda s, grid: QuadratureGrid.for_structure(FinslerStructure.euclidean(4)),
        GridError,
        "default grids exist for n in",
    ),
    "divergence-of-a-2-form": (
        lambda s, grid: divergence_integral_check(s, bi.get_form("area", s), grid),
        GridError,
        "expects a 1-form",
    ),
    "adjointness-degrees-not-one-apart": (
        lambda s, grid: adjointness_defect(s, bi.get_form("dx1", s), bi.get_form("dx2", s), grid),
        DegreeMismatch,
        "degree one higher",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSED_GRID_INPUTS.values(), ids=REFUSED_GRID_INPUTS)
def test_refused_grid_input(euclidean, call, error, message):
    grid = QuadratureGrid.for_structure(euclidean, (8, 8), (8,))
    with pytest.raises(error, match=message):
        call(euclidean, grid)
