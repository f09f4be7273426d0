import itertools
import math
import weakref

import numpy as np
import pytest

from finslerforms import builtins as bi
from finslerforms import connection
from finslerforms.connection import (
    LocalTower,
    TensorField,
    _collapse_zeros,
    cov_h,
    cov_hh,
    delta_derivative,
    h_covariant_derivative,
    is_structural_zero,
    nabla_0,
    nested_build,
    pack,
    sum_products,
    sum_terms,
    tget,
    tower_at,
    v_covariant_derivative,
)
from finslerforms.curvature import (
    hh_components,
    hv_components,
    ricci_identity_residual,
    vv_components,
)
from finslerforms.forms import (
    energy_identity_residuals,
    horizontal_laplacian,
    laplacian_expansion,
    laplacian_expansion_coeffs,
)
from finslerforms.jets import (
    Jet, JetRequest, _new_tag, fd_partial, grad_wrt, grad_x, grad_xy, grad_y, gsin, gsqrt,
    list_value_grad, partial,
)
from finslerforms.errors import DomainError, ZeroVector
from finslerforms.metric import metric_components
from finslerforms.quadrature import QuadratureGrid
from finslerforms.scenario import POINT_READERS

from conftest import (
    ROOTS,
    base_dependent_randers,
    base_dependent_randers_fields,
    counted_root,
    custom_twin,
    randers_base_fields,
    randers_spray,
    sample_points,
)

FAMILIES = ["euclidean", "randers-torus", "riemannian-torus", "riemannian-sphere", "quartic-torus"]


def sphere_christoffel(theta):
    """Closed-form round-sphere symbols in the (theta, phi) chart."""
    G = np.zeros((2, 2, 2))
    G[0, 1, 1] = -math.sin(theta) * math.cos(theta)
    G[1, 0, 1] = G[1, 1, 0] = math.cos(theta) / math.sin(theta)
    return G


class TestSpray:
    def test_flat_families_have_zero_spray(self, euclidean, randers):
        for s in (euclidean, randers):
            for z in sample_points(s, 5):
                assert np.max(np.abs(pack(tower_at(s, (z.x, z.y)).G, 1))) < 1e-12

    def test_sphere_spray_matches_christoffel(self, sphere):
        for z in sample_points(sphere, 5):
            G = pack(tower_at(sphere, (z.x, z.y)).G, 1)
            Gam = sphere_christoffel(z.x[0])
            expected = 0.5 * np.einsum("ijk,j,k->i", Gam, z.y, z.y)
            assert np.max(np.abs(G - expected)) < 1e-8

    def test_spray_two_homogeneous(self, sphere, quartic):
        for s in (sphere, quartic):
            for z in sample_points(s, 5):
                G1 = pack(tower_at(s, (z.x, z.y)).G, 1)
                G2 = pack(tower_at(s, (z.x, 2.0 * z.y)).G, 1)
                assert np.max(np.abs(G2 - 4.0 * G1)) < 1e-10 * (1 + np.max(np.abs(G2)))

    def test_nonlinear_connection_euler(self, sphere):
        for z in sample_points(sphere, 5):
            tower = tower_at(sphere, (z.x, z.y))
            N, G = pack(tower.N, 2), pack(tower.G, 1)
            assert np.max(np.abs(N @ z.y - 2.0 * G)) < 1e-10

    def test_nonlinear_connection_fd_oracle(self, sphere):
        z = sample_points(sphere, 1)[0]
        N = pack(tower_at(sphere, (z.x, z.y)).N, 2)

        def G0(xs, ys):
            from finslerforms.connection import LocalTower

            return LocalTower(sphere, xs, ys).G[0]

        for j in range(2):
            orders = [0, 0]
            orders[j] = 1
            fd = fd_partial(JetRequest(G0, (list(z.x), list(z.y)), ((0, 0), tuple(orders))))
            assert abs(N[0, j] - fd) < 1e-6

    def test_spray_and_connection_match_a_sympy_oracle(self, randers_base):
        """G^i = 1/4 g^il (d_xk d_yl F^2 y^k - d_xl F^2) and N^i_j = d_yj G^i,
        differentiated by sympy from the formulas of the base-dependent 2D
        Randers metric and evaluated at 40 digits.  With r_l the bracket,
        d_yj G = g^-1 (1/4 d_yj r - d_yj g G), so no inverse is symbolic."""
        sp = pytest.importorskip("sympy")
        mpmath = pytest.importorskip("mpmath")
        x, y = sp.symbols("x0 x1"), sp.symbols("y0 y1")
        a, b = randers_base_fields(sp.cos, sp.sin)
        A, B = a(x), b(x)
        F = sp.sqrt(sum(A[i][j] * y[i] * y[j] for i in range(2) for j in range(2)))
        F2 = (F + sum(B[i] * y[i] for i in range(2))) ** 2
        g = [[sp.diff(F2, yi, yj) / 2 for yj in y] for yi in y]
        r = [sum(sp.diff(F2, xk, yl) * yk for xk, yk in zip(x, y)) - sp.diff(F2, xl)
             for xl, yl in zip(x, y)]
        dg = [[[sp.diff(e, yj) for e in row] for row in g] for yj in y]
        dr = [[sp.diff(e, yj) for e in r] for yj in y]
        oracle = sp.lambdify((x, y), (g, r, dg, dr), modules="mpmath")
        with mpmath.workdps(40):
            for z in sample_points(randers_base, 3):
                gv, rv, dgv, drv = oracle([mpmath.mpf(v) for v in z.x], [mpmath.mpf(v) for v in z.y])
                gm = mpmath.matrix(gv)
                G = mpmath.lu_solve(gm, mpmath.matrix(rv) / 4)
                N = mpmath.matrix(2, 2)
                for j in range(2):
                    col = mpmath.lu_solve(gm, mpmath.matrix(drv[j]) / 4 - mpmath.matrix(dgv[j]) * G)
                    for i in range(2):
                        N[i, j] = col[i]
                tower = tower_at(randers_base, (z.x, z.y))
                for got, want in ((pack(tower.G, 1), G), (pack(tower.N, 2), N)):
                    want = np.array(want.tolist(), dtype=float).reshape(got.shape)
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestRandersClosedForm:
    """G, N and the Riemann curvature R^i_k = flag[i][k][j] y^j of the
    base-dependent Randers metrics against the closed-form spray of
    F = alpha + beta (:func:`conftest.randers_spray`), which reads a, b and
    their first x partials alone: no F^2, no g and no Christoffel rule on g."""

    REL_TOL = 1e-13  # times the largest |entry| of the tower's tensor

    @pytest.fixture(scope="class", params=[2, 3, 4])
    def case(self, request):
        """(metric, closed-form spray G(xs, ys), towers at 4 seeded points)."""
        n = request.param
        s = base_dependent_randers(n)
        a, b = base_dependent_randers_fields(n)
        spray = lambda xs, ys: randers_spray(a, b, xs, ys)
        points = sample_points(s, 4, seed=41)
        return s, spray, [LocalTower(s, list(z.x), list(z.y)) for z in points]

    def assert_close(self, got, want):
        got, want = np.asarray(got, float), np.asarray(want, float)
        assert np.max(np.abs(got - want)) <= self.REL_TOL * np.max(np.abs(want))

    def test_spray(self, case):
        _, spray, towers = case
        for tower in towers:
            self.assert_close(spray(tower.xs, tower.ys), pack(tower.G, 1))

    def test_nonlinear_connection_is_the_y_partial_of_the_spray(self, case):
        _, spray, towers = case
        for tower in towers:
            dG = grad_y(spray, tower.xs, tower.ys)  # dG[k][i] = d_yk G^i
            self.assert_close(np.asarray(dG, float).T, pack(tower.N, 2))

    def test_riemann_curvature_by_the_berwald_formula(self, case):
        """R^i_k = 2 d_k G^i - y^j d_j d_yk G^i + 2 G^j d_yj d_yk G^i
        - d_yj G^i d_yk G^j (Shen, Lectures on Finsler Geometry (2001), ch. 6)."""
        _, spray, towers = case
        for tower in towers:
            xs, ys = tower.xs, tower.ys
            G = np.asarray(spray(xs, ys), float)
            Gx = np.asarray(grad_x(spray, xs, ys), float)  # [k][i]
            Gy = np.asarray(grad_y(spray, xs, ys), float)  # [k][i]
            Gxy = np.asarray(grad_x(lambda a, b: grad_y(spray, a, b), xs, ys), float)  # [j][k][i]
            Gyy = np.asarray(grad_y(lambda a, b: grad_y(spray, a, b), xs, ys), float)  # [j][k][i]
            y = np.asarray(ys, float)
            R = (
                2.0 * Gx.T
                - np.einsum("j,jki->ik", y, Gxy)
                + 2.0 * np.einsum("j,jki->ik", G, Gyy)
                - np.einsum("ji,kj->ik", Gy, Gy)
            )
            self.assert_close(R, np.einsum("ikj,j->ik", pack(tower.flag, 3), y))

    @pytest.mark.parametrize("n, base, fiber", [(2, (16, 16), (24,)), (3, (8, 8, 8), (16, 8))])
    def test_spray_and_nonlinear_connection_on_a_grid(self, n, base, fiber):
        """G and N of a grid tower, whose gamma y is node arrays, against the
        closed form on every node; N as the closed form's y partial."""
        s = base_dependent_randers(n)
        a, b = base_dependent_randers_fields(n)
        spray = lambda xs, ys: randers_spray(a, b, xs, ys)
        tower = QuadratureGrid.for_structure(s, base, fiber).tower(s)
        self.assert_close(pack(spray(tower.xs, tower.ys), 1), pack(tower.G, 1))
        dG = pack(grad_wrt(spray, (tower.xs, tower.ys), 1), 2)  # dG[k][i] = d_yk G^i
        self.assert_close(np.swapaxes(dG, 0, 1), pack(tower.N, 2))


class TestSumProducts:
    """``sum_products(plus, minus, n, ndim)`` against the streamed sum: the
    products of ``plus`` summed, minus those of ``minus``, with the pairs
    that hold a structural zero left out.  On node arrays of 3 base and 2
    fiber axes, as on an 8,8,8x16,8 grid."""

    N, NDIM = 3, 5
    REL_TOL = 1e-14  # times the largest |entry| of the streamed sum

    @staticmethod
    def streamed(plus, minus):
        zero = is_structural_zero
        terms = lambda pairs: sum_terms(u * v for u, v in pairs if not (zero(u) or zero(v)))
        acc, sub = terms(plus), terms(minus)
        return acc if zero(sub) else acc - sub

    @staticmethod
    def arrays(rng, *shapes):
        return [rng.standard_normal(shape) for shape in shapes]

    def assert_close(self, got, want):
        assert np.shape(got) == np.shape(want)
        assert np.max(np.abs(got - want)) <= self.REL_TOL * np.max(np.abs(want))

    def assert_same_bits(self, got, want):
        assert type(got) is type(want)
        if isinstance(want, Jet):
            assert got.tag == want.tag
            for a, b in zip(got.coeffs, want.coeffs):
                self.assert_same_bits(a, b)
        else:
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_base_factors_of_different_shapes(self, outer_sums):
        rng = np.random.default_rng(90)
        b1, b2, b3 = self.arrays(rng, (8, 1, 1, 1, 1), (8, 8, 8, 1, 1), (1, 8, 1, 1, 1))
        f1, f2, f3 = self.arrays(rng, (1, 1, 1, 16, 8), (1, 1, 1, 1, 8), (1, 1, 1, 16, 1))
        plus, minus = [(b1, f1), (f2, b2), (b3, f3)], [(f1, b2), (b1, f3)]
        got = sum_products(plus, minus, self.N, self.NDIM)
        assert outer_sums == [5]
        assert got.shape == (8, 8, 8, 16, 8)
        self.assert_close(got, self.streamed(plus, minus))

    def test_leaves_without_their_leading_unit_axes(self, outer_sums):
        """Leaves as jets._split leaves them: a fiber factor (16, 8) or (8,)
        and a base factor of the second axis (8, 1, 1, 1) are aligned right."""
        rng = np.random.default_rng(91)
        fa, fb, b1, b2 = self.arrays(rng, (16, 8), (8,), (8, 1, 1, 1), (8, 8, 1, 1))
        plus, minus = [(b1, fa), (fb, b2)], [(fa, b2)]
        got = sum_products(plus, minus, self.N, self.NDIM)
        assert outer_sums == [3]
        assert got.shape == (1, 8, 8, 16, 8)  # on the grid's axes
        self.assert_close(got[0], self.streamed(plus, minus))

    def test_pairs_that_do_not_separate_are_streamed(self, outer_sums):
        """A node-array factor, a float or a structural zero: no matrix
        product, and the streamed sum bit for bit; beside separable pairs,
        the same sum to rounding, with the separable pairs in one product."""
        rng = np.random.default_rng(92)
        full, b, f = self.arrays(rng, (8, 8, 8, 16, 8), (8, 8, 8, 1, 1), (1, 1, 1, 16, 8))
        rest_plus = [(full, b), (0.5, f), (2.0, 3.0), (full, 0.0)]
        rest_minus = [(f, full), (b, 0.25), (0.0, b)]
        got = sum_products(rest_plus, rest_minus, self.N, self.NDIM)
        assert outer_sums == []
        self.assert_same_bits(got, self.streamed(rest_plus, rest_minus))
        plus, minus = rest_plus + [(b, f), (f, b)], [(b, f)] + rest_minus
        got = sum_products(plus, minus, self.N, self.NDIM)
        assert outer_sums == [3]
        self.assert_close(got, self.streamed(plus, minus))

    def test_empty_group_is_the_structural_zero(self, outer_sums):
        rng = np.random.default_rng(93)
        b, f = self.arrays(rng, (8, 8, 8, 1, 1), (1, 1, 1, 16, 8))
        for plus, minus in (([], []), ([(b, 0.0)], [(0.0, f)])):
            got = sum_products(plus, minus, self.N, self.NDIM)
            assert type(got) is float and got == 0.0
        assert outer_sums == []
        self.assert_close(sum_products([], [(b, f)], self.N, self.NDIM), -(b * f))
        self.assert_close(sum_products([(f, b)], [], self.N, self.NDIM), f * b)

    def test_batches_and_jets_fall_back(self, outer_sums):
        """A (B,) batch has no fiber axis, and a jet is no array: each sum
        is the streamed one bit for bit, with no matrix product."""
        rng = np.random.default_rng(94)
        u, v, w = self.arrays(rng, (12,), (12,), (12,))
        b, f = self.arrays(rng, (8, 8, 8, 1, 1), (1, 1, 1, 16, 8))
        tag = _new_tag()
        jb, jf = Jet([b, 2.0 * b], tag), Jet([f, f * f], tag)
        cases = [
            (2, 1, [(u, v), (v, w)], [(w, u)]),
            (self.N, self.NDIM, [(jb, f), (b, jf)], [(jb, jf)]),
        ]
        for n, ndim, plus, minus in cases:
            self.assert_same_bits(sum_products(plus, minus, n, ndim), self.streamed(plus, minus))
        assert outer_sums == []


class TestCachedLayers:
    """A tower caches a layer only when more than one computation reads it."""

    def test_gamma_y_is_computed_once_for_G_and_N(self, monkeypatch):
        s = base_dependent_randers(2)
        z = sample_points(s, 1)[0]
        tower = LocalTower(s, list(z.x), list(z.y))
        calls, christoffel = [], connection._christoffel

        def counted(*args):
            calls.append(1)
            return christoffel(*args)

        monkeypatch.setattr(connection, "_christoffel", counted)
        tower.G, tower.N, tower.Gamma
        assert len(calls) == 2

    @pytest.mark.parametrize("first", ["G", "N"])
    def test_gamma_y_is_dropped_once_G_and_N_are_read(self, first):
        """N reads G, so once N is cached neither reader needs gamma^i_jk y^k."""
        s = base_dependent_randers(2)
        z = sample_points(s, 1)[0]
        tower = LocalTower(s, list(z.x), list(z.y))
        getattr(tower, first)
        tower.G, tower.N
        assert {"G", "N"} <= set(vars(tower))
        assert "_gamma_y" not in vars(tower)

    def test_layers_with_one_reader_are_not_kept(self, randers_base):
        z = sample_points(randers_base, 1)[0]
        tower = LocalTower(randers_base, list(z.x), list(z.y))
        tower.F, tower.Gamma, tower.flag, tower.nabla0T
        assert not {"f2", "deltag", "deltaN", "nabla_h_T"} & set(vars(tower))


class TestDeltaDerivative:
    def test_flat_torus_reduces_to_partial(self, randers):
        z = sample_points(randers, 1)[0]
        d = delta_derivative(tower_at(randers, (z.x, z.y)), lambda xs, ys: gsin(xs[0]), 0)
        assert abs(d - math.cos(z.x[0])) < 1e-12

    def test_norm_is_horizontally_constant(self):
        for name in FAMILIES:
            s = bi.get_metric(name)
            for z in sample_points(s, 3):
                for axis in range(s.dim):
                    tower = tower_at(s, (z.x, z.y))
                    d = delta_derivative(tower, lambda xs, ys: gsqrt(s.f2(xs, ys)), axis)
                    assert abs(d) < 1e-9, name


class TestCartanCoefficients:
    def test_sphere_christoffel_closed_form(self, sphere):
        th = math.pi / 3
        tower = tower_at(sphere, ([th, 0.4], [0.3, 0.9]))
        Gamma = pack(tower.Gamma, 3)
        assert Gamma[0, 1, 1] == pytest.approx(-math.sqrt(3.0) / 4.0, abs=1e-10)
        assert np.max(np.abs(Gamma - sphere_christoffel(th))) < 1e-8
        assert np.max(np.abs(pack(tower.Cmix, 3))) < 1e-10

    def test_constant_randers_is_locally_minkowski(self, randers):
        for z in sample_points(randers, 5):
            tower = tower_at(randers, (z.x, z.y))
            Cv = pack(tower.Cmix, 3)
            assert np.max(np.abs(pack(tower.Gamma, 3))) < 1e-12
            assert np.max(np.abs(pack(tower.N, 2))) < 1e-12
            Cy = np.einsum("ijk,j->ik", Cv, z.y)
            assert np.max(np.abs(Cy)) < 1e-10
            assert np.max(np.abs(Cv)) > 1e-3

    def test_gamma_symmetric_lower_pair(self):
        rng_pts = 20
        for name in FAMILIES:
            s = bi.get_metric(name)
            for z in sample_points(s, rng_pts):
                Gamma = pack(tower_at(s, (z.x, z.y)).Gamma, 3)
                assert np.max(np.abs(Gamma - Gamma.transpose(0, 2, 1))) < 1e-10

    def test_n_equals_gamma_contraction(self):
        for name in FAMILIES:
            s = bi.get_metric(name)
            for z in sample_points(s, 10):
                tower = tower_at(s, (z.x, z.y))
                N, Gamma = pack(tower.N, 2), pack(tower.Gamma, 3)
                assert np.max(np.abs(N - np.einsum("ijk,k->ij", Gamma, z.y))) < 1e-8, name


class TestCovariantDerivatives:
    def test_metric_compatibility(self):
        for name in FAMILIES:
            s = bi.get_metric(name)
            gfield = TensorField(lambda xs, ys, s=s: metric_components(s, xs, ys), "ll")
            for z in sample_points(s, 5):
                tower = tower_at(s, (z.x, z.y))
                nh = h_covariant_derivative(tower, gfield).data
                nv = v_covariant_derivative(tower, gfield).data
                assert np.max(np.abs(nh)) < 1e-8, name
                assert np.max(np.abs(nv)) < 1e-8, name

    def test_kronecker_delta_is_parallel(self, sphere):
        delta = TensorField(lambda xs, ys: np.eye(2).tolist(), "ul")
        for z in sample_points(sphere, 3):
            nh = h_covariant_derivative(tower_at(sphere, (z.x, z.y)), delta).data
            assert np.max(np.abs(nh)) < 1e-12

    def test_flat_scalar_derivative_is_plain_partial(self, randers):
        from finslerforms.jets import gsin

        f = TensorField(lambda xs, ys: gsin(xs[0]), "")
        for z in sample_points(randers, 3):
            nh = h_covariant_derivative(tower_at(randers, (z.x, z.y)), f).data
            assert abs(nh[0] - math.cos(z.x[0])) < 1e-12
            assert abs(nh[1]) < 1e-12

    def test_leibniz_rule(self, sphere, rng):
        """Product rule for the covariant derivative of an outer product."""
        from finslerforms.jets import gcos, gsin

        a = lambda xs: [gsin(xs[0]), gcos(xs[1])]
        b = lambda xs: [gcos(xs[0] + xs[1]), 1.0]
        S = TensorField(lambda xs, ys: a(xs), "u")
        T = TensorField(lambda xs, ys: b(xs), "l")
        ST = TensorField(
            lambda xs, ys: [[ai * bj for bj in b(xs)] for ai in a(xs)], "ul"
        )
        for z in sample_points(sphere, 3):
            tower = tower_at(sphere, (z.x, z.y))
            nS, nT, nST = (h_covariant_derivative(tower, F).data for F in (S, T, ST))
            Sv = np.array(a(list(z.x)), float)
            Tv = np.array(b(list(z.x)), float)
            expected = np.einsum("ih,j->ijh", nS, Tv) + np.einsum("i,jh->ijh", Sv, nT)
            assert np.max(np.abs(nST - expected)) < 1e-7

    def test_vertical_derivative_riemannian_y_independent(self, riemannian_torus):
        from finslerforms.jets import gsin

        T = TensorField(lambda xs, ys: [gsin(xs[0]), 0.0], "l")
        for z in sample_points(riemannian_torus, 3):
            nv = v_covariant_derivative(tower_at(riemannian_torus, (z.x, z.y)), T).data
            assert np.max(np.abs(nv)) < 1e-12

    def test_vertical_derivative_fd_oracle(self, randers):
        """Vertical derivative of the Hilbert form against finite differences."""
        from finslerforms.metric import hilbert_components

        ellfield = TensorField(lambda xs, ys: hilbert_components(randers, xs, ys), "l")
        z = sample_points(randers, 1)[0]
        tower = tower_at(randers, (z.x, z.y))
        nv = v_covariant_derivative(tower, ellfield).data
        Cv = pack(tower.Cmix, 3)
        ell = randers.hilbert_form((z.x, z.y)).data
        for i in range(2):
            for h in range(2):
                orders = [0, 0]
                orders[h] = 1

                def comp(xs, ys, i=i):
                    return hilbert_components(randers, xs, ys)[i]

                fd = fd_partial(JetRequest(comp, (list(z.x), list(z.y)), ((0, 0), tuple(orders))))
                expected = fd - sum(ell[p] * Cv[p, i, h] for p in range(2))
                assert abs(nv[i, h] - expected) < 1e-6


def landsberg_curvature(s, tower):
    """L_ijk = -1/2 y_m d^3 G^m / dy^i dy^j dy^k, the Landsberg curvature of
    the spray at the tower's point (Bao-Chern-Shen 2000; Shen 2001).  This
    route reads only G, by jets.partial, and shares no code with delta_c,
    nabla, C or T."""
    n = s.dim
    point = (tower.xs, tower.ys)
    d3G = np.empty((n,) * 4)  # d3G[m, i, j, k]
    for m in range(n):
        G_m = lambda xs, ys, m=m: LocalTower(s, xs, ys).G[m]
        for idx in itertools.combinations_with_replacement(range(n), 3):
            orders = tuple(idx.count(i) for i in range(n))
            value = partial(JetRequest(G_m, point, ((0,) * n, orders)))
            for perm in itertools.permutations(idx):
                d3G[(m, *perm)] = value
    return -0.5 * np.einsum("m,mijk->ijk", pack(tower.y_lower, 1), d3G)


class TestNablaZero:
    def test_cartan_trace_parallel_on_constant_randers(self, randers):
        T = TensorField(lambda xs, ys: LocalTower(randers, xs, ys).Tt, "l")
        for z in sample_points(randers, 3):
            n0 = nabla_0(tower_at(randers, (z.x, z.y)), T).data
            assert np.max(np.abs(n0)) < 1e-12

    def test_metric_parallel_along_flow(self, sphere):
        gfield = TensorField(lambda xs, ys: metric_components(sphere, xs, ys), "ll")
        for z in sample_points(sphere, 3):
            n0 = nabla_0(tower_at(sphere, (z.x, z.y)), gfield).data
            assert np.max(np.abs(n0)) < 1e-8

    @pytest.mark.parametrize("dim", [2, 3])
    def test_nabla0T_is_the_mean_landsberg_curvature(self, dim):
        """T_k|0 = J_k = g^ij L_ijk, with L the Landsberg curvature of the
        spray (:func:`landsberg_curvature`)."""
        s = base_dependent_randers(dim)
        for z in sample_points(s, 2):
            tower = tower_at(s, (z.x, z.y))
            J = np.einsum("ij,ijk->k", pack(tower.gi, 2), landsberg_curvature(s, tower))
            assert np.max(np.abs(J)) > 1e-2
            assert np.max(np.abs(J - pack(tower.nabla0T, 1))) <= 1e-13 * np.max(np.abs(J))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_nabla0C_is_the_landsberg_curvature(self, dim):
        """C_ijk|0 = L_ijk: nabla_0 of the Cartan tensor, through delta_c and
        Gamma, equals the Landsberg curvature read off the spray alone."""
        s = base_dependent_randers(dim)
        C = TensorField(lambda xs, ys: LocalTower(s, xs, ys).C, "lll")
        for z in sample_points(s, 2):
            tower = tower_at(s, (z.x, z.y))
            L = landsberg_curvature(s, tower)
            assert np.max(np.abs(L)) > 1e-2
            assert np.max(np.abs(nabla_0(tower, C).data - L)) <= 1e-13 * np.max(np.abs(L))


class TestBaseDependentRanders:
    """Horizontal derivatives of the Cartan layers, which vanish on every
    built-in family, checked on a metric where they do not."""

    @pytest.mark.parametrize(
        "layer, source, operator, rank",
        [
            pytest.param("nabla0T", "Tt", nabla_0, 1, id="nabla0T-Tt"),
            pytest.param(
                "nabla_nabla0T", "nabla0T", h_covariant_derivative, 2, id="nabla_nabla0T-nabla0T"
            ),
        ],
    )
    def test_layer_is_covariant_derivative_of_its_one_form(
        self, randers_base, layer, source, operator, rank
    ):
        """nabla0T = nabla_0 T and nabla_nabla0T = nabla (nabla0T), each
        against ``operator`` of the 1-form on a cold tower."""
        s = randers_base
        one_form = TensorField(lambda xs, ys: getattr(LocalTower(s, xs, ys), source), "l")
        for z in sample_points(s, 2):
            tower = tower_at(s, (z.x, z.y))
            got = pack(getattr(tower, layer), rank).T  # derivative slot last, as in want
            cold = LocalTower(s, list(z.x), list(z.y))
            want = operator(cold, one_form).data
            assert np.max(np.abs(got)) > 1e-3
            assert np.max(np.abs(got - want)) < 1e-12

    def test_deltaCmix_fd_oracle(self, randers_base):
        s = randers_base
        z = sample_points(s, 1)[0]
        tower = tower_at(s, (z.x, z.y))
        point = (list(tower.xs), list(tower.ys))
        dC = pack(tower.deltaCmix, 4)  # [c][h][k][j]
        N = pack(tower.N, 2)
        assert np.max(np.abs(dC)) > 1e-3
        unit = ((1, 0), (0, 1))
        for h, k, j in itertools.product(range(2), repeat=3):

            def comp(xs, ys, h=h, k=k, j=j):
                return LocalTower(s, xs, ys).Cmix[h][k][j]

            dx = [fd_partial(JetRequest(comp, point, (e, (0, 0)))) for e in unit]
            dy = [fd_partial(JetRequest(comp, point, ((0, 0), e))) for e in unit]
            for c in range(2):
                expected = dx[c] - sum(N[m, c] * dy[m] for m in range(2))
                assert abs(dC[c, h, k, j] - expected) < 1e-6


# -- the parent's second covariant derivative, kept as a reference ------------------


def reference_cov_hh(tower, p2, variance):
    """nabla nabla T by the product rule on the 6-tuple (val, dx, dy, dxx, dxy,
    dyy) of ``TensorField.partials2``, reading dN and dGamma directly."""
    n = tower.n
    rank = len(variance)
    val, dx, dy, dxx, dxy, dyy = p2
    N, Gamma = tower.N, tower.Gamma
    dN_x, dN_y = tower.dN_x, tower.dN_y
    dG_x, dG_y = tower.dGamma_x, tower.dGamma_y
    W = cov_h(tower, val, dx, dy, variance)

    def dW_entry(kind, c, b, idx):
        # plain partial (x if kind == 0 else y, axis c) of (nabla_b T)_idx
        if kind == 0:
            acc = tget(dxx[c][b], idx)
            dN, dG, dT1 = dN_x, dG_x, dx
            for m in range(n):
                acc = acc - dN[c][m][b] * tget(dy[m], idx) - N[m][b] * tget(dxy[c][m], idx)
        else:
            acc = tget(dxy[b][c], idx)
            dN, dG, dT1 = dN_y, dG_y, dy
            for m in range(n):
                acc = acc - dN[c][m][b] * tget(dy[m], idx) - N[m][b] * tget(dyy[c][m], idx)
        for t, var in enumerate(variance):
            it = idx[t]
            for p in range(n):
                jdx = idx[:t] + (p,) + idx[t + 1 :]
                if var == "l":
                    acc = acc - tget(val, jdx) * dG[c][p][it][b] - tget(dT1[c], jdx) * Gamma[p][it][b]
                else:
                    acc = acc + tget(val, jdx) * dG[c][it][p][b] + tget(dT1[c], jdx) * Gamma[it][p][b]
        return acc

    dWx = [
        [nested_build(n, rank, lambda idx, c=c, b=b: dW_entry(0, c, b, idx)) for b in range(n)]
        for c in range(n)
    ]
    dWy = [
        [nested_build(n, rank, lambda idx, c=c, b=b: dW_entry(1, c, b, idx)) for b in range(n)]
        for c in range(n)
    ]
    return cov_h(tower, W, dWx, dWy, "l" + variance)


def trig_tensor_field(s, variance, seed):
    """Rank-len(variance) field with trigonometric x-dependence and a
    y-dependent part, so that every term of nabla nabla T is exercised."""
    n, rank = s.dim, len(variance)
    rng = np.random.default_rng(seed)
    fns = {idx: bi.random_trig_scalar(rng, n) for idx in itertools.product(range(n), repeat=rank)}

    def fn(xs, ys):
        weight = 1.0 + 0.3 * ys[0] * ys[-1]
        return nested_build(
            n, rank, lambda idx: fns[idx](xs) * weight + gsin(xs[0]) * ys[idx[-1]]
        )

    return TensorField(fn, variance)


class TestSecondCovariantDerivative:
    """cov_hh, the covariant derivative of nabla T read off seeded children,
    against the parent's product rule on second partials.

    nabla T comes back bit for bit as cov_h computes it at the tower, except
    on a batch of the closed-form Randers metric, where it is held to
    REL_TOL.  There the x pass of cov_hh takes the field's y partials at
    x-seeded coordinates, so ``jets.trig_sum`` appends the x rows and takes
    a matrix product of 3 rows where the tower's own y pass takes one of 1
    row, which BLAS rounds otherwise (gemm, not gemv).  For the rank-2 field
    those y partials differ from the tower's by an ulp in 10 of their 48
    node values on either route to g, and N times them rounds alike on the
    F^2 Hessian's N (the custom twin, kept bit for bit) but not on the
    closed form's, where 2 of the 48 node values of nabla T differ by one
    ulp."""

    REL_TOL = 1e-14  # times the largest |entry| of the reference

    @pytest.mark.parametrize("name", ["randers-base", "randers-base-custom", "randers-torus-3d"])
    @pytest.mark.parametrize("variance", ["u", "l", "ll"])
    @pytest.mark.parametrize("batch", [False, True])
    def test_matches_product_rule(self, name, variance, batch, randers_base):
        if name == "randers-base-custom":
            s = custom_twin(randers_base)
        else:
            s = randers_base if name == "randers-base" else bi.get_metric(name)
        T = trig_tensor_field(s, variance, seed=71)
        if batch:
            pts = sample_points(s, 6)
            towers = [
                LocalTower(
                    s, list(np.array([z.x for z in pts]).T), list(np.array([z.y for z in pts]).T)
                )
            ]
        else:
            towers = [LocalTower(s, list(z.x), list(z.y)) for z in sample_points(s, 3)]
        rank = len(variance)
        for tower in towers:
            p1, W, D = cov_hh(tower, lambda tw: T.components(tw.xs, tw.ys), variance)
            want = reference_cov_hh(tower, T.partials2(tower.xs, tower.ys), variance)
            want, got = pack(want, rank + 2), pack(D, rank + 2)
            scale = np.max(np.abs(want))
            assert scale > 1e-3
            assert np.max(np.abs(got - want)) <= self.REL_TOL * scale
            # the field and nabla T come back as computed at the tower, bit for bit
            val, dx, dy = T.partials(tower.xs, tower.ys)
            assert np.array_equal(pack(p1[0], rank), pack(val, rank))
            nab = pack(cov_h(tower, val, dx, dy, variance), rank + 1)
            if batch and name == "randers-base":
                assert np.max(np.abs(pack(W, rank + 1) - nab)) <= self.REL_TOL * np.max(np.abs(nab))
            else:
                assert np.array_equal(pack(W, rank + 1), nab)


class TestPack:
    def test_scalar_row_beside_array_rows(self):
        """A sub-list of plain floats broadcasts against node-array leaves."""
        arr = np.arange(4.0)
        got = pack([[0.0, 1.0], [arr, 2.0 * arr]], 2)
        assert got.shape == (2, 2, 4)
        assert np.array_equal(got[0, 0], np.zeros(4)) and np.array_equal(got[0, 1], np.ones(4))
        assert np.array_equal(got[1, 0], arr) and np.array_equal(got[1, 1], 2.0 * arr)

    def test_all_zero_rows_of_a_three_form(self):
        n = 3
        coeffs = [[[0.0] * n for _ in range(n)] for _ in range(n)]
        coeffs[0][1][2] = np.ones((2, 5))
        assert pack(coeffs, 3).shape == (3, 3, 3, 2, 5)


class TestOnePartialPerList:
    """A rebuilt layer caches one partial per coordinate list.  At a point
    the first read of either list splits both off the tower's one child and
    caches both, so the work does not depend on read order; on arrays each
    list is its own pass, made when it is first read."""

    PARTIALS = (("dT_x", "dT_y"), ("dN_x", "dN_y"), ("dGamma_x", "dGamma_y"),
                ("dCmix_x", "dCmix_y"), ("d_nabla0T_x", "d_nabla0T_y"))

    @pytest.mark.parametrize("root", ROOTS)
    @pytest.mark.parametrize("order", ["hh-hv-vv", "hv-hh-vv"])
    def test_root_evaluations_do_not_depend_on_block_order(
        self, order, root, randers_base, monkeypatch
    ):
        """3 evaluations of the family's g, and on the custom twin 3 of F^2,
        in either order of the curvature blocks."""
        s, calls = counted_root(randers_base, root, monkeypatch)
        blocks = {"hh": hh_components, "hv": hv_components, "vv": vv_components}
        z = sample_points(s, 1)[0]
        calls.clear()  # count from here: drawing the point evaluates F^2
        tower = tower_at(s, (z.x, z.y))
        for name in order.split("-"):
            blocks[name](tower)
        assert len(calls) == 3

    def test_one_read_caches_both_lists_at_a_point(self, randers_base):
        z = sample_points(randers_base, 1)[0]
        for x_name, y_name in self.PARTIALS:
            for first, other in ((x_name, y_name), (y_name, x_name)):
                tower = LocalTower(randers_base, list(z.x), list(z.y))
                getattr(tower, first)
                assert other in vars(tower), first

    def test_each_list_is_its_own_pass_on_arrays(self, randers_base):
        pts = sample_points(randers_base, 3, seed=24)
        xs, ys = (list(np.array([getattr(z, c) for z in pts]).T) for c in "xy")
        for x_name, y_name in self.PARTIALS:
            for first, other in ((x_name, y_name), (y_name, x_name)):
                tower = LocalTower(randers_base, xs, ys)
                getattr(tower, first)
                assert other not in vars(tower), first



def built_towers(monkeypatch):
    """The towers built by ``LocalTower.__init__`` from now on, in order."""
    built, init = [], LocalTower.__init__

    def recorded(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(LocalTower, "__init__", recorded)
    return built


class TestOneChildPerTower:
    """At a point a tower caches one child tower, at x and y seeded together,
    and splits C, dgx and every rebuilt partial off the matching layer of
    that child; its child does the same in turn.  An array tower keeps its
    per-coordinate rebuilt passes and caches no child."""

    PARTIALS = TestOnePartialPerList.PARTIALS
    LAYERS = {"dT": ("Tt", 1), "dN": ("N", 2), "dGamma": ("Gamma", 3), "dCmix": ("Cmix", 3),
              "d_nabla0T": ("nabla0T", 1)}

    def test_one_child_per_tower_level(self, randers_base, monkeypatch):
        """Four levels: the third reads C for its Tt, and splits it off a
        child of its own."""
        z = sample_points(randers_base, 1)[0]
        built = built_towers(monkeypatch)
        tower = tower_at(randers_base, (z.x, z.y))
        for kernel in (hh_components, hv_components, vv_components):
            kernel(tower)
        tower.nabla_nabla0T
        chain = [tower]
        while "_child" in vars(chain[-1]):
            chain.append(vars(chain[-1])["_child"][0])
        assert len(built) == len(chain) == 4
        assert all(a is b for a, b in zip(built, chain))

    @pytest.mark.parametrize("name", ["randers-base", "randers-base-3d", "randers-torus-3d",
                                      "randers-base-4d"])
    @pytest.mark.parametrize("first", [hh_components, hv_components], ids=["hh-first", "hv-first"])
    def test_partials_equal_the_rebuilt_routes(self, name, first, request):
        """C, dgx and both halves of every rebuilt partial equal, hex for hex,
        half the y pass of g, the x pass of g and the joint pass of
        :func:`jets.grad_xy` over a fresh rebuilt tower.  N, taken in closed
        form from g's first partials, equals the y pass of a rebuilt G within
        1e-14 of its largest entry."""
        s = (bi.get_metric(name) if name == "randers-torus-3d"
             else request.getfixturevalue(name.replace("-", "_")))
        for z in sample_points(s, 2, seed=5):
            tower = tower_at(s, (z.x, z.y))
            first(tower)
            xs, ys = tower.xs, tower.ys
            dG = pack(grad_y(lambda a, b: LocalTower(s, a, b).G, xs, ys), 2).T
            N = pack(tower.N, 2)
            assert np.max(np.abs(N - dG)) <= 1e-14 * np.max(np.abs(dG))
            want = {
                "C": (half_y_partial_of_g(s, xs, ys), 3),
                "dgx": (_collapse_zeros(grad_x(lambda a, b: metric_components(s, a, b), xs, ys)), 3),
            }
            for x_name, y_name in self.PARTIALS:
                layer, rank = self.LAYERS[x_name[:-2]]
                rebuilt = lambda a, b, layer=layer: getattr(LocalTower(s, a, b), layer)
                _, dx, dy = grad_xy(rebuilt, xs, ys)
                want[x_name] = (_collapse_zeros(dx), rank + 1)
                want[y_name] = (_collapse_zeros(dy), rank + 1)
            for key, (value, rank) in want.items():
                assert hexes(pack(getattr(tower, key), rank)) == hexes(pack(value, rank)), key

    def test_C_on_arrays_is_half_the_y_pass_of_g(self, randers_base):
        tower = QuadratureGrid.for_structure(randers_base, (8, 8), (16,)).tower(randers_base)
        want = half_y_partial_of_g(randers_base, tower.xs, tower.ys)
        assert hexes(pack(tower.C, 3)) == hexes(pack(want, 3))

    def test_no_child_on_arrays(self, randers_base, monkeypatch):
        """Guards peak memory: a child cached on a grid tower would keep its
        whole derivative tree alive as long as the grid."""
        tower = QuadratureGrid.for_structure(randers_base, (8, 8), (16,)).tower(randers_base)
        built = built_towers(monkeypatch)
        tower.N, tower.C, tower.dgx
        for pair in self.PARTIALS:
            for name in pair:
                getattr(tower, name)
        assert built and all("_child" not in vars(tw) for tw in [tower, *built])


class TestFloatsAtAPoint:
    """At a point every layer, and every partial split off the child tower,
    holds Python floats, not 0-d arrays or numpy scalars, so the arithmetic
    on them is float arithmetic."""

    LAYERS = ("g", "gi", "dgx", "C", "G", "N", "Gamma", "dN_x", "dN_y", "dGamma_x",
              "dGamma_y", "dCmix_x", "nabla0T", "d_nabla0T_y", "flag")

    @staticmethod
    def leaves(tree):
        if isinstance(tree, list):
            return [v for c in tree for v in TestFloatsAtAPoint.leaves(c)]
        return [tree]

    def test_layers_hold_floats(self):
        tower = tower_at(base_dependent_randers(2), ([0.3, 0.4], [1.0, 0.5]))
        for layer in self.LAYERS:
            types = {type(v) for v in self.leaves(getattr(tower, layer))}
            assert types == {float}, layer


def half_y_partial_of_g(s, xs, ys):
    """C_kij as half of the y pass of :func:`metric.metric_components`."""
    dg = grad_y(lambda a, b: metric_components(s, a, b), xs, ys)
    return nested_build(s.dim, 3, lambda idx: 0.5 * tget(dg, idx))


def per_list(fn, xs, ys):
    """``grad_xy`` as one seeded pass per coordinate list, the value read
    off a vector x pass of its own."""
    value = list_value_grad(fn, (xs, ys), 0)[0]
    return value, grad_wrt(fn, (xs, ys), 0), grad_wrt(fn, (xs, ys), 1)


def hexes(tree):
    return [float(v).hex() for v in np.ravel(np.asarray(tree, float))]


class TestJointSeeding:
    """Seeding x and y in one pass (``jets.grad_xy``) gives every tower
    layer, curvature block and operator output bit for bit as one pass per
    coordinate list does, at points and on an array batch, also when the hv
    block, a reader of y partials alone, is the first read of a fresh tower."""

    LAYERS = (("g", 2), ("C", 3), ("N", 2), ("Gamma", 3), ("flag", 3), ("nabla_nabla0T", 2))

    @classmethod
    def tower_outputs(cls, tower, s, seed, hv_first=False):
        out = {"hv-first": pack(hv_components(tower), 4)} if hv_first else {}
        out.update((layer, pack(getattr(tower, layer), rank)) for layer, rank in cls.LAYERS)
        for kernel in (hh_components, hv_components, vv_components):
            out[kernel.__name__] = pack(kernel(tower), 4)
        rng = np.random.default_rng(seed)
        X = bi.random_trig_vector(rng, s)
        out["nabla-nabla-X"] = pack(cov_hh(tower, lambda tw: X.components(tw.xs, tw.ys), "u")[2], 3)
        for p in range(s.dim + 1):
            phi = bi.random_trig_form(rng, s, p)
            out[f"composed-{p}"] = pack(horizontal_laplacian(s, phi).on(tower), p)
            out[f"expanded-{p}"] = pack(laplacian_expansion_coeffs(tower, phi), p)
        return out

    @staticmethod
    def cold(pt):
        """``pt``, with the kept point tower dropped, so that the next
        ``tower_at`` builds a cold tower and reads it in its own order."""
        connection._POINT_TOWER = None
        return pt

    @classmethod
    def point_outputs(cls, s, z, seed):
        pt = (z.x, z.y)
        out = cls.tower_outputs(tower_at(s, cls.cold(pt)), s, seed)
        rng = np.random.default_rng(seed + 1)
        X = bi.random_trig_vector(rng, s)
        out["ricci"] = ricci_identity_residual(tower_at(s, cls.cold(pt)), X).data
        out["energy"] = energy_identity_residuals(s, X, cls.cold(pt))
        for p in range(s.dim + 1):
            phi = bi.random_trig_form(rng, s, p)
            out[f"composed-{p}-at"] = horizontal_laplacian(s, phi).at(s, cls.cold(pt)).data
            out[f"expanded-{p}-at"] = laplacian_expansion(s, phi).at(s, cls.cold(pt)).data
        return out

    @staticmethod
    def assert_bit_identical(compute, monkeypatch):
        joint = compute()
        monkeypatch.setattr(connection, "grad_xy", per_list)
        connection._POINT_TOWER = None  # the per-list pass starts from cold towers
        lists = compute()
        assert joint.keys() == lists.keys()
        for key in joint:
            assert hexes(joint[key]) == hexes(lists[key]), key

    @pytest.mark.parametrize("dim", [2, 3])
    def test_at_points(self, dim, randers_base, randers_base_3d, monkeypatch):
        s = randers_base if dim == 2 else randers_base_3d
        points = sample_points(s, 3, seed=23)
        self.assert_bit_identical(
            lambda: {
                f"{k}:{key}": v
                for k, z in enumerate(points)
                for key, v in self.point_outputs(s, z, 30 + k).items()
            },
            monkeypatch,
        )

    @pytest.mark.parametrize("dim", [2, 3])
    def test_hv_first_at_points(self, dim, randers_base, randers_base_3d, monkeypatch):
        s = randers_base if dim == 2 else randers_base_3d
        points = sample_points(s, 3, seed=23)
        self.assert_bit_identical(
            lambda: {
                f"{k}:{key}": v
                for k, z in enumerate(points)
                for key, v in self.tower_outputs(
                    tower_at(s, (z.x, z.y)), s, 30 + k, hv_first=True
                ).items()
            },
            monkeypatch,
        )

    def test_on_an_array_batch(self, randers_base, monkeypatch):
        self.assert_batch_bit_identical(randers_base, monkeypatch, hv_first=False)

    def test_hv_first_on_an_array_batch(self, randers_base, monkeypatch):
        self.assert_batch_bit_identical(randers_base, monkeypatch, hv_first=True)

    def assert_batch_bit_identical(self, s, monkeypatch, hv_first):
        pts = sample_points(s, 3, seed=24)
        xs, ys = (list(np.array([getattr(z, c) for z in pts]).T) for c in "xy")
        self.assert_bit_identical(
            lambda: self.tower_outputs(LocalTower(s, xs, ys), s, 40, hv_first), monkeypatch
        )


class TestKeptPointTower:
    """``tower_at`` keeps the tower of the last point: a call with the same
    metric object at the same x and y, bit for bit, returns it with its
    layers computed, and any other call replaces it.  Every call validates
    its point, and a warm tower gives every block bit for bit as a cold one."""

    def test_same_point_returns_the_kept_tower(self, randers_base, monkeypatch):
        s = randers_base
        z = sample_points(s, 1)[0]
        tower = tower_at(s, (z.x, z.y))
        hh_components(tower)
        calls, f2 = [], s._f2
        monkeypatch.setattr(s, "_f2", lambda xs, ys: calls.append(1) or f2(xs, ys))
        built = built_towers(monkeypatch)
        again = tower_at(s, (list(z.x), tuple(z.y)))  # other containers, the same bits
        assert again is tower
        hh_components(again)
        assert calls == [] and built == []

    def test_new_point_metric_or_zero_sign_builds_a_new_tower(self):
        s, twin = base_dependent_randers(2), base_dependent_randers(2)
        x, y = [0.0, 0.2], [1.0, 0.0]
        others = {
            "point": (s, ([0.1, 0.2], y)),
            "metric": (twin, (x, y)),
            "x-zero-sign": (s, ([-0.0, 0.2], y)),
            "y-zero-sign": (s, (x, [1.0, -0.0])),
        }
        for name, (s2, z) in others.items():
            tower = tower_at(s, (x, y))
            assert tower_at(s, (x, y)) is tower, name
            new = tower_at(s2, z)
            assert new is not tower and new.s is s2, name
            assert tower_at(s2, z) is new, name
            got = [math.copysign(1.0, v) for v in new.xs + new.ys]
            assert got == [math.copysign(1.0, v) for v in z[0] + z[1]], name

    def test_replaced_tower_is_released(self, randers_base):
        z1, z2 = sample_points(randers_base, 2)
        tower = tower_at(randers_base, (z1.x, z1.y))
        hh_components(tower)
        ref = weakref.ref(tower)
        del tower
        assert ref() is not None
        tower_at(randers_base, (z2.x, z2.y))
        assert ref() is None

    def test_every_call_validates_its_point(self, randers_base, monkeypatch):
        s = randers_base
        z = sample_points(s, 1)[0]
        tower = tower_at(s, (z.x, z.y))
        with pytest.raises(ZeroVector):
            tower_at(s, (z.x, [0.0, 0.0]))
        with pytest.raises(DomainError, match="shape"):
            tower_at(s, (z.x, [*z.y, 1.0]))
        assert tower_at(s, (z.x, z.y)) is tower
        checked, coords = [], s._coords
        monkeypatch.setattr(s, "_coords", lambda pt: checked.append(1) or coords(pt))
        assert tower_at(s, (z.x, z.y)) is tower
        assert checked == [1]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_readers_in_sequence_equal_cold_towers(self, dim):
        s = base_dependent_randers(dim)
        z = sample_points(s, 1, seed=41)[0]
        readers = {f"{kind}:{which}": read for kind, table in POINT_READERS.items()
                   for which, read in table.items()}
        towers, warm = set(), {}
        for key, read in readers.items():
            tower = tower_at(s, (z.x, z.y))
            towers.add(id(tower))
            warm[key] = read(tower)
        assert len(towers) == 1
        for key, read in readers.items():
            cold = read(LocalTower(s, [float(v) for v in z.x], [float(v) for v in z.y]))
            assert hexes(warm[key]) == hexes(cold), key

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("order", [("composed", "expanded"), ("expanded", "composed")],
                             ids=["composed-first", "expanded-first"])
    def test_laplacians_at_one_point_equal_cold_towers(self, order, p, randers_base):
        s = randers_base
        z = sample_points(s, 1, seed=42)[0]
        phi = bi.random_trig_form(np.random.default_rng(42 + p), s, p)
        ops = {"composed": horizontal_laplacian(s, phi), "expanded": laplacian_expansion(s, phi)}
        warm = {name: ops[name].at(s, (z.x, z.y)).data for name in order}
        for name, op in ops.items():
            cold = op.on(LocalTower(s, [float(v) for v in z.x], [float(v) for v in z.y]))
            assert hexes(warm[name]) == hexes(pack(cold, p)), name
