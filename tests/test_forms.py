import functools
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from finslerforms import builtins as bi
from finslerforms import connection, forms
from finslerforms import jets
from finslerforms.connection import (
    LocalTower,
    TensorField,
    _collapse_zeros,
    _LiftedTower,
    cov_h,
    is_structural_zero,
    h_covariant_derivative,
    nested_build,
    pack,
    sum_terms,
    tget,
    tower_at,
    v_covariant_derivative,
)
from finslerforms.curvature import ricci_components
from finslerforms.errors import DegreeMismatch, DegreeOverflow, DegreeUnderflow, DomainError
from finslerforms.forms import (
    HorizontalForm,
    associate_one_form,
    bochner_scalar_at,
    dH_coeffs,
    deltaH_coeffs,
    energy_identity_residuals,
    horizontal_codifferential,
    horizontal_differential,
    horizontal_laplacian,
    inner_coeffs,
    laplacian_expansion,
    laplacian_expansion_coeffs,
    pointwise_inner,
    weitzenbock_residual,
)
from finslerforms.jets import gcos, gsin, grad_x, grad_y
from finslerforms.metric import hilbert_components
from finslerforms.quadrature import QuadratureGrid, bochner_integral, form_grid_norm, is_h_harmonic
from finslerforms.scenario import run_task

from conftest import ROOTS, base_dependent_randers, counted_root, sample_points


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

    @pytest.mark.parametrize("root", ROOTS)
    @pytest.mark.parametrize("laplacian", [horizontal_laplacian, laplacian_expansion])
    def test_root_evaluations_at_a_point(self, laplacian, root, randers_base, monkeypatch):
        """The composed and the expanded Laplacian of a 1-form at a point each
        take 4 evaluations of the family's g, and the custom twin's Hessian
        route 4 of F^2: every form or nabla phi is differentiated along x and
        y in one pass, every layer partial of a tower, C and dgx among them,
        is split off its one child tower, seeded along x and y in one pass,
        and the spray G and N are algebra over dgx and C."""
        s, calls = counted_root(randers_base, root, monkeypatch)
        phi = bi.random_trig_form(np.random.default_rng(0), s, 1)
        z = trig_point(s)
        calls.clear()  # count from here: drawing the point evaluates F^2
        laplacian(s, phi).at(s, (z.x, z.y))
        assert len(calls) == 4

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
        tower = tower_at(euclidean, (z.x, z.y))
        assert pointwise_inner(tower, dx1, dx1) == pytest.approx(1.0, abs=1e-14)
        assert pointwise_inner(tower, area, area) == pytest.approx(1.0, abs=1e-14)

    def test_degree_mismatch(self, euclidean):
        z = trig_point(euclidean)
        a = HorizontalForm(1, lambda xs, ys: [1.0, 0.0])
        b = HorizontalForm(0, lambda xs, ys: 1.0)
        with pytest.raises(DegreeMismatch):
            pointwise_inner(tower_at(euclidean, (z.x, z.y)), a, b)

    def test_positive_definite_on_random_forms(self, randers, rng):
        for _ in range(20):
            p = int(rng.integers(1, 3))
            phi = bi.random_trig_form(rng, randers, p)
            z = trig_point(randers, seed=int(rng.integers(1, 10000)))
            v = pointwise_inner(tower_at(randers, (z.x, z.y)), phi, phi)
            arr = phi.at(randers, (z.x, z.y)).data
            if np.max(np.abs(arr)) > 1e-12:
                assert v > 0.0


class TestAssociatedForm:
    def test_euclidean_constant_field(self, euclidean):
        X = TensorField.from_vector(lambda xs: [1.0, 0.0])
        af = associate_one_form(euclidean, X)
        z = trig_point(euclidean)
        assert np.allclose(af.horizontal.at(euclidean, (z.x, z.y)).data, [1.0, 0.0], atol=1e-14)
        vert = af.vertical(tower_at(euclidean, (z.x, z.y)))
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
                vert = af.vertical(tower_at(s, (z.x, z.y)))
                assert abs(sum(v * y for v, y in zip(vert, z.y))) < 1e-8

    @pytest.mark.parametrize(
        "variance, components", [("l", [1.0, 0.0]), ("ll", [[1.0, 0.0], [0.0, 1.0]])]
    )
    def test_field_that_is_not_a_vector_is_rejected(self, randers, variance, components):
        with pytest.raises(DomainError, match="needs a vector field"):
            associate_one_form(randers, TensorField(lambda xs, ys: components, variance))

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
        res = weitzenbock_residual(tower_at(randers, (z.x, z.y)), X)
        assert np.max(np.abs(res.data)) < 1e-12

    def test_residual_equals_minus_laplacian(self, rng):
        for name in ("euclidean", "randers-torus", "riemannian-sphere"):
            s = bi.get_metric(name)
            X = bi.random_trig_vector(rng, s)
            af = associate_one_form(s, X)
            for z in sample_points(s, 2):
                res = weitzenbock_residual(tower_at(s, (z.x, z.y)), X).data
                lap = horizontal_laplacian(s, af.horizontal).at(s, (z.x, z.y)).data
                assert np.max(np.abs(res + lap)) < 1e-5, name

    @pytest.mark.parametrize("root", ROOTS)
    @pytest.mark.parametrize("name", ["randers-torus", "randers-torus-3d"])
    def test_root_evaluations_at_a_point(self, name, root, monkeypatch):
        """At a point the residual takes 5 evaluations of the family's g in 2D
        and in 3D, and the custom twin's Hessian route 5 of F^2: the lifted
        towers under nabla nabla seed x and y in one pass, each tower splits
        every layer partial, C and dgx among them, off its one child tower,
        and G and N make no pass of their own."""
        s, calls = counted_root(bi.get_metric(name), root, monkeypatch)
        X = bi.random_trig_vector(np.random.default_rng(0), s)
        z = trig_point(s)
        calls.clear()  # count from here: drawing the point evaluates F^2
        weitzenbock_residual(tower_at(s, (z.x, z.y)), X)
        assert len(calls) == 5

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
                assert abs(bochner_scalar_at(tower_at(s, (z.x, z.y)), X)) < 1e-10

    def test_sphere_equator_spot_value(self, sphere):
        X = TensorField.from_vector(lambda xs: [0.0, 1.0])
        K = bochner_scalar_at(tower_at(sphere, ([math.pi / 2, 0.3], [1.0, 0.0])), X)
        assert K == pytest.approx(1.0, abs=1e-6)

    def test_riemannian_reduction_to_ricci_quadratic(self, sphere, rng):
        X = bi.random_trig_vector(rng, sphere)
        for z in sample_points(sphere, 3):
            tower = tower_at(sphere, (z.x, z.y))
            K = bochner_scalar_at(tower, X)
            Xv = np.array(X.components(list(z.x), list(z.y)), float)
            ric = pack(ricci_components(tower), 2)
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

    def test_base_dependent_randers_trig(self, randers_base, rng):
        """Gamma, N and the Cartan trace terms are all nonzero here."""
        X = bi.random_trig_vector(rng, randers_base)
        for z in sample_points(randers_base, 3):
            r1, r2 = energy_identity_residuals(randers_base, X, (z.x, z.y))
            assert abs(r1) < 1e-12 and abs(r2) < 1e-12


# every public entry that reads a vector field, as (s, X, z) -> its result
VECTOR_FIELD_ENTRIES = {
    "lowered_form": lambda s, X, z: forms.lowered_form(s, X).at(s, z),
    "transport_form": lambda s, X, z: forms.transport_form(s, X).at(s, z),
    "bochner_scalar_at": lambda s, X, z: bochner_scalar_at(tower_at(s, z), X),
    "gradient_norm_squared_at": lambda s, X, z: forms.gradient_norm_squared_at(tower_at(s, z), X),
    "weitzenbock_residual": lambda s, X, z: weitzenbock_residual(tower_at(s, z), X),
    "energy_identity_residuals": lambda s, X, z: energy_identity_residuals(s, X, z),
    "bochner_integral": lambda s, X, z: bochner_integral(
        s, X, QuadratureGrid.for_structure(s, (8, 8), (8,))
    ),
}


class TestVectorFieldEntries:
    """Every entry that reads a vector field refuses any other field with
    DomainError, before it computes anything."""

    @pytest.mark.parametrize("entry", sorted(VECTOR_FIELD_ENTRIES))
    @pytest.mark.parametrize(
        "variance, components", [("l", [1.0, 0.0]), ("ul", [[1.0, 0.0], [0.0, 1.0]])]
    )
    def test_field_that_is_not_a_vector_is_rejected(self, randers, entry, variance, components):
        X = TensorField(lambda xs, ys: components, variance)
        z = trig_point(randers)
        with pytest.raises(DomainError, match="a vector field"):
            VECTOR_FIELD_ENTRIES[entry](randers, X, (z.x, z.y))


class TestHarmonicVerdict:
    def test_flat_basis_form_harmonic(self, euclidean):
        grid = QuadratureGrid.for_structure(euclidean)
        rep = is_h_harmonic(euclidean, bi.get_form("dx1", euclidean), grid, tol=1e-8)
        assert rep["verdict"] == "harmonic"
        assert rep["laplacian_norm"] < 1e-10
        assert rep["equivalence_consistent"]

    def test_flat_sine_form_not_harmonic(self, euclidean):
        grid = QuadratureGrid.for_structure(euclidean)
        rep = is_h_harmonic(euclidean, bi.get_form("sin-x1-dx1", euclidean), grid, tol=1e-8)
        assert rep["verdict"] == "not harmonic"
        assert rep["laplacian_norm"] > 0.1
        assert max(rep["dH_norm"], rep["deltaH_norm"]) > 0.1
        assert rep["equivalence_consistent"]

    def test_constant_randers_basis_form_harmonic(self, randers):
        grid = QuadratureGrid.for_structure(randers)
        rep = is_h_harmonic(randers, bi.get_form("dx1", randers), grid, tol=1e-8)
        assert rep["verdict"] == "harmonic"
        assert rep["equivalence_consistent"]

    # On the flat torus, SM = T^2 x S^1 has volume (2 pi)^3 and the density is
    # 1.  A constant f or f dx1^dx2 is harmonic with every derivative 0.  For
    # f = sin x1: d_H f = cos x1 dx1 and Delta f = sin x1, and for
    # psi = sin x1 dx1^dx2: delta_H psi = -cos x1 dx2 and Delta psi = psi; each
    # of these has squared norm (2 pi)^3 / 2 = 4 pi^3, exact on 8 nodes.
    # A degree-0 form has no delta_H and a top-degree form no d_H: those
    # norms are 0.0 by definition.
    @pytest.mark.parametrize(
        "name, verdict, lap2, dH2, deltaH2",
        [
            ("one", "harmonic", 0.0, 0.0, 0.0),
            ("sin-x1", "not harmonic", 4.0, 4.0, 0.0),
            ("area", "harmonic", 0.0, 0.0, 0.0),
            ("sin-x1-area", "not harmonic", 4.0, 0.0, 4.0),
        ],
    )
    def test_degree_zero_and_top_degree_verdicts(self, euclidean, name, verdict, lap2, dH2, deltaH2):
        grid = QuadratureGrid.for_structure(euclidean, (8, 8), (8,))
        rep, ok = run_task(euclidean, grid, "laplacian", {"form": name}, None, None)
        assert ok and rep["verdict"] == verdict and rep["equivalence_consistent"] is True
        norm2 = 8.0 if name in ("one", "area") else 4.0
        want = {"laplacian_norm": lap2, "dH_norm": dH2, "deltaH_norm": deltaH2, "form_norm": norm2}
        for key, c in want.items():
            assert rep[key] == pytest.approx(math.sqrt(c * math.pi**3), rel=1e-12, abs=1e-12)
        p = bi.get_form(name, euclidean).degree
        assert (rep["deltaH_norm"] == 0.0) if p == 0 else (rep["dH_norm"] == 0.0)


# -- full-index reference kernels: every entry of every index tuple ----------------


def full_dH_coeffs(tower, phi):
    n, p = tower.n, phi.degree
    val, dx, dy = TensorField(phi.coeffs, "l" * p).partials(tower.xs, tower.ys)
    nab = cov_h(tower, val, dx, dy, "l" * p)

    def entry(idx):
        acc = None
        for k in range(p + 1):
            term = tget(nab[idx[k]], idx[:k] + idx[k + 1 :])
            if k % 2:
                term = -term
            acc = term if acc is None else acc + term
        return acc

    return nested_build(n, p + 1, entry)


def full_deltaH_coeffs(tower, psi):
    n, q = tower.n, psi.degree
    val, dx, dy = TensorField(psi.coeffs, "l" * q).partials(tower.xs, tower.ys)
    nab = cov_h(tower, val, dx, dy, "l" * q)
    gi, nT = tower.gi, tower.nabla0T

    def entry(idx):
        acc = None
        for i in range(n):
            for j in range(n):
                term = gi[i][j] * (tget(nab[i], (j,) + idx) - tget(val, (j,) + idx) * nT[i])
                acc = term if acc is None else acc + term
        return -acc

    return nested_build(n, q - 1, entry)


def full_inner_coeffs(tower, a, b, degree):
    """Slot-by-slot raising with the 1/p! weight."""
    n = tower.n
    if degree == 0:
        return a * b
    gi = tower.gi
    raised = a
    for slot in range(degree):
        raised = nested_build(
            n,
            degree,
            lambda idx, _r=raised, _s=slot: sum(
                gi[idx[_s]][m] * tget(_r, idx[:_s] + (m,) + idx[_s + 1 :]) for m in range(n)
            ),
        )
    acc = None
    for idx in itertools.product(range(n), repeat=degree):
        t = tget(raised, idx) * tget(b, idx)
        acc = t if acc is None else acc + t
    return acc * (1.0 / math.factorial(degree))


def odd_permutation(idx):
    return sum(a > b for k, a in enumerate(idx) for b in idx[k + 1 :]) % 2 == 1


class TestIndependentComponents:
    """Kernels computed on increasing indices against the full-index ones."""

    REL_TOL = 1e-14  # times the largest |coefficient| of the reference

    @pytest.fixture(scope="class", params=["randers-base", "randers-torus-3d", "randers-base-3d"])
    def setting(self, request, randers_base):
        """A grid tower, or for the base-dependent 3D metric a 12-point batch:
        the only case where q = 2 and 3 read every slot of R^pj_k while
        Gamma, N and nabla_0 T do not vanish."""
        if request.param == "randers-base":
            s = randers_base
            tower = QuadratureGrid.for_structure(s, (8, 8), (16,)).tower(s)
        elif request.param == "randers-torus-3d":
            s = bi.get_metric("randers-torus-3d")
            tower = QuadratureGrid.for_structure(s, (8, 8, 8), (8, 8)).tower(s)
        else:
            s = base_dependent_randers(3)
            tower = TestSeededPartials.batch_tower(s)
        rng = np.random.default_rng(31)
        form_list = [bi.random_trig_form(rng, s, p) for p in range(s.dim + 1)]
        return s, tower, form_list

    def assert_close(self, got, want, degree):
        got, want = pack(got, degree), pack(want, degree)
        scale = np.max(np.abs(want))
        assert scale > 0.0
        assert np.max(np.abs(got - want)) <= self.REL_TOL * scale

    def assert_antisymmetric(self, coeffs, degree, n):
        for idx in itertools.product(range(n), repeat=degree):
            v = tget(coeffs, idx)
            if len(set(idx)) < degree:
                assert type(v) is float and v == 0.0, idx
                continue
            w = tget(coeffs, tuple(sorted(idx)))
            assert np.array_equal(v, -w if odd_permutation(idx) else w), idx

    def test_dH(self, setting):
        s, tower, form_list = setting
        for p in range(s.dim):
            got = dH_coeffs(tower, form_list[p])
            self.assert_close(got, full_dH_coeffs(tower, form_list[p]), p + 1)
            self.assert_antisymmetric(got, p + 1, s.dim)

    def test_deltaH(self, setting):
        s, tower, form_list = setting
        for q in range(1, s.dim + 1):
            got = deltaH_coeffs(tower, form_list[q])
            self.assert_close(got, full_deltaH_coeffs(tower, form_list[q]), q - 1)
            self.assert_antisymmetric(got, q - 1, s.dim)

    def test_inner(self, setting):
        s, tower, form_list = setting
        rng = np.random.default_rng(32)
        for p in range(s.dim + 1):
            a = form_list[p].on(tower)
            b = bi.random_trig_form(rng, s, p).on(tower)
            self.assert_close(inner_coeffs(tower, a, b, p), full_inner_coeffs(tower, a, b, p), 0)

    def test_covariant_entries_only_at_increasing_indices(self, setting, monkeypatch):
        """d_H and delta_H read the form's delta_c entries
        (``connection._delta_entry``, looked up at call time) at increasing
        indices only, each at most once: at most C(n, p) n of them."""
        s, tower, form_list = setting
        n = s.dim
        calls = []
        real = connection._delta_entry

        def counting_delta_entry(*args):
            entry = real(*args)

            def counted(c, idx):
                calls.append((c, idx))
                return entry(c, idx)

            return counted

        monkeypatch.setattr(connection, "_delta_entry", counting_delta_entry)
        for p, kernel in [(p, dH_coeffs) for p in range(n)] + [
            (p, deltaH_coeffs) for p in range(1, n + 1)
        ]:
            calls.clear()
            kernel(tower, form_list[p])
            assert 0 < len(calls) <= math.comb(n, p) * n, (kernel.__name__, p, len(calls))
            assert len(set(calls)) == len(calls), (kernel.__name__, p)
            for _, idx in calls:
                increasing = all(a < b for a, b in zip(idx, idx[1:]))
                assert len(idx) == p and increasing, (kernel.__name__, idx)


# -- the parent's transport pair and vertical part, kept as references ------------


def reference_transport_forms(s, X):
    """Y = X^k nabla_k X_i dx^i and Z = X_i nabla_j X^j dx^i, each differentiating
    the lowered field g.X through its own towers."""
    n = s.dim
    low = forms.lowered_form(s, X).coeffs

    def Y_coeffs(a, b):
        tw = LocalTower(s, a, b)
        Xv = X.components(a, b)
        lval, ldx, ldy = TensorField(low, "l").partials(a, b)
        nabL = cov_h(tw, lval, ldx, ldy, "l")
        return [sum_terms(Xv[k] * nabL[k][i] for k in range(n)) for i in range(n)]

    def Z_coeffs(a, b):
        tw = LocalTower(s, a, b)
        uval, udx, udy = X.partials(a, b)
        nabU = cov_h(tw, uval, udx, udy, "u")
        div = sum_terms(nabU[j][j] for j in range(n))
        lval = low(a, b)
        return [lval[i] * div for i in range(n)]

    return HorizontalForm(1, Y_coeffs), HorizontalForm(1, Z_coeffs)


def reference_vertical(s, X, xs, ys):
    """(nabla_0 X_i - y_i nabla_0 w / F^2) / F with nabla_0 X_i taken on the
    lowered field and w = g_ij y^i X^j differentiated as a scalar."""
    n = s.dim
    low = forms.lowered_form(s, X).coeffs
    tw = LocalTower(s, xs, ys)
    val, dx, dy = TensorField(low, "l").partials(xs, ys)
    nab = cov_h(tw, val, dx, dy, "l")
    nab0X = [sum_terms(tw.ys[h] * nab[h][i] for h in range(n)) for i in range(n)]

    def w_scalar(a, b):
        t2 = LocalTower(s, a, b)
        Xv = X.components(a, b)
        return sum_terms(t2.g[i][j] * b[i] * Xv[j] for i in range(n) for j in range(n))

    dw = tw.delta(grad_x(w_scalar, xs, ys), grad_y(w_scalar, xs, ys), 0)
    nab0w = sum_terms(tw.ys[h] * dw[h] for h in range(n))
    invF = jets._reciprocal(tw.F)
    return [(nab0X[i] - tw.y_lower[i] * nab0w * invF * invF) * invF for i in range(n)]


GAMMA_METRICS = ["randers-base", "riemannian-sphere"]


def metric_by_id(name, randers_base):
    if name == "randers-base-3d":
        return base_dependent_randers(3)
    return randers_base if name == "randers-base" else bi.get_metric(name)


class TestTransportForm:
    """The one transport form against the parent's Y/Z pair."""

    REL_TOL = 1e-13  # times the largest |value| of the reference

    @pytest.mark.parametrize("name", ["randers-base", "randers-torus-3d", "riemannian-sphere"])
    def test_codifferential_matches_pair(self, name, randers_base):
        s = metric_by_id(name, randers_base)
        if s.dim == 2:
            grid = QuadratureGrid.for_structure(s, (8, 8), (16,))
        else:
            grid = QuadratureGrid.for_structure(s, (8, 8, 8), (8, 8))
        tower = grid.tower(s)
        X = bi.random_trig_vector(np.random.default_rng(41), s)
        Yf, Zf = reference_transport_forms(s, X)
        want = np.asarray(deltaH_coeffs(tower, Zf), float)
        want = want - np.asarray(deltaH_coeffs(tower, Yf), float)
        got = np.asarray(deltaH_coeffs(tower, forms.transport_form(s, X)), float)
        scale = np.max(np.abs(want))
        assert scale > 0.0
        assert np.max(np.abs(got - want)) <= self.REL_TOL * scale

    @pytest.mark.parametrize("name", ["randers-base", "randers-torus-3d", "riemannian-sphere"])
    def test_vertical_part_matches_reference(self, name, randers_base):
        s = metric_by_id(name, randers_base)
        X = bi.random_trig_vector(np.random.default_rng(42), s)
        vertical = associate_one_form(s, X).vertical
        for z in sample_points(s, 3):
            got = np.asarray(vertical(tower_at(s, (z.x, z.y))), float)
            want = np.asarray(reference_vertical(s, X, list(z.x), list(z.y)), float)
            scale = np.max(np.abs(want))
            assert scale > 0.0
            assert np.max(np.abs(got - want)) <= self.REL_TOL * scale


class TestConnectionIdentities:
    """Identities the vector-field code relies on, where Gamma does not vanish."""

    TOL = 1e-12

    @pytest.mark.parametrize("name", GAMMA_METRICS)
    def test_h_metricity(self, name, randers_base):
        """nabla_k (g_ij X^j) = g_ij nabla_k X^j."""
        s = metric_by_id(name, randers_base)
        X = bi.random_trig_vector(np.random.default_rng(43), s)
        for z in sample_points(s, 3):
            tower = LocalTower(s, list(z.x), list(z.y))
            assert np.max(np.abs(np.asarray(tower.Gamma, float))) > 1e-3
            flat = TensorField(forms.lowered_form(s, X).coeffs, "l")
            val, dx, dy = flat.partials(tower.xs, tower.ys)
            of_lowered = np.asarray(cov_h(tower, val, dx, dy, "l"), float)
            val, dx, dy = X.partials(tower.xs, tower.ys)
            nabU = np.asarray(cov_h(tower, val, dx, dy, "u"), float)
            g = np.asarray(tower.g, float)
            lowered = np.einsum("ij,kj->ki", g, nabU)
            assert np.max(np.abs(of_lowered - lowered)) <= self.TOL * np.max(np.abs(lowered))

    @pytest.mark.parametrize("name", GAMMA_METRICS)
    def test_nonlinear_connection_is_gamma_y(self, name, randers_base):
        """N^i_k = Gamma^i_jk y^j, which makes nabla y = 0."""
        s = metric_by_id(name, randers_base)
        for z in sample_points(s, 3):
            tower = LocalTower(s, list(z.x), list(z.y))
            N = np.asarray(tower.N, float)
            gamma_y = np.einsum("ijk,j->ik", np.asarray(tower.Gamma, float), np.asarray(z.y, float))
            assert np.max(np.abs(N)) > 1e-3
            assert np.max(np.abs(N - gamma_y)) <= self.TOL * np.max(np.abs(N))


class TestHorizontalComplex:
    """d_H^2 is the curvature of N: [delta_k, delta_h] = -R^r_kh d/dy^r with
    R^r_kh = ``flag[r][k][h]``, since the Gamma terms cancel in the
    alternation, so (d_H^2 phi)_{khI} = -sum over cyclic (k, h, I) of
    R^r_kh d(phi_I)/dy^r.  d_H composed with itself against the tower's
    ``flag`` and the y partials of the form itself, at seeded points."""

    REL_TOL = 1e-13  # times max |d_H^2 phi|
    METRICS = {
        "randers-base-2d": lambda: base_dependent_randers(2),
        "randers-base-3d": lambda: base_dependent_randers(3),
        "randers-base-4d": lambda: base_dependent_randers(4),
        "riemannian-sphere": lambda: bi.get_metric("riemannian-sphere"),
    }
    CASES = [(name, 0) for name in METRICS] + [("randers-base-3d", 1), ("randers-base-4d", 1)]

    @staticmethod
    def form(s, p):
        """f = (y^1 + 0.3 y^n) / F for p = 0, phi_i = (y^(i+1 mod n) + 0.3 y^i) / F for p = 1."""
        n = s.dim

        def coeffs(xs, ys):
            F = jets.gsqrt(s.f2(xs, ys))
            if p == 0:
                return (ys[0] + 0.3 * ys[n - 1]) / F
            return [(ys[(i + 1) % n] + 0.3 * ys[i]) / F for i in range(n)]

        return HorizontalForm(p, coeffs)

    @pytest.mark.parametrize("name, p", CASES)
    def test_square_is_the_curvature_of_n(self, name, p):
        s = self.METRICS[name]()
        n, phi = s.dim, self.form(s, p)
        dd = forms.horizontal_differential(s, forms.horizontal_differential(s, phi))
        for z in sample_points(s, 3):
            got = dd.at(s, (z.x, z.y)).data
            R = np.asarray(tower_at(s, (z.x, z.y)).flag, float)  # R[r][k][h]
            dy = np.asarray(jets.grad_y(phi.coeffs, list(z.x), list(z.y)), float)  # dy[r][I]
            if p == 0:
                want = -np.einsum("rkh,r->kh", R, dy)
            else:
                RdI = np.einsum("rkh,ri->khi", R, dy)  # R^r_kh d(phi_i)/dy^r
                want = -(RdI + RdI.transpose(1, 2, 0) + RdI.transpose(2, 0, 1))
            scale = np.max(np.abs(got))
            assert scale > 1e-2
            assert got.shape == (n,) * (p + 2)
            assert np.max(np.abs(got - want)) <= self.REL_TOL * scale


class TestSeededPartials:
    """Forms differentiated on seeded child towers (LocalTower.partials)."""

    REL_TOL = 1e-14  # at a point, times the largest |partial| of the reference

    @staticmethod
    def grid_for(s):
        if s.dim == 2:
            return QuadratureGrid.for_structure(s, (8, 8), (16,))
        return QuadratureGrid.for_structure(s, (8, 8, 8), (8, 8))

    @staticmethod
    def operator_forms(s, seed, composed=True):
        """Operator forms of each kind; ``composed`` adds one whose children
        differentiate a form in turn (seconds on 3D arrays, so optional)."""
        rng = np.random.default_rng(seed)
        X = bi.random_trig_vector(rng, s)
        phi1, psi = bi.random_trig_form(rng, s, 1), bi.random_trig_form(rng, s, 2)
        out = [
            forms.transport_form(s, X),
            forms.lowered_form(s, X),
            horizontal_differential(s, phi1),
            horizontal_codifferential(s, psi),
        ]
        if composed:
            out.append(horizontal_codifferential(s, horizontal_differential(s, phi1)))
        return out

    @staticmethod
    def packed(partials, degree):
        """The value, then every x and y partial, packed; a dy of None (no
        y pass) adds no entries."""
        val, dx, dy = partials
        return [pack(val, degree)] + [pack(d, degree) for d in dx + (dy or [])]

    @staticmethod
    def batch_tower(s, count=12):
        pts = sample_points(s, count)
        return LocalTower(
            s, list(np.array([z.x for z in pts]).T), list(np.array([z.y for z in pts]).T)
        )

    @pytest.mark.parametrize("name", ["randers-base", "randers-torus-3d", "randers-base-3d"])
    def test_match_rebuilt_towers_on_arrays(self, name, randers_base):
        """On randers-torus-3d N vanishes, so ``partials`` makes no y pass and
        dy is None; the value and dx stay those of the full partials."""
        s = metric_by_id(name, randers_base)
        tower = self.batch_tower(s)
        for form in self.operator_forms(s, 51, composed=s.dim == 2):
            partials = tower.partials(form.on)
            assert (partials[2] is None) == (name == "randers-torus-3d"), form.label
            ref = TensorField(form.coeffs, "l" * form.degree).partials(tower.xs, tower.ys)
            if partials[2] is None:
                ref = (*ref[:2], None)
            got, want = self.packed(partials, form.degree), self.packed(ref, form.degree)
            assert max(np.max(np.abs(w)) for w in want[1:]) > 0.0, form.label
            assert len(got) == len(want), form.label
            for a, b in zip(got, want):
                # a partial whose components are all structural zeros packs
                # without node axes; broadcast to the nodes, it stays exact
                a = a.reshape(a.shape + (1,) * (b.ndim - a.ndim))
                assert np.array_equal(np.broadcast_to(a, b.shape), b), form.label

    @pytest.mark.parametrize("name", ["randers-base", "randers-torus-3d"])
    def test_match_rebuilt_towers_at_a_point(self, name, randers_base):
        s = metric_by_id(name, randers_base)
        z = trig_point(s)
        tower = LocalTower(s, list(z.x), list(z.y))
        for form in self.operator_forms(s, 52):
            got = self.packed(tower.partials(form.on), form.degree)
            ref = TensorField(form.coeffs, "l" * form.degree).partials(tower.xs, tower.ys)
            want = self.packed(ref, form.degree)
            scale = max(np.max(np.abs(w)) for w in want)
            for a, b in zip(got, want):
                assert np.max(np.abs(a - b)) <= self.REL_TOL * scale, form.label

    @pytest.mark.parametrize("root", ROOTS)
    @pytest.mark.parametrize("name", ["randers-base", "randers-torus-3d"])
    def test_warm_grid_evaluates_no_root(self, name, root, randers_base, monkeypatch):
        """Once the grid tower holds its layers and their partials, a Bochner
        integral, d_H and delta_H of operator forms and the expanded Laplacian
        (second covariant derivatives) of a leaf form read them alone: no
        evaluation of the family's g, nor of F^2 on the custom twin's Hessian
        route, where the cold pass makes some."""
        s, calls = counted_root(metric_by_id(name, randers_base), root, monkeypatch)
        grid = self.grid_for(s)
        tower = grid.tower(s)
        for seed, expect_cold in ((61, True), (62, False)):
            calls.clear()
            rng = np.random.default_rng(seed)
            bochner_integral(s, bi.random_trig_vector(rng, s), grid)
            phi1, psi = bi.random_trig_form(rng, s, 1), bi.random_trig_form(rng, s, 2)
            deltaH_coeffs(tower, horizontal_differential(s, phi1))
            dH_coeffs(tower, horizontal_codifferential(s, psi))
            laplacian_expansion_coeffs(tower, phi1)
            assert bool(calls) == expect_cold, (seed, len(calls))

    @pytest.mark.parametrize("name", ["randers-base", "randers-torus-3d", "randers-base-3d"])
    def test_array_vector_passes_match_per_coordinate(self, name, randers_base):
        """On a grid tower, or a 12-point batch for the base-dependent 3D
        metric, the vector pass per list gives the partials of one
        ``grad_wrt`` pass per coordinate (tangent 1.0), for a leaf trig form,
        operator forms on lifted towers and a trig vector field.  Where N
        vanishes the forms get no y pass (dy None)."""
        s = metric_by_id(name, randers_base)
        tower = self.batch_tower(s) if name == "randers-base-3d" else self.grid_for(s).tower(s)
        lists = (tower.xs, tower.ys)
        rng = np.random.default_rng(53)
        X = bi.random_trig_vector(rng, s)
        cases = [(X.fn, 1, X.partials(*lists))]
        for form in [bi.random_trig_form(rng, s, 1)] + self.operator_forms(s, 54, composed=False):
            lifted = lambda a, b, form=form: form.on(_LiftedTower(tower, a, b))
            partials = tower.partials(form.on)
            assert (partials[2] is None) == (name == "randers-torus-3d"), form.label
            cases.append((lifted, form.degree, partials))
        for fn, degree, got in cases:
            dy = None if got[2] is None else jets.grad_wrt(fn, lists, 1)
            want = (got[0], jets.grad_wrt(fn, lists, 0), dy)
            got, want = self.packed(got, degree)[1:], self.packed(want, degree)[1:]
            assert len(got) == len(want)
            scale = max(np.max(np.abs(w)) for w in want)
            assert scale > 0.0
            for a, b in zip(got, want):
                assert np.max(np.abs(a - b)) <= self.REL_TOL * scale

    @staticmethod
    def lifted(tower, which, tangents):
        """The lifted tower with coordinate m of x (``which`` = 0) or y
        seeded by a fresh tag with tangent ``tangents[m]``."""
        tag = jets._new_tag()
        coords = [list(tower.xs), list(tower.ys)]
        for m, t in tangents.items():
            coords[which][m] = jets.Jet([coords[which][m], t], tag)
        return _LiftedTower(tower, *coords)

    def test_independent_coordinate_keeps_parent_value(self):
        """On a metric that does not depend on x, an x-seeded lifted tower
        reads the parent's N, Gamma, g and nabla0T unchanged rather than as
        jets: one coordinate with the tangent 1.0, and all n at once with the
        vector-mode tangents eye(n)[m]."""
        s = bi.get_metric("randers-torus-3d")
        z = trig_point(s)
        tower = LocalTower(s, list(z.x), list(z.y))
        eye = np.eye(s.dim)
        for child in (
            self.lifted(tower, 0, {1: 1.0}),
            self.lifted(tower, 0, {m: eye[m] for m in range(s.dim)}),
        ):
            for layer, rank in (("N", 2), ("Gamma", 3), ("g", 2), ("nabla0T", 1)):
                got, want = getattr(child, layer), getattr(tower, layer)
                for idx in itertools.product(range(s.dim), repeat=rank):
                    assert tget(got, idx) is tget(want, idx), (layer, idx)
        # N and Gamma do not depend on y either: their y-partials are structural zeros
        y_child = self.lifted(tower, 1, {0: 1.0})
        assert is_structural_zero(tower.N[0][0])
        assert y_child.N[0][0] is tower.N[0][0]

    @pytest.mark.parametrize("batch", [False, True])
    def test_kernel_runs(self, batch, randers_base):
        """``partials`` runs its kernel only as grad_xy seeds, the value read
        off the first pass: one vector pass over x and y together at a
        point, one vector pass per list on arrays."""
        s = randers_base
        if batch:
            pts = sample_points(s, 4)
            xs, ys = (list(np.array([getattr(z, c) for z in pts]).T) for c in "xy")
        else:
            z = trig_point(s)
            xs, ys = list(z.x), list(z.y)
        runs = []

        def kernel(tw):
            runs.append(1)
            return tw.N

        tower = LocalTower(s, xs, ys)
        tower.partials(kernel)
        assert len(runs) == (2 if batch else 1)


def tower_where(s, where):
    """The tower of ``s`` on TestSeededPartials' grid, or at a seeded point."""
    if where == "grid":
        return TestSeededPartials.grid_for(s).tower(s)
    z = trig_point(s)
    return tower_at(s, (z.x, z.y))


class TestHorizontalPartials:
    """d_H, delta_H and the expanded Laplacian read a form's partials through
    ``LocalTower.partials``: where N vanishes, on a grid as at a point, they
    take the value and the x pass only, with the values of the full partials."""

    @staticmethod
    def counted(form, evals):
        """``form`` with each evaluation of its coefficients recorded."""

        def coeffs(xs, ys):
            evals.append(None)
            return form.coeffs(xs, ys)

        return HorizontalForm(form.degree, coeffs, label=form.label)

    @staticmethod
    def record_seeded_lists(monkeypatch):
        """Per lifted tower built, whether its pass seeds x and whether y."""
        seeded = []
        init = _LiftedTower.__init__

        def recording(self, parent, xs, ys):
            init(self, parent, xs, ys)
            seeded.append(tuple(bool(t) for t in self.tangents))

        monkeypatch.setattr(_LiftedTower, "__init__", recording)
        return seeded

    def passes(self, s, monkeypatch, where="grid"):
        """(coefficient evaluations, seeded lists) of d_H of a trig 1-form
        and of delta_H of a trig 2-form on the tower ``where``, one op at a
        time.  The joint pass at a point seeds x and y: (True, True)."""
        tower = tower_where(s, where)
        rng = np.random.default_rng(71)
        phi1, psi = bi.random_trig_form(rng, s, 1), bi.random_trig_form(rng, s, 2)
        seeded = self.record_seeded_lists(monkeypatch)
        out = []
        for op, form in ((dH_coeffs, phi1), (deltaH_coeffs, psi)):
            evals = []
            seeded.clear()
            op(tower, self.counted(form, evals))
            out.append((len(evals), list(seeded)))
        return out

    @pytest.mark.parametrize("where", ["grid", "point"])
    def test_no_y_pass_where_n_vanishes(self, monkeypatch, where):
        s = bi.get_metric("randers-torus-3d")
        for evals, seeded in self.passes(s, monkeypatch, where):
            assert evals == 1  # one x pass, which gives the value too
            assert seeded == [(True, False)]

    def test_expanded_laplacian_makes_no_y_pass_where_n_vanishes(self, monkeypatch):
        """A warm expanded Laplacian of a leaf 1-form evaluates it once: in
        phi's x pass inside nabla phi's x pass, each of which gives its value
        too.  It builds one lifted tower per level of cov_hh, and each seeds
        x only."""
        s = bi.get_metric("randers-torus-3d")
        tower = small_grid(s).tower(s)
        rng = np.random.default_rng(73)
        laplacian_expansion_coeffs(tower, bi.random_trig_form(rng, s, 1))
        seeded, evals = self.record_seeded_lists(monkeypatch), []
        laplacian_expansion_coeffs(tower, self.counted(bi.random_trig_form(rng, s, 1), evals))
        assert len(evals) == 1
        assert seeded == [(True, False)] * 2

    def test_y_pass_where_n_does_not_vanish(self, randers_base, monkeypatch):
        for evals, seeded in self.passes(randers_base, monkeypatch):
            assert evals == 2  # one x pass, which gives the value too, and one y pass
            assert seeded == [(True, False), (False, True)]

    @pytest.mark.parametrize("where", ["grid", "point"])
    def test_values_equal_those_of_the_full_partials(self, monkeypatch, where):
        """d_H and delta_H of leaf and operator forms, nested lifted towers
        included, bit for bit as cov_h of the full (x, y) partials gives them."""
        s = bi.get_metric("randers-torus-3d")
        tower = tower_where(s, where)
        rng = np.random.default_rng(72)
        phi1, psi = bi.random_trig_form(rng, s, 1), bi.random_trig_form(rng, s, 2)
        ops = [
            (dH_coeffs, phi1, 2),
            (deltaH_coeffs, psi, 1),
            (deltaH_coeffs, horizontal_differential(s, phi1), 1),
            (dH_coeffs, horizontal_codifferential(s, psi), 2),
        ]
        got = [pack(op(tower, form), degree) for op, form, degree in ops]

        def full(self, kernel):  # the x and the y pass wherever N vanishes or not
            lifted = lambda a, b: kernel(_LiftedTower(self, a, b))
            return jets.grad_xy(lifted, self.xs, self.ys)

        monkeypatch.setattr(LocalTower, "partials", full)
        for (op, form, degree), a in zip(ops, got):
            b = pack(op(tower, form), degree)
            assert np.max(np.abs(b)) > 0.0, form.label
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), form.label


class TestFieldsOfXAlone:
    """Fields built from a coefficient function of x alone (the built-in
    forms, ``random_trig_form`` and ``TensorField.from_vector``) make no y
    pass, on a grid as at a point, also where N does not vanish, and give
    the values of the same coefficients built as (x, y) fields."""

    REL_TOL = 1e-15  # times the largest |value| of the (x, y) field's result

    @pytest.fixture(scope="class", params=["grid", "point"])
    def setting(self, request):
        """(s, grid, tower); the grid is None for the tower at a point."""
        s = bi.get_metric("riemannian-torus")
        if request.param == "grid":
            grid = QuadratureGrid.for_structure(s, (16, 16), (24,))
            tower = grid.tower(s)
        else:
            grid, z = None, bi.random_chart_points(np.random.default_rng(80), s, 1)[0]
            tower = tower_at(s, (z.x, z.y))
        assert not any(is_structural_zero(v) for row in tower.N for v in row)
        return s, grid, tower

    @staticmethod
    def y_passes(monkeypatch):
        """The vector passes that seed y: ``jets._seed`` with ``which`` 1, or
        with x and y as one list, as the joint pass at a point seeds them."""
        passes = []
        seed = jets._seed

        def recording(lists, which, depth):
            if which == 1 or len(lists) == 1:
                passes.append(depth)
            return seed(lists, which, depth)

        monkeypatch.setattr(jets, "_seed", recording)
        return passes

    def assert_close(self, got, want, degree):
        """Within REL_TOL; exactly equal where the (x, y) field's result is 0
        (d_H of sin-x1-dx1)."""
        got, want = pack(got, degree), pack(want, degree)
        assert np.max(np.abs(got - want)) <= self.REL_TOL * np.max(np.abs(want))

    def test_forms_make_no_y_pass(self, setting, monkeypatch):
        s, _, tower = setting
        rng = np.random.default_rng(81)
        ops = [(dH_coeffs, 1), (deltaH_coeffs, -1)]
        cases = [bi.get_form("sin-x1-dx1", s), bi.random_trig_form(rng, s, 1)]
        for form in cases:  # warm the tower's layers
            for op, _ in ops:
                op(tower, form)
        passes = self.y_passes(monkeypatch)
        got = [[op(tower, form) for op, _ in ops] for form in cases]
        assert passes == []
        for form, values in zip(cases, got):
            xy = HorizontalForm(form.degree, form.coeffs, label=form.label)
            assert xy.kernel is None
            for (op, step), value in zip(ops, values):
                self.assert_close(value, op(tower, xy), form.degree + step)
        assert passes, "the (x, y) forms make their y pass"

    def test_bochner_integral_makes_only_the_transport_forms_y_pass(self, setting, monkeypatch):
        """The Bochner scalar and the gradient norm of X make no y pass; the
        divergence of the transport form makes its own, since that form reads
        g and so y, but none for X inside it."""
        s, grid, tower = setting
        X = bi.random_trig_vector(np.random.default_rng(82), s)

        def bochner():  # at a point, the integrands bochner_integral sums
            if grid is not None:
                return bochner_integral(s, X, grid)
            for integrand in (forms.bochner_scalar_at, forms.gradient_norm_squared_at):
                integrand(tower, X)
            return deltaH_coeffs(tower, forms.transport_form(s, X))

        bochner()  # warm the tower's layers
        passes = self.y_passes(monkeypatch)
        bochner()
        assert len(passes) == 1
        xy = TensorField(X.fn, "u")
        assert not isinstance(xy.on, connection.BaseKernel)
        for integrand in (forms.bochner_scalar_at, forms.gradient_norm_squared_at):
            self.assert_close(integrand(tower, X), integrand(tower, xy), 0)
        self.assert_close(
            deltaH_coeffs(tower, forms.transport_form(s, X)),
            deltaH_coeffs(tower, forms.transport_form(s, xy)),
            0,
        )


class TestKernelRulesAtAPoint:
    """A kernel's partials seed the same lists at a point as on a one-node
    array tower at that point, with the same values to rounding: a field of
    x alone, and any kernel where N vanishes, take the x pass alone."""

    REL_TOL = 1e-15  # times the largest |value| at the point

    @staticmethod
    def seeded_lists(monkeypatch):
        """The list each vector pass seeds: "x", "y", or "xy" for x and y
        seeded as one list."""
        seeded = []
        seed = jets._seed

        def recording(lists, which, depth):
            seeded.append("xy" if len(lists) == 1 else "xy"[which])
            return seed(lists, which, depth)

        monkeypatch.setattr(jets, "_seed", recording)
        return seeded

    @pytest.mark.parametrize("name", ["base-dependent-randers", "randers-torus-3d"])
    def test_point_seeds_as_a_one_node_array(self, name, monkeypatch):
        """Fields of x alone on a metric where N does not vanish; the same
        coefficients as (x, y) fields, horizontal ops only, where N vanishes."""
        vanishing = name == "randers-torus-3d"
        s = bi.get_metric(name) if vanishing else base_dependent_randers(2)
        rng = np.random.default_rng(83)
        z = bi.random_chart_points(rng, s, 1)[0]
        towers = [
            tower_at(s, (z.x, z.y)),
            LocalTower(s, [np.array([v]) for v in z.x], [np.array([v]) for v in z.y]),
        ]
        phi, psi = bi.random_trig_form(rng, s, 1), bi.random_trig_form(rng, s, 2)
        X = bi.random_trig_vector(rng, s)
        if vanishing:
            phi, psi = (HorizontalForm(f.degree, f.coeffs) for f in (phi, psi))
            X = TensorField(X.fn, "u")
        ops = [
            lambda tw: pack(dH_coeffs(tw, phi), 2),
            lambda tw: pack(deltaH_coeffs(tw, psi), 1),
            lambda tw: h_covariant_derivative(tw, X).data,
        ]
        if not vanishing:  # a vertical derivative of an (x, y) field reads dy
            ops.append(lambda tw: v_covariant_derivative(tw, X).data)
        got = []
        for tw in towers:
            for op in ops:  # warm the tower's layers
                op(tw)
            seeded = self.seeded_lists(monkeypatch)
            values = [np.asarray(op(tw)) for op in ops]
            got.append((seeded, values))
            monkeypatch.undo()
        (point_lists, at_point), (array_lists, on_array) = got
        assert point_lists == array_lists == ["x"] * len(point_lists)
        assert point_lists
        for a, b in zip(at_point, on_array):
            assert np.max(np.abs(a - b.reshape(a.shape))) <= self.REL_TOL * np.max(np.abs(a))


ZERO_LAYERS = (("N", 2), ("Gamma", 3), ("nabla0T", 1))


def layer_leaves(tower, layer, rank):
    value = getattr(tower, layer)
    return [tget(value, idx) for idx in itertools.product(range(tower.n), repeat=rank)]


def small_grid(s):
    """8 nodes per base axis, 16 on the first fiber angle (8,8,8x16,8 in 3D)."""
    if s.dim == 2:
        return QuadratureGrid.for_structure(s, (8, 8), (16,))
    return QuadratureGrid.for_structure(s, (8, 8, 8), (16, 8))


class TestStructuralZeros:
    """Identically vanishing layers are stored as the float 0.0, and the
    kernels give the same values as with explicit arrays of zeros."""

    def test_vanishing_layers_are_floats_on_the_grid(self, randers_base):
        s = bi.get_metric("randers-torus-3d")
        tower = small_grid(s).tower(s)
        for layer, rank in ZERO_LAYERS:
            for v in layer_leaves(tower, layer, rank):
                assert type(v) is float and v == 0.0, layer
        tower = small_grid(randers_base).tower(randers_base)
        for layer, rank in ZERO_LAYERS:
            assert all(isinstance(v, np.ndarray) for v in layer_leaves(tower, layer, rank)), layer

    def test_vanishing_rebuilt_partials_are_floats_on_the_grid(self, randers_base):
        """The y-partials of N and Gamma on the grid tower: structural zeros
        where the metric does not depend on x, node arrays where it does."""
        s = bi.get_metric("randers-torus-3d")
        tower = small_grid(s).tower(s)
        for layer, rank in (("dN_y", 3), ("dGamma_y", 4)):
            for v in layer_leaves(tower, layer, rank):
                assert type(v) is float and v == 0.0, layer
        tower = small_grid(randers_base).tower(randers_base)
        for layer, rank in (("dN_y", 3), ("dGamma_y", 4)):
            assert all(isinstance(v, np.ndarray) for v in layer_leaves(tower, layer, rank)), layer

    def test_partly_zero_layer_is_kept(self):
        partly = np.array([[0.0, 0.0], [0.0, 1e-300]])
        jet = jets.Jet([np.zeros(2), np.zeros(2)], jets._new_tag())
        got = _collapse_zeros([[partly, np.zeros((2, 2))], [jet, np.array([np.nan, 0.0])]])
        assert got[0][0] is partly and got[0][1] == 0.0 and type(got[0][1]) is float
        assert got[1][0] is jet and isinstance(got[1][1], np.ndarray)

    @pytest.mark.parametrize("name", ["randers-torus", "randers-torus-3d"])
    def test_kernels_match_explicit_zero_arrays(self, name):
        """A fresh tower whose vanishing layers are arrays of zeros gives the
        same d_H, delta_H, inner products and Bochner integrands."""
        s = bi.get_metric(name)
        grid = small_grid(s)
        xs, ys = grid.coords_for(s)
        collapsed = grid.tower(s)
        explicit = LocalTower(s, xs, ys)
        zeros = np.zeros(np.broadcast_shapes(*(np.shape(y) for y in ys)))
        layers = ZERO_LAYERS + ((("nabla_nabla0T", 2),) if s.dim == 2 else ())
        for layer, rank in layers:
            explicit.__dict__[layer] = nested_build(s.dim, rank, lambda idx: zeros)
        rng = np.random.default_rng(71)
        X = bi.random_trig_vector(rng, s)

        def same(a, b, degree, label):
            for idx in itertools.product(range(s.dim), repeat=degree):
                u, v = (np.broadcast_to(np.asarray(tget(c, idx), float), grid.shape) for c in (a, b))
                assert np.array_equal(u, v), (label, idx)

        for p in range(s.dim + 1):
            phi = bi.random_trig_form(rng, s, p)
            kernels = [("inner", 0, lambda tw: inner_coeffs(tw, phi.on(tw), phi.on(tw), p))]
            if p < s.dim:
                kernels.append(("dH", p + 1, lambda tw: dH_coeffs(tw, phi)))
            if p >= 1:
                kernels.append(("deltaH", p - 1, lambda tw: deltaH_coeffs(tw, phi)))
            if s.dim == 2:
                kernels.append(("laplacian_exp", p, lambda tw: laplacian_expansion_coeffs(tw, phi)))
            for label, degree, kernel in kernels:
                same(kernel(collapsed), kernel(explicit), degree, (label, p))
        for integrand in (forms.bochner_scalar_at, forms.gradient_norm_squared_at):
            same(integrand(collapsed, X), integrand(explicit, X), 0, integrand.__name__)

    def test_delta_forms_no_product_with_a_zero_y_partial(self, monkeypatch):
        """Where N does not vanish, a trig form's y partials are structural
        zeros on the grid, and delta_c forms no N^m_c d_y term for them: d_H
        and delta_H equal at every node those of the delta_c that multiplied
        every term (which broadcast them over the fiber nodes).  The Hilbert
        form depends on y, so its terms are formed."""
        s = bi.get_metric("riemannian-torus")
        base, fiber = (16, 16), (24,)
        phi = bi.random_trig_form(np.random.default_rng(72), s, 1)
        kernels = [
            (lambda tower, k=k, f=f: k(tower, f), degree)
            for f in (phi, hilbert_form(s))
            for k, degree in ((dH_coeffs, 2), (deltaH_coeffs, 0))
        ]

        def every_term(tower, dx, dy):
            n, N = tower.n, tower.N

            def entry(c, idx):
                acc = tget(dx[c], idx)
                for m in range(n):
                    if not is_structural_zero(N[m][c]):
                        acc = acc - N[m][c] * tget(dy[m], idx)
                return acc

            return entry

        with monkeypatch.context() as m:
            m.setattr(connection, "_delta_entry", every_term)
            grid = QuadratureGrid.for_structure(s, base, fiber)
            want = [kernel(grid.tower(s)) for kernel, _ in kernels]

        factors, zero_partials = [], []
        skipping = connection._delta_entry
        leaves = lambda tree: [v for c in tree for v in leaves(c)] if isinstance(tree, list) else [tree]

        class Factor:
            """An N^m_c entry that records what it is multiplied by."""

            __array_ufunc__ = None

            def __init__(self, v):
                self.v = v

            def __mul__(self, other):
                factors.append(other)
                return self.v * other

        def spied(tower, dx, dy):
            if dy is not None:
                zero_partials.extend(v for v in leaves(dy) if is_structural_zero(v))
            N = [[v if is_structural_zero(v) else Factor(v) for v in row] for row in tower.N]
            return skipping(SimpleNamespace(n=tower.n, N=N), dx, dy)

        grid = QuadratureGrid.for_structure(s, base, fiber)
        tower = grid.tower(s)
        assert not any(is_structural_zero(v) for row in tower.N for v in row)
        with monkeypatch.context() as m:
            m.setattr(connection, "_delta_entry", spied)
            got = [kernel(tower) for kernel, _ in kernels]
        assert factors and zero_partials
        assert not any(is_structural_zero(v) for v in factors)
        for (_, degree), a, b in zip(kernels, got, want):
            for idx in itertools.product(range(s.dim), repeat=degree):
                u, v = (np.broadcast_to(tget(c, idx), grid.shape) for c in (a, b))
                assert np.array_equal(u, v), idx


def streamed_deltaH_coeffs(tower, psi):
    """delta_H as :func:`forms.deltaH_coeffs` formed it with every product
    streamed into one of two sums, the added and the subtracted terms: the
    reference of :class:`TestOuterProductCodifferential`."""
    n = tower.n
    val, dx, dy = tower.partials(psi.on)
    delta = functools.cache(connection._delta_entry(tower, dx, dy))
    gi = tower.gi
    zero = is_structural_zero

    def products(pairs):
        return (u * v for u, v in pairs if not (zero(u) or zero(v)))

    def traced(I, parity):
        for j in range(n):
            if j not in I:
                J = tuple(sorted((j,) + I))
                if J.index(j) % 2 == parity:
                    yield from products((gi[i][j], delta(i, J)) for i in range(n))

    def corrections(I):
        gamma, T = tower.Gamma_trace, tower.nabla0T_raised
        for p in range(n):
            v = tget(val, (p,) + I)
            yield from products(((v, gamma[p]), (v, T[p])))
        for t, k in enumerate(I):
            R = tower.Gamma_raised
            for p in range(n):
                sub = I[:t] + (p,) + I[t + 1 :]
                yield from products((tget(val, (j,) + sub), R[p][j][k]) for j in range(n) if j != p)

    def entry(I):
        plus = sum_terms(itertools.chain(corrections(I), traced(I, 1)))
        minus = sum_terms(traced(I, 0))
        return plus if zero(minus) else plus - minus

    return forms.form_build(n, psi.degree - 1, entry)


class TestOuterProductCodifferential:
    """delta_H sums the pairs g^ij (delta_i psi)_J whose one factor is
    constant along the fiber and the other along the base as one matrix
    product (``connection._outer_sum``), and every other pair one product
    at a time, as :func:`streamed_deltaH_coeffs` sums it."""

    REL_TOL = 1e-14  # times the largest |entry| of the streamed delta_H

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_x_independent_metric_takes_one_matrix_product_per_entry(self, p, outer_sums):
        """On randers-torus-3d g^ij varies over the fiber alone and a trig
        form over the base alone, and Gamma and nabla0T vanish."""
        s = bi.get_metric("randers-torus-3d")
        grid = small_grid(s)
        tower = grid.tower(s)
        psi = bi.random_trig_form(np.random.default_rng(40 + p), s, p)
        want = streamed_deltaH_coeffs(tower, psi)
        got = deltaH_coeffs(tower, psi)
        entries = list(itertools.combinations(range(s.dim), p - 1))
        assert len(outer_sums) == len(entries) and all(outer_sums)
        for I in entries:
            a, b = tget(got, I), tget(want, I)
            assert a.shape == b.shape == grid.shape
            assert np.max(np.abs(a - b)) <= self.REL_TOL * np.max(np.abs(b)), I

    def test_base_dependent_grid_batches_and_points_sum_as_before(self, outer_sums):
        """g^ij of base_dependent_randers(2) spans all nodes, a batch has no
        fiber axis and a point's factors are floats: no matrix product, and
        the streamed delta_H bit for bit."""
        s2, s3 = base_dependent_randers(2), bi.get_metric("randers-torus-3d")
        towers = [
            QuadratureGrid.for_structure(s2, (16, 16), (24,)).tower(s2),
            TestSeededPartials.batch_tower(s3),
        ]
        for s in (s2, s3):
            towers += [LocalTower(s, list(z.x), list(z.y)) for z in sample_points(s, 2, seed=44)]
        for tower in towers:
            rng = np.random.default_rng(45)
            for p in range(1, tower.n + 1):
                psi = bi.random_trig_form(rng, tower.s, p)
                got, want = deltaH_coeffs(tower, psi), streamed_deltaH_coeffs(tower, psi)
                for I in itertools.combinations(range(tower.n), p - 1):
                    a, b = tget(got, I), tget(want, I)
                    assert type(a) is type(b) and np.shape(a) == np.shape(b)
                    assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (p, I)
        assert outer_sums == []


def hilbert_form(s):
    return HorizontalForm(1, lambda xs, ys: hilbert_components(s, xs, ys), label="hilbert")


class TestHilbertForm:
    """The Hilbert form ell_i = dF/dy^i is horizontally parallel (the Cartan
    connection is h-metrical and nabla y = 0), hence closed, co-closed and
    harmonic on every Finsler metric."""

    TOL = 1e-12

    @pytest.mark.parametrize("name", ["randers-base", "randers-torus-3d"])
    def test_parallel_and_harmonic_at_points(self, name, randers_base):
        s = metric_by_id(name, randers_base)
        ell = hilbert_form(s)
        lap = horizontal_laplacian(s, ell)
        for z in sample_points(s, 3):
            tower = tower_at(s, (z.x, z.y))
            nab = h_covariant_derivative(tower, TensorField(ell.coeffs, "l")).data
            assert np.max(np.abs(nab)) <= self.TOL
            assert np.max(np.abs(lap.at(s, (z.x, z.y)).data)) <= self.TOL

    @pytest.mark.parametrize("name", ["randers-base", "randers-torus-3d"])
    def test_closed_and_coclosed_on_the_grid(self, name, randers_base):
        s = metric_by_id(name, randers_base)
        grid = small_grid(s)
        ell = hilbert_form(s)
        assert form_grid_norm(s, ell, grid) > 1.0
        for op in (horizontal_differential, horizontal_codifferential):
            assert form_grid_norm(s, op(s, ell), grid) <= self.TOL, op.__name__
