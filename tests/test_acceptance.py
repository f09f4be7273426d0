"""End-to-end acceptance suite.

One test per criterion, each printing a PASS/FAIL line with the measured
worst value against the pinned tolerance.  Default grids throughout:
32x32 base with 64 fiber nodes in dimension 2.
"""

import math

import numpy as np
import pytest

from finslerforms import builtins as bi
from finslerforms.connection import TensorField, pack, tower_at
from finslerforms.curvature import (
    hh_components,
    hv_components,
    ricci_components,
    ricci_identity_residual,
    vv_components,
)
from finslerforms.forms import (
    bochner_scalar_at,
    energy_identity_residuals,
    horizontal_laplacian,
    is_h_harmonic,
    laplacian_expansion,
)
from finslerforms.quadrature import (
    QuadratureGrid,
    adjointness_defect,
    bochner_integral,
    divergence_integral_check,
)

ALL_FAMILIES = list(bi.METRIC_IDS)
TORI = ["euclidean", "randers-torus"]


def report(name, worst, tol, extra=""):
    ok = worst <= tol
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}: worst {worst:.3e} vs tolerance {tol:.1e} {extra}")
    return ok


def sphere_christoffel(theta):
    G = np.zeros((2, 2, 2))
    G[0, 1, 1] = -math.sin(theta) * math.cos(theta)
    G[1, 0, 1] = G[1, 1, 0] = math.cos(theta) / math.sin(theta)
    return G


def sphere_riemann(theta):
    R = np.zeros((2, 2, 2, 2))
    s2 = math.sin(theta) ** 2
    R[0, 1, 0, 1] = s2
    R[0, 1, 1, 0] = -s2
    R[1, 0, 1, 0] = 1.0
    R[1, 0, 0, 1] = -1.0
    return R


def test_criterion_01_homogeneity_and_euler():
    """Scaling laws and Euler identities at 100 random points per family."""
    tol = 1e-10
    worst = 0.0
    rng = np.random.default_rng(101)
    for name in ALL_FAMILIES:
        s = bi.get_metric(name)
        for z in bi.random_chart_points(rng, s, 100):
            x, y = z.x, z.y
            F = s.F(x, y)
            g = s.fundamental_tensor((x, y)).data
            C = s.cartan_tensor((x, y)).data
            T = s.cartan_trace((x, y)).data
            ell = s.hilbert_form((x, y)).data
            for lam in (0.5, 2.0):
                ys = lam * y
                worst = max(worst, abs(s.F(x, ys) - lam * F) / (1 + lam * F))
                gl = s.fundamental_tensor((x, ys)).data
                worst = max(worst, np.max(np.abs(gl - g)) / (1 + np.max(np.abs(g))))
                Cl = s.cartan_tensor((x, ys)).data
                worst = max(worst, np.max(np.abs(Cl - C / lam)) / (1 + np.max(np.abs(C))))
            worst = max(worst, abs(s.F(x, 7.0 * y) - 7.0 * F) / (1 + 7.0 * F))
            worst = max(worst, abs(y @ g @ y - F * F) / (1 + F * F))
            worst = max(worst, abs(ell @ y - F) / (1 + F))
            worst = max(worst, np.max(np.abs(np.einsum("kij,k->ij", C, y))))
            worst = max(worst, abs(T @ y))
    assert report("criterion 1 homogeneity/Euler", worst, tol)


def test_criterion_02_riemannian_reduction():
    """Sphere chart reproduces closed-form symbols and curvature."""
    s = bi.get_metric("riemannian-sphere")
    rng = np.random.default_rng(102)
    worst_closed = 0.0
    worst_vanish = 0.0
    for z in bi.random_chart_points(rng, s, 15):
        th = z.x[0]
        tower = tower_at(s, (z.x, z.y))
        Gamma = pack(tower.Gamma, 3)
        worst_closed = max(worst_closed, np.max(np.abs(Gamma - sphere_christoffel(th))))
        R = pack(hh_components(tower), 4)
        worst_closed = max(worst_closed, np.max(np.abs(R - sphere_riemann(th))))
        ricci_expect = np.diag([1.0, math.sin(th) ** 2])
        ricci = pack(ricci_components(tower), 2)
        worst_closed = max(worst_closed, np.max(np.abs(ricci - ricci_expect)))
        blocks = (pack(tower.Cmix, 3), pack(hv_components(tower), 4), pack(vv_components(tower), 4))
        for block in blocks:
            worst_vanish = max(worst_vanish, np.max(np.abs(block)))
        worst_vanish = max(worst_vanish, np.max(np.abs(pack(tower.Tt, 1))))
    ok1 = report("criterion 2 sphere closed forms", worst_closed, 1e-6)
    ok2 = report("criterion 2 Cartan blocks vanish", worst_vanish, 1e-8)
    assert ok1 and ok2


def test_criterion_03_ricci_identity():
    """Commutator identity for 50 seeded trig fields on three families."""
    tol = 1e-5
    worst = 0.0
    for name in ("euclidean", "randers-torus", "riemannian-sphere"):
        s = bi.get_metric(name)
        rng = np.random.default_rng(103)
        for _ in range(50):
            X = bi.random_trig_vector(rng, s, trig_degree=2)
            for z in bi.random_chart_points(rng, s, 2):
                res = ricci_identity_residual(tower_at(s, (z.x, z.y)), X)
                worst = max(worst, float(np.max(np.abs(res.data))))
    assert report("criterion 3 ricci identity", worst, tol)


def test_criterion_04_adjointness():
    """Differential and co-differential are adjoint on default and doubled grids."""
    worst_default = 0.0
    worst_doubled = 0.0
    for name in TORI:
        s = bi.get_metric(name)
        grid = QuadratureGrid.for_structure(s)
        grid2 = grid.doubled()
        for p in (0, 1):
            rng = np.random.default_rng(104 + p)
            for _ in range(10):
                phi = bi.random_trig_form(rng, s, p)
                psi = bi.random_trig_form(rng, s, p + 1)
                worst_default = max(worst_default, adjointness_defect(s, phi, psi, grid))
                worst_doubled = max(worst_doubled, adjointness_defect(s, phi, psi, grid2))
    ok1 = report("criterion 4 adjointness default grid", worst_default, 1e-4)
    ok2 = report("criterion 4 adjointness doubled grid", worst_doubled, 2.5e-5)
    assert ok1 and ok2


def test_criterion_05_harmonicity_equivalence():
    """Closed plus co-closed versus harmonic, at desk scale."""
    ok = True
    for name in TORI:
        s = bi.get_metric(name)
        grid = QuadratureGrid.for_structure(s)
        rep = is_h_harmonic(s, bi.get_form("dx1", s), grid, tol=1e-8)
        worst = max(rep["laplacian_norm"], rep["dH_norm"], rep["deltaH_norm"])
        ok &= report(f"criterion 5 dx1 harmonic on {name}", worst, 1e-8)
        rep = is_h_harmonic(s, bi.get_form("sin-x1-dx1", s), grid, tol=1e-8)
        big = rep["laplacian_norm"] > 0.1 and max(rep["dH_norm"], rep["deltaH_norm"]) > 0.1
        print(
            f"[{'PASS' if big else 'FAIL'}] criterion 5 sin-x1-dx1 not harmonic on {name}: "
            f"laplacian {rep['laplacian_norm']:.3e}, dH {rep['dH_norm']:.3e}, "
            f"deltaH {rep['deltaH_norm']:.3e} (threshold 0.1)"
        )
        ok &= big
        ok &= rep["equivalence_consistent"]
    assert ok


def test_criterion_06_divergence_integral():
    """Vanishing divergence integral for seeded 1-forms on both tori."""
    tol = 1e-5
    worst = 0.0
    for name in TORI:
        s = bi.get_metric(name)
        grid = QuadratureGrid.for_structure(s)
        rng = np.random.default_rng(106)
        for _ in range(10):
            pi_form = bi.random_trig_form(rng, s, 1)
            worst = max(worst, divergence_integral_check(s, pi_form, grid))
    assert report("criterion 6 divergence integral", worst, tol)


def test_criterion_07_composition_vs_expansion():
    """Composed Laplacian against its expanded formula, degrees 1 and 2."""
    tol = 1e-5
    worst = 0.0
    for name in TORI:
        s = bi.get_metric(name)
        rng = np.random.default_rng(107)
        for p in (1, 2):
            for _ in range(10):
                phi = bi.random_trig_form(rng, s, p)
                for z in bi.random_chart_points(rng, s, 2):
                    a = horizontal_laplacian(s, phi).at(s, (z.x, z.y)).data
                    b = laplacian_expansion(s, phi).at(s, (z.x, z.y)).data
                    worst = max(worst, float(np.max(np.abs(a - b))))
    assert report("criterion 7 composition vs expansion", worst, tol)


def test_criterion_08_flat_torus_hodge_oracle():
    """Classical Hodge Laplacian recovered on the flat torus."""
    s = bi.get_metric("euclidean")
    rng = np.random.default_rng(108)
    phi = bi.get_form("sin-x1-dx1", s)
    worst_point = 0.0
    for z in bi.random_chart_points(rng, s, 10):
        lap = horizontal_laplacian(s, phi).at(s, (z.x, z.y)).data
        expected = np.array([math.sin(z.x[0]), 0.0])
        worst_point = max(worst_point, float(np.max(np.abs(lap - expected))))
    ok1 = report("criterion 8 pointwise Hodge oracle", worst_point, 1e-6)
    grid = QuadratureGrid.for_structure(s)
    worst_norm = 0.0
    for fid in ("dx1", "dx2"):
        rep = is_h_harmonic(s, bi.get_form(fid, s), grid, tol=1e-10)
        worst_norm = max(worst_norm, rep["laplacian_norm"])
    ok2 = report("criterion 8 harmonic basis forms", worst_norm, 1e-10)
    assert ok1 and ok2


def test_criterion_09_energy_identities():
    """Pointwise transport identities and their integrated divergence form."""
    tol = 1e-5
    worst = 0.0
    for name in TORI:
        s = bi.get_metric(name)
        rng = np.random.default_rng(109)
        for _ in range(50):
            X = bi.random_trig_vector(rng, s, trig_degree=2)
            for z in bi.random_chart_points(rng, s, 2):
                r1, r2 = energy_identity_residuals(s, X, (z.x, z.y))
                worst = max(worst, abs(r1), abs(r2))
    ok1 = report("criterion 9 pointwise residuals", worst, tol)
    worst_int = 0.0
    for name in TORI:
        s = bi.get_metric(name)
        grid = QuadratureGrid.for_structure(s)
        rng = np.random.default_rng(209)
        for _ in range(2):
            X = bi.random_trig_vector(rng, s, trig_degree=2)
            res = bochner_integral(s, X, grid)
            worst_int = max(worst_int, res["divergence_defect"])
    ok2 = report("criterion 9 integrated divergence", worst_int, tol)
    assert ok1 and ok2


def test_criterion_10_harmonic_field_classification():
    """Parallel branch on tori, positive-curvature spot check on the sphere."""
    ok = True
    worst_flat = 0.0
    for name in TORI:
        s = bi.get_metric(name)
        grid = QuadratureGrid.for_structure(s)
        X = TensorField.from_vector(lambda xs: [0.8, -0.5], label="constant")
        rng = np.random.default_rng(110)
        for z in bi.random_chart_points(rng, s, 10):
            worst_flat = max(worst_flat, abs(bochner_scalar_at(tower_at(s, (z.x, z.y)), X)))
        res = bochner_integral(s, X, grid)
        worst_flat = max(worst_flat, res["grad_norm_integral"], abs(res["sum"]))
    ok &= report("criterion 10 parallel branch on tori", worst_flat, 1e-8)

    sph = bi.get_metric("riemannian-sphere")
    tower = tower_at(sph, ([math.pi / 2, 0.4], [1.0, 0.0]))
    K = bochner_scalar_at(tower, bi.get_field("d-phi", sph))
    ok &= report("criterion 10 equator spot value", abs(K - 1.0), 1e-6, extra=f"(K={K:.8f})")

    grid = QuadratureGrid.for_structure(sph)
    rng = np.random.default_rng(210)
    most_negative = 0.0
    for _ in range(3):
        X = bi.random_trig_vector(rng, sph, trig_degree=2)
        res = bochner_integral(sph, X, grid)
        most_negative = min(most_negative, res["sum"])
    ok &= report("criterion 10 sphere Bochner nonnegativity", -most_negative, 1e-6)
    assert ok
