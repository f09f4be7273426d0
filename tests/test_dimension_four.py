"""The pointwise identities at n = 4, where no default grid exists, on a
base-dependent Randers metric at one seeded point.  Each holds to the
tolerance of its 2D/3D test.  This is the first dimension where
``metric.inverse_components`` takes its elimination branch and a joint pass at
a point seeds 8 directions.  The grid checks run on an explicit 8,8,8,8x8,8,8
grid (2,097,152 nodes) over x-independent metrics, whose fiber S^3 has two
polar angles and one periodic angle."""

import math

import numpy as np
import pytest

from finslerforms import builtins as bi
from finslerforms.connection import pack, tower_at
from finslerforms.curvature import ricci_identity_residual, vv_components
from finslerforms.forms import (
    associate_one_form,
    energy_identity_residuals,
    horizontal_laplacian,
    laplacian_expansion,
    weitzenbock_residual,
)
from finslerforms.metric import FinslerStructure
from finslerforms.quadrature import (
    QuadratureGrid,
    adjointness_defect,
    divergence_integral_check,
    integrate_scalar,
)

from conftest import sample_points


@pytest.fixture(scope="module")
def point(randers_base_4d):
    z = sample_points(randers_base_4d, 1, seed=41)[0]
    return z.x, z.y


def test_metric_is_not_riemannian(randers_base_4d, point):
    assert np.max(np.abs(pack(vv_components(tower_at(randers_base_4d, point)), 4))) > 1e-3


@pytest.mark.parametrize("p", range(5))
def test_composition_matches_expansion(randers_base_4d, point, p):
    s = randers_base_4d
    phi = bi.random_trig_form(np.random.default_rng(50 + p), s, p)
    a = horizontal_laplacian(s, phi).at(s, point).data
    b = laplacian_expansion(s, phi).at(s, point).data
    assert np.max(np.abs(a)) > 1e-3
    assert np.max(np.abs(a - b)) < 1e-5


def test_ricci_identity(randers_base_4d, point):
    X = bi.random_trig_vector(np.random.default_rng(60), randers_base_4d, trig_degree=2)
    assert np.max(np.abs(ricci_identity_residual(tower_at(randers_base_4d, point), X).data)) < 1e-5


def test_energy_identities(randers_base_4d, point):
    X = bi.random_trig_vector(np.random.default_rng(61), randers_base_4d)
    r1, r2 = energy_identity_residuals(randers_base_4d, X, point)
    assert abs(r1) < 1e-12 and abs(r2) < 1e-12


def test_weitzenbock_residual_is_minus_the_laplacian(randers_base_4d, point):
    s = randers_base_4d
    X = bi.random_trig_vector(np.random.default_rng(62), s)
    res = weitzenbock_residual(tower_at(s, point), X).data
    lap = horizontal_laplacian(s, associate_one_form(s, X).horizontal).at(s, point).data
    assert np.max(np.abs(lap)) > 1e-3
    assert np.max(np.abs(res + lap)) < 1e-5


def randers_4d():
    return FinslerStructure.randers(np.eye(4).tolist(), [0.3, 0.0, 0.0, 0.0])


@pytest.fixture(scope="module")
def randers_4d_grid():
    s = randers_4d()
    return s, QuadratureGrid.for_structure(s, (8,) * 4, (8,) * 3)


@pytest.mark.parametrize("make", [lambda: FinslerStructure.euclidean(4), randers_4d],
                         ids=["euclidean", "randers"])
def test_sphere_bundle_volume_on_a_grid(make):
    """vol(S^3) (2 pi)^4 = 2 pi^2 (2 pi)^4 for the flat torus and a constant
    Randers metric on it, up to the sliver the polar margins leave out."""
    s = make()
    grid = QuadratureGrid.for_structure(s, (8,) * 4, (8,) * 3)
    volume = integrate_scalar(s, 1.0, grid)
    assert volume == pytest.approx(2.0 * math.pi**2 * (2.0 * math.pi) ** 4, rel=1e-6)


def test_adjointness_on_a_grid(randers_4d_grid):
    s, grid = randers_4d_grid
    rng = np.random.default_rng(70)
    phi, psi = bi.random_trig_form(rng, s, 1), bi.random_trig_form(rng, s, 2)
    assert adjointness_defect(s, phi, psi, grid) < grid.tolerance


def test_divergence_integral_on_a_grid(randers_4d_grid):
    s, grid = randers_4d_grid
    pi = bi.random_trig_form(np.random.default_rng(71), s, 1)
    assert divergence_integral_check(s, pi, grid) < grid.tolerance
