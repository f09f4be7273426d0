"""Numerical Cartan-connection calculus and harmonic horizontal forms on
the sphere bundle of a Finsler manifold."""

from .connection import (
    LocalTower,
    TensorField,
    delta_derivative,
    h_covariant_derivative,
    nabla_0,
    tower_at,
    v_covariant_derivative,
)
from .curvature import flag_curvature_tensor, ricci_identity_residual
from .forms import (
    AssociatedForm,
    HorizontalForm,
    associate_one_form,
    energy_identity_residuals,
    horizontal_codifferential,
    horizontal_differential,
    horizontal_laplacian,
    laplacian_expansion,
    pointwise_inner,
    weitzenbock_residual,
)
from .jets import Jet, JetRequest, fd_partial, partial
from .metric import ChartSpec, FinslerStructure, SpherePoint, TensorValue
from .quadrature import (
    QuadratureGrid,
    VolumeDensity,
    adjointness_defect,
    bochner_integral,
    divergence_integral_check,
    global_inner_product,
    integrate_scalar,
    is_h_harmonic,
    volume_density,
)

# the two layers nothing above imports, so every layer module is an
# attribute of the package once it is imported
from . import builtins, scenario

__version__ = "0.1.0"
