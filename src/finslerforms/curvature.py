"""Curvature blocks of the Cartan connection and the Ricci identity check.

The hh-curvature is assembled from horizontal derivatives of the Cartan
coefficients; the curvature of the nonlinear connection (the ``flag``
tensor) is defined with the sign that makes it equal the y-contraction of
the hh-curvature, which is also the sign under which the Ricci identity
holds.  The hv-block is the P curvature of the Cartan connection
(Bao-Chern-Shen, *An Introduction to Riemann-Finsler Geometry*, 2000); it
vanishes on Riemannian inputs.

Each block is a kernel of a tower (:func:`hh_components`, ...), at a point,
on a grid or at jet coordinates.  At one point every block is read off the
tower of ``connection.tower_at``, which keeps the last point's tower, so
several blocks share its layers, also when each is read in a call of its own.
"""

from __future__ import annotations

import numpy as np

from .connection import (
    LocalTower,
    TensorField,
    cov_hh,
    cov_v,
    nested_build,
    pack,
    require_vector_field,
    sum_terms,
    tower_at,
)
from .errors import DomainError
from .metric import TensorValue

FLAG_CROSS_CHECK_TOL = 1e-6


def hh_components(tower: LocalTower):
    """hh[h][k][i][j]: curvature with upper index h, argument k, plane (i, j)."""
    n = tower.n
    dG = tower.deltaGamma
    Gamma = tower.Gamma
    flag = tower.flag
    Cmix = tower.Cmix

    def entry(idx):
        h, k, i, j = idx
        acc = dG[i][h][j][k] - dG[j][h][i][k]
        for l in range(n):
            acc = acc + Gamma[l][j][k] * Gamma[h][i][l] - Gamma[l][i][k] * Gamma[h][j][l]
            acc = acc + flag[l][i][j] * Cmix[h][l][k]
        return acc

    return nested_build(n, 4, entry)


def hv_components(tower: LocalTower):
    """hv[h][k][i][j]: hv-curvature with upper index h, argument k, h-slot i
    and v-slot j."""
    n = tower.n
    dGy = tower.dGamma_y
    dNy = tower.dN_y
    Gamma, Cmix = tower.Gamma, tower.Cmix
    dC = tower.deltaCmix

    def entry(idx):
        h, k, i, j = idx
        acc = dGy[j][h][k][i] - dC[i][h][k][j]
        for r in range(n):
            acc = acc + Gamma[r][k][i] * Cmix[h][r][j] - Cmix[r][k][j] * Gamma[h][r][i]
            acc = acc + dNy[j][r][i] * Cmix[h][k][r]
        return acc

    return nested_build(n, 4, entry)


def vv_components(tower: LocalTower):
    """vv[h][k][i][j] = C^h_rj C^r_ki - C^h_ri C^r_kj; antisymmetric in (i, j)."""
    n = tower.n
    C = tower.Cmix

    def entry(idx):
        h, k, i, j = idx
        return sum_terms(C[h][r][j] * C[r][k][i] - C[h][r][i] * C[r][k][j] for r in range(n))

    return nested_build(n, 4, entry)


def ricci_components(tower: LocalTower):
    n = tower.n
    hh = hh_components(tower)
    return [[sum_terms(hh[l][i][l][j] for l in range(n)) for j in range(n)] for i in range(n)]


def checked_flag(tower: LocalTower):
    """The flag curvature R^i_jk at a pointwise tower as a float array, once
    it agrees with the y-contraction of the hh-curvature; disagreement
    signals an engine defect."""
    flag = pack(tower.flag, 3)
    alt = np.einsum("m,imjk->ijk", tower.ys, pack(hh_components(tower), 4))
    defect = float(np.max(np.abs(flag - alt)))
    scale = 1.0 + float(np.max(np.abs(flag)))
    if defect / scale > FLAG_CROSS_CHECK_TOL:
        raise DomainError(f"flag curvature cross-check failed: |direct - y.hh| = {defect:.3e}")
    return flag


def flag_curvature_tensor(s, z, cross_check=True):
    """Curvature of the nonlinear connection R^i_jk at z, with the cross-check
    of :func:`checked_flag` if ``cross_check``."""
    tower = tower_at(s, z)
    return TensorValue(checked_flag(tower) if cross_check else pack(tower.flag, 3), "ull")


def ricci_identity_residual(tower: LocalTower, X: TensorField):
    """Commutator of horizontal covariant derivatives minus its curvature value.

    The residual res[i][k][h] should vanish for any smooth vector field; it
    is the whole-stack consistency check of connection plus curvature.
    """
    require_vector_field(X, "ricci identity residual expects")
    n = tower.n
    _, _, D = cov_hh(tower, X.on, "u")  # D[a][b][i] = nabla_a nabla_b X^i
    val, _, dy = X.partials(tower.xs, tower.ys)
    vt = cov_v(tower, val, dy, "u")  # vt[r][i] = vertical derivative
    hh = hh_components(tower)
    flag = tower.flag

    def entry(idx):
        i, k, h = idx
        acc = D[k][h][i] - D[h][k][i]
        for r in range(n):
            acc = acc - val[r] * hh[i][r][k][h]
            acc = acc + vt[r][i] * flag[r][k][h]
        return acc

    return TensorValue(pack(nested_build(n, 3, entry), 3), "ull")
