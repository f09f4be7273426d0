"""Volume element on the sphere bundle and integration of the identities.

The sphere bundle is parameterized by chart coordinates times standard
fiber angles, with each fiber direction radially projected onto the unit
sphere of F.  The canonical volume density is computed by pulling back the
Hilbert form and wedging it with powers of its differential; all angle and
base derivatives go through the jet engine, so the density is exact to
roundoff.  Periodic axes use the rectangle rule (spectrally accurate for
smooth periodic integrands), non-periodic axes composite Gauss-Legendre
panels.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import forms as _forms
from . import jets
from .connection import LocalTower, TensorField
from .errors import (
    DegreeMismatch,
    DimensionUnsupported,
    GridError,
    PoleSingularity,
)
from .jets import gcos, gsin, gsqrt, grad_wrt
from .metric import hilbert_components

FIBER_POLAR_MARGIN = 1e-3
DEFAULT_TOLERANCE = 1e-4

# default node counts per base dimension: chart axes, then fiber angles
DEFAULT_BASE_COUNTS = {2: (32, 32), 3: (16, 16, 16)}
DEFAULT_FIBER_COUNTS = {2: (64,), 3: (32, 16)}


@dataclass(frozen=True)
class AxisSpec:
    lo: float
    hi: float
    periodic: bool
    count: int

    def __post_init__(self):
        if self.count < 8:
            raise GridError("at least 8 nodes per axis are required")
        if not self.hi > self.lo:
            raise GridError("empty axis interval")

    def nodes_weights(self):
        if self.periodic:
            h = (self.hi - self.lo) / self.count
            nodes = self.lo + h * np.arange(self.count)
            return nodes, np.full(self.count, h)
        panels = max(1, round(self.count / 8))
        gn, gw = np.polynomial.legendre.leggauss(8)
        edges = np.linspace(self.lo, self.hi, panels + 1)
        nodes, weights = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            nodes.append(mid + half * gn)
            weights.append(half * gw)
        return np.concatenate(nodes), np.concatenate(weights)


def fiber_direction(thetas, n):
    """Point on the Euclidean unit sphere for standard angles (generic)."""
    if n == 2:
        t = thetas[0]
        return [gcos(t), gsin(t)]
    if n == 3:
        t1, t2 = thetas
        s1 = gsin(t1)
        return [s1 * gcos(t2), s1 * gsin(t2), gcos(t1)]
    raise DimensionUnsupported(f"fiber parameterization supports n in {{2, 3}}, got {n}")


def fiber_axes_for(n, counts=None):
    if n == 2:
        counts = counts or DEFAULT_FIBER_COUNTS[2]
        return (AxisSpec(0.0, 2.0 * math.pi, True, counts[0]),)
    if n == 3:
        counts = counts or DEFAULT_FIBER_COUNTS[3]
        return (
            AxisSpec(FIBER_POLAR_MARGIN, math.pi - FIBER_POLAR_MARGIN, False, counts[0]),
            AxisSpec(0.0, 2.0 * math.pi, True, counts[1]),
        )
    raise DimensionUnsupported(f"grids support n in {{2, 3}}, got {n}")


@dataclass(frozen=True)
class VolumeDensity:
    """Orientation-normalized density of the canonical volume at a node."""

    value: float
    raw: float


class QuadratureGrid:
    """Tensor-product nodes over chart times fiber angles, with weights."""

    def __init__(self, base_axes, fiber_axes, tolerance=DEFAULT_TOLERANCE):
        self.base_axes = tuple(base_axes)
        self.fiber_axes = tuple(fiber_axes)
        self.tolerance = float(tolerance)
        self._nw = [ax.nodes_weights() for ax in self.base_axes + self.fiber_axes]
        self._cache = {}
        self._weights = None

    @classmethod
    def for_structure(cls, s, base_counts=None, fiber_counts=None, tolerance=DEFAULT_TOLERANCE):
        n = s.dim
        if n not in (2, 3):
            raise DimensionUnsupported("default grids exist for n in {2, 3} only")
        if base_counts is None:
            base_counts = DEFAULT_BASE_COUNTS[n]
        if len(base_counts) != n:
            raise GridError("one base node count per chart axis is required")
        if fiber_counts is not None and len(fiber_counts) != n - 1:
            raise GridError("one fiber node count per fiber angle is required")
        base = []
        for a in range(n):
            lo, hi = s.chart.interior(a)
            base.append(AxisSpec(lo, hi, s.chart.periodic[a], int(base_counts[a])))
        return cls(base, fiber_axes_for(n, fiber_counts), tolerance)

    def doubled(self):
        base = [AxisSpec(a.lo, a.hi, a.periodic, 2 * a.count) for a in self.base_axes]
        fiber = [AxisSpec(a.lo, a.hi, a.periodic, 2 * a.count) for a in self.fiber_axes]
        return QuadratureGrid(base, fiber, tolerance=self.tolerance / 4.0)

    @property
    def n_base(self):
        return len(self.base_axes)

    @property
    def shape(self):
        return tuple(len(nw[0]) for nw in self._nw)

    @property
    def num_nodes(self):
        return int(np.prod(self.shape))

    def axis_arrays(self):
        """Node arrays broadcast-shaped over the full tensor product."""
        k = len(self._nw)
        out = []
        for i, (nodes, _) in enumerate(self._nw):
            shape = [1] * k
            shape[i] = len(nodes)
            out.append(nodes.reshape(shape))
        return out

    def weights_full(self):
        """Product weights over the full tensor product, computed once per
        grid and shared read-only by every integral on it."""
        if self._weights is None:
            k = len(self._nw)
            w = np.ones((1,) * k)
            for i, (_, wi) in enumerate(self._nw):
                shape = [1] * k
                shape[i] = len(wi)
                w = w * wi.reshape(shape)
            w.flags.writeable = False
            self._weights = w
        return self._weights

    # -- per-structure caches -------------------------------------------------
    # Keyed by id(s) and holding s, so the id stays valid while cached.  Forms
    # are evaluated on tower(s), so each connection layer is computed once per
    # grid and metric, not once per form.

    def coords_for(self, s):
        """(xs, ys) coordinate scalar lists at all nodes, broadcast shaped."""
        key = ("coords", id(s))
        if key not in self._cache:
            arrays = self.axis_arrays()
            xs = arrays[: self.n_base]
            th = arrays[self.n_base :]
            u = fiber_direction(th, s.dim)
            F = gsqrt(s.f2(xs, u))
            ys = [uk / F for uk in u]
            self._cache[key] = (s, xs, ys)
        _, xs, ys = self._cache[key]
        return xs, ys

    def tower(self, s) -> LocalTower:
        key = ("tower", id(s))
        if key not in self._cache:
            xs, ys = self.coords_for(s)
            self._cache[key] = (s, LocalTower(s, xs, ys))
        return self._cache[key][1]

    def density(self, s):
        key = ("density", id(s))
        if key not in self._cache:
            arrays = self.axis_arrays()
            raw = _raw_density(s, arrays[: self.n_base], arrays[self.n_base :])
            raw = np.broadcast_to(np.asarray(raw, float), self.shape)
            if float(np.min(np.abs(raw))) <= 0.0:
                raise GridError("volume density vanishes at a node; degenerate structure or grid")
            self._cache[key] = (s, np.abs(raw))
        return self._cache[key][1]

    def meta(self):
        return {
            "base_counts": [a.count for a in self.base_axes],
            "fiber_counts": [a.count for a in self.fiber_axes],
            "num_nodes": self.num_nodes,
            "tolerance": self.tolerance,
        }


# -- the volume density --------------------------------------------------------


def _volume_prefactor(n):
    return ((-1.0) ** ((n * (n - 1)) // 2)) / math.factorial(n - 1)


def _raw_density(s, xs, thetas, fiber_sign=1.0):
    """Top coefficient of the pulled-back canonical volume form.

    The Hilbert form is pulled back through (x, theta) -> (x, y(x, theta)),
    its differential is taken in all base and angle variables, and the
    single top-degree component of form wedge (d form)^(n-1) is assembled
    by shuffle expansion.
    """
    n = s.dim
    if n not in (2, 3):
        raise DimensionUnsupported("volume density supports n in {2, 3}")
    d = 2 * n - 1

    def w_fn(xi):
        bxs = xi[:n]
        th = [fiber_sign * t for t in xi[n:]]
        u = fiber_direction(th, n)
        F = gsqrt(s.f2(bxs, u))
        invF = jets._reciprocal(F)
        ys = [uk * invF for uk in u]
        ell = hilbert_components(s, bxs, ys)
        return ell + [0.0] * (d - n)

    xi = list(xs) + [t * fiber_sign for t in thetas]
    w = w_fn(xi)
    dw = grad_wrt(w_fn, (xi,), 0)  # dw[a][b] = d_a w_b
    A = [[dw[a][b] - dw[b][a] for b in range(d)] for a in range(d)]

    if n == 2:
        top = w[0] * A[1][2] - w[1] * A[0][2] + w[2] * A[0][1]
    else:
        idx = list(range(5))
        top = None
        for k in range(5):
            rest = idx[:k] + idx[k + 1 :]
            b, c, dd, e = rest
            B = 2.0 * (A[b][c] * A[dd][e] - A[b][dd] * A[c][e] + A[b][e] * A[c][dd])
            term = w[k] * B
            if k % 2:
                term = -term
            top = term if top is None else top + term
    return _volume_prefactor(n) * top


def volume_density(s, x, theta, fiber_sign=1.0) -> VolumeDensity:
    """Density of the canonical volume at one (base, angle) node."""
    x = [float(v) for v in np.atleast_1d(np.asarray(x, float))]
    theta = [float(v) for v in np.atleast_1d(np.asarray(theta, float))]
    s._check_chart(np.asarray(x))
    if s.dim == 3 and abs(math.sin(theta[0])) < FIBER_POLAR_MARGIN / 2:
        raise PoleSingularity("polar fiber angle too close to the axis")
    raw = float(jets.primal(_raw_density(s, x, theta, fiber_sign=fiber_sign)))
    return VolumeDensity(value=abs(raw), raw=raw)


# -- integration ----------------------------------------------------------------


def integrate_scalar(s, f, grid: QuadratureGrid) -> float:
    """Integral of a scalar field over the sphere bundle.

    ``f`` is a generic callable (xs, ys) -> scalar, evaluated once on the
    grid's broadcast-shaped node coordinates, or a precomputed array
    broadcastable to the grid shape.
    """
    vals = f(*grid.coords_for(s)) if callable(f) else f
    vals = np.broadcast_to(np.asarray(vals, float), grid.shape)
    if not np.all(np.isfinite(vals)):
        raise GridError("integrand is not finite at some node")
    total = vals * grid.weights_full() * grid.density(s)
    return float(np.sum(total))


def _form_values_inner(s, phi, psi, grid):
    tower = grid.tower(s)
    a = phi.on(tower)
    b = psi.on(tower) if psi is not phi else a
    return _forms.inner_coeffs(tower, a, b, phi.degree)


def global_inner_product(s, phi, psi, grid: QuadratureGrid) -> float:
    if phi.degree != psi.degree:
        raise DegreeMismatch(f"degrees {phi.degree} and {psi.degree} differ")
    return integrate_scalar(s, _form_values_inner(s, phi, psi, grid), grid)


def form_grid_norm(s, phi, grid: QuadratureGrid) -> float:
    val = global_inner_product(s, phi, phi, grid)
    return math.sqrt(max(val, 0.0))


def divergence_integral_check(s, pi, grid: QuadratureGrid) -> float:
    """Normalized defect of the vanishing divergence integral for a 1-form."""
    if pi.degree != 1:
        raise GridError("divergence check expects a 1-form")
    if any(not ax.periodic for ax in grid.base_axes):
        warnings.warn(
            "chart has non-periodic axes: the divergence integral holds only up to boundary flux",
            stacklevel=2,
        )
    tower = grid.tower(s)
    dvals = _forms.deltaH_coeffs(tower, pi)
    integral = integrate_scalar(s, np.asarray(dvals, float), grid)
    norm = form_grid_norm(s, pi, grid)
    return abs(integral) / (1.0 + norm)


def adjointness_defect(s, phi, psi, grid: QuadratureGrid) -> float:
    """Relative defect of (d_H phi, psi) = (phi, delta_H psi) on the grid."""
    if psi.degree != phi.degree + 1:
        raise DegreeMismatch("psi must have degree one higher than phi")
    tower = grid.tower(s)
    dphi = _forms.dH_coeffs(tower, phi)
    psivals = psi.on(tower)
    lhs = integrate_scalar(s, _forms.inner_coeffs(tower, dphi, psivals, psi.degree), grid)
    dpsi = _forms.deltaH_coeffs(tower, psi)
    phivals = phi.on(tower)
    rhs = integrate_scalar(s, _forms.inner_coeffs(tower, phivals, dpsi, phi.degree), grid)
    return abs(lhs - rhs) / (1.0 + abs(lhs))


def bochner_integral(s, X: TensorField, grid: QuadratureGrid) -> dict:
    """Curvature and gradient integrals for the harmonic field classification.

    The sum of the two integrals is the quantity that vanishes for harmonic
    fields; the divergence defect of the transport form is reported for any
    field since it is a co-differential.
    """
    tower = grid.tower(s)
    K = _forms.bochner_scalar_at(tower, X)
    grad2 = _forms.gradient_norm_squared_at(tower, X)
    K_integral = integrate_scalar(s, np.broadcast_to(np.asarray(K, float), grid.shape), grid)
    grad_integral = integrate_scalar(s, np.broadcast_to(np.asarray(grad2, float), grid.shape), grid)
    dW = _forms.deltaH_coeffs(tower, _forms.transport_form(s, X))
    div = integrate_scalar(s, np.asarray(dW, float), grid)
    return {
        "K_integral": K_integral,
        "grad_norm_integral": grad_integral,
        "sum": K_integral + grad_integral,
        "divergence_defect": abs(div),
    }
