"""Volume element on the sphere bundle and integration of the identities.

The sphere bundle is parameterized by chart coordinates times standard
fiber angles: y = u(theta) / F(x, u), with u(theta) on the Euclidean unit
sphere.  The canonical volume omega wedge (d omega)^(n-1) of the Hilbert
form omega pulls back to det g(x, y) * det[y, d_theta y] in these
coordinates.  Since d_theta y = d_theta u / F - u d_theta F / F^2 and the
second term is a multiple of the first column, reducing columns gives
det[y, d_theta y] = det[u, d_theta u] / F^n.  The density is therefore
det g(x, y) * det[u, d_theta u] / F(x, u)^n: g comes from the grid's tower,
the angle partials of u from the jet engine, and u and F are the samples
y = u / F was made of.  Periodic axes use the rectangle rule (spectrally
accurate for smooth periodic integrands), non-periodic axes composite
Gauss-Legendre panels of 8 nodes, so they take a multiple of 8 nodes.

One angle rule covers every fiber S^(n-1), n >= 2: the first n - 2 angles
are polar, on [margin, pi - margin], each measured from the last remaining
axis, u = (sin theta_1 * u'(theta_2, ...), cos theta_1), and the last is the
periodic angle of S^1, u = (cos t, sin t).  In this order det[u, d_theta u]
has the sign (-1)^((n-2)(n-3)/2): positive for n = 2, 3, negative for
n = 4, 5.  ``VolumeDensity.raw`` keeps that sign; the density integrated is
its absolute value.

An integral of forms, (phi, psi) = sum over increasing I, J of the integral
of a_I b_J det(g^IJ) w rho, meets the grid's one full-grid w * rho by the
shapes of its factors, read off each term: a term whose two factors are
constant along every fiber axis, as forms of x alone and their d_H are,
is a base-sized product dotted with the fiber marginal M_IJ = sum over the
fiber of det(g^IJ) w rho, which the grid caches once per metric and (I, J)
(:meth:`QuadratureGrid.fiber_marginal`).  Where one factor alone varies
along the fiber, it is multiplied by w * rho once per component, reduced
over the fiber against det(g^IJ) and dotted with the other.  The remaining
terms accumulate over all nodes and meet w * rho in one dot.

A sum of outer products (:class:`connection.OuterSum`: delta_H of a form of
x alone and |nabla X|^2 of a field of x alone, on an x-independent metric)
is integrated without a product over the nodes.  Where the density is
constant along every base axis, the grid holds w * rho as two factors
(:meth:`QuadratureGrid.weight_factors`): the product of the base weights,
and the fiber weights times rho.  :func:`integrate_scalar` and the
one-varies route of :func:`global_inner_product` then reduce the sum's
fiber factors against the fiber weights times the minor, take its base
factors' K sums and multiply by the base weights: base-plus-fiber work.
On every other grid, and wherever the sum meets a factor that varies along
the fiber, it is materialized and takes the routes above.  A total that is
not finite is checked on the materialized values, so the same error is
raised on every route.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from . import forms as _forms
from .connection import LocalTower, OuterSum, TensorField, is_structural_zero, tget, tower_at
from .errors import (
    DegreeMismatch,
    DomainError,
    GridError,
    PoleSingularity,
)
from .jets import gcos, gsin, gsqrt, grad_wrt

FIBER_POLAR_MARGIN = 1e-3
DEFAULT_TOLERANCE = 1e-4

# default node counts per base dimension: chart axes, then fiber angles
DEFAULT_BASE_COUNTS = {2: (32, 32), 3: (16, 16, 16)}
DEFAULT_FIBER_COUNTS = {2: (64,), 3: (32, 16)}
# the dimensions that have a default grid, as error messages name them
DEFAULT_GRID_NOTE = f"default grids exist for n in {set(DEFAULT_BASE_COUNTS)} only"


@dataclass(frozen=True)
class AxisSpec:
    lo: float
    hi: float
    periodic: bool
    count: int

    def __post_init__(self):
        if self.count < 8:
            raise GridError("at least 8 nodes per axis are required")
        if not self.periodic and self.count % 8:
            raise GridError(f"a Gauss-Legendre axis takes a multiple of 8 nodes, got {self.count}")
        if not self.hi > self.lo:
            raise GridError("empty axis interval")

    def nodes_weights(self):
        if self.periodic:
            h = (self.hi - self.lo) / self.count
            nodes = self.lo + h * np.arange(self.count)
            return nodes, np.full(self.count, h)
        panels = self.count // 8
        gn, gw = np.polynomial.legendre.leggauss(8)
        edges = np.linspace(self.lo, self.hi, panels + 1)
        nodes, weights = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            nodes.append(mid + half * gn)
            weights.append(half * gw)
        return np.concatenate(nodes), np.concatenate(weights)


def fiber_direction(thetas):
    """Point on the Euclidean unit sphere S^(n-1) for its n - 1 angles, polar
    angles first (the module's angle rule)."""
    *polar, t = thetas
    u = [gcos(t), gsin(t)]
    for th in reversed(polar):
        s = gsin(th)
        u = [s * c for c in u] + [gcos(th)]
    return u


def fiber_axes_for(counts):
    """Polar Gauss-Legendre axes on [margin, pi - margin], then one periodic
    axis, for the node counts of the fiber angles in :func:`fiber_direction`
    order."""
    lo, hi = FIBER_POLAR_MARGIN, math.pi - FIBER_POLAR_MARGIN
    polar = [AxisSpec(lo, hi, False, c) for c in counts[:-1]]
    return (*polar, AxisSpec(0.0, 2.0 * math.pi, True, counts[-1]))


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
        for nodes, weights in self._nw:
            nodes.flags.writeable = weights.flags.writeable = False
        self._cache = {}

    @classmethod
    def for_structure(cls, s, base_counts=None, fiber_counts=None, tolerance=DEFAULT_TOLERANCE):
        n = s.dim
        if n < 2:
            raise GridError("the fiber S^(n-1) of a grid needs n >= 2")
        base_counts = DEFAULT_BASE_COUNTS.get(n) if base_counts is None else base_counts
        fiber_counts = DEFAULT_FIBER_COUNTS.get(n) if fiber_counts is None else fiber_counts
        if base_counts is None or fiber_counts is None:
            raise GridError(f"{DEFAULT_GRID_NOTE}; give counts for n = {n}")
        if len(base_counts) != n:
            raise GridError("one base node count per chart axis is required")
        if len(fiber_counts) != n - 1:
            raise GridError("one fiber node count per fiber angle is required")
        base = []
        for a in range(n):
            lo, hi = s.chart.interior(a)
            base.append(AxisSpec(lo, hi, s.chart.periodic[a], int(base_counts[a])))
        return cls(base, fiber_axes_for(fiber_counts), tolerance)

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
        """Product weights over the full tensor product."""
        k = len(self._nw)
        w = np.ones((1,) * k)
        for i, (_, wi) in enumerate(self._nw):
            shape = [1] * k
            shape[i] = len(wi)
            w = w * wi.reshape(shape)
        return w

    # -- per-structure caches -------------------------------------------------
    # Keyed by id(s) and holding s, so the id stays valid while cached.  Forms
    # are evaluated on tower(s), so each connection layer is computed once per
    # grid and metric, not once per form.

    def coords_for(self, s):
        """(xs, ys) coordinate scalar lists at all nodes, broadcast shaped."""
        return self._samples(s)[:2]

    def _samples(self, s):
        """(xs, ys, thetas, u, F): the nodes and the fiber samples y = u / F is
        made of, computed once per grid and metric and shared read-only.  The
        node arrays are views of the grid's read-only axes, so each keeps its
        identity and values for as long as the grid lives, which the phase
        table of :func:`jets.trig_sum` relies on."""
        key = ("coords", id(s))
        if key not in self._cache:
            arrays = self.axis_arrays()
            xs = arrays[: self.n_base]
            th = arrays[self.n_base :]
            u = fiber_direction(th)
            F = gsqrt(s.f2(xs, u))
            ys = [uk / F for uk in u]
            for a in (*ys, *u, F):
                a.flags.writeable = False
            self._cache[key] = (s, xs, ys, th, u, F)
        return self._cache[key][1:]

    def tower(self, s) -> LocalTower:
        key = ("tower", id(s))
        if key not in self._cache:
            xs, ys = self.coords_for(s)
            self._cache[key] = (s, LocalTower(s, xs, ys))
        return self._cache[key][1]

    def density(self, s):
        """|det g(x, y) * det[u, d_theta u] / F(x, u)^n| at every node.

        g is the grid tower's, and u(theta) and F(x, u) are the samples the
        coordinates were made of, so the density evaluates no F^2 of its own.
        Each determinant is taken on the broadcast shape of its own entries
        (fiber nodes only, where a factor does not depend on x), and so is the
        product stored: it broadcasts to the grid shape.
        """
        key = ("density", id(s))
        if key not in self._cache:
            g = self.tower(s).g
            _, _, th, u, F = self._samples(s)
            raw = np.asarray(_raw_density(g, u, th, F), float)
            if float(np.min(np.abs(raw))) <= 0.0:
                raise GridError("volume density vanishes at a node; degenerate structure or grid")
            self._cache[key] = (s, np.abs(raw))
        return self._cache[key][1]

    def weighted_density(self, s):
        """w * rho, the product weights times :meth:`density`, over the full
        tensor product: computed once per grid and metric and shared
        read-only by every integral on it.  It is the one full-grid weight
        array a grid keeps; :meth:`weights_full` computes w afresh."""
        key = ("weighted_density", id(s))
        if key not in self._cache:
            wr = self.weights_full() * self.density(s)
            wr.flags.writeable = False
            self._cache[key] = (s, wr)
        return self._cache[key][1]

    def weight_factors(self, s):
        """(w_base, w_fiber * rho), the base-shaped and the fiber-shaped
        factor of w * rho, where the density is constant along every base
        axis, as on an x-independent metric; None elsewhere.  Built at the
        first integral that reads it (:func:`_outer_fiber_sum`), cached per
        grid and metric and shared read-only."""
        key = ("weight_factors", id(s))
        if key not in self._cache:
            k, rho = self.n_base, _padded(self.density(s), len(self.shape))
            factors = None
            if all(d == 1 for d in rho.shape[:k]):
                ws = [w for _, w in self._nw]
                wb = functools.reduce(np.multiply.outer, ws[:k])
                wf = functools.reduce(np.multiply.outer, ws[k:]) * rho.reshape(rho.shape[k:])
                wb.flags.writeable = wf.flags.writeable = False
                factors = (wb, wf)
            self._cache[key] = (s, factors)
        return self._cache[key][1]

    def fiber_marginal(self, s, rows, cols):
        """M_IJ = sum over the fiber nodes of det(g^IJ) * w * rho, at base
        shape, for I = ``rows`` and J = ``cols``: all that an inner product of
        two factors constant along the fiber reads of the metric, computed
        once per grid, metric and (I, J) and shared read-only."""
        key = ("marginal", id(s), rows, cols)
        if key not in self._cache:
            minor = _forms.inverse_minor(self.tower(s).gi, rows, cols)
            m = _fiber_sum(self.weighted_density(s), minor, self.n_base)
            m.flags.writeable = False
            self._cache[key] = (s, m)
        return self._cache[key][1]

    def meta(self):
        return {
            "base_counts": [a.count for a in self.base_axes],
            "fiber_counts": [a.count for a in self.fiber_axes],
            "num_nodes": self.num_nodes,
            "tolerance": self.tolerance,
        }


# -- the volume density --------------------------------------------------------


def _det(rows):
    """Determinant of a square nested list of scalars, taken on the broadcast
    shape of its own entries (fiber-shaped where they do not depend on x)."""
    n = len(rows)
    leaves = np.broadcast_arrays(*[np.asarray(v, float) for row in rows for v in row])
    return np.linalg.det(np.stack(leaves, axis=-1).reshape(leaves[0].shape + (n, n)))


def _raw_density(g, u, thetas, F):
    """Signed density det g(x, y) * det[u, d_theta u] / F(x, u)^n of the
    canonical volume, with u = u(theta), y = u / F and ``g`` the fundamental
    tensor at (x, y).

    The angle partials of u are jets of the fiber parameterization alone, so
    the density evaluates no F^2: g, u and F come from the caller.
    """
    du = grad_wrt(fiber_direction, (thetas,), 0)
    return _det(g) * _det([u] + du) / F ** len(u)


def volume_density(s, x, theta) -> VolumeDensity:
    """Density of the canonical volume at one (base, angle) node."""
    theta = [float(v) for v in np.atleast_1d(np.asarray(theta, float))]
    if s.dim < 2 or len(theta) != s.dim - 1:
        raise DomainError(f"theta needs n - 1 >= 1 fiber angles, n = {s.dim}, got {len(theta)}")
    if any(abs(math.sin(th)) < FIBER_POLAR_MARGIN / 2 for th in theta[:-1]):
        raise PoleSingularity("polar fiber angle too close to the axis")
    # g is 0-homogeneous in y, so it is taken at u itself, where F is F(x, u)
    tower = tower_at(s, (np.atleast_1d(x), fiber_direction(theta)))
    raw = float(_raw_density(tower.g, tower.ys, theta, tower.F))
    return VolumeDensity(value=abs(raw), raw=raw)


# -- integration ----------------------------------------------------------------


def integrate_scalar(s, f, grid: QuadratureGrid) -> float:
    """Integral of a scalar field over the sphere bundle.

    ``f`` is a generic callable (xs, ys) -> scalar, evaluated once on the
    grid's broadcast-shaped node coordinates, or a precomputed array
    broadcastable to the grid shape.  The integral is one product with the
    grid's w * rho (:meth:`QuadratureGrid.weighted_density`) and one sum.
    The structural zero integrates to 0.0 with no product, and a
    :class:`connection.OuterSum` meets the factored w * rho at
    base-plus-fiber size where the grid has it (the module docstring).
    w * rho is finite and positive, so a non-finite node makes the sum
    non-finite, and only then are the values scanned.
    """
    vals = f(*grid.coords_for(s)) if callable(f) else f
    if is_structural_zero(vals):
        return 0.0
    factors = grid.weight_factors(s) if isinstance(vals, OuterSum) else None
    with np.errstate(invalid="ignore"):  # inf - inf in the sum: raised below
        if factors is not None:
            total = float(np.sum(_outer_fiber_sum(vals, factors, 1.0)))
        else:
            vals = np.broadcast_to(np.asarray(vals, float), grid.shape)
            total = float(np.sum(vals * grid.weighted_density(s)))
    if not math.isfinite(total) and not np.all(np.isfinite(vals)):
        raise GridError("integrand is not finite at some node")
    return total


def global_inner_product(s, phi, psi, grid: QuadratureGrid) -> float:
    """(phi, psi) = int_SM <phi, psi> dV, every integral of forms on a grid.

    Each term a_I b_J det(g^IJ) of :func:`forms.inner_coeffs` meets the
    grid's w * rho at the shapes of its factors (the module docstring): two
    factors constant along the fiber meet the cached fiber marginal M_IJ at
    base size; where one alone varies along the fiber, it times w * rho is
    formed once per component and reduced over the fiber against det(g^IJ),
    or, if it is a :class:`connection.OuterSum` and the grid holds w * rho
    factored, its factors are reduced at base-plus-fiber size; the other
    terms are summed over all nodes and meet w * rho in one dot.  An outer
    sum that meets any other route is materialized once.  A structural-zero
    factor adds no term.
    """
    if phi.degree != psi.degree:
        raise DegreeMismatch(f"degrees {phi.degree} and {psi.degree} differ")
    tower = grid.tower(s)
    a = phi.on(tower)
    b = psi.on(tower) if psi is not phi else a
    ndim, k = len(grid.shape), grid.n_base
    combos = list(combinations(range(s.dim), phi.degree))

    def factors(tree):
        # (component, whether it varies along some fiber axis), by index I;
        # an outer sum is kept as it is
        vals = ((I, tget(tree, I)) for I in combos)
        kept = (
            (I, v if isinstance(v, OuterSum) else _padded(v, ndim))
            for I, v in vals
            if not is_structural_zero(v)
        )
        return {I: (v, any(d != 1 for d in v.shape[k:])) for I, v in kept}

    materialized = {}  # id of an outer sum -> its node array, formed once

    def dense(v):
        if not isinstance(v, OuterSum):
            return v
        if id(v) not in materialized:
            materialized[id(v)] = np.asarray(v)
        return materialized[id(v)]

    fa = factors(a)
    fb = fa if b is a else factors(b)
    at_base = (Ellipsis,) + (0,) * (ndim - k)  # a factor of x alone at base shape
    on_base, on_grid = 0.0, 0.0
    one_varies = {}  # id of a factor that varies along the fiber -> (it, its terms)
    with np.errstate(invalid="ignore"):  # inf - inf in a sum: raised below
        for (I, (u, u_varies)), (J, (v, v_varies)) in product(fa.items(), fb.items()):
            if not (u_varies or v_varies):
                marginal = grid.fiber_marginal(s, I, J)
                on_base = on_base + dense(u)[at_base] * dense(v)[at_base] * marginal
            elif u_varies and v_varies:
                on_grid = on_grid + dense(u) * dense(v) * _forms.inverse_minor(tower.gi, I, J)
            else:
                other, base = (u, v) if u_varies else (v, u)
                terms = one_varies.setdefault(id(other), (other, []))[1]
                terms.append((dense(base)[at_base], I, J))
        wr = grid.weighted_density(s)
        for other, terms in one_varies.values():
            # an outer sum meets the factored w * rho where its minors are
            # constant along the base, as g^ij is wherever outer_ndim is set
            factors = None
            if isinstance(other, OuterSum) and tower.outer_ndim is not None:
                factors = grid.weight_factors(s)
            if factors is not None:
                for base, I, J in terms:
                    minor = _forms.inverse_minor(tower.gi, I, J)
                    on_base = on_base + base * _outer_fiber_sum(other, factors, minor)
                continue
            W = dense(other) * wr  # once per component, and one at a time
            for base, I, J in terms:
                minor = _forms.inverse_minor(tower.gi, I, J)
                on_base = on_base + base * _fiber_sum(W, minor, k)
            del W
        total = float(np.sum(on_base))
        if not is_structural_zero(on_grid):
            total += float(np.vdot(np.broadcast_to(on_grid, grid.shape), wr))
    finite = (np.all(np.isfinite(v)) for v, _ in (*fa.values(), *fb.values()))
    if not math.isfinite(total) and not all(finite):
        raise GridError("integrand is not finite at some node")
    return total


def _padded(v, ndim):
    """``v`` as an array of ``ndim`` axes, with leading axes of length 1."""
    v = np.asarray(v, float)
    return v.reshape((1,) * (ndim - v.ndim) + v.shape)


def _fiber_sum(W, m, k):
    """sum over the fiber nodes of W * m, at base shape, for W over all nodes
    of a grid with ``k`` base axes and m a minor det(g^IJ): row sums times m
    where m is constant along the fiber, a matrix-vector product where it
    varies over the fiber alone, a row-wise dot where it spans all nodes."""
    base, fiber = W.shape[:k], W.shape[k:]
    W2 = W.reshape(math.prod(base), math.prod(fiber))
    m = _padded(m, W.ndim)
    if all(d == 1 for d in m.shape[k:]):
        return W2.sum(axis=1).reshape(base) * m[(Ellipsis,) + (0,) * len(fiber)]
    if all(d == 1 for d in m.shape[:k]):
        out = W2 @ np.broadcast_to(m, (1,) * k + fiber).reshape(-1)
    else:
        m = m if m.shape == W.shape else np.broadcast_to(m, W.shape)
        out = np.einsum("xy,xy->x", W2, m.reshape(W2.shape))
    return out.reshape(base)


def _outer_fiber_sum(S, factors, m):
    """sum over the fiber nodes of S * w * rho * m, at base shape, for S an
    :class:`connection.OuterSum`, ``factors`` the grid's (w_base, w_fiber *
    rho) (:meth:`QuadratureGrid.weight_factors`) and m a minor det(g^IJ)
    constant along every base axis: the fiber factors V meet w_fiber * rho
    * m summed down to their own shape, the base factors B take the K sums
    and w_base multiplies the result, with no product over the nodes."""
    wb, wf = factors
    m = _padded(m, wb.ndim + wf.ndim)[(0,) * wb.ndim]
    out = (S.V @ _summed_to(wf * m, S.fiber).reshape(-1)) @ S.B
    out = out.reshape(S.base) * wb
    return -out if S.negated else out


def _summed_to(w, shape):
    """``w`` summed over every axis where ``shape`` has length 1, keeping it:
    the weights a factor of that shape meets, broadcasting in reverse."""
    axes = tuple(a for a, d in enumerate(shape) if d == 1 and w.shape[a] != 1)
    return w.sum(axis=axes, keepdims=True) if axes else w


def form_grid_norm(s, phi, grid: QuadratureGrid) -> float:
    val = global_inner_product(s, phi, phi, grid)
    return math.sqrt(max(val, 0.0))


def _warn_on_bounded_chart(grid, identity):
    """Warn that ``identity`` holds only up to boundary flux when the chart
    has non-periodic axes."""
    if any(not ax.periodic for ax in grid.base_axes):
        warnings.warn(
            f"chart has non-periodic axes: {identity} holds only up to boundary flux",
            stacklevel=3,
        )


def divergence_integral_check(s, pi, grid: QuadratureGrid) -> float:
    """Normalized defect of the vanishing divergence integral for a 1-form."""
    if pi.degree != 1:
        raise GridError("divergence check expects a 1-form")
    _warn_on_bounded_chart(grid, "the divergence integral")
    integral = integrate_scalar(s, _forms.deltaH_coeffs(grid.tower(s), pi), grid)
    norm = form_grid_norm(s, pi, grid)
    return abs(integral) / (1.0 + norm)


def adjointness_defect(s, phi, psi, grid: QuadratureGrid) -> float:
    """Relative defect of (d_H phi, psi) = (phi, delta_H psi) on the grid."""
    if psi.degree != phi.degree + 1:
        raise DegreeMismatch("psi must have degree one higher than phi")
    _warn_on_bounded_chart(grid, "adjointness")
    lhs = global_inner_product(s, _forms.horizontal_differential(s, phi), psi, grid)
    rhs = global_inner_product(s, phi, _forms.horizontal_codifferential(s, psi), grid)
    return abs(lhs - rhs) / (1.0 + abs(lhs))


def is_h_harmonic(s, phi, grid, tol=1e-8):
    """Grid verdict on harmonicity with the closed/co-closed cross-check."""
    lap = _forms.laplacian_expansion(s, phi)
    lap_norm = form_grid_norm(s, lap, grid)
    phi_norm = form_grid_norm(s, phi, grid)
    if phi.degree < s.dim:
        dH_norm = form_grid_norm(s, _forms.horizontal_differential(s, phi), grid)
    else:
        dH_norm = 0.0
    if phi.degree >= 1:
        deltaH_norm = form_grid_norm(s, _forms.horizontal_codifferential(s, phi), grid)
    else:
        deltaH_norm = 0.0
    harmonic = lap_norm <= tol
    tol_derived = math.sqrt(tol * max(1.0, phi_norm)) + grid.tolerance * (1.0 + phi_norm**2)
    both_closed = dH_norm <= tol_derived and deltaH_norm <= tol_derived
    return {
        "laplacian_norm": lap_norm,
        "dH_norm": dH_norm,
        "deltaH_norm": deltaH_norm,
        "form_norm": phi_norm,
        "tol": tol,
        "tol_derived": tol_derived,
        "verdict": "harmonic" if harmonic else "not harmonic",
        "equivalence_consistent": harmonic == both_closed,
    }


def bochner_integral(s, X: TensorField, grid: QuadratureGrid) -> dict:
    """Curvature and gradient integrals for the harmonic field classification.

    The sum of the two integrals satisfies the integrated Bochner identity

        int K + int |nabla X|^2 = ||d_H X_flat||^2 + ||delta_H X_flat||^2
                                  - int (X^j (nabla_0 T)_j) delta_H X_flat,

    with X_flat = g_ij X^j dx^i.  The last term vanishes where nabla_0 T = 0
    and for harmonic X_flat, so the sum vanishes for harmonic fields.  The
    divergence defect of the transport form is reported for any field since
    it is a co-differential.
    """
    tower = grid.tower(s)
    K_integral = integrate_scalar(s, _forms.bochner_scalar_at(tower, X), grid)
    grad_integral = integrate_scalar(s, _forms.gradient_norm_squared_at(tower, X), grid)
    dW = _forms.deltaH_coeffs(tower, _forms.transport_form(s, X))
    div = integrate_scalar(s, dW, grid)
    return {
        "K_integral": K_integral,
        "grad_norm_integral": grad_integral,
        "sum": K_integral + grad_integral,
        "divergence_defect": abs(div),
    }
