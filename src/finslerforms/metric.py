"""Finsler structures and the zeroth layer of the tensor tower.

A :class:`FinslerStructure` evaluates F(x, y) and validates a point of the
slit tangent bundle (:meth:`FinslerStructure._coords`).  Its family owns the
fundamental tensor: each constructor supplies a g kernel beside F^2, in
closed form for the Randers, Riemannian and Euclidean families and as half
the y-Hessian of F^2 (:func:`f2_hessian`) for a custom one, and every layer
of the tower starts at the family's g (:func:`metric_components`).  The
component helpers of g, g^-1, T and the Hilbert form are generic: they
accept floats, batched numpy arrays or jets, so higher layers can
differentiate straight through them.  The Cartan tensor has no helper here:
``connection.LocalTower.C`` takes it as half of g's y partial, by the rule
that gives every partial of a tower layer.

A tensor at a point is read off the tower of ``connection.tower_at``: the
readers :func:`g_array`, :func:`ginv_array` and :func:`hilbert_array` add the
checks and the Hilbert form that the tower's layers do not hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import (
    ConfigError,
    DomainError,
    NotPositiveDefinite,
    OutOfChart,
    SingularMetric,
    ZeroVector,
)
from .jets import grad_y, gsqrt

TWO_PI = 2.0 * math.pi

RENORMALIZE_TOL = 1e-6
CHOLESKY_PIVOT = 1e-12


@dataclass(frozen=True)
class ChartSpec:
    """Single-chart domain: per-axis bounds, periodicity and excluded margins."""

    bounds: tuple
    periodic: tuple
    excluded_margin: tuple = None

    def __post_init__(self):
        try:
            bounds = tuple((float(a), float(b)) for a, b in self.bounds)
            periodic = tuple(self.periodic)
            margin = self.excluded_margin
            margin = (0.0,) * len(bounds) if margin is None else tuple(float(m) for m in margin)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(
                "chart bounds must be [lo, hi] pairs of numbers, periodic flags and margins lists"
            ) from None
        if not all(isinstance(p, bool) for p in periodic):
            raise ConfigError(f"chart periodic flags must be true or false, got {self.periodic!r}")
        if not (len(bounds) == len(periodic) == len(margin)):
            raise ConfigError("chart axis lists have inconsistent lengths")
        for (lo, hi), m in zip(bounds, margin):
            if not hi > lo:
                raise ConfigError(f"empty chart interval [{lo}, {hi}]")
            if m < 0.0 or 2.0 * m >= hi - lo:
                raise ConfigError("excluded_margin must be nonnegative and strictly inside bounds")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "periodic", periodic)
        object.__setattr__(self, "excluded_margin", margin)

    @property
    def dim(self):
        return len(self.bounds)

    def interior(self, axis):
        """Usable interval on one axis, margins removed."""
        lo, hi = self.bounds[axis]
        m = self.excluded_margin[axis]
        return lo + m, hi - m

    def contains(self, x):
        x = np.asarray(x, float)
        for a in range(self.dim):
            if self.periodic[a]:
                continue
            lo, hi = self.interior(a)
            if x[a] < lo - 1e-12 or x[a] > hi + 1e-12:
                return False
        return True

    @classmethod
    def torus(cls, dim):
        return cls(
            bounds=tuple((0.0, TWO_PI) for _ in range(dim)),
            periodic=tuple(True for _ in range(dim)),
        )


def default_chart(dim):
    return ChartSpec.torus(dim)


@dataclass(frozen=True, eq=False)
class SpherePoint:
    """A point z = (x, y) of the sphere bundle, F(x, y) = 1."""

    x: np.ndarray
    y: np.ndarray

    def __iter__(self):
        return iter((self.x, self.y))


@dataclass(frozen=True, eq=False)
class TensorValue:
    """Component array at a point with an explicit variance signature.

    ``variance`` is a string over {'u', 'l'}, one character per slot, in the
    order of the data axes.  Derivative slots appended by covariant
    derivatives sit last.
    """

    data: np.ndarray
    variance: str


# -- generic component helpers -----------------------------------------------


def metric_components(s, xs, ys):
    """Fundamental tensor g_ij at generic (xs, ys): the family's g (:meth:`FinslerStructure.g`)."""
    return s.g(xs, ys)


def f2_hessian(s, xs, ys):
    """g_ij = half the y-Hessian of F^2, F^2 read through ``s.f2``: the
    custom family's g."""
    n = s.dim
    h = jets.hessian_wrt(s.f2, (xs, ys), 1)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = 0.5 * h[i][j]
    return rows


def inverse_components(g, n):
    """Matrix inverse by adjugate (n = 2, 3) or unpivoted elimination.

    The adjugate form stays valid for jet-valued entries; elimination
    without pivoting is safe because g is positive-definite.
    """
    if n == 2:
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        inv = jets._reciprocal(det)
        return [
            [g[1][1] * inv, (-g[0][1]) * inv],
            [(-g[1][0]) * inv, g[0][0] * inv],
        ]
    if n == 3:
        c00 = g[1][1] * g[2][2] - g[1][2] * g[2][1]
        c01 = g[1][2] * g[2][0] - g[1][0] * g[2][2]
        c02 = g[1][0] * g[2][1] - g[1][1] * g[2][0]
        det = g[0][0] * c00 + g[0][1] * c01 + g[0][2] * c02
        inv = jets._reciprocal(det)
        adj = [
            [c00, g[0][2] * g[2][1] - g[0][1] * g[2][2], g[0][1] * g[1][2] - g[0][2] * g[1][1]],
            [c01, g[0][0] * g[2][2] - g[0][2] * g[2][0], g[0][2] * g[1][0] - g[0][0] * g[1][2]],
            [c02, g[0][1] * g[2][0] - g[0][0] * g[2][1], g[0][0] * g[1][1] - g[0][1] * g[1][0]],
        ]
        return [[adj[i][j] * inv for j in range(3)] for i in range(3)]
    # general fallback, SPD so no pivoting
    a = [list(row) for row in g]
    inv = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = jets._reciprocal(a[col][col])
        a[col] = [v * piv for v in a[col]]
        inv[col] = [v * piv for v in inv[col]]
        for r in range(n):
            if r == col:
                continue
            f = a[r][col]
            a[r] = [v - f * w for v, w in zip(a[r], a[col])]
            inv[r] = [v - f * w for v, w in zip(inv[r], inv[col])]
    return inv


def cartan_trace_components(g_inv, C):
    """Cartan trace T_j = g^ik C_ikj."""
    n = len(C)
    out = []
    for j in range(n):
        acc = 0.0
        for i in range(n):
            for k in range(n):
                acc = acc + g_inv[i][k] * C[i][k][j]
        out.append(acc)
    return out


def hilbert_components(s, xs, ys):
    """Hilbert form ell_i = dF/dy^i, computed from the gradient of F^2."""
    f2 = s.f2(xs, ys)
    dyf2 = grad_y(s.f2, xs, ys)
    inv2f = jets._reciprocal(2.0 * gsqrt(f2))
    return [d * inv2f for d in dyf2]


# -- the structure itself -----------------------------------------------------


class FinslerStructure:
    """A Finsler metric family on a single chart.

    A family supplies two generic kernels: F^2, which F and the Hilbert form
    read, and g, where every layer of the tower starts.  The Randers,
    Riemannian and Euclidean families give g in closed form; a custom family
    gives half the y-Hessian of its F^2 (:func:`f2_hessian`).  A g kernel is
    called as ``kernel(s, xs, ys)`` with this structure, so that the custom
    one reads F^2 through ``s.f2``, and returns the symmetric nested rows of
    g_ij.

    Construction validates positivity and strong convexity by sampling: the
    family's g must pass a Cholesky check at a lattice of chart points and
    directions, and a coefficient field a(x), which the closed forms read as
    given, must be symmetric at those points.
    """

    def __init__(self, dim, chart, family, f2_generic, g_generic, label=""):
        self.dim = int(dim)
        self.chart = chart if chart is not None else default_chart(dim)
        if self.chart.dim != self.dim:
            raise ConfigError("chart dimension does not match metric dimension")
        self.family = family
        self._f2 = f2_generic
        self._g = g_generic
        self.label = label or family
        self._validate()

    # generic scalar evaluation of F^2
    def f2(self, xs, ys):
        return self._f2(xs, ys)

    # the family's fundamental tensor, the root of the whole tower
    def g(self, xs, ys):
        return self._g(self, xs, ys)

    def __repr__(self):
        return f"FinslerStructure({self.label!r}, dim={self.dim})"

    # -- constructors --------------------------------------------------------

    @classmethod
    def euclidean(cls, dim=2, chart=None):
        def f2(xs, ys):
            acc = ys[0] * ys[0]
            for k in range(1, len(ys)):
                acc = acc + ys[k] * ys[k]
            return acc

        def g(s, xs, ys):
            return [[1.0 if i == j else 0.0 for j in range(dim)] for i in range(dim)]

        return cls(dim, chart, "euclidean", f2, g, label="euclidean")

    @classmethod
    def riemannian(cls, a, dim=None, chart=None, label="riemannian"):
        """Riemannian structure F = sqrt(a_ij y^i y^j), whose g is a(x).

        ``a`` is a constant symmetric matrix or a callable ``a(xs)`` returning
        symmetric nested lists of generic scalars.
        """
        a_field, dim = _matrix_field(a, dim)

        def f2(xs, ys):
            aij = a_field(xs)
            acc = 0.0
            for i in range(dim):
                for j in range(dim):
                    acc = acc + aij[i][j] * (ys[i] * ys[j])
            return acc

        def g(s, xs, ys):
            return [list(row) for row in a_field(xs)]

        s = cls(dim, chart, "riemannian", f2, g, label=label)
        s._check_coefficients(a_field)
        return s

    @classmethod
    def randers(cls, a, b, dim=None, chart=None, label="randers"):
        """Randers structure F = alpha + beta, alpha = sqrt(a_ij y^i y^j) and
        beta = b_i y^i, whose g is in closed form (Bao, Chern & Shen (2000),
        ch. 11): with l_i = a_ij y^j / alpha,

            g_ij = (F / alpha)(a_ij - l_i l_j) + (l_i + b_i)(l_j + b_j).
        """
        a_field, dim = _matrix_field(a, dim)
        b_field = _vector_field(b, dim)

        def f2(xs, ys):
            aij = a_field(xs)
            bi = b_field(xs)
            quad = 0.0
            lin = 0.0
            for i in range(dim):
                lin = lin + bi[i] * ys[i]
                for j in range(dim):
                    quad = quad + aij[i][j] * (ys[i] * ys[j])
            F = gsqrt(quad) + lin
            return F * F

        def g(s, xs, ys):
            aij, bi = a_field(xs), b_field(xs)
            ay = []  # a_ij y^j
            for i in range(dim):
                acc = aij[i][0] * ys[0]
                for j in range(1, dim):
                    acc = acc + aij[i][j] * ys[j]
                ay.append(acc)
            quad, beta = ay[0] * ys[0], bi[0] * ys[0]
            for i in range(1, dim):
                quad = quad + ay[i] * ys[i]
                beta = beta + bi[i] * ys[i]
            alpha = gsqrt(quad)
            inv = jets._reciprocal(alpha)
            ell = [v * inv for v in ay]
            ratio = (alpha + beta) * inv  # F / alpha
            lb = [ell[i] + bi[i] for i in range(dim)]
            rows = [[None] * dim for _ in range(dim)]
            for i in range(dim):
                for j in range(i, dim):
                    rows[i][j] = rows[j][i] = ratio * (aij[i][j] - ell[i] * ell[j]) + lb[i] * lb[j]
            return rows

        s = cls(dim, chart, "randers", f2, g, label=label)
        s._check_coefficients(a_field, b_field)
        return s

    @classmethod
    def custom(cls, f2_generic, dim, chart=None, label="custom"):
        """A structure from its F^2 alone, whose g is :func:`f2_hessian`."""
        return cls(dim, chart, "custom", f2_generic, f2_hessian, label=label)

    # -- validation ------------------------------------------------------------

    def _sample_points(self):
        """The validation samples: 3 base values per chart axis and 6 fixed
        unit directions."""
        axes = []
        for a in range(self.dim):
            lo, hi = self.chart.interior(a)
            pad = 0.15 * (hi - lo)
            axes.append(np.linspace(lo + pad, hi - pad, 3))
        mesh = np.meshgrid(*axes, indexing="ij")
        xs = np.stack([m.ravel() for m in mesh], axis=-1)
        dirs = np.random.default_rng(20240601).normal(size=(6, self.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return xs, dirs

    def _validate(self):
        xs, dirs = self._sample_points()
        # every (x, u) pair as one array-valued sample, x-major like a nested loop
        x = np.repeat(xs, len(dirs), axis=0)
        u = np.tile(dirs, (len(xs), 1))
        cx, cu = list(x.T), list(u.T)
        with np.errstate(all="ignore"):  # a bad sample is reported below
            f2 = np.broadcast_to(np.asarray(self.f2(cx, cu), float), len(x))
            g = np.empty((len(x), self.dim, self.dim))
            for i, row in enumerate(metric_components(self, cx, cu)):
                for j, v in enumerate(row):
                    g[:, i, j] = v
        try:
            suspect = _pivot_too_small(g, np.linalg.cholesky(g))
        except np.linalg.LinAlgError:
            suspect = np.ones(len(x), bool)  # some sample failed; find the first below
        suspect |= ~(np.isfinite(f2) & (f2 > 0.0))
        for k in np.flatnonzero(suspect):
            where = f"x={x[k].tolist()}, y={u[k].tolist()}"
            if not (np.isfinite(f2[k]) and f2[k] > 0.0):
                raise NotPositiveDefinite(f"{self.label}: F^2 not positive at {where}")
            _cholesky_check(g[k], where=where, label=self.label)

    def _check_coefficients(self, a_field, b_field=None):
        """ConfigError unless a(x) is symmetric at every validation point
        and, for a Randers drift b(x), of a-norm below 1 there."""
        xs, _ = self._sample_points()
        for x in xs:
            a = np.array(a_field(list(x)), float)
            if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, np.max(np.abs(a)))):
                raise ConfigError(f"coefficient matrix must be symmetric, not at x={x.tolist()}")
            if b_field is None:
                continue
            b = np.array(b_field(list(x)), float)
            norm = float(np.sqrt(b @ np.linalg.solve(a, b)))
            if norm >= 1.0:
                raise ConfigError(
                    f"randers drift one-form too large: the a-norm of b is {norm:.6f} >= 1 "
                    f"at x={x.tolist()}; positivity of F fails"
                )

    # -- points and pointwise tensors -------------------------------------------

    def _coords(self, z):
        """z = (x, y) as float arrays, once each is 1-D of length dim, finite, y
        nonzero and x in the chart."""
        x, y = (np.asarray(v, float) for v in z)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise DomainError(f"x and y need shape ({self.dim},), got {x.shape} and {y.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DomainError(f"non-finite coordinate in x={x.tolist()}, y={y.tolist()}")
        if not np.any(y):
            raise ZeroVector("tangent vector is zero")
        if not self.chart.contains(x):
            raise OutOfChart(f"x={x.tolist()} outside chart domain")
        return x, y

    def F(self, x, y):
        """Evaluate the Finsler norm at a chart point and nonzero tangent."""
        x, y = self._coords((x, y))
        return float(gsqrt(self.f2(list(x), list(y))))

    def sphere_point(self, x, y):
        """Construct a validated point of SM, renormalizing tiny drift."""
        f = self.F(x, y)
        if abs(f - 1.0) > RENORMALIZE_TOL:
            raise DomainError(
                f"F(x,y)={f:.3e} is not within {RENORMALIZE_TOL:.0e} of 1; "
                "normalize with normalize_to_indicatrix first"
            )
        return SpherePoint(x=np.asarray(x, float), y=np.asarray(y, float) / f)

    def normalize_to_indicatrix(self, x, u):
        """Radial projection of a nonzero tangent onto the unit sphere of F."""
        f = self.F(x, u)
        return SpherePoint(x=np.asarray(x, float), y=np.asarray(u, float) / f)

    # one tensor per call, read off the tower of tower_at, which calls at one
    # point share
    def fundamental_tensor(self, z):
        return TensorValue(g_array(_tower_at(self, z)), "ll")

    def inverse_metric(self, z):
        return TensorValue(ginv_array(_tower_at(self, z)), "uu")

    def cartan_tensor(self, z):
        return TensorValue(np.array(_tower_at(self, z).C, float), "lll")

    def cartan_trace(self, z):
        return TensorValue(np.array(_tower_at(self, z).Tt, float), "l")

    def hilbert_form(self, z):
        return TensorValue(hilbert_array(_tower_at(self, z)), "l")


def _tower_at(s, z):
    from .connection import tower_at  # connection imports this module

    return tower_at(s, z)


# -- readers of a pointwise tower ------------------------------------------------


def g_array(tower):
    """g_ij at the tower's point as a float array, once it passes the Cholesky check."""
    g = np.array(tower.g, float)
    _cholesky_check(g, where=f"x={tower.xs}, y={tower.ys}", label=tower.s.label)
    return g


def ginv_array(tower):
    """g^ij at the tower's point as a float array, once every entry is finite."""
    gi = np.array(tower.gi, float)
    if not np.all(np.isfinite(gi)):
        raise SingularMetric("inverse metric is not finite")
    return gi


def hilbert_array(tower):
    """The Hilbert form ell_i at the tower's point as a float array."""
    return np.array(hilbert_components(tower.s, tower.xs, tower.ys), float)


def _cholesky_check(g, where, label):
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"{label}: fundamental tensor not positive-definite at {where}")
    if _pivot_too_small(g, L):
        raise NotPositiveDefinite(f"{label}: Cholesky pivot below threshold at {where}")


def _pivot_too_small(g, L):
    """Whether the Cholesky factor L of g, or of each matrix of a stack, has a small pivot."""
    scale = np.maximum(1.0, np.max(np.abs(np.diagonal(g, axis1=-2, axis2=-1)), axis=-1))
    return np.min(np.diagonal(L, axis1=-2, axis2=-1), axis=-1) <= CHOLESKY_PIVOT * scale


def _matrix_field(a, dim):
    if callable(a):
        if dim is None:
            raise ConfigError("dim is required for a callable coefficient field")
        return a, int(dim)
    try:
        arr = np.asarray(a, float)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("coefficient matrix must hold numbers") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError("coefficient matrix must be square")
    if not np.allclose(arr, arr.T, atol=1e-12):
        raise ConfigError("coefficient matrix must be symmetric")
    dim = arr.shape[0] if dim is None else int(dim)
    if dim != arr.shape[0]:
        raise ConfigError("dim does not match coefficient matrix size")
    rows = [[float(v) for v in row] for row in arr]
    return (lambda xs: rows), dim


def _vector_field(b, dim):
    if callable(b):
        return b
    try:
        vec = [float(v) for v in np.asarray(b, float)]
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("drift vector must hold numbers") from None
    if len(vec) != dim:
        raise ConfigError("drift vector length does not match dim")
    return lambda xs: vec
