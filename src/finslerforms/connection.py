"""Spray, nonlinear connection, Cartan coefficients and covariant derivatives.

The central object is :class:`LocalTower`, a lazily evaluated cache of the
whole connection tower at one evaluation point.  The point coordinates may
be floats (pointwise use), batched numpy arrays (whole quadrature grids at
once) or jets.

A tower is differentiated in two ways.  A layer's own partials (``dN_x``,
``dGamma_y``, ``dgx``, ... through :func:`_rebuilt_partial`) rebuild the
tower at jet-valued coordinates, which evaluates F^2 under nested jets; the
curvature blocks are built on these.  Whatever is computed from the tower's
layers is differentiated on a lifted tower instead
(:meth:`LocalTower.partials`): :func:`jets.grad_wrt` seeds the coordinates
as it does for any field, and the lifted tower at those jet coordinates
reads N, Gamma, g and nabla0T as jets of the parent's cached values and
partials.  So fields, forms and nabla T inside nabla nabla T
(:func:`cov_hh`) are all differentiated by the one seeding driver,
``grad_wrt``.

Structural zeros.  The float ``0.0`` stands for a component that vanishes
identically (:func:`is_structural_zero`).  A tower stores each ndarray
component of N, Gamma, nabla0T and nabla_nabla0T, and of every rebuilt
partial, that is 0 at every node as that float, and the kernels that multiply
by these layers skip its terms, so on an x-independent metric a grid kernel
does not broadcast arrays of zeros over every node, and a lifted tower reads
a layer whose partials vanish as its parent's plain value.  Values stay
exact; only the sign of an exact zero may differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jets
from .jets import grad_x, grad_y
from .metric import (
    FinslerStructure,
    TensorValue,
    cartan_components,
    cartan_trace_components,
    inverse_components,
    metric_components,
)


def tget(nested, idx):
    for i in idx:
        nested = nested[i]
    return nested


def nested_build(n, rank, fn, prefix=()):
    if rank == 0:
        return fn(prefix)
    return [nested_build(n, rank - 1, fn, prefix + (i,)) for i in range(n)]


def pack(nested, rank):
    """Nested lists of scalars -> ndarray with component axes first.

    Every leaf is broadcast to the common shape of all leaves, so a component
    that is a plain float may sit beside node arrays anywhere in the tree.
    """
    dims, node = [], nested
    for _ in range(rank):
        dims.append(len(node))
        node = node[0]
    leaves = [np.asarray(tget(nested, idx), float) for idx in np.ndindex(*dims)]
    shape = np.broadcast_shapes(*(leaf.shape for leaf in leaves))
    return np.stack([np.broadcast_to(leaf, shape) for leaf in leaves]).reshape((*dims, *shape))


def is_structural_zero(v):
    """True for the float ``0.0`` that stands for an identically vanishing
    component; a kernel adds no term for it."""
    return type(v) is float and v == 0.0


def _collapse_zeros(nested):
    """``nested`` with every ndarray leaf that is 0 at every node replaced by
    the structural zero ``0.0``.  Other leaves, jets among them, are kept."""
    if isinstance(nested, list):
        return [_collapse_zeros(c) for c in nested]
    if isinstance(nested, np.ndarray) and not nested.any():
        return 0.0
    return nested


def _rebuilt_partial(layer, grad):
    """Cached plain partial (``grad`` is grad_x or grad_y) of one tower layer,
    taken by rebuilding the tower at jet-valued coordinates.  A component
    that is 0 at every node is stored as the structural zero."""

    def partials(self):
        return _collapse_zeros(
            grad(lambda a, b: getattr(LocalTower(self.s, a, b), layer), self.xs, self.ys)
        )

    return cached_property(partials)


class LocalTower:
    """Connection tower at one point, computed lazily and memoized.

    Attribute index conventions (all nested lists, component order as in the
    attribute name): ``Gamma[i][j][k]`` is the horizontal coefficient with
    upper index i, ``N[i][j]`` the nonlinear connection, ``flag[i][j][k]``
    the curvature of the nonlinear connection, equal to the y-contraction of
    the hh-curvature.  Derivative prefixes: ``dX_x[c]`` is the plain x
    partial along axis c, ``dX_y[m]`` the fiber partial.

    The horizontal derivative of a layer goes through :meth:`delta`, which
    combines its plain partials into delta_c = d/dx^c - N^m_c d/dy^m; the
    ``deltaX`` layers are built on it.  The covariant derivatives of the
    Cartan trace, ``nabla_h_T`` and ``nabla_nabla0T``, are :func:`cov_h` of
    the 1-forms T and nabla0T, as for any tensor field.

    ``N``, ``Gamma``, ``nabla0T``, ``nabla_nabla0T`` and the rebuilt
    partials store a component that is an ndarray equal to 0 at every node
    as the structural zero ``0.0``, whose terms the kernels skip; jets are
    kept as they are.

    A layer's own partials (``dgx``, ``dN_x``, ...) are taken by rebuilding
    the tower at jet-valued coordinates, which evaluates F^2 under nested
    jets.  Kernels computed from the layers, such as fields, forms and
    nabla T, are differentiated without that: :meth:`partials` runs the
    kernel under :func:`jets.grad_wrt` on a :class:`_LiftedTower` at the
    seeded coordinates, whose N, Gamma, g and nabla0T are first-order jets
    of this tower's values and cached partials.
    """

    def __init__(self, s: FinslerStructure, xs, ys):
        self.s = s
        self.xs = list(xs)
        self.ys = list(ys)
        self.n = s.dim

    def partials(self, kernel):
        """(value, dx, dy) of ``kernel(tower)`` (nested components) at this point.

        The partials are those of ``kernel(_LiftedTower(self, a, b))`` under
        :func:`jets.grad_x` and :func:`jets.grad_y`, so the seeding is theirs:
        one vector pass per list at a point, one coordinate per pass on
        arrays.  The lifted tower reads its connection layers as jets of this
        tower's cached values and partials instead of recomputing them from
        F^2 at jet coordinates; a kernel that reads only the coordinates, such
        as a leaf form, sees the seeded coordinates alone.
        """

        def lifted(a, b):
            return kernel(_LiftedTower(self, a, b))

        return kernel(self), grad_x(lifted, self.xs, self.ys), grad_y(lifted, self.xs, self.ys)

    def delta(self, dx, dy, rank):
        """Horizontal derivative ``out[c][components]`` of a rank-``rank``
        layer from its plain partials ``dx[c]`` and ``dy[m]``."""
        n, N = self.n, self.N

        def entry(c, idx):
            acc = tget(dx[c], idx)
            terms = [
                N[m][c] * tget(dy[m], idx) for m in range(n) if not is_structural_zero(N[m][c])
            ]
            return acc - sum_terms(terms) if terms else acc

        return [nested_build(n, rank, lambda idx, c=c: entry(c, idx)) for c in range(n)]

    # -- zeroth layer --------------------------------------------------------

    @cached_property
    def f2(self):
        return self.s.f2(self.xs, self.ys)

    @cached_property
    def F(self):
        return jets.gsqrt(self.f2)

    @cached_property
    def g(self):
        return metric_components(self.s, self.xs, self.ys)

    @cached_property
    def gi(self):
        return inverse_components(self.g, self.n)

    @cached_property
    def C(self):
        return cartan_components(self.s, self.xs, self.ys)

    @cached_property
    def Cmix(self):
        n = self.n
        return [
            [
                [
                    sum_terms(self.gi[i][l] * self.C[l][j][k] for l in range(n))
                    for k in range(n)
                ]
                for j in range(n)
            ]
            for i in range(n)
        ]

    @cached_property
    def Tt(self):
        return cartan_trace_components(self.s, self.xs, self.ys, g_inv=self.gi, C=self.C)

    @cached_property
    def y_lower(self):
        n = self.n
        return [sum_terms(self.g[i][j] * self.ys[j] for j in range(n)) for i in range(n)]

    # -- spray and nonlinear connection ---------------------------------------

    dxf2 = _rebuilt_partial("f2", grad_x)

    @cached_property
    def G(self):
        n = self.n
        dxdy = grad_x(lambda a, b: grad_y(self.s.f2, a, b), self.xs, self.ys)
        # dxdy[c][h] is the x_c partial of the y_h partial of F^2
        rhs = [
            sum_terms(dxdy[j][h] * self.ys[j] for j in range(n)) - self.dxf2[h]
            for h in range(n)
        ]
        return [
            0.25 * sum_terms(self.gi[i][h] * rhs[h] for h in range(n))
            for i in range(n)
        ]

    @cached_property
    def N(self):
        n = self.n
        dG = grad_y(lambda a, b: LocalTower(self.s, a, b).G, self.xs, self.ys)
        return _collapse_zeros([[dG[j][i] for j in range(n)] for i in range(n)])

    # -- Cartan horizontal coefficients ----------------------------------------

    dgx = _rebuilt_partial("g", grad_x)

    @property
    def dgy(self):
        """dgy[m][i][j] = 2 C_mij, the y partial of g_ij (uncached, to spare grid memory)."""
        return nested_build(self.n, 3, lambda idx: 2.0 * tget(self.C, idx))

    @cached_property
    def deltag(self):
        """deltag[c][i][j]: horizontal basis derivative of g_ij along axis c."""
        return self.delta(self.dgx, self.dgy, 2)

    @cached_property
    def Gamma(self):
        n = self.n
        dg = self.deltag
        out = [[[None] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(j, n):
                    acc = sum_terms(
                        self.gi[i][l] * (dg[j][l][k] + dg[k][j][l] - dg[l][j][k])
                        for l in range(n)
                    )
                    val = 0.5 * acc
                    out[i][j][k] = val
                    out[i][k][j] = val
        return _collapse_zeros(out)

    # -- Cartan trace derivatives ------------------------------------------------

    dT_x = _rebuilt_partial("Tt", grad_x)
    dT_y = _rebuilt_partial("Tt", grad_y)

    @cached_property
    def nabla_h_T(self):
        """nabla_h_T[h][j]: horizontal covariant derivative of the Cartan trace."""
        # the partials first: they rebuild the tower under nested jets, and the
        # layers Tt caches here would otherwise be held through that peak
        dx, dy = self.dT_x, self.dT_y
        return cov_h(self, self.Tt, dx, dy, "l")

    @cached_property
    def nabla0T(self):
        n = self.n
        return _collapse_zeros([
            sum_terms(self.ys[h] * self.nabla_h_T[h][j] for h in range(n))
            for j in range(n)
        ])

    # -- first derivatives of the tower (feed curvature and second covariants) ----

    dN_x = _rebuilt_partial("N", grad_x)
    dN_y = _rebuilt_partial("N", grad_y)
    dGamma_x = _rebuilt_partial("Gamma", grad_x)
    dGamma_y = _rebuilt_partial("Gamma", grad_y)

    @cached_property
    def deltaGamma(self):
        """deltaGamma[c][h][j][k]: horizontal derivative of Gamma along axis c."""
        return self.delta(self.dGamma_x, self.dGamma_y, 3)

    @cached_property
    def deltaN(self):
        """deltaN[c][i][k]: horizontal derivative of N^i_k along axis c."""
        return self.delta(self.dN_x, self.dN_y, 2)

    @cached_property
    def flag(self):
        """Curvature of the nonlinear connection; equals y^m R^i_mjk."""
        n = self.n
        return [
            [
                [self.deltaN[j][i][k] - self.deltaN[k][i][j] for k in range(n)]
                for j in range(n)
            ]
            for i in range(n)
        ]

    dCmix_x = _rebuilt_partial("Cmix", grad_x)
    dCmix_y = _rebuilt_partial("Cmix", grad_y)

    @cached_property
    def deltaCmix(self):
        """deltaCmix[c][h][k][j]: horizontal derivative of Cmix along axis c."""
        return self.delta(self.dCmix_x, self.dCmix_y, 3)

    d_nabla0T_x = _rebuilt_partial("nabla0T", grad_x)
    d_nabla0T_y = _rebuilt_partial("nabla0T", grad_y)

    @cached_property
    def nabla_nabla0T(self):
        """nabla_nabla0T[i][r]: horizontal covariant derivative of the 1-form nabla0T."""
        return _collapse_zeros(cov_h(self, self.nabla0T, self.d_nabla0T_x, self.d_nabla0T_y, "l"))


def _lifted(layer, x_partial, y_partial, rank):
    """Cached ``layer`` of a :class:`_LiftedTower`, lifted from its parent."""
    return cached_property(lambda self: self._lift(layer, x_partial, y_partial, rank))


class _LiftedTower(LocalTower):
    """The tower of :meth:`LocalTower.partials` at jet coordinates ``xs``,
    ``ys`` over the point of ``parent``.

    The seeded level is read off the coordinates: its tag is the newest
    outer jet tag, and the seeded list is the one holding it, each of whose
    coordinates carries the tag with its tangent (the scalar 1.0 on arrays,
    ``eye(n)[m]`` at a point).  N, Gamma, g and nabla0T are jets of the
    parent's values and partials ``dN``, ``dGamma``, ``dgx`` or ``dgy``, and
    ``d_nabla0T``, read lazily; every other layer is computed at the jet
    coordinates.
    """

    def __init__(self, parent, xs, ys):
        # a view sharing the parent's structure; keeps the lists grad_wrt hands each pass
        self.s, self.n, self.parent, self.xs, self.ys = parent.s, parent.n, parent, xs, ys
        tag = self.tag = max(c.tag for c in xs + ys if isinstance(c, jets.Jet))
        self.which = int(not any(isinstance(c, jets.Jet) and c.tag == tag for c in xs))
        self.tangents = [
            (m, c.coeffs[1])
            for m, c in enumerate(ys if self.which else xs)
            if isinstance(c, jets.Jet) and c.tag == tag
        ]

    def _lift(self, layer, x_partial, y_partial, rank):
        """The parent's ``layer`` with each component as the jet value +
        sum_m partial_m tangent_m, partial_m read off the parent's
        ``x_partial`` or ``y_partial``.  A partial that is the structural
        zero adds no term, and a component with no term stays the plain
        value, so a structural zero of the parent stays one; a tangent 1.0 is
        used as is."""
        partials = getattr(self.parent, y_partial if self.which else x_partial)
        ds = [(partials[m], t) for m, t in self.tangents]
        value = getattr(self.parent, layer)

        def component(idx):
            terms = []
            for d, t in ds:
                d = tget(d, idx)
                if is_structural_zero(d):
                    continue
                terms.append(d if type(t) is float and t == 1.0 else d * t)
            if not terms:
                return tget(value, idx)
            return jets.Jet([tget(value, idx), sum_terms(terms)], self.tag)

        return nested_build(self.n, rank, component)

    N = _lifted("N", "dN_x", "dN_y", 2)
    Gamma = _lifted("Gamma", "dGamma_x", "dGamma_y", 3)
    g = _lifted("g", "dgx", "dgy", 2)
    nabla0T = _lifted("nabla0T", "d_nabla0T_x", "d_nabla0T_y", 1)


def sum_terms(it):
    acc = None
    for t in it:
        acc = t if acc is None else acc + t
    return 0.0 if acc is None else acc


# -- covariant derivatives of tensor fields ------------------------------------


def cov_h(tower, val, dx, dy, variance):
    """Horizontal covariant derivative; returns nested [h][components].

    ``val`` is the nested component pytree, ``dx[c]`` and ``dy[m]`` its plain
    coordinate partials.
    """
    n = tower.n
    entry = cov_h_entry(tower, val, dx, dy, variance)
    return [nested_build(n, len(variance), lambda idx, h=h: entry(h, idx)) for h in range(n)]


def cov_h_entry(tower, val, dx, dy, variance):
    """The horizontal covariant derivative one entry at a time.

    Returns ``entry(h, idx)`` = (nabla_h T)_idx for the field of :func:`cov_h`,
    so a caller that needs a few entries computes only those.
    """
    n = tower.n
    N = tower.N
    slots = _slot_terms(n, val, variance, tower.Gamma)

    def entry(h, idx):
        acc = tget(dx[h], idx)
        for m in range(n):
            if not is_structural_zero(N[m][h]):
                acc = acc - N[m][h] * tget(dy[m], idx)
        return slots(acc, h, idx)

    return entry


def cov_v(tower, val, dy, variance):
    """Vertical covariant derivative; returns nested [h][components]."""
    n = tower.n
    slots = _slot_terms(n, val, variance, tower.Cmix)
    return [
        nested_build(n, len(variance), lambda idx, h=h: slots(tget(dy[h], idx), h, idx))
        for h in range(n)
    ]


def _slot_terms(n, val, variance, coeffs):
    """``add(acc, h, idx)``: acc plus the connection terms of each slot of the
    field ``val``, with ``coeffs`` Gamma (horizontal) or Cmix (vertical).
    Sign rule: minus on lower slots, plus on upper slots.  A coefficient that
    is the structural zero adds no term."""

    def add(acc, h, idx):
        for t, var in enumerate(variance):
            it = idx[t]
            for p in range(n):
                c = coeffs[p][it][h] if var == "l" else coeffs[it][p][h]
                if is_structural_zero(c):
                    continue
                jdx = idx[:t] + (p,) + idx[t + 1 :]
                if var == "l":
                    acc = acc - tget(val, jdx) * c
                else:
                    acc = acc + tget(val, jdx) * c
        return acc

    return add


def cov_hh(tower, kernel, variance):
    """Second horizontal covariant derivative, the covariant derivative of nabla T.

    ``kernel(tw)`` gives the field's components at a tower ``tw``:
    ``lambda tw: X.components(tw.xs, tw.ys)`` for a :class:`TensorField`,
    ``form.on`` for a form.  nabla T is the kernel
    tw -> cov_h(tw, *tw.partials(kernel), variance), and its partials are
    taken by ``tower.partials`` in turn.  Returns ``(tower.partials(kernel),
    W, D)``, each computed once: ``W[b][components]`` holds nabla_b T and
    ``D[a][b][components]`` nabla_a nabla_b T.
    """

    def nabla(tw):
        p1 = tw.partials(kernel)
        return [p1, cov_h(tw, *p1, variance)]

    (p1, W), dx, dy = tower.partials(nabla)
    D = cov_h(tower, W, [d[1] for d in dx], [d[1] for d in dy], "l" + variance)
    return p1, W, D


# -- tensor fields ---------------------------------------------------------------


class TensorField:
    """A tensor field on the slit tangent bundle.

    The evaluator ``fn(xs, ys)`` takes lists of generic scalars (floats,
    arrays or jets) and must accept arbitrary nonzero y near the indicatrix.
    Its derivatives are exact, taken by feeding it jets.
    """

    def __init__(self, fn, variance, label=""):
        self.fn = fn
        self.variance = variance
        self.label = label

    @property
    def rank(self):
        return len(self.variance)

    @classmethod
    def from_vector(cls, vfn, label=""):
        """Vector field on the base manifold, components independent of y."""
        return cls(lambda xs, ys: vfn(xs), "u", label=label)

    def components(self, xs, ys):
        return self.fn(xs, ys)

    def partials(self, xs, ys):
        """(value, dx, dy) with dx[c] and dy[m] pytrees of plain partials."""
        return (
            self.fn(xs, ys),
            grad_x(self.fn, xs, ys),
            grad_y(self.fn, xs, ys),
        )

    def partials2(self, xs, ys):
        """(val, dx, dy, dxx, dxy, dyy); second partials of every component."""
        fn = self.fn
        return (
            fn(xs, ys),
            grad_x(fn, xs, ys),
            grad_y(fn, xs, ys),
            grad_x(lambda a, b: grad_x(fn, a, b), xs, ys),
            grad_x(lambda a, b: grad_y(fn, a, b), xs, ys),
            grad_y(lambda a, b: grad_y(fn, a, b), xs, ys),
        )


# -- public pointwise operations --------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConnectionAtPoint:
    """Spray, nonlinear connection and Cartan coefficients at one point."""

    G: np.ndarray
    N: np.ndarray
    Gamma: np.ndarray
    Cv: np.ndarray
    point: object
    n_gamma_defect: float  # |N - Gamma.y|, reported rather than enforced


def _point_tower(s, z, y=None):
    x, yv = s._coords(z, y)
    return LocalTower(s, [float(v) for v in x], [float(v) for v in yv]), (x, yv)


def spray(s, z, y=None):
    tower, pt = _point_tower(s, z, y)
    return TensorValue(pack(tower.G, 1), "u", pt)


def nonlinear_connection(s, z, y=None):
    tower, pt = _point_tower(s, z, y)
    return TensorValue(pack(tower.N, 2), "ul", pt)


def delta_derivative(s, f, z, axis, y=None):
    """Horizontal basis derivative of a generic scalar field along one axis."""
    tower, _ = _point_tower(s, z, y)
    dxf = grad_x(f, tower.xs, tower.ys)
    dyf = grad_y(f, tower.xs, tower.ys)
    return float(jets.primal(tower.delta(dxf, dyf, 0)[axis]))


def cartan_coefficients(s, z, y=None):
    tower, pt = _point_tower(s, z, y)
    G = pack(tower.G, 1)
    N = pack(tower.N, 2)
    Gamma = pack(tower.Gamma, 3)
    Cv = pack(tower.Cmix, 3)
    yv = np.asarray(pt[1], float)
    defect = float(np.max(np.abs(N - np.einsum("ijk,k->ij", Gamma, yv))))
    return ConnectionAtPoint(G=G, N=N, Gamma=Gamma, Cv=Cv, point=pt, n_gamma_defect=defect)


def h_covariant_derivative(s, T: TensorField, z, y=None):
    """Horizontal covariant derivative; the new lower slot is the last axis."""
    tower, pt = _point_tower(s, z, y)
    val, dx, dy = T.partials(tower.xs, tower.ys)
    nab = cov_h(tower, val, dx, dy, T.variance)
    data = np.moveaxis(pack(nab, T.rank + 1), 0, -1)
    return TensorValue(data, T.variance + "l", pt)


def v_covariant_derivative(s, T: TensorField, z, y=None):
    """Vertical covariant derivative; the new lower slot is the last axis."""
    tower, pt = _point_tower(s, z, y)
    val, _, dy = T.partials(tower.xs, tower.ys)
    nab = cov_v(tower, val, dy, T.variance)
    data = np.moveaxis(pack(nab, T.rank + 1), 0, -1)
    return TensorValue(data, T.variance + "l", pt)


def nabla_0(s, T: TensorField, z, y=None):
    """Covariant derivative along the tautological direction y."""
    tower, pt = _point_tower(s, z, y)
    val, dx, dy = T.partials(tower.xs, tower.ys)
    nab = cov_h(tower, val, dx, dy, T.variance)
    n = tower.n
    acc = nested_build(
        n,
        T.rank,
        lambda idx: sum_terms(tower.ys[h] * tget(nab[h], idx) for h in range(n)),
    )
    return TensorValue(pack(acc, T.rank), T.variance, pt)
