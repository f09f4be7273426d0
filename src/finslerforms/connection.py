"""Spray, nonlinear connection, Cartan coefficients and covariant derivatives.

The central object is :class:`LocalTower`, a lazily evaluated cache of the
whole connection tower at one evaluation point.  The point coordinates may
be floats (pointwise use), batched numpy arrays (whole quadrature grids at
once) or jets.

A tower is differentiated in two ways.  A layer's own partials are taken
at jet-valued coordinates, which evaluates F^2 under nested jets; the
curvature blocks are built on these.  Each of Tt, N, Gamma, Cmix and
nabla0T has exactly one cached partial per coordinate list (``dN_x``,
``dN_y``, through :func:`_rebuilt_partial`).  At a point a tower caches one
child, itself at x and y seeded together, and splits every first partial
it needs off the matching layer of that child: both lists of those layers,
N off G and ``dgx`` off g.  The child computes only the layers read and
takes its own partials from its own child.  On arrays no child is cached,
since a grid tower outlives the call: each list is its own per-coordinate
pass (:func:`jets.grad_wrt`) at fresh rebuilt towers, which keeps F^2 under
nested jets from holding n tangents per node array.  Whatever is computed
from the tower's layers is differentiated on a lifted tower instead
(:meth:`LocalTower.partials`): :func:`jets.grad_xy` seeds the
coordinates in vector passes, one over x and y together at a point and one
per list on arrays, and the lifted tower at those jet coordinates reads N,
Gamma, g and nabla0T as jets of the parent's cached values and partials.
So fields, forms and nabla T inside nabla nabla T (:func:`cov_hh`) are all
differentiated by the same seeding drivers, and a horizontal derivative
skips the y pass where N vanishes (:meth:`LocalTower.horizontal_partials`).

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
from .jets import grad_wrt, grad_x, grad_xy, grad_y
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


def _rebuilt_partial(layer, which, other=None):
    """Cached :meth:`LocalTower._layer_partial`; ``other`` names the
    layer's cached partial along the other list."""
    return cached_property(lambda self: self._layer_partial(layer, which, other))


class LocalTower:
    """Connection tower at one point, computed lazily and memoized.

    Attribute index conventions (all nested lists, component order as in the
    attribute name): ``Gamma[i][j][k]`` is the horizontal coefficient with
    upper index i, ``N[i][j]`` the nonlinear connection, ``flag[i][j][k]``
    the curvature of the nonlinear connection, equal to the y-contraction of
    the hh-curvature.  Derivative prefixes: ``dX_x[c]`` is the plain x
    partial along axis c and ``dX_y[m]`` the fiber partial.

    The horizontal derivative of a layer goes through :meth:`delta`, which
    combines its plain partials into delta_c = d/dx^c - N^m_c d/dy^m; the
    ``deltaX`` layers are built on it.  The covariant derivatives of the
    Cartan trace, ``nabla_h_T`` and ``nabla_nabla0T``, are :func:`cov_h` of
    the 1-forms T and nabla0T, as for any tensor field.

    ``N``, ``Gamma``, ``nabla0T``, ``nabla_nabla0T`` and the rebuilt
    partials store a component that is an ndarray equal to 0 at every node
    as the structural zero ``0.0``, whose terms the kernels skip; jets are
    kept as they are.

    A layer's own partials (``dN_x``, ``dN_y``, ...) are taken at jet-valued
    coordinates, which evaluates F^2 under nested jets, and cached once per
    coordinate list.  At a point N, ``dgx`` and both lists of every such
    partial are split off the layers of one cached child (:attr:`_child`);
    on arrays each is its own pass at fresh rebuilt towers.  ``dgx`` is g's
    x partial; its y partial ``dgy`` is 2 C.  Kernels
    computed from the layers, such as fields, forms and nabla T, are
    differentiated without that: :meth:`partials` runs the kernel under
    :func:`jets.grad_xy` on a :class:`_LiftedTower` at the seeded
    coordinates, whose N, Gamma, g and nabla0T are first-order jets of this
    tower's values and cached partials.
    """

    def __init__(self, s: FinslerStructure, xs, ys):
        self.s = s
        self.xs = list(xs)
        self.ys = list(ys)
        self.n = s.dim

    def partials(self, kernel):
        """(value, dx, dy) of ``kernel(tower)`` (nested components) at this point.

        The partials are those of ``kernel(_LiftedTower(self, a, b))`` under
        :func:`jets.grad_xy`, so the seeding is its: one vector pass over x
        and y together at a point, one vector pass per list on arrays.  The
        lifted tower reads its connection layers as jets of this tower's
        cached values and partials instead of recomputing them from F^2 at
        jet coordinates; a kernel that reads only the coordinates, such as a
        leaf form, sees the seeded coordinates alone.
        """
        return (kernel(self), *grad_xy(self._lifted_kernel(kernel), self.xs, self.ys))

    def horizontal_partials(self, kernel):
        """(value, dx, dy) of ``kernel(tower)`` as a horizontal derivative
        (:func:`cov_h_entry`, :meth:`delta`) reads them.

        Those read dy only as N^m_c dy[m], and skip an N^m_c that is the
        structural zero.  So on arrays, if every N^m_c is that zero, dy is
        None and only the x pass of :meth:`partials` runs; its values are
        that pass's, bit for bit.  A lifted tower keeps N as the structural
        zero only where the parent's value and partials are, so the rule
        holds at every nesting level.  At a point, where x and y share one
        pass, and wherever N does not vanish, this is :meth:`partials`.
        """
        reads_dy = not all(is_structural_zero(v) for row in self.N for v in row)
        if reads_dy or self._depth is not None:
            return self.partials(kernel)
        dx = jets.list_grad(self._lifted_kernel(kernel), (self.xs, self.ys), 0)
        return kernel(self), dx, None

    @cached_property
    def _depth(self):
        """:func:`jets._point_depth` of the coordinates: None on arrays."""
        return jets._point_depth((self.xs, self.ys))

    @cached_property
    def _child(self):
        """(child, tag) at a point: a :class:`LocalTower` at x and y seeded
        together under one tag, as :func:`jets.grad_xy` seeds them."""
        (zs,), tag = jets._seed((self.xs + self.ys,), 0, self._depth)
        return LocalTower(self.s, zs[: self.n], zs[self.n :]), tag

    def _layer_partial(self, layer, which, other=None):
        """Plain partial along list ``which`` (0: x, 1: y) of ``layer``, with
        structural zeros.  At a point the partials along both lists are split
        off the child's ``layer``, the other one cached under ``other`` if
        named.  On arrays it is one per-coordinate pass (:func:`jets.grad_wrt`)
        at fresh rebuilt towers: a vector pass would carry n tangents per node
        array through F^2 under nested jets, and a child would live as long as
        the grid."""
        if self._depth is None:
            rebuilt = lambda a, b: getattr(LocalTower(self.s, a, b), layer)
            return _collapse_zeros(grad_wrt(rebuilt, (self.xs, self.ys), which))
        child, tag = self._child
        d = jets._split(jets._evaluate(getattr, child, layer), tag, 2 * self.n, self._depth)
        both = [_collapse_zeros(d[: self.n]), _collapse_zeros(d[self.n :])]
        if other:
            vars(self)[other] = both[1 - which]
        return both[which]

    def _lifted_kernel(self, kernel):
        """``kernel`` at the lifted tower over this point at coordinates (a, b)."""
        return lambda a, b: kernel(_LiftedTower(self, a, b))

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
        return cartan_trace_components(self.gi, self.C)

    @cached_property
    def y_lower(self):
        n = self.n
        return [sum_terms(self.g[i][j] * self.ys[j] for j in range(n)) for i in range(n)]

    # -- spray and nonlinear connection ---------------------------------------

    @cached_property
    def G(self):
        n = self.n
        dxf2 = grad_x(self.s.f2, self.xs, self.ys)
        dxdy = grad_x(lambda a, b: grad_y(self.s.f2, a, b), self.xs, self.ys)
        # dxdy[c][h] is the x_c partial of the y_h partial of F^2
        rhs = [
            sum_terms(dxdy[j][h] * self.ys[j] for j in range(n)) - dxf2[h]
            for h in range(n)
        ]
        return [
            0.25 * sum_terms(self.gi[i][h] * rhs[h] for h in range(n))
            for i in range(n)
        ]

    @cached_property
    def N(self):
        dG = self._layer_partial("G", 1)
        return [[dG[j][i] for j in range(self.n)] for i in range(self.n)]

    # -- Cartan horizontal coefficients ----------------------------------------

    dgx = _rebuilt_partial("g", 0)  # dgx[c][i][j]: the x partial of g_ij

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

    dT_x = _rebuilt_partial("Tt", 0, "dT_y")
    dT_y = _rebuilt_partial("Tt", 1, "dT_x")

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

    dN_x = _rebuilt_partial("N", 0, "dN_y")
    dN_y = _rebuilt_partial("N", 1, "dN_x")
    dGamma_x = _rebuilt_partial("Gamma", 0, "dGamma_y")
    dGamma_y = _rebuilt_partial("Gamma", 1, "dGamma_x")

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

    dCmix_x = _rebuilt_partial("Cmix", 0, "dCmix_y")
    dCmix_y = _rebuilt_partial("Cmix", 1, "dCmix_x")

    @cached_property
    def deltaCmix(self):
        """deltaCmix[c][h][k][j]: horizontal derivative of Cmix along axis c."""
        return self.delta(self.dCmix_x, self.dCmix_y, 3)

    d_nabla0T_x = _rebuilt_partial("nabla0T", 0, "d_nabla0T_y")
    d_nabla0T_y = _rebuilt_partial("nabla0T", 1, "d_nabla0T_x")

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
    outer jet tag, and each coordinate that carries it holds its vector-pass
    tangent: ``eye(2n)[m]`` at a point, where :func:`jets.grad_xy` seeds both
    lists in one pass, and ``eye(n)[m]`` on arrays and in
    :meth:`LocalTower.horizontal_partials`, where one list is seeded per
    pass.  N, Gamma, g and nabla0T are jets of the parent's values and of
    its cached partials along each seeded list (``dN_x``, ``dN_y``, ...;
    ``dgx`` and ``dgy`` for g), read lazily.  Every other layer is computed
    at the jet coordinates; the partials of its own layers follow the
    one-child rule of :class:`LocalTower`, its child being a plain tower.
    """

    def __init__(self, parent, xs, ys):
        # a view sharing the parent's structure; keeps the lists a pass hands it
        self.s, self.n, self.parent, self.xs, self.ys = parent.s, parent.n, parent, xs, ys
        tag = self.tag = max(c.tag for c in xs + ys if isinstance(c, jets.Jet))
        self.tangents = [
            [(m, c.coeffs[1]) for m, c in enumerate(cs) if isinstance(c, jets.Jet) and c.tag == tag]
            for cs in (xs, ys)
        ]

    def _lift(self, layer, x_partial, y_partial, rank):
        """The parent's ``layer`` with each component as the jet value +
        sum_m dx_m tx_m + sum_m dy_m ty_m over the seeded coordinates, dx and
        dy read off the parent's ``x_partial`` and ``y_partial`` for each
        list that is seeded.  A partial
        that is the structural zero adds no term, and a component with no
        term stays the plain value, so a structural zero of the parent stays
        one."""
        tx, ty = self.tangents
        dx = getattr(self.parent, x_partial) if tx else None
        dy = getattr(self.parent, y_partial) if ty else None
        ds = [(dx[m], t) for m, t in tx] + [(dy[m], t) for m, t in ty]
        value = getattr(self.parent, layer)

        def component(idx):
            terms = []
            for d, t in ds:
                d = tget(d, idx)
                if is_structural_zero(d):
                    continue
                terms.append(d * t)
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
        """(value, dx, dy) with dx[c] and dy[m] pytrees of plain partials,
        taken together by :func:`jets.grad_xy`."""
        return (self.fn(xs, ys), *grad_xy(self.fn, xs, ys))

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


def _point_tower(s, z):
    """(tower at float coordinates, validated (x, y)) for one point z = (x, y)."""
    x, yv = s._coords(z)
    return LocalTower(s, [float(v) for v in x], [float(v) for v in yv]), (x, yv)


def spray(s, z):
    tower, pt = _point_tower(s, z)
    return TensorValue(pack(tower.G, 1), "u", pt)


def nonlinear_connection(s, z):
    tower, pt = _point_tower(s, z)
    return TensorValue(pack(tower.N, 2), "ul", pt)


def delta_derivative(s, f, z, axis):
    """Horizontal basis derivative of a generic scalar field along one axis."""
    tower, _ = _point_tower(s, z)
    return float(jets.primal(tower.delta(*grad_xy(f, tower.xs, tower.ys), 0)[axis]))


def cartan_coefficients(s, z):
    tower, pt = _point_tower(s, z)
    G = pack(tower.G, 1)
    N = pack(tower.N, 2)
    Gamma = pack(tower.Gamma, 3)
    Cv = pack(tower.Cmix, 3)
    defect = float(np.max(np.abs(N - np.einsum("ijk,k->ij", Gamma, pt[1]))))
    return ConnectionAtPoint(G=G, N=N, Gamma=Gamma, Cv=Cv, point=pt, n_gamma_defect=defect)


def h_covariant_derivative(s, T: TensorField, z):
    """Horizontal covariant derivative; the new lower slot is the last axis."""
    tower, pt = _point_tower(s, z)
    val, dx, dy = T.partials(tower.xs, tower.ys)
    nab = cov_h(tower, val, dx, dy, T.variance)
    data = np.moveaxis(pack(nab, T.rank + 1), 0, -1)
    return TensorValue(data, T.variance + "l", pt)


def v_covariant_derivative(s, T: TensorField, z):
    """Vertical covariant derivative; the new lower slot is the last axis."""
    tower, pt = _point_tower(s, z)
    val, _, dy = T.partials(tower.xs, tower.ys)
    nab = cov_v(tower, val, dy, T.variance)
    data = np.moveaxis(pack(nab, T.rank + 1), 0, -1)
    return TensorValue(data, T.variance + "l", pt)


def nabla_0(s, T: TensorField, z):
    """Covariant derivative along the tautological direction y."""
    tower, pt = _point_tower(s, z)
    val, dx, dy = T.partials(tower.xs, tower.ys)
    nab = cov_h(tower, val, dx, dy, T.variance)
    n = tower.n
    acc = nested_build(
        n,
        T.rank,
        lambda idx: sum_terms(tower.ys[h] * tget(nab[h], idx) for h in range(n)),
    )
    return TensorValue(pack(acc, T.rank), T.variance, pt)
