"""Spray, nonlinear connection, Cartan coefficients and covariant derivatives.

The central object is :class:`LocalTower`, a lazily evaluated cache of the
whole connection tower at one evaluation point.  The point coordinates may
be floats (pointwise use), batched numpy arrays (whole quadrature grids at
once) or jets.  :func:`tower_at` is the one pointwise entry: it validates a
point z = (x, y) and returns its tower, and every block at the point is read
off that tower.  It keeps the tower of the last point until the next point,
so blocks read at one point in separate calls share its layers; towers built
by :class:`LocalTower` directly (grid, array, rebuilt, lifted and child
towers) are not kept.  G, N and Gamma are algebra over g's first partials by
one Christoffel rule (:func:`_christoffel`); N contracts C_ljk G^k before
raising its index, so no grid tower holds Cmix for it.

A tower caches a layer only when more than one computation reads it.  A
layer with one reader is computed inside it: F^2 in F, delta_c g_ij in
Gamma, delta_c N in ``flag`` and nabla_h T in ``nabla0T``.  gamma^i_jk y^k
(``_gamma_y``), read by G and N, is cached until N, which reads G as well,
has read it.  The rebuilt partials are cached, read by the delta layers and
the lifted towers, and so are the three contractions every delta_H call
reads (below), and ``deltaGamma`` and ``deltaCmix``, as their readers
``curvature.hh_components`` and ``hv_components`` run on every call.
``dgy`` = 2 C is not, so that no tower holds C twice.

A tower is differentiated in two ways.  A layer's own partials are taken
at jet-valued coordinates, which evaluates the family's g
(:func:`metric.metric_components`) under nested jets; the curvature blocks
are built on these.  Each of Tt, N, Gamma, Cmix and nabla0T has exactly one
cached partial per coordinate list (``dN_x``, ``dN_y``, through
:func:`_rebuilt_partial`).  At a point a tower caches one
child, itself at x and y seeded together, and splits every first partial
it needs off the matching layer of that child: both lists of those layers,
and ``dgx`` and the Cartan tensor C, half of g's y partial, off g.  The
child computes only the layers read and takes its own partials from its
own child.  On arrays no child is cached, since a grid tower outlives the
call: each list is its own per-coordinate pass (:func:`jets.grad_wrt`) at
fresh rebuilt towers, which keeps the family's g under nested jets from
holding n tangents per node array.  This is the one rule that reads the
shape of the coordinates.

Whatever is computed from the tower's layers (a :class:`TensorField`, a
form, nabla T inside nabla nabla T, :func:`cov_hh`) is a kernel tower ->
components, and a horizontal derivative takes ``tower.partials(kernel)``
(:meth:`LocalTower.partials`) by three rules on the kernel and the tower:

1. A :class:`BaseKernel`, the kernel of a field of x alone, takes one x
   pass, and dy is the structural zero.
2. Where every N^m_c is the structural zero no delta_c reads a y partial,
   so dy is None, and any other kernel takes the x pass alone.
3. Any other kernel takes the passes of :func:`jets.grad_xy`.

Under every rule the value is the primal part of the first pass, so no
kernel runs outside its passes.  Rules 2 and 3 run the kernel on a lifted
tower at the seeded coordinates, which reads N, Gamma, g and nabla0T as
jets of the parent's cached values and partials.  A dy of None is for
horizontal consumers only: a vertical derivative (:func:`cov_v`) takes the
y partials of :meth:`TensorField.partials`, which follow rule 1 for a field
of x alone.

The co-differential reads three contractions of the tower, each cached
once: gamma^p = g^ij Gamma^p_ij (``Gamma_trace``), R^pj_k = g^ij Gamma^p_ki
(``Gamma_raised``) and T^j = g^ij (nabla_0 T)_i (``nabla0T_raised``).

Structural zeros.  The float ``0.0`` stands for a component that vanishes
identically (:func:`is_structural_zero`).  A tower stores each ndarray
component of N, Gamma, nabla0T and nabla_nabla0T, and of every rebuilt
partial, that is 0 at every node as that float, and the kernels that multiply
by these layers skip its terms, so on an x-independent metric a grid kernel
does not broadcast arrays of zeros over every node, and a lifted tower reads
a layer whose partials vanish as its parent's plain value.  The y partial of
a kernel that reads x alone is that zero in every entry, and delta_c
(:func:`_delta_entry`) forms no N^m_c d_y term for it.  Values stay exact;
only the sign of an exact zero may differ.

Outer products.  On a grid the first n node axes are the base and the
rest the fiber.  A sum of products u_t v_t in which each pair has one
factor constant along every fiber axis and the other constant along every
base axis, as g^ij and delta_c of a form of x alone are on an
x-independent metric, is a sum of outer products.  :func:`sum_products`
stacks the base factors into B (K x base nodes) and the fiber factors into
V (K x fiber nodes) and returns them as one :class:`OuterSum`, which stays
factored until it is read: an integral (``quadrature``) contracts B and V
against the grid's weights at base-plus-fiber size, and any other reader
materializes it as the matrix product B.T @ V over base + fiber nodes, one
product in place of a multiply and an add over every node per term.  It is
broadcasting algebra, exact up to rounding for any arrays that pass the
shape test.  A tower tests shapes only where every g^ij is constant along
the base (:attr:`LocalTower.outer_ndim`), decided once per tower; floats,
jets and batch arrays never pass, and elsewhere, as where g^ij spans all
nodes, the pairs are summed in order, as :func:`sum_terms` sums them.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import jets
from .errors import DomainError
from .jets import grad_wrt, grad_x, grad_xy, grad_y
from .metric import (
    FinslerStructure,
    TensorValue,
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
    combines its plain partials into delta_c = d/dx^c - N^m_c d/dy^m; Gamma,
    ``flag`` and the ``deltaX`` layers are built on it.  ``nabla0T`` and
    ``nabla_nabla0T`` take :func:`cov_h` of the 1-forms T and nabla0T, as
    for any tensor field.

    ``N``, ``Gamma``, ``nabla0T``, ``nabla_nabla0T`` and the rebuilt
    partials store a component that is an ndarray equal to 0 at every node
    as the structural zero ``0.0``, whose terms the kernels skip; jets are
    kept as they are.

    G and N are algebra over :func:`_christoffel` of ``dgx``, Gamma over that
    of delta_c g_ij; N contracts C_ljk G^k, not Cmix.  A layer's own partials
    (``dN_x``, ``dN_y``, ...) are taken at jet-valued coordinates, which
    evaluates the family's g under nested jets, and cached once per
    coordinate list.  At a point C, ``dgx`` and both lists of every such
    partial are split off the layers of one cached child (:attr:`_child`);
    on arrays each is its own pass at fresh rebuilt towers.  ``dgx`` is g's x partial and C half its y
    partial ``dgy``, both by this rule.  Kernels computed from the layers,
    such as fields, forms and nabla T, are differentiated by :meth:`partials`.
    """

    def __init__(self, s: FinslerStructure, xs, ys):
        self.s = s
        self.xs = list(xs)
        self.ys = list(ys)
        self.n = s.dim

    def partials(self, kernel):
        """(value, dx, dy) of ``kernel(tower)`` (nested components) at this
        point, by the three kernel rules of the module docstring; under
        rules 2 and 3 the passes run ``kernel(_LiftedTower(self, a, b))``.
        A lifted tower keeps N as the structural zero only where the
        parent's value and partials are, so rule 2 holds at every nesting
        level.
        """
        vanishing = all(is_structural_zero(v) for row in self.N for v in row)
        if isinstance(kernel, BaseKernel):
            value, dx, dy = kernel.x_pass(self.xs, self.ys)
            return value, dx, None if vanishing else dy
        lifted = lambda a, b: kernel(_LiftedTower(self, a, b))
        if vanishing:
            return (*jets.list_value_grad(lifted, (self.xs, self.ys), 0), None)
        return grad_xy(lifted, self.xs, self.ys)

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
        """Plain partial along list ``which`` (0: x, 1: y) of ``layer`` (g or a
        rebuilt layer), with structural zeros.  At a point both lists' partials
        are split off the child's ``layer``, the other one cached under
        ``other`` if named.  On arrays it is one per-coordinate pass (:func:`jets.grad_wrt`)
        at fresh rebuilt towers: a vector pass would carry n tangents per node
        array through the family's g under nested jets, and a child would live
        as long as the grid."""
        if self._depth is None:
            rebuilt = lambda a, b: getattr(LocalTower(self.s, a, b), layer)
            return _collapse_zeros(grad_wrt(rebuilt, (self.xs, self.ys), which))
        child, tag = self._child
        d = jets._split(jets._evaluate(getattr, child, layer), tag, 2 * self.n, self._depth)
        both = [_collapse_zeros(d[: self.n]), _collapse_zeros(d[self.n :])]
        if other:
            vars(self)[other] = both[1 - which]
        return both[which]

    def delta(self, dx, dy, rank):
        """Horizontal derivative ``out[c][components]`` of a rank-``rank``
        layer from its plain partials ``dx[c]`` and ``dy[m]`` (:func:`_delta_entry`)."""
        entry = _delta_entry(self, dx, dy)
        return [nested_build(self.n, rank, lambda idx, c=c: entry(c, idx)) for c in range(self.n)]

    # -- zeroth layer --------------------------------------------------------

    @cached_property
    def F(self):
        return jets.gsqrt(self.s.f2(self.xs, self.ys))

    @cached_property
    def g(self):
        return metric_components(self.s, self.xs, self.ys)

    @cached_property
    def gi(self):
        return inverse_components(self.g, self.n)

    @cached_property
    def C(self):
        """C[k][i][j] = C_kij, half of g_ij's y partial (:meth:`_layer_partial`)."""
        dgy = self._layer_partial("g", 1, "dgx")
        return nested_build(self.n, 3, lambda idx: 0.5 * tget(dgy, idx))

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

    def lower(self, v):
        """v_i = g_ij v^j of the components ``v[j]``, summed in order of j:
        the one lowering of an index on the tower."""
        n, g = self.n, self.g
        return [sum_terms(g[i][j] * v[j] for j in range(n)) for i in range(n)]

    @cached_property
    def y_lower(self):
        return self.lower(self.ys)

    # -- spray and nonlinear connection ---------------------------------------

    @cached_property
    def G(self):
        """G^i = 1/2 gamma^i_jk y^j y^k (:attr:`_gamma_y`)."""
        return [0.5 * _dot(row, self.ys) for row in self._gamma_y]

    @cached_property
    def N(self):
        """N^i_j = gamma^i_jk y^k - 2 g^il C_ljk G^k, with C_ljk G^k contracted
        before the index is raised, so that no grid tower holds Cmix."""
        n, gy = self.n, self._gamma_y
        CG = [[_dot(self.C[l][j], self.G) for l in range(n)] for j in range(n)]
        del self._gamma_y  # G, its other reader, is cached by now
        return _collapse_zeros(
            [[gy[i][j] - 2.0 * _dot(self.gi[i], CG[j]) for j in range(n)] for i in range(n)]
        )

    @cached_property
    def _gamma_y(self):
        """gamma^i_jk y^k, gamma the Christoffel symbols of ``dgx``."""
        gamma = _christoffel(self.gi, self.dgx, self.n)
        return [[_dot(row, self.ys) for row in rows] for rows in gamma]

    # -- Cartan horizontal coefficients ----------------------------------------

    dgx = _rebuilt_partial("g", 0)  # dgx[c][i][j]: the x partial of g_ij

    @property
    def dgy(self):
        """dgy[m][i][j] = 2 C_mij, the y partial of g_ij, of which C is half
        (uncached, so that no grid tower holds both)."""
        return nested_build(self.n, 3, lambda idx: 2.0 * tget(self.C, idx))

    @cached_property
    def Gamma(self):
        """The Christoffel symbols of delta_c g_ij (:meth:`delta`)."""
        return _christoffel(self.gi, self.delta(self.dgx, self.dgy, 2), self.n)

    # -- Cartan trace derivatives ------------------------------------------------

    dT_x = _rebuilt_partial("Tt", 0, "dT_y")
    dT_y = _rebuilt_partial("Tt", 1, "dT_x")

    @cached_property
    def nabla0T(self):
        """nabla0T[j] = y^h nabla_h T_j, T the Cartan trace."""
        # the partials first: they rebuild the tower under nested jets, and the
        # layers Tt caches here would otherwise be held through that peak
        dx, dy = self.dT_x, self.dT_y
        return _collapse_zeros(along_y(self, cov_h(self, self.Tt, dx, dy, "l"), 1))

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
    def flag(self):
        """Curvature of the nonlinear connection, delta_j N^i_k - delta_k N^i_j;
        equals y^m R^i_mjk."""
        n, dN = self.n, self.delta(self.dN_x, self.dN_y, 2)  # dN[c][i][k] = delta_c N^i_k
        return [[[dN[j][i][k] - dN[k][i][j] for k in range(n)] for j in range(n)] for i in range(n)]

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

    # -- contractions the co-differential reads (forms.deltaH_coeffs) ---------------

    @cached_property
    def Gamma_trace(self):
        """Gamma_trace[p] = gamma^p = g^ij Gamma^p_ij."""
        n, gi = self.n, self.gi
        gi_flat = [gi[i][j] for i in range(n) for j in range(n)]
        return [_dot(gi_flat, [v for row in self.Gamma[p] for v in row]) for p in range(n)]

    @cached_property
    def Gamma_raised(self):
        """Gamma_raised[p][j][k] = R^pj_k = g^ij Gamma^p_ki for p != j,
        Gamma's lower index i raised (g^ij = g^ji).  ``Gamma_raised[p][p]``
        is None: the co-differential reads R^pj_k against psi_{j..p..}, which
        vanishes for j = p."""
        n, gi, Gamma = self.n, self.gi, self.Gamma
        return [
            [None if j == p else [_dot(gi[j], Gamma[p][k]) for k in range(n)] for j in range(n)]
            for p in range(n)
        ]

    @cached_property
    def nabla0T_raised(self):
        """nabla0T_raised[j] = T^j = g^ij (nabla_0 T)_i."""
        return [_dot(row, self.nabla0T) for row in self.gi]

    @cached_property
    def outer_ndim(self):
        """The node-axis count of the coordinates where every g^ij is a float
        or an array constant along every base axis, so that a pair of the
        tower's factors may be an outer product (:func:`sum_products`); None
        at a point, on a batch and where some g^ij is a jet or varies along
        the base, where no pair is tested."""
        n, ndim = self.n, getattr(jets.primal(self.ys[0]), "ndim", 0)
        if ndim <= n:
            return None
        for v in (v for row in self.gi for v in row):
            if isinstance(v, jets.Jet):
                return None
            aligned = ((1,) * ndim + np.shape(v))[-ndim:]  # as broadcasting aligns it
            if any(d != 1 for d in aligned[:n]):
                return None
        return ndim


def _lifted(layer, x_partial, y_partial, rank):
    """Cached ``layer`` of a :class:`_LiftedTower`, lifted from its parent."""
    return cached_property(lambda self: self._lift(layer, x_partial, y_partial, rank))


class _LiftedTower(LocalTower):
    """The tower of :meth:`LocalTower.partials` at jet coordinates ``xs``,
    ``ys`` over the point of ``parent``.

    The seeded level is read off the coordinates: its tag is the newest
    outer jet tag, and each coordinate that carries it holds its vector-pass
    tangent: ``eye(2n)[m]`` where both lists are seeded in one pass, as
    :func:`jets.grad_xy` seeds them at a point, and ``eye(n)[m]`` where one
    list is.  N, Gamma, g and nabla0T are jets of the parent's values and of
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


def sum_products(plus, minus, n, ndim):
    """sum u v over the pairs (u, v) of ``plus``, minus that over ``minus``,
    leaving out every pair with a structural-zero factor; the structural
    zero if none is left.  The factors are scalars at nodes of ``ndim`` axes,
    the first ``n`` of them the base.  ``ndim`` is None where no pair can be
    an outer product (:attr:`LocalTower.outer_ndim`), and then every pair is
    summed in order, with no shape test.  Otherwise the pairs that are outer
    products (:func:`_base_and_fiber`) are held as one :class:`OuterSum`
    (:func:`_outer_sum`), the sign of a subtracted pair folded into its
    fiber factor, and added last; the others are summed in order, as
    :func:`sum_terms` sums them, the added ones and then the subtracted ones.
    """
    zero = is_structural_zero
    outer = []

    def products(pairs, negate):
        for u, v in pairs:
            if zero(u) or zero(v):
                continue
            split = None if ndim is None else _base_and_fiber(u, v, n, ndim)
            if split is None:
                yield u * v
            else:
                base, fiber = split
                outer.append((base, -fiber if negate else fiber))

    acc = sum_terms(products(plus, False))
    sub = sum_terms(products(minus, True))
    if not zero(sub):
        acc = acc - sub
    if not outer:
        return acc
    out = _outer_sum(outer)
    return out if zero(acc) else out + acc


def _base_and_fiber(u, v, n, ndim):
    """(base factor on the n base axes, fiber factor on the fiber axes) of
    the pair (u, v) if both are ndarrays, one constant along every fiber
    axis and the other along every base axis; else None.  An array with
    fewer than ``ndim`` axes is aligned right, as broadcasting aligns it, so
    a leaf whose leading length-1 axes :func:`jets._split` stripped is read
    alike.  Floats, jets and arrays with no fiber axis, such as a batch
    (B,), never pass."""
    if ndim <= n or type(u) is not np.ndarray or type(v) is not np.ndarray:
        return None
    if u.ndim > ndim or v.ndim > ndim:
        return None
    ones = (1,) * ndim
    su, sv = ones[u.ndim :] + u.shape, ones[v.ndim :] + v.shape
    if su[n:] == ones[n:] and sv[:n] == ones[:n]:
        return u.reshape(su[:n]), v.reshape(sv[n:])
    if sv[n:] == ones[n:] and su[:n] == ones[:n]:
        return v.reshape(sv[:n]), u.reshape(su[n:])
    return None


def _outer_sum(pairs):
    """sum_t b_t f_t over pairs of a base factor b_t and a fiber factor f_t
    (:func:`_base_and_fiber`) as one :class:`OuterSum`, the base factors
    stacked as the rows of B (K x base nodes) and the fiber factors as the
    rows of V (K x fiber nodes), each broadcast to the shape of its kind."""
    base = np.broadcast_shapes(*(b.shape for b, _ in pairs))
    fiber = np.broadcast_shapes(*(f.shape for _, f in pairs))
    B = np.stack([np.broadcast_to(b, base) for b, _ in pairs]).reshape(len(pairs), -1)
    V = np.stack([np.broadcast_to(f, fiber) for _, f in pairs]).reshape(len(pairs), -1)
    return OuterSum(B, V, base, fiber)


class OuterSum(np.lib.mixins.NDArrayOperatorsMixin):
    """A sum of outer products held as its factors: B (K x base nodes) and V
    (K x fiber nodes), of the node shapes ``base`` and ``fiber``, negated
    if ``negated``.  An integral contracts the factors with the grid's
    weights (``quadrature``); np.asarray, every ufunc and every arithmetic
    operator materialize it as (B.T @ V) reshaped to base + fiber, negated if
    ``negated``.  Negation stays factored, so :func:`forms.form_build`
    fills the permuted entries of a form without a product over the nodes."""

    __slots__ = ("B", "V", "base", "fiber", "negated")

    def __init__(self, B, V, base, fiber, negated=False):
        self.B, self.V, self.base, self.fiber, self.negated = B, V, base, fiber, negated

    @property
    def shape(self):
        return self.base + self.fiber

    def __array__(self, dtype=None, copy=None):
        out = (self.B.T @ self.V).reshape(self.shape)
        out = -out if self.negated else out
        return out if dtype is None else out.astype(dtype, copy=False)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = [np.asarray(v) if isinstance(v, OuterSum) else v for v in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __neg__(self):
        return OuterSum(self.B, self.V, self.base, self.fiber, not self.negated)


def _dot(a, b):
    """sum_m a[m] b[m], leaving out every term with a structural-zero
    factor; the structural zero if none is left."""
    zero = is_structural_zero
    return sum_terms(u * v for u, v in zip(a, b) if not (zero(u) or zero(v)))


def _christoffel(gi, dg, n):
    """out[i][j][k] = 1/2 g^il (dg[j][l][k] + dg[k][j][l] - dg[l][j][k]) for
    dg[c][i][j] a derivative of g_ij along axis c (Gamma from delta_c g_ij,
    gamma from dgx), symmetric in j and k and with structural zeros."""
    out = [[[None] * n for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for k in range(j, n):
            low = [dg[j][l][k] + dg[k][j][l] - dg[l][j][k] for l in range(n)]
            for i in range(n):
                out[i][j][k] = out[i][k][j] = 0.5 * _dot(gi[i], low)
    return _collapse_zeros(out)


# -- covariant derivatives of tensor fields ------------------------------------


def cov_h(tower, val, dx, dy, variance):
    """Horizontal covariant derivative; returns nested [h][components].

    ``val`` is the nested component pytree, ``dx[c]`` and ``dy[m]`` its plain
    coordinate partials.
    """
    n = tower.n
    delta = _delta_entry(tower, dx, dy)
    slots = _slot_terms(n, val, variance, tower.Gamma)
    return [
        nested_build(n, len(variance), lambda idx, h=h: slots(delta(h, idx), h, idx))
        for h in range(n)
    ]


def _delta_entry(tower, dx, dy):
    """``entry(c, idx)`` = (dx[c] - N^m_c dy[m])_idx, the horizontal basis
    derivative delta_c from plain partials, one term subtracted at a time.  A
    term whose N^m_c or dy[m] entry is the structural zero is not formed, so
    where N vanishes dy may be None."""
    n, N = tower.n, tower.N

    def entry(c, idx):
        acc = tget(dx[c], idx)
        for m in range(n):
            if not is_structural_zero(N[m][c]):
                d = tget(dy[m], idx)
                if not is_structural_zero(d):
                    acc = acc - N[m][c] * d
        return acc

    return entry


def along_y(tower, nab, rank):
    """nabla_0 T = y^h nabla_h T from ``nab[h][components]``, the horizontal
    covariant derivative of a rank-``rank`` field."""
    ys, n = tower.ys, tower.n
    return nested_build(n, rank, lambda idx: sum_terms(ys[h] * tget(nab[h], idx) for h in range(n)))


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

    ``kernel(tw)`` gives the field's components at a tower ``tw``: ``X.on``
    for a :class:`TensorField`, ``form.on`` for a form.  nabla T is the kernel
    tw -> cov_h(tw, *tw.partials(kernel), variance), and its partials are
    taken by ``tower.partials`` in turn.  Returns ``(tower.partials(kernel),
    W, D)``, each computed once: ``W[b][components]`` holds nabla_b T and
    ``D[a][b][components]`` nabla_a nabla_b T.
    """

    def nabla(tw):
        p1 = tw.partials(kernel)
        return [p1, cov_h(tw, *p1, variance)]

    (p1, W), dx, dy = tower.partials(nabla)
    D = cov_h(tower, W, [d[1] for d in dx], dy and [d[1] for d in dy], "l" + variance)
    return p1, W, D


# -- tensor fields ---------------------------------------------------------------


class BaseKernel:
    """The kernel tower -> ``fn(tower.xs)`` of a field whose components read
    the base point x alone.  The constructors that take a coefficient
    function of xs alone build it (:meth:`TensorField.from_vector`,
    ``HorizontalForm.of_x``), so its partials need no y pass."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, tower):
        return self.fn(tower.xs)

    def x_pass(self, xs, ys):
        """(value, dx, dy) from one vector pass over x (:func:`jets.list_value_grad`);
        every entry of each dy[m] is the structural zero."""
        value, dx = jets.list_value_grad(lambda a, b: self.fn(a), (xs, ys), 0)
        zeros = jets.tree_map(lambda _: 0.0, value)
        return value, dx, [zeros] * len(ys)


class TensorField:
    """A tensor field on the slit tangent bundle.

    The evaluator ``fn(xs, ys)`` takes lists of generic scalars (floats,
    arrays or jets) and must accept arbitrary nonzero y near the indicatrix.
    Its derivatives are exact, taken by feeding it jets.  A horizontal
    derivative reads ``tower.partials(X.on)``, whose dy may be None, as for a
    form; a vertical one reads :meth:`partials`, whose dy is always computed.
    ``on`` is the kernel tower -> components at the tower's point, as a
    form's: ``kernel`` where given (a :class:`BaseKernel` for a field of x
    alone, as :meth:`from_vector` builds), else ``fn`` at the coordinates.
    """

    def __init__(self, fn, variance, label="", kernel=None):
        self.fn = fn
        self.variance = variance
        self.label = label
        self.on = kernel or (lambda tower: fn(tower.xs, tower.ys))

    @property
    def rank(self):
        return len(self.variance)

    @classmethod
    def from_vector(cls, vfn, label=""):
        """Vector field on the base manifold, components ``vfn(xs)``
        independent of y; its kernel is a :class:`BaseKernel`."""
        return cls(lambda xs, ys: vfn(xs), "u", label=label, kernel=BaseKernel(vfn))

    def components(self, xs, ys):
        return self.fn(xs, ys)

    def partials(self, xs, ys):
        """(value, dx, dy) with dx[c] and dy[m] pytrees of plain partials,
        taken together by :func:`jets.grad_xy`; a field of x alone takes them
        from its :meth:`BaseKernel.x_pass`."""
        if isinstance(self.on, BaseKernel):
            return self.on.x_pass(xs, ys)
        return grad_xy(self.fn, xs, ys)

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


def require_vector_field(X: TensorField, reader):
    """DomainError unless ``X`` is a vector field; ``reader`` opens the message."""
    if X.variance != "u":
        raise DomainError(f"{reader} a vector field (variance 'u'), got {X.variance!r}")


# -- the pointwise entry ----------------------------------------------------------


# the tower tower_at built last, (s, bits of x and y, tower): a call with the
# same metric object at the same point returns it
_POINT_TOWER = None


def tower_at(s, z):
    """The tower at one point z = (x, y), validated by
    :meth:`FinslerStructure._coords`: the one pointwise entry.  Every block at
    the point is a layer of this tower or a kernel run on it
    (``curvature.hh_components``, ``forms.bochner_scalar_at``, ...), so the
    blocks read off one tower share its layers.

    The tower of the last point is kept until the next point: a call with the
    same ``s`` (by identity) at the same x and y (bit for bit, so 0.0 and -0.0
    differ) returns it, layers computed, and any other call replaces it.  z is
    validated on every call, a repeated one too."""
    global _POINT_TOWER
    x, y = s._coords(z)
    key = x.tobytes() + y.tobytes()
    kept = _POINT_TOWER
    if kept is not None and kept[0] is s and kept[1] == key:
        return kept[2]
    tower = LocalTower(s, [float(v) for v in x], [float(v) for v in y])
    _POINT_TOWER = (s, key, tower)
    return tower


def delta_derivative(tower, f, axis):
    """Horizontal basis derivative of a generic scalar field along one axis."""
    return float(jets.primal(tower.delta(*grad_xy(f, tower.xs, tower.ys)[1:], 0)[axis]))


def h_covariant_derivative(tower, T: TensorField):
    """Horizontal covariant derivative; the new lower slot is the last axis."""
    nab = cov_h(tower, *tower.partials(T.on), T.variance)
    return TensorValue(np.moveaxis(pack(nab, T.rank + 1), 0, -1), T.variance + "l")


def v_covariant_derivative(tower, T: TensorField):
    """Vertical covariant derivative; the new lower slot is the last axis."""
    val, _, dy = T.partials(tower.xs, tower.ys)
    nab = cov_v(tower, val, dy, T.variance)
    return TensorValue(np.moveaxis(pack(nab, T.rank + 1), 0, -1), T.variance + "l")


def nabla_0(tower, T: TensorField):
    """Covariant derivative along the tautological direction y."""
    nab = cov_h(tower, *tower.partials(T.on), T.variance)
    return TensorValue(pack(along_y(tower, nab, T.rank), T.rank), T.variance)
