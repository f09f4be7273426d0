"""Nested forward-mode differentiation with first-order jets.

Every quantity in the engine is built from derivatives of smooth scalar
fields of the slit tangent bundle coordinates (x, y).  A "scalar" here is a
Python float, a numpy array (batched evaluation over many points at once)
or a :class:`Jet`.  A jet is first order, c0 + c1 t with t^2 = 0, and its
coefficients are again scalars.  Higher derivatives come from nesting: each
derivative order seeds its own jet level, tagged so that independent
differentiation contexts never mix their perturbations, and k nested levels
give exact k-th mixed partials.

:func:`grad_wrt` chooses its seeding from the input.  At a point (every
primal 0-d) it runs in vector mode: one pass seeds all n coordinates, the
tangent of coordinate m being ``eye(n)[m]``, and each nesting level keeps its
directions on its own array axis, so a k-fold nested derivative costs one
evaluation of the innermost field instead of n^k.  On arrays (quadrature
grids) it seeds one coordinate per pass with the scalar tangent 1.0.  Its
array callers are the rebuilt towers of a grid, which run the metric
family's g (``metric.metric_components``) under nested jets over every node,
and the angle partials of the grid's volume density, which differentiate
the fiber parameterization alone.  Vector mode on the
towers would grow each nested scalar from 2^k to (1+n)^k node arrays, which
raised peak memory by 25% (3D) to 92% (2D) on the benchmark grids.  At a point a tower caches one child at the
coordinates :func:`_seed` seeds and splits each layer it reads off that
child with :func:`_split`, as :func:`_vector_grad` does with its result.

:func:`grad_xy` gives the x- and y-partials together, for the horizontal
derivative delta_c = d/dx^c - N^m_c d/dy^m that reads both, and the value,
the primal part of its first pass: at a point one pass seeds all 2n
coordinates, on arrays one :func:`list_value_grad` pass seeds x and a
second vector pass, which builds no value, seeds y.  Kernels that read a
connection tower are differentiated by it, or by the x pass of
:func:`list_value_grad` alone where N vanishes: ``LocalTower.partials``
hands it a kernel that builds a lifted tower at the seeded coordinates,
which reads its layers off the parent's cached values and partials, so a
pass costs a few array operations per node rather than the family's g
under jets.

:func:`trig_sum` evaluates the seeded trigonometric generators in closed
form.  On arrays it keeps the cosine and sine of the phase K x of the last
node set, matched by the identity of K and of the node arrays, and only for
read-only arrays: a grid's nodes are, and the primal parts of its lifted and
seeded towers are those same arrays, so every draw, pass and nesting level
on one grid reads one table.

Fields are callables ``f(xs, ys) -> scalar`` where ``xs`` and ``ys`` are
plain lists of scalars.  The finite-difference routines exist only as an
independent oracle for tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, OrderTooHigh

MAX_PARTIAL_ORDER = 4

_TAGS = itertools.count(1)


def _new_tag() -> int:
    return next(_TAGS)


class Jet:
    """First-order jet c0 + c1 t with t^2 = 0, stored as ``coeffs = [c0, c1]``.

    c1 is the derivative along the jet's direction.  Both coefficients are
    scalars, so they may be jets of outer levels in turn: nesting k
    first-order jets with distinct tags gives exact k-th mixed partials.
    Binary operations between jets of different tags treat the jet with the
    smaller tag as a constant, which is exactly the algebra of nested
    perturbations.
    """

    __slots__ = ("coeffs", "tag")
    __array_ufunc__ = None  # force ndarray ops to defer to the reflected methods

    def __init__(self, coeffs, tag):
        self.coeffs = coeffs
        self.tag = tag

    # -- ring operations ---------------------------------------------------

    def __add__(self, o):
        a0, a1 = self.coeffs
        if isinstance(o, Jet):
            if o.tag == self.tag:
                return Jet([a0 + o.coeffs[0], a1 + o.coeffs[1]], self.tag)
            if o.tag > self.tag:
                return Jet([o.coeffs[0] + self, o.coeffs[1]], o.tag)
        return Jet([a0 + o, a1], self.tag)

    __radd__ = __add__

    def __neg__(self):
        return Jet([-self.coeffs[0], -self.coeffs[1]], self.tag)

    def __sub__(self, o):
        a0, a1 = self.coeffs
        if isinstance(o, Jet):
            if o.tag == self.tag:
                return Jet([a0 - o.coeffs[0], a1 - o.coeffs[1]], self.tag)
            if o.tag > self.tag:
                return Jet([self - o.coeffs[0], -o.coeffs[1]], o.tag)
        return Jet([a0 - o, a1], self.tag)

    def __rsub__(self, o):
        return Jet([o - self.coeffs[0], -self.coeffs[1]], self.tag)

    def __mul__(self, o):
        a0, a1 = self.coeffs
        if isinstance(o, Jet):
            if o.tag == self.tag:
                b0, b1 = o.coeffs
                return Jet([a0 * b0, a0 * b1 + a1 * b0], self.tag)
            if o.tag > self.tag:
                return Jet([self * o.coeffs[0], self * o.coeffs[1]], o.tag)
        return Jet([a0 * o, a1 * o], self.tag)

    __rmul__ = __mul__

    def reciprocal(self):
        c0, c1 = self.coeffs
        inv0 = _reciprocal(c0)
        return Jet([inv0, (-(c1 * inv0)) * inv0], self.tag)

    def __truediv__(self, o):
        a0, a1 = self.coeffs
        if isinstance(o, Jet):
            if o.tag == self.tag:
                b0, b1 = o.coeffs
                inv0 = _reciprocal(b0)
                q0 = a0 * inv0
                return Jet([q0, (a1 - b1 * q0) * inv0], self.tag)
            if o.tag > self.tag:
                return self * o.reciprocal()
        return Jet([a0 / o, a1 / o], self.tag)

    def __rtruediv__(self, o):
        return self.reciprocal() * o

    # -- elementary functions ----------------------------------------------

    def sqrt(self):
        c0, c1 = self.coeffs
        s0 = gsqrt(c0)
        return Jet([s0, c1 * _reciprocal(s0 + s0)], self.tag)

    def sincos(self):
        u0, u1 = self.coeffs
        s0, c0 = gsincos(u0)
        return Jet([s0, 0.0 + u1 * c0], self.tag), Jet([c0, 0.0 - u1 * s0], self.tag)

    def __repr__(self):
        return f"Jet(tag={self.tag}, coeffs={self.coeffs!r})"


def _reciprocal(x):
    if isinstance(x, Jet):
        return x.reciprocal()
    return 1.0 / x


def gsqrt(x):
    if isinstance(x, Jet):
        return x.sqrt()
    if isinstance(x, (float, int)):
        if x <= 0.0:
            raise DomainError("sqrt of a non-positive scalar")
        return math.sqrt(x)
    return np.sqrt(x)


def gsincos(x):
    """(sin x, cos x) together: a jet level computes both from one call on
    its primal, so k nested levels cost one sine and one cosine, not 2^k."""
    if isinstance(x, Jet):
        return x.sincos()
    if isinstance(x, (float, int)):
        return math.sin(x), math.cos(x)
    return np.sin(x), np.cos(x)


def gsin(x):
    if isinstance(x, Jet):
        return x.sincos()[0]
    if isinstance(x, (float, int)):
        return math.sin(x)
    return np.sin(x)


def gcos(x):
    if isinstance(x, Jet):
        return x.sincos()[1]
    if isinstance(x, (float, int)):
        return math.cos(x)
    return np.cos(x)


def trig_sum(K, A, B, xs):
    """Rows of trigonometric sums over one set of frequencies.

    ``out[r]`` = sum_k A[r, k] cos(K[k] . x) + B[r, k] sin(K[k] . x), for the
    frequency matrix ``K`` (F x n) and the coefficient rows ``A``, ``B``
    (R x F), at coordinates ``xs`` that are floats, arrays or nested jets.

    The newest jet level is split off in closed form: the x_i partial of the
    row (A, B) is the row (K[:, i] B, -K[:, i] A).  So the level appends one
    block of derivative rows per seeded coordinate and recurses on the
    coordinates' primal parts, and the tangent of row r is the sum of its
    derivative rows times the coordinates' tangents.  The innermost level
    computes one phase array K x, one sine, one cosine and two matrix
    products for all rows at once; at 0-d coordinates the products are
    row-wise sums, so a row's value does not depend on how many derivative
    rows the seeding appended.  At 0-d coordinates the rows are Python
    floats, on arrays ndarrays of the coordinates' broadcast shape.

    On arrays the cosine and sine of the phase form a table that is kept
    for the last node set, matched by the identity of ``K`` and of each
    coordinate array, when all of them are read-only ndarrays down to the
    arrays that own their memory; a new node set replaces it, and the kept
    table is read-only too.  A frequency matrix of :mod:`builtins` and a
    grid's node arrays qualify, so every draw on one grid computes the phase
    once.  The table is the one a call would compute, so the rows are
    bit-identical whether it is kept or not.
    """
    tags = [x.tag for x in xs if isinstance(x, Jet)]
    if not tags:
        return _trig_rows(K, A, B, xs)
    tag = max(tags)
    seeded = [(i, x.coeffs[1]) for i, x in enumerate(xs) if isinstance(x, Jet) and x.tag == tag]
    inner = [x.coeffs[0] if isinstance(x, Jet) and x.tag == tag else x for x in xs]
    vals = trig_sum(
        K,
        np.concatenate([A] + [B * K[:, i] for i, _ in seeded]),
        np.concatenate([B] + [A * -K[:, i] for i, _ in seeded]),
        inner,
    )
    rows = len(A)
    out = []
    for r in range(rows):
        tangent = None
        for block, (_, t) in enumerate(seeded, 1):
            d = vals[block * rows + r]
            term = d if type(t) is float and t == 1.0 else t * d
            tangent = term if tangent is None else tangent + term
        out.append(Jet([vals[r], tangent], tag))
    return out


# the phase table of the last read-only node set, (K, xs, cos(K x), sin(K x)),
# matched by identity (see trig_sum); it holds K and xs, so no new array
# can take their identity
_PHASE_TABLE = None


def _trig_rows(K, A, B, xs):
    """:func:`trig_sum` at jet-free coordinates."""
    global _PHASE_TABLE
    if all(type(x) is float for x in xs):
        shape = ()  # a point; broadcast_shapes would take a third of its cost
    else:
        shape = np.broadcast_shapes(*(np.shape(x) for x in xs))
    table = _PHASE_TABLE
    if (
        shape
        and table is not None
        and table[0] is K
        and all(a is b for a, b in zip(table[1], xs))
    ):
        _, _, cos, sin = table
    else:
        cols = K.T.reshape(K.shape[::-1] + (1,) * len(shape))
        # k_1 x_1 + ... + k_n x_n in this order, where a BLAS product may reorder
        phase = cols[0] * xs[0]
        for i in range(1, len(xs)):
            phase = phase + cols[i] * xs[i]
        if not shape:
            # one row at a time: a BLAS product rounds a row otherwise by the
            # number of rows it is computed with, which the seeding decides
            return ((A * np.cos(phase)).sum(axis=1) + (B * np.sin(phase)).sum(axis=1)).tolist()
        phase = phase.reshape(len(K), -1)
        cos, sin = np.cos(phase), np.sin(phase)
        # kept only if K and every x are read-only ndarrays down to the
        # arrays that own their memory, so no write can change a kept table
        arrays = [K, *xs]
        while arrays and all(type(a) is np.ndarray and not a.flags.writeable for a in arrays):
            arrays = [a.base for a in arrays if a.base is not None]
        if not arrays:
            cos.flags.writeable = sin.flags.writeable = False
            _PHASE_TABLE = (K, tuple(xs), cos, sin)
    out = A.dot(cos) + B.dot(sin)
    return list(out.reshape((len(A),) + shape))


def primal(x):
    """Strip all jet levels, returning the underlying numeric value."""
    while isinstance(x, Jet):
        x = x.coeffs[0]
    return x


# -- pytree helpers ---------------------------------------------------------


def tree_map(f, tree):
    if isinstance(tree, (list, tuple)):
        return [tree_map(f, c) for c in tree]
    return f(tree)


def _taylor_coeff(value, tag, k):
    """Coefficient k (0: value, 1: derivative) of ``value`` at jet level ``tag``."""
    if isinstance(value, Jet) and value.tag == tag:
        return value.coeffs[k]
    return value if k == 0 else 0.0


# -- derivative drivers ------------------------------------------------------


def grad_wrt(fn, lists, which):
    """First derivatives of ``fn(*lists)`` along every coordinate of one list.

    ``lists`` is a tuple of scalar lists; ``which`` selects the differentiated
    list.  Returns ``out[m]`` = pytree of d(fn)/d(lists[which][m]).

    At a point (every primal 0-d) one vector pass seeds all n coordinates,
    each nesting level on its own direction axis (see :func:`_vector_grad`).
    With array-valued coordinates each coordinate gets its own pass and a
    scalar tangent 1.0.  This stays per coordinate because its array callers
    rebuild the tower at the seeded coordinates, where the family's g runs
    under nested jets, and vector mode multiplies every node array of every
    level by its n directions: on the benchmark grids peak memory rose from 50.5 to 97.0 MB
    (2D) and from 95.3 to 119.0 MB (3D).  ``fn`` must take every jet it
    depends on through its arguments.  A caller that reads the partials along
    both lists of ``fn(xs, ys)`` takes them from :func:`grad_xy`, whose
    passes are all vector passes.
    """
    depth = _point_depth(lists)
    if depth is not None:
        return _vector_grad(fn, lists, which, depth)[2]
    out = []
    for m in range(len(lists[which])):
        tag = _new_tag()
        seeded = [list(l) for l in lists]
        v = seeded[which][m]
        seeded[which][m] = Jet([v, 1.0], tag)
        out.append(tree_map(lambda s: _taylor_coeff(s, tag, 1), fn(*seeded)))
    return out


def hessian_wrt(fn, lists, which):
    """Second derivatives ``out[i][j]`` of a scalar ``fn(*lists)`` along one list.

    At a point one nested vector pass gives the whole matrix from a single
    evaluation of ``fn``; on arrays the n(n+1)/2 pairs i <= j are seeded with
    two tags each and mirrored.  In the engine it is the custom family's g,
    half the y-Hessian of F^2 (``metric.f2_hessian``); the other families
    give g in closed form.
    """
    depth = _point_depth(lists)
    if depth is not None:
        inner = lambda *ls: _vector_grad(fn, ls, which, depth + 1)[2]
        return _vector_grad(inner, lists, which, depth)[2]
    n = len(lists[which])
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            t1 = _new_tag()
            t2 = _new_tag()
            seeded = [list(l) for l in lists]
            vec = seeded[which]
            vec[i] = Jet([vec[i], 1.0], t1)
            vec[j] = Jet([vec[j], 1.0], t2)
            val = _taylor_coeff(_taylor_coeff(fn(*seeded), t2, 1), t1, 1)
            rows[i][j] = rows[j][i] = val
    return rows


def _leaf_depth(lists):
    """Largest ndim of any leaf of the jet trees in ``lists``: the axis left
    of it is free for a new level's directions."""
    depth = 0
    for v in itertools.chain(*lists):
        stack = [v]
        while stack:
            c = stack.pop()
            if isinstance(c, Jet):
                stack.extend(c.coeffs)
            else:
                depth = max(depth, getattr(c, "ndim", 0))
    return depth


def _point_depth(lists):
    """:func:`_leaf_depth` of ``lists`` if every primal is 0-d, else None."""
    if any(getattr(primal(v), "ndim", 0) for v in itertools.chain(*lists)):
        return None
    return _leaf_depth(lists)


def _vector_grad(fn, lists, which, depth):
    """``(res, tag, partials)`` of one vector pass seeding all n coordinates
    of ``lists[which]`` (:func:`_seed`) under ``tag``: ``res`` is
    ``fn(*lists)`` at the seeded coordinates and ``partials`` its split
    tangent (:func:`_split`); a caller that reads the value takes it with
    :func:`_value`, so no other pass builds it.  ``fn`` must take every jet
    it depends on through its arguments, or close over jets no deeper than
    those: a deeper jet would be invisible to ``depth`` and could share an
    axis with this level.
    """
    seeded, tag = _seed(lists, which, depth)
    res = _evaluate(fn, *seeded)
    return res, tag, _split(res, tag, len(lists[which]), depth)


def _value(res, tag):
    """The primal part of a :func:`_vector_grad` result at its level ``tag``."""
    return tree_map(lambda s: _taylor_coeff(s, tag, 0), res)


def _seed(lists, which, depth):
    """(seeded lists, tag): coordinate m of ``lists[which]`` gets the tangent
    ``eye(n)[m]`` under a fresh tag, its direction axis at ``-(depth + 1)``
    left of the node axes and outer levels' axes (``depth`` is the inputs'
    :func:`_leaf_depth`), so each nesting level owns one axis."""
    n = len(lists[which])
    tag = _new_tag()
    eye = np.eye(n).reshape((n, n) + (1,) * depth)
    seeded = [list(l) for l in lists]
    seeded[which] = [Jet([v, eye[m]], tag) for m, v in enumerate(seeded[which])]
    return seeded, tag


def _evaluate(fn, *args):
    # non-finite tangents stay silent, as Python floats are on the loop path
    with np.errstate(over="ignore", invalid="ignore"):
        return fn(*args)


def _split(res, tag, n, depth):
    """The n partials of ``res``: its tangent at the :func:`_seed` level
    ``tag``, split along that level's direction axis."""
    d = tree_map(lambda s: _taylor_coeff(s, tag, 1), res)

    def component(s, m):
        if isinstance(s, Jet):
            return Jet([component(c, m) for c in s.coeffs], s.tag)
        if getattr(s, "ndim", 0) <= depth:
            return s  # constant along this level's axis
        s = s[(Ellipsis, m if s.shape[-depth - 1] > 1 else 0) + (slice(None),) * depth]
        while s.ndim and s.shape[0] == 1:  # leading length-1 axes: broadcasting restores them
            s = s[0]
        return s if s.ndim else float(s)  # a point's leaf is a float, as trig_sum's rows are

    return [tree_map(lambda s: component(s, m), d) for m in range(n)]


def grad_xy(fn, xs, ys):
    """``(value, dx, dy)``: ``fn(xs, ys)``, the primal part of the first
    pass, and its first derivatives along every coordinate of ``xs`` and of
    ``ys``, as :func:`grad_x` and :func:`grad_y` give them, by vector passes.

    At a point one pass seeds all 2n coordinates, the tangent of coordinate
    m being ``eye(2n)[m]``, so the field is evaluated once under this level
    instead of once per list.  Each partial equals the one of its own list's
    pass, because a direction's tangent only gains exact zeros from the other
    list's, with two exceptions: an exact zero may carry the other sign, and
    a quotient by a scalar that depends on the other list alone is a jet
    quotient here, which rounds otherwise by a few ulp.  On arrays it makes
    one vector pass per list, x first (:func:`list_value_grad`, which takes
    the value), so each list's partials are those of its own pass exactly.
    Seeding all 2n directions at once there would hold 2n tangents per node
    array instead of n, and raised the peak memory of the 3D benchmark grid
    by 16%.
    """
    lists = (xs, ys)
    depth = _point_depth(lists)
    if depth is None:
        value, dx = list_value_grad(fn, lists, 0)
        return value, dx, _vector_grad(fn, lists, 1, _leaf_depth(lists))[2]
    n = len(xs)
    res, tag, d = _vector_grad(lambda zs: fn(zs[:n], zs[n:]), (list(xs) + list(ys),), 0, depth)
    return _value(res, tag), d[:n], d[n:]


def list_value_grad(fn, lists, which):
    """``(value, partials)`` of ``fn(*lists)`` along ``lists[which]`` from
    one vector pass (:func:`_vector_grad`), at a point as on arrays.

    On arrays each tangent is a node array times ``eye(n)[m]``, n times the
    memory of the node array, so this suits fields whose cost is light per
    node, such as forms on a lifted tower; the family's g under nested jets
    takes the per-coordinate passes of :func:`grad_wrt` there.
    """
    res, tag, partials = _vector_grad(fn, lists, which, _leaf_depth(lists))
    return _value(res, tag), partials


def grad_x(fn, xs, ys):
    return grad_wrt(fn, (xs, ys), 0)


def grad_y(fn, xs, ys):
    return grad_wrt(fn, (xs, ys), 1)


@dataclass
class JetRequest:
    """A single mixed-partial request against a scalar field on TM0."""

    target: Callable
    point: tuple
    multi_index: tuple  # (x_orders, y_orders)


def _checked(req: JetRequest):
    """``(xs, ys, x_orders, y_orders, total)`` of ``req``; DomainError unless
    it holds one non-negative integer order (not a bool) per coordinate."""
    xs, ys = [list(map(float, v)) for v in req.point]
    orders = [list(o) for o in req.multi_index]
    flat = [o for os in orders for o in os]
    integral = all(isinstance(o, (int, np.integer)) and type(o) is not bool and o >= 0 for o in flat)
    if not integral or [len(os) for os in orders] != [len(xs), len(ys)]:
        raise DomainError(f"multi-index {req.multi_index!r}: one integer order >= 0 per coordinate")
    return xs, ys, *orders, int(sum(flat))


def partial(req: JetRequest) -> float:
    """Exact mixed partial: one nested first-order jet level per order."""
    xs, ys, x_orders, y_orders, total = _checked(req)
    if total > MAX_PARTIAL_ORDER:
        raise OrderTooHigh(f"total order {total} exceeds {MAX_PARTIAL_ORDER}")
    tags = []
    for vec, orders in ((xs, x_orders), (ys, y_orders)):
        for axis, o in enumerate(orders):
            for _ in range(o):
                tag = _new_tag()
                vec[axis] = Jet([vec[axis], 1.0], tag)
                tags.append(tag)
    val = req.target(xs, ys)
    for tag in reversed(tags):
        val = _taylor_coeff(val, tag, 1)
    return float(primal(val))


# nested differencing amplifies roundoff like eps / h^order, so the default
# step grows with the total order requested
_FD_DEFAULT_STEPS = {1: 1e-4, 2: 8e-4, 3: 3e-3, 4: 6e-3}


def fd_partial(req: JetRequest, step: float | None = None) -> float:
    """Central finite differences; the independent oracle used by tests.

    Every level of the recursion applies the 4th-order five-point stencil;
    a 2nd-order recursion cannot clear the roundoff floor of third-order
    requests at any usable step size.
    """
    xs, ys, x_orders, y_orders, total = _checked(req)
    base_step = step if step is not None else _FD_DEFAULT_STEPS.get(total, 6e-3)

    def _eval(f, xs, ys, orders_x, orders_y):
        for which, orders in ((0, orders_x), (1, orders_y)):
            for axis, o in enumerate(orders):
                if o == 0:
                    continue
                coord = (xs, ys)[which][axis]
                h = base_step * (1.0 + abs(coord)) if step is None else step
                rest_x = list(orders_x)
                rest_y = list(orders_y)
                (rest_x if which == 0 else rest_y)[axis] -= 1

                def shifted(d, which=which, axis=axis):
                    sx, sy = list(xs), list(ys)
                    (sx if which == 0 else sy)[axis] = coord + d
                    return _eval(f, sx, sy, rest_x, rest_y)

                return (
                    -shifted(2 * h)
                    + 8.0 * shifted(h)
                    - 8.0 * shifted(-h)
                    + shifted(-2 * h)
                ) / (12.0 * h)
        return f(xs, ys)

    return float(_eval(req.target, xs, ys, x_orders, y_orders))
