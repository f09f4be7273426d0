import math

import numpy as np
import pytest

from finslerforms import builtins as bi
from finslerforms import jets
from finslerforms.connection import tower_at
from finslerforms.curvature import hh_components, hv_components, vv_components
from finslerforms.errors import DomainError, OrderTooHigh
from finslerforms.jets import (
    Jet,
    JetRequest,
    _new_tag,
    _taylor_coeff,
    fd_partial,
    gcos,
    grad_wrt,
    grad_xy,
    gsin,
    gsqrt,
    hessian_wrt,
    list_value_grad,
    partial,
    tree_map,
    trig_sum,
)
from finslerforms.metric import FinslerStructure
from finslerforms.quadrature import QuadratureGrid
from finslerforms.scenario import run_task

from conftest import ROOTS, counted_root


def field(xs, ys):
    return gsin(xs[0] * ys[0]) + gsqrt(ys[0] * ys[0] + ys[1] * ys[1]) * gcos(xs[1])


POINT = ([0.7, 0.3], [1.2, -0.5])


class TestPartial:
    def test_first_y_derivative_closed_form(self):
        x, y = POINT
        r = math.hypot(*y)
        exact = x[0] * math.cos(x[0] * y[0]) + math.cos(x[1]) * y[0] / r
        got = partial(JetRequest(field, POINT, ((0, 0), (1, 0))))
        assert abs(got - exact) < 1e-14

    def test_quadratic_second_derivative(self, euclidean):
        got = partial(JetRequest(euclidean.f2, POINT, ((0, 0), (2, 0))))
        assert abs(got - 2.0) < 1e-14

    def test_sphere_metric_coefficient_derivative(self, sphere):
        # d/dtheta of the angular coefficient sin^2 at theta = pi/3
        th = math.pi / 3

        def g11(xs, ys):
            s = gsin(xs[0])
            return s * s

        got = partial(JetRequest(g11, ([th, 0.1], [1.0, 0.0]), ((1, 0), (0, 0))))
        assert abs(got - 2 * math.sin(th) * math.cos(th)) < 1e-14

    @pytest.mark.parametrize(
        "fn, orders, exact",
        [
            (lambda xs, ys: ys[0] * ys[0] * ys[0] * ys[0], ((0, 0), (4, 0)), lambda x, y: 24.0),
            (lambda xs, ys: ys[0] * ys[0] * ys[0] * ys[0], ((0, 0), (2, 0)), lambda x, y: 12.0 * y[0] ** 2),
            (lambda xs, ys: gsin(xs[0]), ((3, 0), (0, 0)), lambda x, y: -math.cos(x[0])),
            (lambda xs, ys: gsin(xs[0]), ((4, 0), (0, 0)), lambda x, y: math.sin(x[0])),
            (lambda xs, ys: 1.0 / ys[0], ((0, 0), (3, 0)), lambda x, y: -6.0 / y[0] ** 4),
            (lambda xs, ys: gsqrt(ys[0]), ((0, 0), (4, 0)), lambda x, y: -15.0 / 16.0 * y[0] ** -3.5),
            (
                lambda xs, ys: gsin(xs[0]) * ys[0] * ys[0] * ys[0],
                ((2, 0), (2, 0)),
                lambda x, y: -math.sin(x[0]) * 6.0 * y[0],
            ),
            (
                lambda xs, ys: gcos(ys[0]) * gsin(ys[1]),
                ((0, 0), (2, 2)),
                lambda x, y: math.cos(y[0]) * math.sin(y[1]),
            ),
        ],
        ids=[
            "y0^4-order4",
            "y0^4-order2",
            "sin-order3",
            "sin-order4",
            "recip-order3",
            "sqrt-order4",
            "mixed-x2-y2",
            "mixed-y2-y2",
        ],
    )
    def test_higher_order_closed_form(self, fn, orders, exact):
        x, y = POINT
        assert abs(partial(JetRequest(fn, POINT, orders)) - exact(x, y)) < 1e-12

    def test_mixed_partial_order_independent(self):
        a = grad_wrt(lambda xs, ys: grad_wrt(field, (xs, ys), 1)[0], POINT, 0)[0]
        b = grad_wrt(lambda xs, ys: grad_wrt(field, (xs, ys), 0)[0], POINT, 1)[0]
        assert abs(a - b) < 1e-12

    def test_order_cap(self):
        with pytest.raises(OrderTooHigh):
            partial(JetRequest(field, POINT, ((3, 0), (2, 0))))

    @pytest.mark.parametrize("differentiate", [partial, fd_partial], ids=["jets", "fd"])
    @pytest.mark.parametrize(
        "orders",
        [
            ((3, -1), (0, 0)),  # a total of 2, past the order cap
            ((-1, 0), (0, 0)),
            ((0, 0), (0, -2)),
            ((1.5, 0), (0, 0)),
            ((True, 0), (0, 0)),
            ((1, 0, 0), (0, 0)),
            ((1,), (0, 0)),
            ((0, 0), (1, 0, 0)),
        ],
        ids=["negative-in-total", "negative", "negative-y", "fractional", "bool", "long",
             "short", "long-y"],
    )
    def test_malformed_multi_index_is_refused_unevaluated(self, differentiate, orders):
        calls = []

        def target(xs, ys):
            calls.append(None)
            return field(xs, ys)

        with pytest.raises(DomainError, match="multi-index"):
            differentiate(JetRequest(target, POINT, orders))
        assert calls == []

    def test_numpy_integer_orders(self):
        orders = ((np.int64(1), 0), (0, np.int64(1)))
        want = partial(JetRequest(field, POINT, ((1, 0), (0, 1))))
        assert partial(JetRequest(field, POINT, orders)) == want

    def test_batched_arrays(self):
        xs = [np.array([0.7, 0.1]), np.array([0.3, 0.2])]
        ys = [np.array([1.2, 0.9]), np.array([-0.5, 0.4])]
        d = grad_wrt(field, (xs, ys), 1)[0]
        for k in range(2):
            single = partial(
                JetRequest(field, ([xs[0][k], xs[1][k]], [ys[0][k], ys[1][k]]), ((0, 0), (1, 0)))
            )
            assert abs(d[k] - single) < 1e-14


class TestFiniteDifferenceOracle:
    def test_euclidean_first_derivative_agreement(self, euclidean):
        req = JetRequest(euclidean.f2, POINT, ((0, 0), (1, 0)))
        assert abs(partial(req) - fd_partial(req)) < 1e-10

    def test_euclidean_mixed_agreement(self, euclidean):
        req = JetRequest(euclidean.f2, POINT, ((0, 0), (1, 1)))
        assert abs(partial(req) - fd_partial(req)) < 1e-8

    def test_oracle_agreement_random_requests(self):
        """jet vs central differences over random mixed requests, order <= 3."""
        rng = np.random.default_rng(4)
        families = ["euclidean", "randers-torus", "riemannian-torus", "riemannian-sphere", "quartic-torus"]
        for name in families:
            s = bi.get_metric(name)
            for _ in range(25):
                z = bi.random_chart_points(rng, s, 1)[0]
                orders = [0] * (2 * s.dim)
                for _ in range(int(rng.integers(1, 4))):
                    orders[int(rng.integers(0, 2 * s.dim))] += 1
                xo = tuple(orders[: s.dim])
                yo = tuple(orders[s.dim :])
                req = JetRequest(s.f2, (list(z.x), list(z.y)), (xo, yo))
                a, b = partial(req), fd_partial(req)
                assert abs(a - b) / (1.0 + abs(a)) < 1e-6, (name, xo, yo)

    def test_step_halving_improves_first_derivative(self):
        req = JetRequest(field, POINT, ((0, 0), (1, 0)))
        exact = partial(req)
        e1 = abs(fd_partial(req, step=1e-2) - exact)
        e2 = abs(fd_partial(req, step=5e-3) - exact)
        # 4th-order stencil: halving the step should gain roughly 2^4
        assert e2 < e1 / 8.0


class TestJetAlgebra:
    def test_division_and_reciprocal(self):
        t = 101
        x = Jet([2.0, 1.0], t)
        y = (1.0 / x) * x
        assert abs(y.coeffs[0] - 1.0) < 1e-15 and abs(y.coeffs[1]) < 1e-15

    def test_sqrt_derivative(self):
        t = 102
        x = Jet([4.0, 1.0], t)
        s = x.sqrt()
        assert abs(s.coeffs[0] - 2.0) < 1e-15
        assert abs(s.coeffs[1] - 0.25) < 1e-15

    @pytest.mark.parametrize("x", [0.0, -1.0, 0])
    def test_sqrt_of_a_non_positive_scalar_is_a_domain_error(self, x):
        with pytest.raises(DomainError, match="sqrt of a non-positive scalar"):
            gsqrt(x)

    def test_nested_tags_do_not_mix(self):
        # d/dx (x * dy(x*y)) must see the inner derivative as a constant
        def f(xs, ys):
            inner = grad_wrt(lambda a, b: a[0] * b[0], (xs, ys), 1)[0]
            return xs[0] * inner

        d = grad_wrt(f, ([0.7], [0.3]), 0)[0]
        assert abs(d - 2 * 0.7) < 1e-15


# -- vector mode at a point against the per-coordinate loop -----------------------


def loop_grad(fn, lists, which):
    """Reference: one seeded pass per coordinate, with a scalar tangent 1.0."""
    out = []
    for m in range(len(lists[which])):
        tag = _new_tag()
        seeded = [list(l) for l in lists]
        seeded[which][m] = Jet([seeded[which][m], 1.0], tag)
        res = fn(*seeded)
        out.append(tree_map(lambda s, tag=tag: _taylor_coeff(s, tag, 1), res))
    return out


def loop_hessian(fn, lists, which):
    """Reference: the pairs i <= j seeded with two tags each."""
    n = len(lists[which])
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            t1, t2 = _new_tag(), _new_tag()
            seeded = [list(l) for l in lists]
            seeded[which][i] = Jet([seeded[which][i], 1.0], t1)
            seeded[which][j] = Jet([seeded[which][j], 1.0], t2)
            rows[i][j] = rows[j][i] = _taylor_coeff(_taylor_coeff(fn(*seeded), t2, 1), t1, 1)
    return rows


def nested(grad, fn, order):
    """``grad`` applied along ``order`` (a tuple of list indices), outermost first."""
    if not order:
        return fn
    inner = nested(grad, fn, order[1:])
    return lambda *ls: grad(inner, ls, order[0])


def per_list(fn, xs, ys):
    """``grad_xy`` as one seeded pass per coordinate list, with the value
    of ``fn`` at the coordinates."""
    return fn(xs, ys), grad_wrt(fn, (xs, ys), 0), grad_wrt(fn, (xs, ys), 1)


def nested_xy(xy, fn, depth):
    """The partials of ``xy`` (grad_xy or a per-list equivalent) nested
    ``depth`` times, each level's value dropped."""
    if not depth:
        return fn
    inner = nested_xy(xy, fn, depth - 1)
    return lambda xs, ys: xy(inner, xs, ys)[1:]


def field3(xs, ys):
    r = gsqrt(ys[0] * ys[0] + ys[1] * ys[1] + ys[2] * ys[2])
    return gsin(xs[0] * ys[0]) + r * gcos(xs[1]) + (xs[2] * ys[1]) * ys[2]


def quotient3(xs, ys):
    return (xs[2] * ys[2]) / gsqrt(ys[0] * ys[0] + ys[1] * ys[1] + ys[2] * ys[2])


def _base_dependent_randers(n):
    def a(xs):
        rows = [[0.0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 1.2 + 0.2 * gcos(xs[i])
        rows[0][1] = rows[1][0] = 0.1 * gsin(xs[n - 1])
        return rows

    def b(xs):
        return [0.3 * gcos(xs[1])] + [0.2 * gsin(xs[0])] * (n - 1)

    return FinslerStructure.randers(a, b, dim=n)


POINTS = {
    2: ([0.7, 0.3], [1.2, -0.5]),
    3: ([0.7, 0.3, 1.1], [1.2, -0.5, 0.4]),
}
SCALARS = {
    2: [field, bi.get_metric("quartic-torus").f2, _base_dependent_randers(2).f2],
    3: [field3, bi.get_metric("randers-torus-3d").f2, _base_dependent_randers(3).f2],
}
# node arrays of one shape, and broadcast ones as a grid holds them
ARRAY_POINTS = [
    (
        [np.array([0.7, 0.1, 0.4]), np.array([0.3, 0.2, 0.9])],
        [np.array([1.2, 0.9, -0.3]), np.array([-0.5, 0.4, 1.0])],
    ),
    (
        [np.array([[0.7], [0.1]]), np.array([[0.3, 0.2, 0.9]])],
        [np.array([[1.2, 0.9, -0.3]]), np.array([[-0.5], [0.4]])],
    ),
]
ORDERS = [(0,), (1,), (0, 1), (1, 0), (1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1), (0, 0, 0)]


def flat(tree):
    """Every float of a pytree whose leaves are scalars or equal-shape arrays."""
    if isinstance(tree, (list, tuple)):
        return np.concatenate([flat(c) for c in tree])
    return np.atleast_1d(np.asarray(tree, float))


def flat_nodes(tree, coords):
    """Every float of a pytree over the nodes of ``coords``, each leaf
    broadcast to their common shape."""
    if isinstance(tree, (list, tuple)):
        return np.concatenate([flat_nodes(c, coords) for c in tree])
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
    return np.broadcast_to(np.asarray(tree, float), shape).ravel()


class TestVectorMode:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: "".join("xy"[w] for w in o))
    def test_point_grad_equals_loop(self, n, order):
        """At a point, one seeded pass per level gives the loop's numbers exactly."""
        for fn in SCALARS[n]:
            got = flat(nested(grad_wrt, fn, order)(*POINTS[n]))
            want = flat(nested(loop_grad, fn, order)(*POINTS[n]))
            assert got.shape == want.shape == (n ** len(order),)
            # equal as floats: an exact zero may carry the other sign
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("order", [(1,), (1, 1), (0, 1, 1)], ids=["y", "yy", "xyy"])
    def test_point_quotient_agrees_to_rounding(self, order):
        """A quotient of two jets rounds otherwise than a jet over a constant.

        In the loop, ``a / b`` with ``b`` constant in the seeded coordinate
        divides each coefficient by ``b``; in vector mode ``b`` is a jet too
        and the jet quotient multiplies by ``1 / b``.  The two agree to a few
        ulp, not bit for bit.
        """
        got = flat(nested(grad_wrt, quotient3, order)(*POINTS[3]))
        want = flat(nested(loop_grad, quotient3, order)(*POINTS[3]))
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_point_grad_xy_equals_per_list(self, n, depth):
        """At a point, seeding x and y in one pass per level gives the
        partials of one pass per list at every level, as floats."""
        for fn in SCALARS[n]:
            got = flat(nested_xy(grad_xy, fn, depth)(*POINTS[n]))
            want = flat(nested_xy(per_list, fn, depth)(*POINTS[n]))
            assert got.shape == want.shape == ((2 * n) ** depth,)
            # equal as floats: an exact zero may carry the other sign
            assert np.array_equal(got, want)

    def test_point_grad_xy_quotient_agrees_to_rounding(self):
        """A divisor that depends on y alone is a jet of the x directions too."""
        for depth in (1, 2, 3):
            got = flat(nested_xy(grad_xy, quotient3, depth)(*POINTS[3]))
            want = flat(nested_xy(per_list, quotient3, depth)(*POINTS[3]))
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [2, 3])
    def test_point_grad_xy_is_one_pass(self, n):
        calls = []

        def fn(xs, ys):
            calls.append(None)
            return SCALARS[n][0](xs, ys)

        grad_xy(lambda a, b: grad_xy(fn, a, b), *POINTS[n])
        assert len(calls) == 1

    def test_array_grad_xy_equals_the_loop(self):
        """On arrays, the vector pass per list gives the loop's partials bit
        for bit, on node arrays of equal and of broadcast shapes."""
        for xs, ys in ARRAY_POINTS:
            for fn in SCALARS[2]:
                got = flat_nodes(grad_xy(fn, xs, ys), xs + ys)
                want = [fn(xs, ys), loop_grad(fn, (xs, ys), 0), loop_grad(fn, (xs, ys), 1)]
                want = flat_nodes(want, xs + ys)
                assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_grad_xy_value_is_the_field(self, depth):
        """The value grad_xy reads off its pass is the field's own value bit
        for bit, at points and on arrays, also where the field is nested
        partials."""
        for xs, ys in [POINTS[2], *ARRAY_POINTS]:
            for fn in SCALARS[2]:
                f = nested_xy(grad_xy, fn, depth)
                got = flat_nodes(grad_xy(f, xs, ys)[0], xs + ys)
                want = flat_nodes(f(xs, ys), xs + ys)
                assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("depth", [2, 3])
    def test_nested_array_grad_xy_equals_per_list(self, depth):
        """Nested vector levels on arrays keep their direction axes apart."""
        for xs, ys in ARRAY_POINTS:
            for fn in SCALARS[2]:
                got = flat_nodes(nested_xy(grad_xy, fn, depth)(xs, ys), xs + ys)
                want = flat_nodes(nested_xy(per_list, fn, depth)(xs, ys), xs + ys)
                assert got.shape == want.shape == (4**depth * np.broadcast(*xs, *ys).size,)
                # equal as floats: an exact zero may carry the other sign
                assert np.array_equal(got, want)

    def test_array_grad_xy_is_one_pass_per_list(self):
        calls = []

        def fn(xs, ys):
            calls.append(None)
            return SCALARS[2][0](xs, ys)

        xs, ys = ARRAY_POINTS[0]
        grad_xy(lambda a, b: grad_xy(fn, a, b), xs, ys)
        assert len(calls) == 4

    @pytest.mark.parametrize("n", [2, 3])
    def test_point_grad_is_one_pass(self, n):
        calls = []

        def fn(xs, ys):
            calls.append(None)
            return SCALARS[n][0](xs, ys)

        grad_wrt(lambda a, b: grad_wrt(fn, (a, b), 1), POINTS[n], 0)
        assert len(calls) == 1

    def test_only_readers_of_the_value_build_it(self, monkeypatch):
        """A vector pass builds its value tree (``jets._value``) only for
        list_value_grad and the point pass of grad_xy: grad_wrt and both
        levels of hessian_wrt at a point, and grad_xy's y pass on arrays,
        drop it."""
        built, value = [], jets._value
        monkeypatch.setattr(jets, "_value", lambda res, tag: built.append(1) or value(res, tag))
        fn = SCALARS[2][0]
        grad_wrt(fn, POINTS[2], 0)
        hessian_wrt(fn, POINTS[2], 1)
        assert built == []
        grad_xy(fn, *ARRAY_POINTS[0])
        list_value_grad(fn, POINTS[2], 1)
        grad_xy(fn, *POINTS[2])
        assert built == [1, 1, 1]

    @pytest.mark.parametrize("n", [2, 3])
    def test_point_hessian_matches_loop(self, n):
        for fn in SCALARS[n]:
            got = np.asarray(hessian_wrt(fn, POINTS[n], 1), float)
            want = np.asarray(loop_hessian(fn, POINTS[n], 1), float)
            assert np.max(np.abs(got - want)) <= 1e-14 * (1.0 + np.max(np.abs(want)))

    def test_array_inputs_take_the_loop(self):
        xs = [np.array([0.7, 0.1, 0.4]), np.array([0.3, 0.2, 0.9])]
        ys = [np.array([1.2, 0.9, -0.3]), np.array([-0.5, 0.4, 1.0])]
        for fn in SCALARS[2]:
            for order in ORDERS[:5]:
                got = nested(grad_wrt, fn, order)(xs, ys)
                want = nested(loop_grad, fn, order)(xs, ys)
                assert [v.hex() for v in flat(got)] == [v.hex() for v in flat(want)]
            got = hessian_wrt(fn, (xs, ys), 1)
            want = loop_hessian(fn, (xs, ys), 1)
            assert [v.hex() for v in flat(got)] == [v.hex() for v in flat(want)]

    @pytest.mark.parametrize("root", ROOTS)
    def test_curvature_root_count_does_not_grow_with_dimension(self, root, monkeypatch):
        """3 evaluations of the family's g for the three curvature blocks in 2D
        and in 3D, and as many of F^2 on the custom twin's Hessian route."""
        counts = []
        for n, b in ((2, [0.5, 0.0]), (3, [0.3, 0.0, 0.0])):
            s, calls = counted_root(FinslerStructure.randers(np.eye(n).tolist(), b), root, monkeypatch)
            z = bi.random_chart_points(np.random.default_rng(1), s, 1)[0]
            calls.clear()  # count from here: drawing the point evaluates F^2
            tower = tower_at(s, (z.x, z.y))
            for kernel in (hh_components, hv_components, vv_components):
                kernel(tower)
            counts.append(len(calls))
        assert counts == [3, 3]


# -- the phase table of trig_sum on grid arrays ---------------------------------------


def per_call_trig_rows(K, A, B, xs):
    """``jets._trig_rows`` on arrays without the table: the phase of every call."""
    shape = np.broadcast_shapes(*(np.shape(x) for x in xs))
    cols = K.T.reshape(K.shape[::-1] + (1,) * len(shape))
    phase = cols[0] * xs[0]
    for i in range(1, len(xs)):
        phase = phase + cols[i] * xs[i]
    phase = phase.reshape(len(K), -1)
    out = A.dot(np.cos(phase)) + B.dot(np.sin(phase))
    return list(out.reshape((len(A),) + shape))


@pytest.fixture()
def no_table(monkeypatch):
    """No kept phase table at the start of the test, so no other test's counts."""
    monkeypatch.setattr(jets, "_PHASE_TABLE", None)


def frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return list(arrays)


def trig_fields(s, seed):
    """A trig vector field and a trig form of every degree, as ``f(xs, ys)``."""
    rng = np.random.default_rng(seed)
    X = bi.random_trig_vector(rng, s)
    out = [X.components]
    for p in range(s.dim + 1):
        out.append(bi.random_trig_form(rng, s, p).coeffs)
    return out


def leaf_hexes(tree):
    """Shape and bits of every leaf, each at its own shape."""
    if isinstance(tree, (list, tuple)):
        return [h for c in tree for h in leaf_hexes(c)]
    a = np.asarray(tree, float)
    return [(a.shape, [v.hex() for v in a.ravel().tolist()])]


class TestPhaseTable:
    """``trig_sum`` keeps the cosine and sine of the phase of a read-only node
    set and gives the same bits as the per-call phase."""

    @pytest.mark.parametrize("name", ["randers-torus", "randers-torus-3d"])
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_cold_warm_and_per_call_are_bit_identical(self, name, level, no_table, monkeypatch):
        s = bi.get_metric(name)
        grid = QuadratureGrid.for_structure(s, (8,) * s.dim, (8,) * (s.dim - 1))
        xs, ys = grid.coords_for(s)
        for fn in trig_fields(s, 30 + level):
            f = nested(list_value_grad, fn, (0,) * level)
            with monkeypatch.context() as m:
                m.setattr(jets, "_trig_rows", per_call_trig_rows)
                want = leaf_hexes(f(xs, ys))
            monkeypatch.setattr(jets, "_PHASE_TABLE", None)
            cold = leaf_hexes(f(xs, ys))
            built = jets._PHASE_TABLE
            assert built is not None
            warm = leaf_hexes(f(xs, ys))
            assert cold == want and warm == want and jets._PHASE_TABLE is built

    def test_a_new_node_set_replaces_the_table(self, no_table, monkeypatch):
        """A grid, its doubling, and equal counts on another chart each
        replace the kept table with one built on their own node arrays."""
        torus, sphere = bi.get_metric("riemannian-torus"), bi.get_metric("riemannian-sphere")
        grid = QuadratureGrid.for_structure(torus, (8, 8), (8,))
        settings = [
            (torus, grid),
            (torus, grid.doubled()),
            (sphere, QuadratureGrid.for_structure(sphere, (8, 8), (8,))),
        ]
        phi = bi.random_trig_form(np.random.default_rng(33), torus, 1)
        before = None
        for s, g in settings:
            xs, ys = g.coords_for(s)
            with monkeypatch.context() as m:
                m.setattr(jets, "_trig_rows", per_call_trig_rows)
                want = leaf_hexes(phi.coeffs(xs, ys))
            assert leaf_hexes(phi.coeffs(xs, ys)) == want
            table = jets._PHASE_TABLE
            assert table is not before and all(a is b for a, b in zip(table[1], xs))
            assert not table[2].flags.writeable and not table[3].flags.writeable
            before = table

    def test_writable_arrays_and_points_take_the_per_call_path(self, no_table):
        K = bi._frequencies(2, 2)
        rng = np.random.default_rng(34)
        A, B = rng.normal(size=(2, len(K))), rng.normal(size=(2, len(K)))
        xs = [np.linspace(0.0, 1.0, 5).reshape(5, 1), np.linspace(0.0, 2.0, 3).reshape(1, 3)]
        views = [np.broadcast_to(x, (5, 3)) for x in xs]  # read-only views of writable arrays
        assert not any(v.flags.writeable for v in views)
        settings = [xs, views, [0.4, 1.3], [0.4, frozen(xs[1].copy())[0]]]
        for coords in settings:
            trig_sum(K, A, B, coords)
        assert jets._PHASE_TABLE is None
        trig_sum(K.copy(), A, B, frozen(xs[0].copy(), xs[1].copy()))  # a writable K
        assert jets._PHASE_TABLE is None
        before = trig_sum(K, A, B, views)
        xs[0] += 0.5  # moves the views' nodes
        got = trig_sum(K, A, B, views)
        want = per_call_trig_rows(K, A, B, views)
        assert jets._PHASE_TABLE is None
        assert leaf_hexes(got) == leaf_hexes(want)
        assert not np.array_equal(got[0], before[0])

    def test_a_warm_grid_check_computes_no_phase_table(self, no_table, monkeypatch):
        """Adjointness and divergence draws on a warm grid read only the table
        the first op kept; N does not vanish, so both the x and the y pass run."""
        s = bi.get_metric("riemannian-torus")
        grid = QuadratureGrid.for_structure(s, (8, 8), (8,))
        tasks = [{"which": "adjointness", "p": p, "count": 3} for p in (0, 1)]
        tasks.append({"which": "divergence", "count": 3})

        def op(seed):
            for params in tasks:
                run_task(s, grid, "check", params, None, np.random.default_rng(seed))

        op(35)
        kept = jets._PHASE_TABLE
        assert kept is not None
        calls = []
        rows = jets._trig_rows

        def spy(K, A, B, xs):
            calls.append(K is kept[0] and all(a is b for a, b in zip(kept[1], xs)))
            return rows(K, A, B, xs)

        monkeypatch.setattr(jets, "_trig_rows", spy)
        op(36)
        assert calls and all(calls)
        assert jets._PHASE_TABLE is kept
