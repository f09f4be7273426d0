"""The seeded trigonometric generators against their per-frequency loop,
and the catalogue's lookups at its edges."""

import math
import re
from itertools import combinations, product

import numpy as np
import pytest

from finslerforms import builtins as bi
from finslerforms.connection import TensorField, pack
from finslerforms.errors import ConfigError
from finslerforms.forms import HorizontalForm, form_build
from finslerforms.jets import (
    Jet,
    JetRequest,
    _new_tag,
    gsincos,
    grad_wrt,
    hessian_wrt,
    partial,
    trig_sum,
)
from finslerforms.quadrature import QuadratureGrid
from finslerforms.scenario import metric_from_config, run_scenario


# -- the reference: one closure per coefficient, one jet sine and cosine per frequency --


def loop_frequencies(dim, degree):
    out = []
    for k in product(range(-degree, degree + 1), repeat=dim):
        if not any(k) or sum(abs(v) for v in k) > degree:
            continue
        first = next(v for v in k if v != 0)
        if first < 0:
            continue
        out.append(k)
    return out


def loop_trig_scalar(rng, dim, degree=2):
    freqs = loop_frequencies(dim, degree)
    scale = 1.0 / math.sqrt(2 * len(freqs) + 1)
    a0 = float(rng.normal()) * scale
    coeffs = [(k, float(rng.normal()) * scale, float(rng.normal()) * scale) for k in freqs]

    def f(xs):
        acc = a0
        for k, ca, cb in coeffs:
            phase = None
            for ki, xi in zip(k, xs):
                if ki == 0:
                    continue
                term = float(ki) * xi
                phase = term if phase is None else phase + term
            sin, cos = gsincos(phase)
            acc = acc + ca * cos + cb * sin
        return acc

    return f


def loop_trig_form(rng, s, degree_p, trig_degree=2):
    n = s.dim
    if degree_p == 0:
        f = loop_trig_scalar(rng, n, trig_degree)
        return HorizontalForm(0, lambda xs, ys: f(xs))
    fns = {c: loop_trig_scalar(rng, n, trig_degree) for c in combinations(range(n), degree_p)}
    return HorizontalForm(
        degree_p, lambda xs, ys: form_build(n, degree_p, lambda idx: fns[idx](xs))
    )


def loop_trig_vector(rng, s, trig_degree=2):
    fns = [loop_trig_scalar(rng, s.dim, trig_degree) for _ in range(s.dim)]
    return TensorField.from_vector(lambda xs: [f(xs) for f in fns])


# -- helpers ---------------------------------------------------------------------------


def leaves(tree):
    """Every number of a pytree of floats, arrays and jets, in a fixed order."""
    if isinstance(tree, (list, tuple)):
        return [v for c in tree for v in leaves(c)]
    if isinstance(tree, Jet):
        return [v for c in tree.coeffs for v in leaves(c)]
    return [np.asarray(tree, float)]


def python_leaves(tree):
    if isinstance(tree, (list, tuple)):
        return [v for c in tree for v in python_leaves(c)]
    return [tree]


def assert_close(got, want, rel):
    got, want = leaves(got), leaves(want)
    assert len(got) == len(want)
    scale = max(float(np.max(np.abs(w))) for w in want)
    assert scale > 0.0
    for a, b in zip(got, want):
        # a row spans every node; a loop term spans the axes its frequency
        # reads, so shapes may differ, but only by broadcasting
        assert np.max(np.abs(a - b)) <= rel * scale


def generated(s, seed, degree=2):
    """(new, reference) pairs of component functions ``f(xs, ys)``: the
    vector field and the form of every degree, each pair from equal seeds."""
    makers = [(bi.random_trig_vector, loop_trig_vector, ())]
    makers += [(bi.random_trig_form, loop_trig_form, (p,)) for p in range(s.dim + 1)]
    out = []
    for new, ref, args in makers:
        a, b = (make(np.random.default_rng(seed), s, *args, degree) for make in (new, ref))
        out.append(tuple(o.coeffs if isinstance(o, HorizontalForm) else o.components for o in (a, b)))
    return out


METRICS = ["randers-torus", "randers-torus-3d"]
POINTS = {2: ([0.7, -2.3], [1.0, 0.2]), 3: ([0.7, -2.3, 4.1], [1.0, 0.2, -0.4])}


def seeded_as_partial(xs, axes):
    """``xs`` with one jet level of tangent 1.0 per entry of ``axes``, the
    seeding of :func:`jets.partial`, which takes float points only."""
    xs = list(xs)
    for axis in axes:
        xs[axis] = Jet([xs[axis], 1.0], _new_tag())
    return xs


def third_x_partials(fn, point):
    """All third x-partials of ``fn`` by nested :func:`grad_wrt`."""
    second = lambda a, b: grad_wrt(lambda c, d: grad_wrt(fn, (c, d), 0), (a, b), 0)
    return grad_wrt(second, point, 0)


class TestTrigSum:
    """The closed-form evaluator agrees with the per-frequency loop within
    roundoff at floats, on arrays and under nested jets."""

    REL_TOL = 1e-14  # times the largest |value| of the reference

    @staticmethod
    def grid_coords(s):
        grid = QuadratureGrid.for_structure(s, (8,) * s.dim, (8,) * (s.dim - 1))
        return grid.coords_for(s)

    @pytest.mark.parametrize("name", METRICS)
    def test_floats(self, name):
        s = bi.get_metric(name)
        xs, ys = POINTS[s.dim]
        for new, ref in generated(s, 3):
            got = new(xs, ys)
            assert all(type(v) is float for v in python_leaves(got))
            assert_close(got, ref(xs, ys), self.REL_TOL)

    @pytest.mark.parametrize("name", METRICS)
    def test_grid_arrays(self, name):
        s = bi.get_metric(name)
        xs, ys = self.grid_coords(s)
        for new, ref in generated(s, 4):
            assert_close(new(xs, ys), ref(xs, ys), self.REL_TOL)

    @pytest.mark.parametrize("name", METRICS)
    def test_nested_jets_at_a_point(self, name):
        """Vector-mode seeding: the Hessian and every third x-partial."""
        s = bi.get_metric(name)
        point = POINTS[s.dim]
        for new, ref in generated(s, 5):
            assert_close(hessian_wrt(new, point, 0), hessian_wrt(ref, point, 0), self.REL_TOL)
            assert_close(third_x_partials(new, point), third_x_partials(ref, point), self.REL_TOL)

    @pytest.mark.parametrize("name", METRICS)
    def test_nested_jets_on_arrays(self, name):
        """On grid arrays: the second x-partials by nested :func:`grad_wrt`
        (one coordinate per pass), and a third mixed x-partial with one jet
        level per order, seeded as :func:`jets.partial` seeds."""
        s = bi.get_metric(name)
        xs, ys = self.grid_coords(s)
        for new, ref in generated(s, 6):
            second = lambda f: grad_wrt(lambda a, b: grad_wrt(f, (a, b), 0), (xs, ys), 0)
            assert_close(second(new), second(ref), self.REL_TOL)
            seeded = seeded_as_partial(xs, (0, 1, 0))
            assert_close(new(seeded, ys), ref(seeded, ys), self.REL_TOL)

    @pytest.mark.parametrize("name", METRICS)
    def test_partial_at_a_point(self, name):
        s = bi.get_metric(name)
        n = s.dim
        f = bi.random_trig_scalar(np.random.default_rng(7), n)
        want = loop_trig_scalar(np.random.default_rng(7), n)
        for x_orders in ((1, 0, 0), (2, 1, 0), (1, 1, 1), (0, 3, 1)):
            x_orders = x_orders[:n]
            req = lambda g: JetRequest(lambda a, b: g(a), POINTS[n], (x_orders, (0,) * n))
            assert abs(partial(req(f)) - partial(req(want))) <= self.REL_TOL * 10.0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_consumes_the_rng_stream_as_before(self, dim):
        """The draw after each generator is the reference's next draw."""
        s = bi.get_metric("randers-torus" if dim == 2 else "randers-torus-3d")
        makers = [
            (lambda rng: bi.random_trig_scalar(rng, dim), lambda rng: loop_trig_scalar(rng, dim)),
            (lambda rng: bi.random_trig_scalar(rng, dim, 3), lambda rng: loop_trig_scalar(rng, dim, 3)),
            (lambda rng: bi.random_trig_vector(rng, s), lambda rng: loop_trig_vector(rng, s)),
            *(
                (lambda rng, p=p: bi.random_trig_form(rng, s, p),
                 lambda rng, p=p: loop_trig_form(rng, s, p))
                for p in range(dim + 1)
            ),
        ]
        for make, ref in makers:
            rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
            make(rng)
            ref(ref_rng)
            assert rng.normal() == ref_rng.normal()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_rows_at_a_point_do_not_depend_on_the_row_count(self, dim):
        """At a point each row is evaluated alone, bit for bit, however many
        rows a call carries (a BLAS product rounds by the row count)."""
        K = bi._frequencies(dim, 2)
        rng = np.random.default_rng(10)
        A, B = rng.normal(size=(48, len(K))), rng.normal(size=(48, len(K)))
        xs = list(POINTS[dim][0])
        for rows in (1, 2, 3, 5, 27, 48):
            got = trig_sum(K, A[:rows], B[:rows], xs)
            alone = [trig_sum(K, A[r : r + 1], B[r : r + 1], xs)[0] for r in range(rows)]
            assert [v.hex() for v in got] == [v.hex() for v in alone]

    def test_rows_are_independent_sums(self):
        """Rows evaluated together equal each row evaluated alone."""
        K = bi._frequencies(2, 2)
        rng = np.random.default_rng(9)
        A, B = rng.normal(size=(3, len(K))), rng.normal(size=(3, len(K)))
        xs = [0.4, np.linspace(0.0, 1.0, 5)]
        rows = trig_sum(K, A, B, xs)
        for r in range(3):
            alone = trig_sum(K, A[r : r + 1], B[r : r + 1], xs)[0]
            assert np.max(np.abs(rows[r] - alone)) <= 1e-14


# -- the catalogue at its edges -----------------------------------------------------

# the forms and fields that need two chart axes
NEED_TWO_AXES = {"area", "dx2", "sin-x1-area", "sin-x1-dx2", "d-phi", "d2", "sin-x1-d2"}
LOOKUPS = [(bi.get_form, fid) for fid in bi.FORM_IDS] + [(bi.get_field, vid) for vid in bi.FIELD_IDS]


class TestCatalogue:
    @pytest.mark.parametrize("get, name", LOOKUPS, ids=[name for _, name in LOOKUPS])
    def test_least_dimension_on_one_axis(self, get, name):
        s = metric_from_config({"family": "euclidean", "dim": 1})
        if name in NEED_TWO_AXES:
            with pytest.raises(ConfigError, match=f"^{re.escape(name)} needs dim >= 2, got 1$"):
                get(name, s)
        else:
            assert get(name, s).label == name

    @pytest.mark.parametrize("get", [bi.get_form, bi.get_field])
    @pytest.mark.parametrize("name", [["dx1"], {"a": 1}, None, "no-such-id"], ids=repr)
    def test_unknown_or_non_string_id_is_a_config_error(self, get, name):
        s = bi.get_metric("euclidean")
        with pytest.raises(ConfigError, match="unknown .* id"):
            get(name, s)

    @pytest.mark.parametrize("expression", [["quartic"], {"quartic": 1}, None, 4, "cubic"], ids=repr)
    def test_custom_metric_needs_a_named_expression(self, expression):
        with pytest.raises(ConfigError, match="limited to named built-in expressions"):
            metric_from_config({"family": "custom", "expression": expression})

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("name", bi.FORM_IDS)
    def test_every_form_evaluates(self, name, dim):
        """Each entry's builder runs: a degree-p form has n^p antisymmetric
        coefficients, finite at a point."""
        s = metric_from_config({"family": "euclidean", "dim": dim})
        phi = bi.get_form(name, s)
        p = phi.degree
        arr = np.asarray(pack(phi.coeffs([0.4, 1.1, 2.3][:dim], [1.0] + [0.0] * (dim - 1)), p))
        assert arr.shape == (dim,) * p and np.all(np.isfinite(arr)) and np.any(arr)
        for k in range(p - 1):  # a transposition of neighbouring slots flips the sign
            assert np.array_equal(np.swapaxes(arr, k, k + 1), -arr)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("name", bi.FIELD_IDS)
    def test_every_field_evaluates(self, name, dim):
        s = metric_from_config({"family": "euclidean", "dim": dim})
        X = bi.get_field(name, s)
        arr = np.asarray(pack(X.components([0.4, 1.1, 2.3][:dim], [1.0] + [0.0] * (dim - 1)), 1))
        assert arr.shape == (dim,) and np.all(np.isfinite(arr)) and np.any(arr)

    def test_inline_custom_metric_is_the_built_in_one(self):
        """An inline custom metric of a named expression is the built-in
        metric of that expression: the same g, bit for bit."""
        at = {"x": [0.3, 0.4], "y": [1.0, 0.5]}
        tasks = [{"kind": "tensor", "params": {"which": "g", "at": at}}]
        got = run_scenario({"metric": {"family": "custom", "expression": "quartic"}, "tasks": tasks})
        want = run_scenario({"metric": "quartic-torus", "tasks": tasks})
        g = [r["tasks"][0]["result"]["components"] for r in (got, want)]
        assert got["pass"] is True
        assert [[v.hex() for v in row] for row in g[0]] == [[v.hex() for v in row] for row in g[1]]

    def test_every_metric_is_labelled_by_its_id(self):
        assert [bi.get_metric(name).label for name in bi.METRIC_IDS] == list(bi.METRIC_IDS)
