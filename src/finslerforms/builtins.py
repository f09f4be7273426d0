"""Built-in metric families, forms, vector fields and seeded generators.

Everything the CLI and the verification suites refer to by id lives here,
one table per kind: :data:`METRICS` maps an id to its constructor,
:data:`FORMS` to its degree, least dimension and coefficient builder,
:data:`FIELDS` to its least dimension and component builder, and
:data:`F2_EXPRESSIONS` names the F^2 expressions an inline ``custom`` metric
may use.  A built-in is added as one entry of its table; a form or field
gives the least dimension it needs, and :func:`get_form` and
:func:`get_field` refuse a smaller one.  The catalog is deterministic: ids
are sorted and generators take explicit seeds, so identical scenarios
reproduce identical reports.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, product

import numpy as np

from .connection import TensorField
from .errors import ConfigError
from .forms import HorizontalForm, form_build
from .jets import gcos, gsin, trig_sum
from .metric import ChartSpec, FinslerStructure
from .quadrature import DEFAULT_BASE_COUNTS, DEFAULT_FIBER_COUNTS

SPHERE_BAND_MARGIN = 0.15  # keeps the near-pole fiber ellipses resolvable


def _sphere_metric(xs):
    s = gsin(xs[0])
    return [[1.0, 0.0], [0.0, s * s]]


def _riemannian_torus_metric(xs):
    c1 = gcos(xs[0])
    s2 = gsin(xs[1])
    off = 0.1 * gsin(xs[0] + xs[1])
    return [[1.3 + 0.3 * c1, off], [off, 1.1 + 0.2 * s2]]


def _quartic_f2(xs, ys):
    # perturbed quadratic norm, 2-homogeneous and strongly convex for eps = 0.05
    q = ys[0] * ys[0]
    r = (ys[0] * ys[0]) * (ys[0] * ys[0])
    for k in range(1, len(ys)):
        q = q + ys[k] * ys[k]
        r = r + (ys[k] * ys[k]) * (ys[k] * ys[k])
    return q + 0.05 * (r / q)


F2_EXPRESSIONS = {"quartic": _quartic_f2}

METRICS = {
    "euclidean": lambda: FinslerStructure.euclidean(2),
    "euclidean-3d": lambda: FinslerStructure.euclidean(3),
    "quartic-torus": lambda: FinslerStructure.custom(_quartic_f2, dim=2),
    "randers-torus": lambda: FinslerStructure.randers(a=[[1.0, 0.0], [0.0, 1.0]], b=[0.5, 0.0]),
    "randers-torus-3d": lambda: FinslerStructure.randers(a=np.eye(3).tolist(), b=[0.3, 0.0, 0.0]),
    "riemannian-sphere": lambda: FinslerStructure.riemannian(
        _sphere_metric,
        dim=2,
        chart=ChartSpec(
            bounds=((0.0, math.pi), (0.0, 2.0 * math.pi)),
            periodic=(False, True),
            excluded_margin=(SPHERE_BAND_MARGIN, 0.0),
        ),
    ),
    "riemannian-torus": lambda: FinslerStructure.riemannian(_riemannian_torus_metric, dim=2),
}


# -- named forms and vector fields: builders (n, xs) -> coefficients ----------------


def _on_axis(axis, f):
    """f(x) on chart axis ``axis`` and 0.0 on the others: the coefficients of
    f dx^(axis+1), or the components of f d/dx^(axis+1)."""
    return lambda n, xs: [f(xs) if i == axis else 0.0 for i in range(n)]


def _area(f):
    """The coefficients of f dx^1 ^ dx^2."""

    def coeffs(n, xs):
        v = f(xs)
        out = [[0.0] * n for _ in range(n)]
        out[0][1] = v
        out[1][0] = -v
        return out

    return coeffs


FORMS = {
    "area": (2, 2, _area(lambda xs: 1.0)),
    "cos-x1-dx1": (1, 1, _on_axis(0, lambda xs: gcos(xs[0]))),
    "dx1": (1, 1, _on_axis(0, lambda xs: 1.0)),
    "dx2": (1, 2, _on_axis(1, lambda xs: 1.0)),
    "one": (0, 1, lambda n, xs: 1.0),
    "sin-x1": (0, 1, lambda n, xs: gsin(xs[0])),
    "sin-x1-area": (2, 2, _area(lambda xs: gsin(xs[0]))),
    "sin-x1-dx1": (1, 1, _on_axis(0, lambda xs: gsin(xs[0]))),
    "sin-x1-dx2": (1, 2, _on_axis(1, lambda xs: gsin(xs[0]))),
}

FIELDS = {
    "d-phi": (2, _on_axis(1, lambda xs: 1.0)),
    "d1": (1, _on_axis(0, lambda xs: 1.0)),
    "d2": (2, _on_axis(1, lambda xs: 1.0)),
    "sin-x1-d1": (1, _on_axis(0, lambda xs: gsin(xs[0]))),
    "sin-x1-d2": (2, _on_axis(1, lambda xs: gsin(xs[0]))),
}

METRIC_IDS = tuple(sorted(METRICS))
FORM_IDS = tuple(sorted(FORMS))
FIELD_IDS = tuple(sorted(FIELDS))


def _entry(table, what, name):
    """``table[name]``; an id that is not a key, a non-string from a
    document among them, is a ConfigError."""
    if not (isinstance(name, str) and name in table):
        raise ConfigError(f"unknown {what} id {name!r}")
    return table[name]


def _require_dim(name, least, s):
    if s.dim < least:
        raise ConfigError(f"{name} needs dim >= {least}, got {s.dim}")


_metric_cache = {}


def get_metric(name) -> FinslerStructure:
    """The built-in metric ``name``, built once and labelled by its id."""
    if name not in _metric_cache:
        s = _entry(METRICS, "metric", name)()
        s.label = name
        _metric_cache[name] = s
    return _metric_cache[name]


def get_form(name, s) -> HorizontalForm:
    degree, least, build = _entry(FORMS, "form", name)
    _require_dim(name, least, s)
    n = s.dim
    return HorizontalForm.of_x(degree, lambda xs: build(n, xs), label=name)


def get_field(name, s) -> TensorField:
    least, build = _entry(FIELDS, "vector field", name)
    _require_dim(name, least, s)
    n = s.dim
    return TensorField.from_vector(lambda xs: build(n, xs), label=name)


# -- seeded trigonometric generators ----------------------------------------------


@functools.cache
def _frequencies(dim, degree):
    """Frequency matrix of the trigonometric generators: the zero frequency,
    which carries the constant term, then one representative per +-k pair
    with 0 < |k|_1 <= degree, in lexicographic order."""
    out = [(0,) * dim]
    for k in product(range(-degree, degree + 1), repeat=dim):
        if not any(k) or sum(abs(v) for v in k) > degree:
            continue
        first = next(v for v in k if v != 0)
        if first < 0:
            continue  # one representative per +-k pair
        out.append(k)
    K = np.array(out, float)
    K.flags.writeable = False
    return K


def _trig_coefficients(rng, dim, degree, rows):
    """(K, A, B) of ``rows`` seeded trigonometric polynomials for
    :func:`jets.trig_sum`.  Each row draws its constant term and then (cos,
    sin) coefficients per nonzero frequency, rows one after another, all
    scaled by 1 / sqrt(number of draws per row)."""
    K = _frequencies(dim, degree)
    draws = rng.normal(size=(rows, 2 * len(K) - 1)) * (1.0 / math.sqrt(2 * len(K) - 1))
    # the constant term is the zero frequency's cosine coefficient
    A = np.concatenate([draws[:, :1], draws[:, 1::2]], axis=1)
    B = np.concatenate([np.zeros((rows, 1)), draws[:, 2::2]], axis=1)
    return K, A, B


def random_trig_scalar(rng, dim, degree=2):
    """Seeded random trigonometric polynomial on the base manifold.

    It is evaluated by :func:`jets.trig_sum`, which differentiates in closed
    form: the x_i partial of a cos(k.x) + b sin(k.x) is k_i b cos(k.x) - k_i
    a sin(k.x)."""
    K, A, B = _trig_coefficients(rng, dim, degree, 1)
    return lambda xs: trig_sum(K, A, B, xs)[0]


def random_trig_form(rng, s, degree_p, trig_degree=2) -> HorizontalForm:
    """Seeded degree-p form with trigonometric coefficient functions.

    The C(n, p) coefficients of increasing multi-indices are the rows of one
    :func:`jets.trig_sum`, drawn in lexicographic order of the multi-index,
    so they share one phase evaluation and differentiate in closed form.
    Draws of one ``trig_degree`` share the frequency matrix, so on a grid
    they share one phase table per node set."""
    n = s.dim
    idxs = list(combinations(range(n), degree_p))
    K, A, B = _trig_coefficients(rng, n, trig_degree, len(idxs))

    def coeffs(xs):
        return form_build(n, degree_p, dict(zip(idxs, trig_sum(K, A, B, xs))).__getitem__)

    return HorizontalForm.of_x(degree_p, coeffs, label="trig-random")


def random_trig_vector(rng, s, trig_degree=2) -> TensorField:
    """Seeded vector field with trigonometric component functions.

    The n components are the rows of one :func:`jets.trig_sum`, drawn in
    component order, so they share one phase evaluation and differentiate in
    closed form.  Draws of one ``trig_degree`` share the frequency matrix, so
    on a grid they share one phase table per node set."""
    K, A, B = _trig_coefficients(rng, s.dim, trig_degree, s.dim)
    return TensorField.from_vector(lambda xs: trig_sum(K, A, B, xs), label="trig-random")


def random_chart_points(rng, s, count):
    """Interior chart points paired with unit tangent directions."""
    pts = []
    for _ in range(count):
        x = []
        for a in range(s.dim):
            lo, hi = s.chart.interior(a)
            pad = 0.0 if s.chart.periodic[a] else 0.1 * (hi - lo)
            x.append(float(rng.uniform(lo + pad, hi - pad)))
        u = rng.normal(size=s.dim)
        u = u / np.linalg.norm(u)
        z = s.normalize_to_indicatrix(x, u)
        pts.append(z)
    return pts


def list_builtins() -> dict:
    """Stable catalog of ids the CLI accepts."""
    return {
        "metrics": list(METRIC_IDS),
        "forms": list(FORM_IDS),
        "vector_fields": list(FIELD_IDS),
        "default_grids": {
            f"dim{n}": {"base": list(DEFAULT_BASE_COUNTS[n]), "fiber": list(DEFAULT_FIBER_COUNTS[n])}
            for n in DEFAULT_BASE_COUNTS
        },
    }
