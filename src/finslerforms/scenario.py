"""Scenario documents: parsing, execution and machine-readable reports.

A scenario is a JSON object naming a metric (built-in id or inline family
spec), an optional grid, a seed and a list of tasks.  Each task is parsed
once: the parser of its kind reads, defaults and checks every parameter and
returns the closure ``run(grid, rng)`` that runs the task on those values.
Parsers draw nothing and compute nothing, so :func:`run_scenario` parses
every task before any math runs, and :func:`run_task` is parse-then-run.
Reports embed the scenario hash and the engine tolerances so that identical
scenarios yield byte-identical reports up to wall-clock fields.
"""

from __future__ import annotations

import hashlib
import json
import math
import time

import numpy as np

from . import builtins as bi
from . import curvature as curvature_mod
from . import forms as forms_mod
from . import quadrature as quad
from .connection import TensorField, _point_tower, pack
from .errors import ConfigError, DimensionUnsupported, FinslerError, GridError, TaskError
from .metric import ChartSpec, FinslerStructure
from .quadrature import QuadratureGrid

ENGINE_TOLERANCES = {
    "first_order_identities": 1e-10,
    "second_order_identities": 1e-8,
    "fourth_order_identities": 1e-5,
    "grid_default": 1e-4,
}

# What a tensor or curvature task reads at a point z = (x, y), by its
# 'which'; the first is the default.  Each reader looks its function up at
# call time, so wrappers installed on a module (bench/tracing.py) apply.
POINT_READERS = {
    "tensor": {
        "g": lambda s, z: s.fundamental_tensor(z).data,
        "ginv": lambda s, z: s.inverse_metric(z).data,
        "C": lambda s, z: s.cartan_tensor(z).data,
        "T": lambda s, z: s.cartan_trace(z).data,
        "ell": lambda s, z: s.hilbert_form(z).data,
        "G": lambda s, z: pack(_point_tower(s, z)[0].G, 1),
        "N": lambda s, z: pack(_point_tower(s, z)[0].N, 2),
        "Gamma": lambda s, z: pack(_point_tower(s, z)[0].Gamma, 3),
        "Cv": lambda s, z: pack(_point_tower(s, z)[0].Cmix, 3),
    },
    "curvature": {
        "Rhh": lambda s, z: curvature_mod.hh_curvature(s, z).data,
        "P": lambda s, z: curvature_mod.hv_curvature(s, z).data,
        "Q": lambda s, z: curvature_mod.vv_curvature(s, z).data,
        "Rflag": lambda s, z: curvature_mod.flag_curvature_tensor(s, z).data,
        "Ricci": lambda s, z: curvature_mod.ricci_trace(s, z).data,
    },
}
# The integer task parameters: default and minimum.  A check over no
# samples, or over trig fields of degree < 1 (which have no trigonometric
# term), would pass vacuously.
INT_PARAMS = {
    "p": (1, None), "pairs": (10, 1), "forms": (10, 1), "fields": (10, 1), "points": (3, 1),
    "degree": (2, 1),
}


def metric_from_config(cfg) -> FinslerStructure:
    if isinstance(cfg, str):
        return bi.get_metric(cfg)
    if not isinstance(cfg, dict):
        raise ConfigError("metric must be a builtin id or an object")
    family = cfg.get("family")
    if family is None:
        raise ConfigError("metric object needs a 'family' key")
    dim = cfg.get("dim")
    if dim is not None:
        dim = _parse_int(dim, "metric 'dim'", minimum=1)
    chart = None
    if "chart" in cfg:
        c = cfg["chart"]
        if not isinstance(c, dict) or not isinstance(c.get("bounds"), list):
            raise ConfigError("chart object needs 'bounds', a list of [lo, hi] pairs")
        chart = ChartSpec(
            bounds=c["bounds"],
            periodic=c.get("periodic", [True] * len(c["bounds"])),
            excluded_margin=c.get("excluded_margin"),
        )
    if family == "euclidean":
        return FinslerStructure.euclidean(dim or 2, chart)
    if family == "riemannian":
        if "a" not in cfg:
            raise ConfigError("riemannian metric needs coefficient matrix 'a'")
        return FinslerStructure.riemannian(cfg["a"], dim=dim, chart=chart)
    if family == "randers":
        if "a" not in cfg or "b" not in cfg:
            raise ConfigError("randers metric needs 'a' and 'b'")
        return FinslerStructure.randers(cfg["a"], cfg["b"], dim=dim, chart=chart)
    if family == "custom":
        name = cfg.get("expression")
        if name != "quartic":
            raise ConfigError("custom metrics are limited to named built-in expressions")
        return FinslerStructure.custom(bi._quartic_f2, dim=dim or 2, chart=chart)
    raise ConfigError(f"unknown metric family {family!r}")


def grid_from_config(s, cfg) -> QuadratureGrid:
    """The quadrature grid of a scenario's 'grid' object, or the default
    grid for None; the CLI builds its --grid and --tol-grid grids here too."""
    cfg = {} if cfg is None else cfg
    if not isinstance(cfg, dict):
        raise ConfigError("grid must be an object")
    base = cfg.get("base")
    fiber = cfg.get("fiber")
    for v in (base, fiber):
        if v and not (isinstance(v, list) and all(isinstance(c, int) for c in v)):
            raise ConfigError("grid 'base' and 'fiber' must be lists of integer node counts")
    tol = _parse_tolerance(cfg.get("tolerance", quad.DEFAULT_TOLERANCE), "grid 'tolerance'")
    try:
        return QuadratureGrid.for_structure(
            s,
            base_counts=tuple(base) if base else None,
            fiber_counts=tuple(fiber) if fiber else None,
            tolerance=tol,
        )
    except (GridError, DimensionUnsupported) as exc:
        raise ConfigError(f"grid: {exc}") from None


def _parse_int(value, what, minimum=None):
    """An integer, or a float with an integral value; anything else (a
    fraction, a bool, a string) is a ConfigError rather than truncated."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{what} must be at least {minimum}, got {value}")
    return value


def _is_number(value):
    """True for a JSON number: an int or a float, not a bool or a string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_tolerance(value, what):
    """A tolerance as a float; anything but a finite number >= 0 is a ConfigError."""
    if not _is_number(value):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"{what} must be a finite number >= 0, got {value!r}")
    return float(value)


def _parse_point(s, at, where):
    """The sphere-bundle point ``at`` = {x: [...], y: [...]} as float lists."""
    if not isinstance(at, dict) or "x" not in at or "y" not in at:
        raise ConfigError(f"{where}: needs an 'at' point {{x: [...], y: [...]}}")
    x, y = at["x"], at["y"]
    if not all(isinstance(c, (list, tuple)) and all(map(_is_number, c)) for c in (x, y)):
        raise ConfigError(f"{where}: 'at' coordinates must be lists of numbers, got {at!r}")
    x, y = [float(v) for v in x], [float(v) for v in y]
    if len(x) != s.dim or len(y) != s.dim:
        raise ConfigError(f"{where}: 'at' point has wrong dimension")
    if not all(math.isfinite(v) for v in x + y):
        raise ConfigError(f"{where}: 'at' point has a non-finite coordinate")
    if not any(y):
        raise ConfigError(f"{where}: 'at' tangent vector y is zero")
    if not s.chart.contains(x):
        raise ConfigError(f"{where}: 'at' point x={x} is outside the chart domain")
    return x, y


def _choice(params, key, default, choices, what, where):
    value = params.get(key, default)
    if not (isinstance(value, str) and value in choices):
        raise ConfigError(f"{where}: unknown {what} {value!r}")
    return value


def parse_task(s, kind, params, tolerance, where):
    """Read, default and check every parameter of one task on metric ``s``.

    Returns the closure ``run(grid, rng) -> (result, ok)`` that executes the
    task.  Malformed input is a ConfigError prefixed by ``where``; nothing is
    drawn or computed.
    """
    if not (isinstance(kind, str) and kind in TASK_PARSERS):
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    if not isinstance(params, dict):
        raise ConfigError(f"{where}: 'params' must be an object")
    ints = {
        key: _parse_int(params.get(key, default), f"{where}: {key!r}", minimum)
        for key, (default, minimum) in INT_PARAMS.items()
    }
    if tolerance is not None:
        tolerance = _parse_tolerance(tolerance, f"{where}: 'tolerance'")
    return TASK_PARSERS[kind](s, kind, params, ints, tolerance, where)


def _parse_point_task(s, kind, params, ints, tolerance, where):
    readers = POINT_READERS[kind]
    which = _choice(params, "which", next(iter(readers)), readers, kind, where)
    read, z = readers[which], _parse_point(s, params.get("at"), where)
    return lambda grid, rng: ({"which": which, "components": np.asarray(read(s, z)).tolist()}, True)


def task_form(s, params):
    """The form of a laplacian task: 'form', dx1 by default."""
    return bi.get_form(params.get("form", "dx1"), s)


def _parse_laplacian(s, kind, params, ints, tolerance, where):
    phi = task_form(s, params)
    # without 'tol', the verdict takes is_h_harmonic's default
    opts = {"tol": _parse_tolerance(params["tol"], f"{where}: 'tol'")} if "tol" in params else {}

    def run(grid, rng):
        report = forms_mod.is_h_harmonic(s, phi, grid, **opts)
        return {"form": phi.label, **report}, bool(report["equivalence_consistent"])

    return run


def _parse_integrate(s, kind, params, ints, tolerance, where):
    fid = params.get("field", "one")
    phi = None if fid == "one" else bi.get_form(fid, s)  # "one": the volume itself

    def run(grid, rng):
        if phi is None:
            value = quad.integrate_scalar(s, lambda xs, ys: 1.0, grid)
            return {"field": fid, "integral": value}, True
        return {"field": fid, "l2_norm": quad.form_grid_norm(s, phi, grid)}, True

    return run


def _parse_check(s, kind, params, ints, tolerance, where):
    which = _choice(params, "which", None, CHECK_KINDS, "check", where)
    check = CHECK_PARSERS[which](s, params, ints, where)
    if tolerance is None and which == "ricci-identity":
        tolerance = ENGINE_TOLERANCES["fourth_order_identities"]

    def run(grid, rng):
        tol = grid.tolerance if tolerance is None else tolerance
        result, ok = check(grid, rng, tol)
        return {"which": which, **result, "tolerance": tol}, ok

    return run


def _worst_of(key, count, defect, **extra):
    """check(grid, rng, tol): the largest of ``count`` draws of
    ``defect(grid, rng)``, reported under ``key`` and held to tol."""

    def check(grid, rng, tol):
        worst = 0.0
        for _ in range(count):
            worst = max(worst, defect(grid, rng))
        return {**extra, key: worst}, worst <= tol

    return check


def _parse_ricci(s, params, ints, where):
    def defect(grid, rng):  # one field at its own points
        X = bi.random_trig_vector(rng, s, trig_degree=ints["degree"])
        zs = bi.random_chart_points(rng, s, ints["points"])
        res = (curvature_mod.ricci_identity_residual(s, X, z).data for z in zs)
        return max(0.0, *(float(np.max(np.abs(r))) for r in res))

    return _worst_of("max_residual", ints["fields"], defect)


def _parse_adjointness(s, params, ints, where):
    p = ints["p"]
    if not 0 <= p < s.dim:  # psi has degree p + 1, which must not exceed the dimension
        raise ConfigError(f"{where}: adjointness degree must be between 0 and {s.dim - 1}, got {p}")

    def defect(grid, rng):
        phi = bi.random_trig_form(rng, s, p)
        return quad.adjointness_defect(s, phi, bi.random_trig_form(rng, s, p + 1), grid)

    return _worst_of("max_defect", ints["pairs"], defect, p=p)


def _parse_divergence(s, params, ints, where):
    def defect(grid, rng):
        return quad.divergence_integral_check(s, bi.random_trig_form(rng, s, 1), grid)

    return _worst_of("max_defect", ints["forms"], defect)


def _parse_bochner(s, params, ints, where):
    fields = (*bi.FIELD_IDS, "trig-random", "constant")
    fid = _choice(params, "field", "d1", fields, "vector field", where)
    expect = params.get("expect_harmonic", False)
    if not isinstance(expect, bool):
        raise ConfigError(f"{where}: 'expect_harmonic' must be true or false, got {expect!r}")
    degree, X = ints["degree"], None
    if fid == "constant":
        comps = params.get("components", [1.0] * s.dim)
        finite = isinstance(comps, list) and all(_is_number(v) and math.isfinite(v) for v in comps)
        if not (finite and len(comps) == s.dim):
            raise ConfigError(f"{where}: 'components' must be a list of {s.dim} finite numbers")
        X = TensorField.from_vector(lambda xs: [float(v) for v in comps], label="constant")
    elif fid != "trig-random":
        X = bi.get_field(fid, s)

    def check(grid, rng, tol):
        field = bi.random_trig_vector(rng, s, trig_degree=degree) if X is None else X
        res = quad.bochner_integral(s, field, grid)
        ok = res["divergence_defect"] <= tol
        if expect:
            ok = ok and abs(res["sum"]) <= tol
        return {"field": field.label, **res}, ok

    return check


TASK_PARSERS = {"tensor": _parse_point_task, "curvature": _parse_point_task,
                "laplacian": _parse_laplacian, "integrate": _parse_integrate, "check": _parse_check}
CHECK_PARSERS = {"ricci-identity": _parse_ricci, "adjointness": _parse_adjointness,
                 "divergence": _parse_divergence, "bochner": _parse_bochner}
CHECK_KINDS = tuple(CHECK_PARSERS)


def _parse_scenario(doc):
    """The metric, grid and seed of a scenario, and its tasks as
    (kind, params, run); any malformed element is a ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError("scenario must be a JSON object")
    seed = _parse_int(doc.get("seed", 0), "'seed'", minimum=0)
    s = metric_from_config(doc.get("metric", "euclidean"))
    grid = grid_from_config(s, doc.get("grid"))
    tasks = doc.get("tasks", [])
    if not isinstance(tasks, list):
        raise ConfigError("'tasks' must be a list")
    parsed = []
    for i, t in enumerate(tasks):
        if not isinstance(t, dict):
            raise ConfigError(f"task {i}: must be an object")
        kind, params = t.get("kind"), t.get("params", {})
        parsed.append((kind, params, parse_task(s, kind, params, t.get("tolerance"), f"task {i}")))
    return s, grid, seed, parsed


def validate_scenario(doc):
    """Raise ConfigError on any malformed element before running math;
    returns the scenario's metric and grid."""
    return _parse_scenario(doc)[:2]


def scenario_hash(doc) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_task(s, grid, kind, params, tolerance, rng):
    """Parse one task, then run it: ``(result, ok)``."""
    return parse_task(s, kind, params, tolerance, f"{kind} task")(grid, rng)


def run_scenario(doc) -> dict:
    """Parse every task of a scenario, then run them and assemble the report."""
    s, grid, seed, tasks = _parse_scenario(doc)
    t_start = time.time()
    tasks_out = []
    all_pass = True
    for i, (kind, params, run) in enumerate(tasks):
        rng = np.random.default_rng(seed + i)
        t0 = time.time()
        try:
            result, ok = run(grid, rng)
        except FinslerError as exc:
            raise TaskError(i, str(exc)) from exc
        tasks_out.append(
            {
                "index": i,
                "kind": kind,
                "params": params,
                "result": result,
                "pass": bool(ok),
                "wall_time_s": time.time() - t0,
            }
        )
        all_pass = all_pass and ok
    return {
        "scenario_hash": scenario_hash(doc),
        "metric": s.label,
        "seed": seed,
        "grid": grid.meta(),
        "engine_tolerances": ENGINE_TOLERANCES,
        "tasks": tasks_out,
        "pass": bool(all_pass),
        "wall_time_s": time.time() - t_start,
    }
