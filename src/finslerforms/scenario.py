"""Scenario documents: validation, execution and machine-readable reports.

A scenario is a JSON object naming a metric (built-in id or inline family
spec), an optional grid, a seed and a list of tasks.  Validation happens in
full before any numerics run; reports embed the scenario hash and the
engine tolerances so that identical scenarios yield byte-identical reports
up to wall-clock fields.
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
from .connection import _point_tower, pack
from .errors import ConfigError, FinslerError, GridError, TaskError
from .metric import ChartSpec, FinslerStructure
from .quadrature import QuadratureGrid

ENGINE_TOLERANCES = {
    "first_order_identities": 1e-10,
    "second_order_identities": 1e-8,
    "fourth_order_identities": 1e-5,
    "grid_default": 1e-4,
}

TASK_KINDS = ("tensor", "curvature", "laplacian", "integrate", "check")
CHECK_KINDS = ("ricci-identity", "adjointness", "divergence", "bochner")
# the connection tensors a tensor task reads off a point tower: attribute, rank
TOWER_TENSORS = {"G": ("G", 1), "N": ("N", 2), "Gamma": ("Gamma", 3), "Cv": ("Cmix", 3)}
TENSOR_WHICH = ("g", "ginv", "C", "T", "ell", *TOWER_TENSORS)
# the curvature function that computes each block alone; looked up by name
# at call time, so wrappers installed on the module (bench/tracing.py) apply
CURVATURE_BLOCKS = {
    "Rhh": "hh_curvature",
    "P": "hv_curvature",
    "Q": "vv_curvature",
    "Rflag": "flag_curvature_tensor",
    "Ricci": "ricci_trace",
}
CURVATURE_WHICH = tuple(CURVATURE_BLOCKS)
# integer task parameters and their minimums; run_task reads each with int().
# A check over no samples, or over trig fields of degree < 1 (which have no
# trigonometric term), would pass vacuously.
INT_PARAMS = {"p": None, "pairs": 1, "forms": 1, "fields": 1, "points": 1, "degree": 1}


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
    if cfg is None:
        return bi.default_grid(s)
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
    except GridError as exc:
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


def _parse_tolerance(value, what):
    """A tolerance as a float; anything but a finite number >= 0 is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"{what} must be a finite number >= 0, got {value!r}")
    return float(value)


def _parse_point(s, params):
    at = params.get("at")
    if not isinstance(at, dict) or "x" not in at or "y" not in at:
        raise ConfigError("task needs an 'at' point {x: [...], y: [...]}")
    try:
        x = [float(v) for v in at["x"]]
        y = [float(v) for v in at["y"]]
    except (TypeError, ValueError) as exc:
        raise ConfigError("'at' coordinates must be lists of numbers") from exc
    if len(x) != s.dim or len(y) != s.dim:
        raise ConfigError("'at' point has wrong dimension")
    if not all(math.isfinite(v) for v in x + y):
        raise ConfigError("'at' point has a non-finite coordinate")
    if not any(y):
        raise ConfigError("'at' tangent vector y is zero")
    if not s.chart.contains(x):
        raise ConfigError(f"'at' point x={x} is outside the chart domain")
    return x, y


def validate_scenario(doc):
    """Raise ConfigError on any malformed element before running math.

    Returns the scenario's metric and grid.
    """
    if not isinstance(doc, dict):
        raise ConfigError("scenario must be a JSON object")
    _parse_int(doc.get("seed", 0), "'seed'", minimum=0)
    s = metric_from_config(doc.get("metric", "euclidean"))
    grid = grid_from_config(s, doc.get("grid"))
    tasks = doc.get("tasks", [])
    if not isinstance(tasks, list):
        raise ConfigError("'tasks' must be a list")
    for i, t in enumerate(tasks):
        validate_task(s, t, f"task {i}")
    return s, grid


def validate_task(s, t, where):
    """Raise ConfigError, prefixed by ``where``, if task ``t`` is malformed
    for metric ``s``."""
    if not isinstance(t, dict):
        raise ConfigError(f"{where}: must be an object")
    kind = t.get("kind")
    if kind not in TASK_KINDS:
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    params = t.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{where}: 'params' must be an object")
    for key, minimum in INT_PARAMS.items():
        if key in params:
            _parse_int(params[key], f"{where}: {key!r}", minimum)
    if t.get("tolerance") is not None:
        _parse_tolerance(t["tolerance"], f"{where}: 'tolerance'")
    if kind == "tensor":
        which = params.get("which", "g")
        if which not in TENSOR_WHICH:
            raise ConfigError(f"{where}: unknown tensor {which!r}")
        _parse_point(s, params)
    elif kind == "curvature":
        which = params.get("which", "Rhh")
        if which not in CURVATURE_WHICH:
            raise ConfigError(f"{where}: unknown curvature block {which!r}")
        _parse_point(s, params)
    elif kind == "laplacian":
        bi.get_form(params.get("form", "dx1"), s)
        if "tol" in params:
            _parse_tolerance(params["tol"], f"{where}: 'tol'")
    elif kind == "integrate":
        f = params.get("field", "one")
        if f != "one":
            bi.get_form(f, s)
    elif kind == "check":
        which = params.get("which")
        if which not in CHECK_KINDS:
            raise ConfigError(f"{where}: unknown check {which!r}")
        if which == "adjointness" and not 0 <= int(params.get("p", 1)) < s.dim:
            # psi has degree p + 1, which must not exceed the dimension
            raise ConfigError(
                f"{where}: adjointness degree must be between 0 and {s.dim - 1}, "
                f"got {params.get('p', 1)!r}"
            )
        if which == "bochner":
            fid = params.get("field", "d1")
            if not isinstance(fid, str) or (
                fid not in bi.FIELD_IDS and fid not in ("trig-random", "constant")
            ):
                raise ConfigError(f"{where}: unknown vector field {fid!r}")
            comps = params.get("components")
            if fid == "constant" and comps is not None and not (
                isinstance(comps, list)
                and len(comps) == s.dim
                and all(type(v) in (int, float) and math.isfinite(v) for v in comps)
            ):
                raise ConfigError(f"{where}: 'components' must be a list of {s.dim} finite numbers")


def scenario_hash(doc) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _field_for_check(s, params, rng):
    fid = params.get("field", "d1")
    if fid == "trig-random":
        return bi.random_trig_vector(rng, s, trig_degree=int(params.get("degree", 2)))
    if fid == "constant":
        comps = [float(v) for v in params.get("components", [1.0] * s.dim)]
        return _constant_field(s, comps)
    return bi.get_field(fid, s)


def _constant_field(s, comps):
    from .connection import TensorField

    return TensorField.from_vector(lambda xs: list(comps), label="constant")


def run_task(s, grid, kind, params, tolerance, rng):
    if kind == "tensor":
        which = params.get("which", "g")
        x, y = _parse_point(s, params)
        z = (x, y)
        if which in TOWER_TENSORS:
            attr, rank = TOWER_TENSORS[which]
            data = pack(getattr(_point_tower(s, z)[0], attr), rank)
        else:
            data = {
                "g": lambda: s.fundamental_tensor(z).data,
                "ginv": lambda: s.inverse_metric(z).data,
                "C": lambda: s.cartan_tensor(z).data,
                "T": lambda: s.cartan_trace(z).data,
                "ell": lambda: s.hilbert_form(z).data,
            }[which]()
        return {"which": which, "components": np.asarray(data).tolist()}, True

    if kind == "curvature":
        which = params.get("which", "Rhh")
        x, y = _parse_point(s, params)
        data = getattr(curvature_mod, CURVATURE_BLOCKS[which])(s, (x, y)).data
        return {"which": which, "components": np.asarray(data).tolist()}, True

    if kind == "laplacian":
        phi = bi.get_form(params.get("form", "dx1"), s)
        report = forms_mod.is_h_harmonic(s, phi, grid, tol=float(params.get("tol", 1e-8)))
        return {"form": phi.label, **report}, bool(report["equivalence_consistent"])

    if kind == "integrate":
        fid = params.get("field", "one")
        if fid == "one":
            value = quad.integrate_scalar(s, lambda xs, ys: 1.0, grid)
            return {"field": "one", "integral": value}, True
        phi = bi.get_form(fid, s)
        value = quad.form_grid_norm(s, phi, grid)
        return {"field": fid, "l2_norm": value}, True

    if kind == "check":
        which = params["which"]
        tol = float(tolerance if tolerance is not None else _default_check_tol(which, grid))
        if which == "ricci-identity":
            count = int(params.get("fields", 10))
            pts = int(params.get("points", 3))
            worst = 0.0
            for _ in range(count):
                X = bi.random_trig_vector(rng, s, trig_degree=int(params.get("degree", 2)))
                for z in bi.random_chart_points(rng, s, pts):
                    res = curvature_mod.ricci_identity_residual(s, X, z)
                    worst = max(worst, float(np.max(np.abs(res.data))))
            return {"which": which, "max_residual": worst, "tolerance": tol}, worst <= tol
        if which == "adjointness":
            p = int(params.get("p", 1))
            pairs = int(params.get("pairs", 10))
            worst = 0.0
            for _ in range(pairs):
                phi = bi.random_trig_form(rng, s, p)
                psi = bi.random_trig_form(rng, s, p + 1)
                worst = max(worst, quad.adjointness_defect(s, phi, psi, grid))
            return {"which": which, "p": p, "max_defect": worst, "tolerance": tol}, worst <= tol
        if which == "divergence":
            count = int(params.get("forms", 10))
            worst = 0.0
            for _ in range(count):
                pi = bi.random_trig_form(rng, s, 1)
                worst = max(worst, quad.divergence_integral_check(s, pi, grid))
            return {"which": which, "max_defect": worst, "tolerance": tol}, worst <= tol
        if which == "bochner":
            X = _field_for_check(s, params, rng)
            res = quad.bochner_integral(s, X, grid)
            ok = res["divergence_defect"] <= tol
            if params.get("expect_harmonic", False):
                ok = ok and abs(res["sum"]) <= tol
            return {"which": which, "field": X.label, **res, "tolerance": tol}, ok

    raise ConfigError(f"unknown task kind {kind!r}")


def _default_check_tol(which, grid):
    if which == "ricci-identity":
        return ENGINE_TOLERANCES["fourth_order_identities"]
    return grid.tolerance


def run_scenario(doc) -> dict:
    """Validate and execute a scenario and assemble the report."""
    s, grid = validate_scenario(doc)
    seed = int(doc.get("seed", 0))
    t_start = time.time()
    tasks_out = []
    all_pass = True
    for i, t in enumerate(doc.get("tasks", [])):
        rng = np.random.default_rng(seed + i)
        t0 = time.time()
        try:
            result, ok = run_task(s, grid, t["kind"], t.get("params", {}), t.get("tolerance"), rng)
        except FinslerError as exc:
            raise TaskError(i, str(exc)) from exc
        tasks_out.append(
            {
                "index": i,
                "kind": t["kind"],
                "params": t.get("params", {}),
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
