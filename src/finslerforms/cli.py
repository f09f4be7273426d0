"""Command-line front end.

Subcommands mirror the engine surface: ``run`` executes a scenario file;
``tensor``/``curvature`` print pointwise components, ``laplacian`` and
``integrate`` work over a grid and ``check`` runs the verification suites,
each as one scenario task through :func:`scenario.run_task` (an option not
given leaves the task's default); ``diagnostics`` compares the jet engine
against finite differences.  All reports are JSON (or CSV rows with 17
significant digits) and embed the inputs that produced them.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import builtins as bi
from . import forms as forms_mod
from . import jets
from . import scenario as scenario_mod
from .connection import pack
from .errors import ConfigError, DomainError, FinslerError


def _parse_at(text):
    """The ``--at`` text as a task's 'at' point of floats."""
    try:
        xpart, ypart = text.split(";")
        return {"x": [float(v) for v in xpart.split(",")],
                "y": [float(v) for v in ypart.split(",")]}
    except ValueError as exc:
        raise ConfigError("--at expects 'x1,...,xn;y1,...,yn'") from exc


def _parse_tolerances(args):
    """Check ``--tol`` and ``--tol-grid`` as scenario tolerances are checked."""
    for attr in ("tol", "tol_grid"):
        value = getattr(args, attr, None)
        if value is None:
            continue
        flag = "--" + attr.replace("_", "-")
        try:
            value = float(value)
        except ValueError:
            raise ConfigError(f"{flag} must be a number, got {value!r}") from None
        setattr(args, attr, scenario_mod._parse_tolerance(value, flag))


def _parse_grid(s, args):
    """The grid of ``--grid`` and ``--tol-grid``, built as a scenario's 'grid'."""
    cfg = _given(tolerance=args.tol_grid)
    if args.grid is not None:
        try:
            base_txt, fiber_txt = args.grid.split("x")
            cfg["base"] = [int(v) for v in base_txt.split(",")]
            cfg["fiber"] = [int(v) for v in fiber_txt.split(",")]
        except ValueError as exc:
            raise ConfigError("--grid expects 'b1,b2[,b3]xf1[,f2]'") from exc
    return scenario_mod.grid_from_config(s, cfg)


def _given(**options):
    """The options given on the command line; a task defaults the others."""
    return {k: v for k, v in options.items() if v is not None}


def _emit(doc, out, fmt):
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, default=float, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DomainError(f"report holds a non-finite value: {exc}") from None
    if fmt == "csv":
        text = _to_csv(doc)
    _write(text, out)


def _write(text, out):
    """The one place a report is written: to the file ``out``, or stdout."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_csv(doc, prefix=""):
    """Flatten a report into key,value rows with full-precision floats."""
    rows = ["key,value"]

    def walk(node, path):
        if isinstance(node, dict):
            for k in sorted(node):
                walk(node[k], f"{path}.{k}" if path else str(k))
        elif isinstance(node, (list, tuple)):
            for i, v in enumerate(node):
                walk(v, f"{path}[{i}]")
        elif isinstance(node, float):
            rows.append(f"{path},{node:.17g}")
        else:
            rows.append(f"{path},{node}")

    walk(doc, prefix)
    return "\n".join(rows) + "\n"


def cmd_run(args):
    try:
        with open(args.scenario) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"scenario file is not JSON: {exc}") from None
    report = scenario_mod.run_scenario(doc)
    _emit(report, args.out, args.format)
    return 0 if report["pass"] else 1


def cmd_point(args):
    """``tensor`` and ``curvature``: one pointwise task."""
    s = scenario_mod.metric_from_config(_metric_arg(args))
    params = _given(which=args.which, at=_parse_at(args.at))
    result, _ = scenario_mod.run_task(s, None, args.command, params, None, None)
    _emit({"metric": s.label, **result}, args.out, args.format)
    return 0


def cmd_laplacian(args):
    if args.points and args.format != "csv":
        raise ConfigError("--points emits per-node CSV rows; it needs --format csv")
    s = scenario_mod.metric_from_config(_metric_arg(args))
    grid = _parse_grid(s, args)
    params = _given(form=args.form, tol=args.tol)
    if args.points:
        _write(_laplacian_pointwise_csv(s, scenario_mod.task_form(s, params), grid), args.out)
        return 0
    result, _ = scenario_mod.run_task(s, grid, "laplacian", params, None, None)
    _emit({"metric": s.label, "grid": grid.meta(), **result}, args.out, args.format)
    return 0


def _laplacian_pointwise_csv(s, phi, grid):
    """Per-node rows: base coords, fiber angles, Laplacian components."""
    arr = pack(forms_mod.laplacian_expansion_coeffs(grid.tower(s), phi), phi.degree)
    if not np.all(np.isfinite(arr)):
        raise DomainError("Laplacian is not finite at some node")
    arr = np.broadcast_to(arr, arr.shape[: phi.degree] + grid.shape)
    axes = grid.axis_arrays()
    header = (
        [f"x{i+1}" for i in range(grid.n_base)]
        + [f"theta{i+1}" for i in range(len(grid.fiber_axes))]
        + [f"lap[{','.join(map(str, idx))}]" for idx in np.ndindex(*arr.shape[: phi.degree])]
    )
    rows = [",".join(header)]
    flat_axes = [np.broadcast_to(a, grid.shape).ravel() for a in axes]
    flat_comps = arr.reshape(arr.shape[: phi.degree] + (-1,))
    for k in range(flat_axes[0].size):
        cells = [f"{a[k]:.17g}" for a in flat_axes]
        cells += [f"{flat_comps[idx][k]:.17g}" for idx in np.ndindex(*arr.shape[: phi.degree])]
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def cmd_integrate(args):
    s = scenario_mod.metric_from_config(_metric_arg(args))
    grid = _parse_grid(s, args)
    result, _ = scenario_mod.run_task(s, grid, "integrate", _given(field=args.field), None, None)
    _emit({"metric": s.label, "grid": grid.meta(), **result}, args.out, args.format)
    return 0


def cmd_check(args):
    s = scenario_mod.metric_from_config(_metric_arg(args))
    grid = _parse_grid(s, args)
    seed = scenario_mod._parse_int(args.seed, "--seed", minimum=0)
    params = _given(which=args.which, **{
        "adjointness": {"p": args.p, "pairs": args.count},
        "divergence": {"forms": args.count},
        "ricci-identity": {"fields": args.count},
        "bochner": {"field": args.field, "expect_harmonic": args.expect_harmonic},
    }[args.which])
    rng = np.random.default_rng(seed)
    result, ok = scenario_mod.run_task(s, grid, "check", params, args.tol, rng)
    report = {"metric": s.label, "grid": grid.meta(), "seed": seed, "pass": bool(ok), **result}
    _emit(report, args.out, args.format)
    return 0 if ok else 1


def cmd_list_builtins(args):
    _emit(bi.list_builtins(), args.out, args.format)
    return 0


def cmd_diagnostics(args):
    s = scenario_mod.metric_from_config(_metric_arg(args))
    x, y = scenario_mod._parse_point(s, _parse_at(args.at), "--at")
    comparisons = []
    worst = 0.0
    for xo, yo in (((1, 0), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (1, 1)), ((1, 0), (0, 1))):
        xo = xo + (0,) * (s.dim - 2)
        yo = yo + (0,) * (s.dim - 2)
        req = jets.JetRequest(s.f2, (x, y), (xo, yo))
        a = jets.partial(req)
        b = jets.fd_partial(req)
        rel = abs(a - b) / (1.0 + abs(a))
        worst = max(worst, rel)
        comparisons.append(
            {"x_orders": list(xo), "y_orders": list(yo), "jet": a, "fd": b, "rel_diff": rel}
        )
    _emit(
        {
            "metric": s.label,
            "comparisons": comparisons,
            "max_rel_diff": worst,
        },
        args.out,
        args.format,
    )
    return 0


def _metric_arg(args):
    text = args.metric
    if text.strip().startswith("{"):
        try:
            return json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"--metric is not valid JSON: {exc}") from None
    return text


def build_parser():
    p = argparse.ArgumentParser(
        prog="finsler-forms",
        description="Finsler sphere-bundle tensor calculus and harmonic-form verification",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, metric=True, grid=False, at=False):
        if metric:
            sp.add_argument("--metric", default="euclidean", help="builtin id or inline JSON")
        if at:
            sp.add_argument("--at", required=True, help="point as 'x1,..;y1,..'")
        if grid:
            sp.add_argument("--grid", default=None, help="counts as 'b1,b2xf1'")
            sp.add_argument("--tol-grid", default=None)
        sp.add_argument("--out", default=None, help="write the report to a file")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("run", help="execute a scenario file")
    sp.add_argument("scenario")
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(fn=cmd_run)

    for kind, what in (("tensor", "a metric-layer tensor"), ("curvature", "a curvature block")):
        sp = sub.add_parser(kind, help=f"print {what} at a point")
        sp.add_argument("--which", choices=scenario_mod.POINT_READERS[kind])
        common(sp, at=True)
        sp.set_defaults(fn=cmd_point)

    sp = sub.add_parser("laplacian", help="grid norms and verdict for a named form")
    sp.add_argument("--form")
    sp.add_argument("--tol")
    sp.add_argument(
        "--points", action="store_true", help="emit per-node CSV components (needs --format csv)"
    )
    common(sp, grid=True)
    sp.set_defaults(fn=cmd_laplacian)

    sp = sub.add_parser("integrate", help="integrate a field over the sphere bundle")
    sp.add_argument("--field")
    common(sp, grid=True)
    sp.set_defaults(fn=cmd_integrate)

    sp = sub.add_parser("check", help="run a verification suite")
    sp.add_argument("which", choices=scenario_mod.CHECK_KINDS)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--tol")
    sp.add_argument("--field")
    sp.add_argument("--expect-harmonic", action="store_true")
    common(sp, grid=True)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("list-builtins", help="catalog of metric, form and field ids")
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(fn=cmd_list_builtins)

    sp = sub.add_parser("diagnostics", help="jet engine vs finite differences at a point")
    common(sp, at=True)
    sp.set_defaults(fn=cmd_diagnostics)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _parse_tolerances(args)
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FinslerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
