"""Command-line front end.

Subcommands mirror the engine surface: ``run`` executes a scenario file,
``tensor``/``curvature`` print pointwise components, ``laplacian`` and
``integrate`` work over a grid, ``check`` runs the verification suites and
``diagnostics`` compares the jet engine against finite differences.  All
reports are JSON (or CSV rows with 17 significant digits) and embed the
inputs that produced them.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import builtins as bi
from . import forms as forms_mod
from . import jets
from . import quadrature as quad
from . import scenario as scenario_mod
from .connection import pack
from .errors import ConfigError, DomainError, FinslerError, GridError


def _parse_at(s, text):
    try:
        xpart, ypart = text.split(";")
        x = [float(v) for v in xpart.split(",")]
        y = [float(v) for v in ypart.split(",")]
    except ValueError as exc:
        raise ConfigError("--at expects 'x1,...,xn;y1,...,yn'") from exc
    return scenario_mod._parse_point(s, {"at": {"x": x, "y": y}})


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


def _parse_grid(s, text, tolerance):
    if text is None:
        return bi.default_grid(s, tolerance=tolerance)
    try:
        base_txt, fiber_txt = text.split("x")
        base = tuple(int(v) for v in base_txt.split(","))
        fiber = tuple(int(v) for v in fiber_txt.split(","))
    except ValueError as exc:
        raise ConfigError("--grid expects 'b1,b2[,b3]xf1[,f2]'") from exc
    try:
        return quad.QuadratureGrid.for_structure(s, base, fiber, tolerance=tolerance)
    except GridError as exc:
        raise ConfigError(f"--grid: {exc}") from None


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


def cmd_tensor(args):
    s = scenario_mod.metric_from_config(_metric_arg(args))
    x, y = _parse_at(s, args.at)
    params = {"which": args.which, "at": {"x": x, "y": y}}
    result, _ = scenario_mod.run_task(s, None, "tensor", params, None, None)
    _emit({"metric": s.label, **result}, args.out, args.format)
    return 0


def cmd_curvature(args):
    s = scenario_mod.metric_from_config(_metric_arg(args))
    x, y = _parse_at(s, args.at)
    params = {"which": args.which, "at": {"x": x, "y": y}}
    result, _ = scenario_mod.run_task(s, None, "curvature", params, None, None)
    _emit({"metric": s.label, **result}, args.out, args.format)
    return 0


def cmd_laplacian(args):
    if args.points and args.format != "csv":
        raise ConfigError("--points emits per-node CSV rows; it needs --format csv")
    s = scenario_mod.metric_from_config(_metric_arg(args))
    grid = _parse_grid(s, args.grid, args.tol_grid)
    phi = bi.get_form(args.form, s)
    if args.points:
        _write(_laplacian_pointwise_csv(s, phi, grid), args.out)
        return 0
    report = forms_mod.is_h_harmonic(s, phi, grid, tol=args.tol)
    doc = {"metric": s.label, "form": phi.label, "grid": grid.meta(), **report}
    _emit(doc, args.out, args.format)
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
    grid = _parse_grid(s, args.grid, args.tol_grid)
    result, _ = scenario_mod.run_task(s, grid, "integrate", {"field": args.field}, None, None)
    _emit({"metric": s.label, "grid": grid.meta(), **result}, args.out, args.format)
    return 0


def cmd_check(args):
    s = scenario_mod.metric_from_config(_metric_arg(args))
    grid = _parse_grid(s, args.grid, args.tol_grid)
    seed = scenario_mod._parse_int(args.seed, "--seed", minimum=0)
    rng = np.random.default_rng(seed)
    params = {"which": args.which}
    if args.which == "adjointness":
        params["p"] = args.p
        params["pairs"] = args.count
    elif args.which == "divergence":
        params["forms"] = args.count
    elif args.which == "ricci-identity":
        params["fields"] = args.count
    elif args.which == "bochner":
        params["field"] = args.field
        params["expect_harmonic"] = args.expect_harmonic
    scenario_mod.validate_task(s, {"kind": "check", "params": params}, "check")
    result, ok = scenario_mod.run_task(s, grid, "check", params, args.tol, rng)
    _emit(
        {"metric": s.label, "grid": grid.meta(), "seed": seed, "pass": bool(ok), **result},
        args.out,
        args.format,
    )
    return 0 if ok else 1


def cmd_list_builtins(args):
    _emit(bi.list_builtins(), args.out, args.format)
    return 0


def cmd_diagnostics(args):
    s = scenario_mod.metric_from_config(_metric_arg(args))
    x, y = _parse_at(s, args.at)
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
            sp.add_argument("--tol-grid", default=quad.DEFAULT_TOLERANCE)
        sp.add_argument("--out", default=None, help="write the report to a file")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("run", help="execute a scenario file")
    sp.add_argument("scenario")
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("tensor", help="print a metric-layer tensor at a point")
    sp.add_argument("--which", choices=scenario_mod.TENSOR_WHICH, default="g")
    common(sp, at=True)
    sp.set_defaults(fn=cmd_tensor)

    sp = sub.add_parser("curvature", help="print a curvature block at a point")
    sp.add_argument("--which", choices=scenario_mod.CURVATURE_WHICH, default="Rhh")
    common(sp, at=True)
    sp.set_defaults(fn=cmd_curvature)

    sp = sub.add_parser("laplacian", help="grid norms and verdict for a named form")
    sp.add_argument("--form", default="dx1")
    sp.add_argument("--tol", default=1e-8)
    sp.add_argument(
        "--points", action="store_true", help="emit per-node CSV components (needs --format csv)"
    )
    common(sp, grid=True)
    sp.set_defaults(fn=cmd_laplacian)

    sp = sub.add_parser("integrate", help="integrate a field over the sphere bundle")
    sp.add_argument("--field", default="one")
    common(sp, grid=True)
    sp.set_defaults(fn=cmd_integrate)

    sp = sub.add_parser("check", help="run a verification suite")
    sp.add_argument("which", choices=scenario_mod.CHECK_KINDS)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=10)
    sp.add_argument("--p", type=int, default=1)
    sp.add_argument("--tol", default=None)
    sp.add_argument("--field", default="d1")
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
