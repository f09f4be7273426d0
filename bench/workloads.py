"""Workloads of the finslerforms benchmark.

A workload is a set-up (a metric and, for grid workloads, a quadrature grid
with its nodes and volume density) plus a *pass*: a fixed, ordered list of
ops.  Every op calls the public API of ``finslerforms`` and returns

* ``outputs``: named component lists (tensor and curvature components,
  norms, integrals) that must match the reference values checked into
  ``reference.json`` at the pinned seed, and
* ``residuals``: named identity residuals, each held to the tolerance the
  acceptance suite uses for that identity.

An op's inputs come from its own generator, ``default_rng([seed, index])``,
so a pass repeats the same inputs every time it runs and the same seed gives
the same inputs in every process.  Why each workload exists, and which
layers it should move, is written down in ``README.md``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from finslerforms import builtins as bi
from finslerforms import curvature, forms, quadrature, scenario
from finslerforms.forms import HorizontalForm
from finslerforms.jets import gcos, gsin
from finslerforms.metric import FinslerStructure

PINNED_SEED = 0
REFERENCE_REL_TOL = 1e-9  # |a - b| <= REFERENCE_REL_TOL * (1 + |b|)

# identity tolerances of the acceptance suite (tests/test_acceptance.py)
RICCI_TOL = 1e-5  # criterion 3
COMPOSITION_TOL = 1e-5  # criterion 7
ENERGY_TOL = 1e-5  # criterion 9
# the flag cross-check (1e-6) is enforced inside flag_curvature_tensor,
# which raises when it fails; grid checks use the grid's own tolerance

GRID_2D = ((16, 16), (24,))  # 6,144 nodes; 16 fiber nodes miss the Bochner tolerance
GRID_3D = ((8, 8, 8), (16, 8))  # 65,536 nodes

# How strongly each workload's op times follow the yardstick kernel's when
# the machine is contended: an op is reported as
# latency * (NOMINAL_S / kernel time) ** exponent.  Pointwise ops are
# interpreted Python on floats, like the kernel, and slow down as it does;
# ops on grid arrays slow down less.  Measured over 8 runs of each workload
# under load (README.md, "Timing against a yardstick").
YARDSTICK_EXPONENT = {"point-2d": 1.0, "grid-2d": 0.5, "mixed-3d": 0.5}


# -- set-up -----------------------------------------------------------------------


def _a(xs):
    return [
        [1.2 + 0.2 * gcos(xs[0]), 0.1 * gsin(xs[1])],
        [0.1 * gsin(xs[1]), 1.0 + 0.1 * gsin(xs[0] + xs[1])],
    ]


def _b(xs):
    return [0.3 * gcos(xs[1]), 0.2 * gsin(xs[0])]


def base_dependent_randers():
    """Genuinely Finsler 2D Randers metric whose a and b depend on x."""
    return FinslerStructure.randers(_a, _b, dim=2, label="randers-base-dependent")


@dataclass
class Context:
    s: FinslerStructure
    grid: quadrature.QuadratureGrid | None
    construct_s: float
    yardstick_exponent: float


def setup(name, on_metric=None):
    """Build the workload's metric and grid, timing the metric's construction.

    ``on_metric``, when given, is called with the metric as soon as it exists.
    """
    t0 = time.perf_counter()
    if name == "mixed-3d":
        s = bi.get_metric("randers-torus-3d")
    else:
        s = base_dependent_randers()
    construct_s = time.perf_counter() - t0
    if on_metric is not None:
        on_metric(s)
    grid = None
    if name != "point-2d":
        base, fiber = GRID_3D if name == "mixed-3d" else GRID_2D
        grid = quadrature.QuadratureGrid.for_structure(s, base, fiber)
        grid.coords_for(s)
        grid.density(s)
    return Context(s, grid, construct_s, YARDSTICK_EXPONENT[name])


# -- op results -------------------------------------------------------------------


@dataclass
class OpResult:
    outputs: dict = field(default_factory=dict)  # name -> list of floats
    residuals: dict = field(default_factory=dict)  # name -> (value, tolerance)
    ok: bool = True  # every scenario task reported pass: true


def _flat(values):
    return [float(v) for v in np.asarray(values, float).ravel()]


def _point(s, rng):
    z = bi.random_chart_points(rng, s, 1)[0]
    return z, {"x": z.x.tolist(), "y": z.y.tolist()}


def _task(res, ctx, kind, params, rng, tolerance=None):
    result, ok = scenario.run_task(ctx.s, ctx.grid, kind, params, tolerance, rng)
    res.ok = res.ok and bool(ok)
    return result


# -- pointwise ops ------------------------------------------------------------------


def op_tensors(*which_tensor):
    """`tensor` tasks and a `curvature` Rhh task at one seeded point."""

    def op(ctx, rng):
        res = OpResult()
        _, at = _point(ctx.s, rng)
        for which in which_tensor:
            out = _task(res, ctx, "tensor", {"which": which, "at": at}, rng)
            res.outputs[which] = _flat(out["components"])
        out = _task(res, ctx, "curvature", {"which": "Rhh", "at": at}, rng)
        res.outputs["Rhh"] = _flat(out["components"])
        return res

    return op


def op_ricci(fields, points):
    """`check ricci-identity`, the traffic of `finsler-forms check`."""

    def op(ctx, rng):
        res = OpResult()
        params = {"which": "ricci-identity", "fields": fields, "points": points}
        out = _task(res, ctx, "check", params, rng, tolerance=RICCI_TOL)
        res.residuals["max_residual"] = (out["max_residual"], RICCI_TOL)
        return res

    return op


def op_flag(ctx, rng):
    z, _ = _point(ctx.s, rng)
    t = curvature.flag_curvature_tensor(ctx.s, (z.x, z.y), cross_check=True)
    return OpResult(outputs={"flag": _flat(t.data)})


def op_laplacian_pointwise(p):
    """Composed against expanded horizontal Laplacian (criterion 7)."""

    def op(ctx, rng):
        s = ctx.s
        phi = bi.random_trig_form(rng, s, p)
        z, _ = _point(s, rng)
        a = forms.horizontal_laplacian(s, phi).at(s, (z.x, z.y)).data
        b = forms.laplacian_expansion(s, phi).at(s, (z.x, z.y)).data
        return OpResult(
            outputs={"laplacian": _flat(a)},
            residuals={"composed_vs_expanded": (float(np.max(np.abs(a - b))), COMPOSITION_TOL)},
        )

    return op


def op_energy(ctx, rng):
    """Pointwise transport identities behind the Bochner argument (criterion 9)."""
    X = bi.random_trig_vector(rng, ctx.s, trig_degree=2)
    z, _ = _point(ctx.s, rng)
    r1, r2 = forms.energy_identity_residuals(ctx.s, X, (z.x, z.y))
    return OpResult(residuals={"r1": (abs(r1), ENERGY_TOL), "r2": (abs(r2), ENERGY_TOL)})


# -- grid ops -------------------------------------------------------------------------


def op_adjointness(*degrees):
    def op(ctx, rng):
        res = OpResult()
        for p in degrees:
            out = _task(res, ctx, "check", {"which": "adjointness", "p": p}, rng)
            res.residuals[f"adjointness_p{p}"] = (out["max_defect"], ctx.grid.tolerance)
        return res

    return op


def op_divergence(ctx, rng):
    res = OpResult()
    out = _task(res, ctx, "check", {"which": "divergence"}, rng)
    res.residuals["divergence"] = (out["max_defect"], ctx.grid.tolerance)
    return res


def op_integrate(field):
    def op(ctx, rng):
        res = OpResult()
        out = _task(res, ctx, "integrate", {"field": field}, rng)
        res.outputs["l2_norm"] = [float(out["l2_norm"])]
        return res

    return op


def op_bochner(ctx, rng):
    res = OpResult()
    out = _task(res, ctx, "check", {"which": "bochner", "field": "trig-random"}, rng)
    res.outputs["K_integral"] = [float(out["K_integral"])]
    res.outputs["grad_norm_integral"] = [float(out["grad_norm_integral"])]
    res.residuals["divergence_defect"] = (out["divergence_defect"], ctx.grid.tolerance)
    return res


def op_grid_laplacian(form):
    def op(ctx, rng):
        res = OpResult()
        out = _task(res, ctx, "laplacian", {"form": form}, rng)
        for key in ("laplacian_norm", "dH_norm", "deltaH_norm", "form_norm"):
            res.outputs[key] = [float(out[key])]
        return res

    return op


def op_all(*parts):
    """One op that runs ``parts`` in turn, drawing from the same generator."""

    def op(ctx, rng):
        res = OpResult()
        for part in parts:
            r = part(ctx, rng)
            res.outputs.update(r.outputs)
            res.residuals.update(r.residuals)
            res.ok = res.ok and r.ok
        return res

    return op


# adjointness p=0,1 and divergence at the CLI default of 10 forms, plus an
# `integrate` form norm: each alone takes a few ms once the grid's tower is
# cached, so they make one op
op_checks_2d = op_all(op_adjointness(0, 1), op_divergence, op_integrate("sin-x1-dx1"))


# -- passes ---------------------------------------------------------------------------
#
# Latency percentiles are taken over whole passes.  The kinds and their
# repeats are chosen so that, at the number of passes a run makes, the median
# and the tail percentile each land inside a block of ops of one kind (or of
# kinds of equal cost), not on the edge between kinds of different latency.
# Every op takes 0.05 s or more, so no percentile lands on a millisecond-scale
# op.

PASSES = {
    "point-2d": [
        ("tensor-Gamma+curvature-Rhh", op_tensors("Gamma")),
        ("flag-curvature", op_flag),
        ("energy-identities", op_energy),
        ("energy-identities", op_energy),
        ("check-ricci-identity", op_ricci(fields=2, points=2)),
        ("check-ricci-identity", op_ricci(fields=2, points=2)),
        ("check-ricci-identity", op_ricci(fields=2, points=2)),
        ("laplacian-p2", op_laplacian_pointwise(2)),
        ("laplacian-p1", op_laplacian_pointwise(1)),
        ("laplacian-p1", op_laplacian_pointwise(1)),
    ],
    # five cheap check ops (about 0.08 s), one Bochner check (about 0.8 s) and
    # three Laplacian tasks (about 1.7 s) per pass: the median lands on the
    # checks and, from four passes (36 ops) on, the tail on the Laplacians
    "grid-2d": [
        ("check-adjointness-divergence+integrate", op_checks_2d),
        ("laplacian-dx1", op_grid_laplacian("dx1")),
        ("check-adjointness-divergence+integrate", op_checks_2d),
        ("check-bochner", op_bochner),
        ("check-adjointness-divergence+integrate", op_checks_2d),
        ("laplacian-sin-x1-dx1", op_grid_laplacian("sin-x1-dx1")),
        ("check-adjointness-divergence+integrate", op_checks_2d),
        ("laplacian-area", op_grid_laplacian("area")),
        ("check-adjointness-divergence+integrate", op_checks_2d),
    ],
    # three cheap ops (0.2 to 0.4 s), five Laplacian and Bochner tasks (about
    # 0.85 s) and adjointness p=2 (about 1.1 s) per pass: from four passes
    # (36 ops) on, the median and the tail both land inside the middle block
    "mixed-3d": [
        ("tensor-Gamma+Cv+curvature-Rhh+check-ricci-identity",
         op_all(op_tensors("Gamma", "Cv"), op_ricci(fields=1, points=2))),
        ("check-divergence+adjointness-p0", op_all(op_divergence, op_adjointness(0))),
        ("check-adjointness-p1", op_adjointness(1)),
        ("laplacian-dx1", op_grid_laplacian("dx1")),
        ("laplacian-sin-x1-dx1", op_grid_laplacian("sin-x1-dx1")),
        ("laplacian-cos-x1-dx1", op_grid_laplacian("cos-x1-dx1")),
        ("laplacian-sin-x1-dx2", op_grid_laplacian("sin-x1-dx2")),
        ("check-bochner", op_bochner),
        ("check-adjointness-p2", op_adjointness(2)),
    ],
}


# -- verification -----------------------------------------------------------------------


def _close(a, b):
    return abs(a - b) <= REFERENCE_REL_TOL * (1.0 + abs(b))


def _compare(kind, got, want):
    if len(got) != len(want):
        return [f"{kind}: {len(got)} values, reference has {len(want)}"]
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if not _close(a, b)]
    if bad:
        i = bad[0]
        return [f"{kind}[{i}] = {got[i]!r} misses reference {want[i]!r}"]
    return []


def verify(result, fingerprint, reference=None):
    """Failure reasons of one op; an empty list means the op passed.

    ``reference`` is the op's entry of ``reference.json`` at the pinned seed,
    or ``None`` at any other seed, where only the identity checks apply.
    """
    reasons = []
    if not result.ok:
        reasons.append("a scenario task reported pass: false")
    for name, values in result.outputs.items():
        if not all(math.isfinite(v) for v in values):
            reasons.append(f"output {name} is not finite")
    for name, (value, tol) in result.residuals.items():
        if not math.isfinite(value) or value > tol:
            reasons.append(f"residual {name} = {value!r} exceeds {tol!r}")
    if reference is not None:
        if sorted(result.outputs) != sorted(reference["outputs"]):
            reasons.append("output names differ from the reference")
        else:
            for name, want in reference["outputs"].items():
                reasons += _compare(f"output {name}", result.outputs[name], want)
        reasons += _compare("input fingerprint", fingerprint, reference["inputs"])
    return reasons


def digest(result, fingerprint):
    """Hash of every output, residual and input bit, for bit-identity checks."""
    h = hashlib.sha256()
    for name in sorted(result.outputs):
        h.update(name.encode())
        h.update(b"".join(float(v).hex().encode() for v in result.outputs[name]))
    for name in sorted(result.residuals):
        h.update(name.encode())
        h.update(float(result.residuals[name][0]).hex().encode())
    h.update(b"".join(float(v).hex().encode() for v in fingerprint))
    return h.hexdigest()


# -- input fingerprints --------------------------------------------------------------------

_PROBES = (0.37, 2.11, 4.03)  # base coordinates where generated fields are evaluated


def _probe_points(dim):
    for k in range(2):
        xs = [_PROBES[(a + k) % len(_PROBES)] + 0.5 * k for a in range(dim)]
        ys = [1.0] + [0.0] * (dim - 1)
        yield xs, ys


class InputLog:
    """Fingerprints of the inputs that the seeded generators of
    ``finslerforms.builtins`` hand to an op.

    The generators are wrapped from outside.  A generated form or vector
    field is fingerprinted by its values at fixed probe points, a list of
    sphere-bundle points by its coordinates.  ``count_form_evals``, when
    given, is called on every input form, generated or named (``get_form``),
    after fingerprinting, and returns the form to hand on.
    """

    GENERATORS = ("random_trig_form", "random_trig_vector", "random_chart_points")

    def __init__(self, count_form_evals=None):
        self.values = []
        self._count = count_form_evals

    def begin(self):
        self.values = []
        return self.values

    def install(self):
        for name in self.GENERATORS:
            setattr(bi, name, self._wrap(getattr(bi, name)))
        if self._count is not None:
            get_form = bi.get_form
            bi.get_form = lambda name, s: self._count(get_form(name, s))

    def _wrap(self, fn):
        def generator(rng, s, *args, **kwargs):
            out = fn(rng, s, *args, **kwargs)
            self.values.extend(self._fingerprint(out, s.dim))
            if self._count is not None and isinstance(out, HorizontalForm):
                out = self._count(out)
            return out

        return generator

    @staticmethod
    def _fingerprint(obj, dim):
        if isinstance(obj, list):  # sphere points
            return [float(v) for z in obj for v in list(z.x) + list(z.y)]
        vals = []
        for xs, ys in _probe_points(dim):
            raw = obj.coeffs(xs, ys) if isinstance(obj, HorizontalForm) else obj.components(xs, ys)
            vals += _flat(raw)
        return vals

