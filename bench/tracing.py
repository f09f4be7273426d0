"""Span tracing of finslerforms from outside the program.

The program itself is not edited.  Instead, every function that a layer
module defines is replaced, in every ``finslerforms`` module namespace that
binds it, by a wrapper that records a span; ``LocalTower`` cached properties
and a few methods are wrapped at class level, and ``s.f2`` gets an instance
wrapper that counts F^2 evaluations.  A layer is a module of the package.

Spans are kept in memory as parallel lists (name, start, end, parent, op id)
and written out once, when the run ends.  A span's self time is its duration
minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import Counter

import numpy as np

LAYERS = ("jets", "metric", "connection", "curvature", "forms", "quadrature", "scenario", "builtins")

# Helpers called once per scalar operation or per recursion level.  A span
# around each would multiply the run time and bury the layers' own cost.
HOT_HELPERS = {
    "jets": {"gsqrt", "gsin", "gcos", "primal", "tree_map", "_taylor_coeff", "_new_tag", "_reciprocal"},
    "connection": {"tget", "nested_build", "sum_terms", "pack"},
    "forms": {"_tree_add", "_tree_sub"},
    "builtins": {"_permutation_sign", "_frequencies"},
}

CLASS_METHODS = {
    ("metric", "FinslerStructure"): (
        "F", "sphere_point", "normalize_to_indicatrix", "_coords", "fundamental_tensor",
        "inverse_metric", "cartan_tensor", "cartan_trace", "hilbert_form",
    ),
    ("connection", "TensorField"): ("components", "partials", "partials2"),
    ("forms", "HorizontalForm"): ("at",),
    ("quadrature", "QuadratureGrid"): ("coords_for", "density", "weights_full", "axis_arrays"),
}

# per-layer self-time groups: metric name -> span names
SELF_GROUPS = {
    "metric.f2.self_s": ["metric.f2"],
    "metric.components.self_s": [
        f"metric.{f}" for f in (
            "metric_components", "inverse_components", "cartan_components",
            "cartan_trace_components", "hilbert_components",
        )
    ],
    "connection.G.self_s": ["connection.LocalTower.G", "connection.LocalTower.dxf2"],
    "connection.N.self_s": ["connection.LocalTower.N"],
    "connection.Gamma.self_s": [
        "connection.LocalTower.Gamma", "connection.LocalTower.deltag", "connection.LocalTower.dgx",
    ],
    "connection.dN.self_s": [
        "connection.LocalTower.dN_x", "connection.LocalTower.dN_y",
        "connection.LocalTower.deltaN", "connection.LocalTower.flag",
    ],
    "connection.dGamma.self_s": [
        "connection.LocalTower.dGamma_x", "connection.LocalTower.dGamma_y",
        "connection.LocalTower.deltaGamma",
    ],
    "connection.dCmix.self_s": ["connection.LocalTower.dCmix_x", "connection.LocalTower.dCmix_y"],
    "connection.d_nabla0T.self_s": [
        "connection.LocalTower.d_nabla0T_x", "connection.LocalTower.d_nabla0T_y",
        "connection.LocalTower.nabla_nabla0T",
    ],
    "connection.cov.self_s": ["connection.cov_h", "connection.cov_v", "connection.cov_hh"],
    "curvature.hh.self_s": ["curvature.hh_components"],
    "curvature.hv.self_s": ["curvature.hv_components"],
    "curvature.vv.self_s": ["curvature.vv_components"],
    "curvature.ricci_residual.self_s": ["curvature.ricci_identity_residual"],
    "forms.dH.self_s": ["forms.dH_coeffs"],
    "forms.deltaH.self_s": ["forms.deltaH_coeffs"],
    "forms.laplacian_exp.self_s": ["forms.laplacian_expansion_coeffs"],
    "forms.inner.self_s": ["forms.inner_coeffs"],
    "forms.bochner.self_s": ["forms.bochner_scalar_at", "forms.gradient_norm_squared_at"],
    "quadrature.density.self_s": ["quadrature.QuadratureGrid.density", "quadrature._raw_density"],
    "quadrature.coords.self_s": ["quadrature.QuadratureGrid.coords_for"],
    "quadrature.integrate.self_s": ["quadrature.integrate_scalar", "quadrature._eval_scalar"],
    "builtins.generate.self_s": [
        f"builtins.{f}" for f in (
            "random_trig_scalar", "random_trig_form", "random_trig_vector",
            "random_chart_points", "get_form", "get_field",
        )
    ],
}

# counts taken at span boundaries: metric name -> span name
CALL_COUNTS = {
    "jets.grad_calls": "jets.grad_wrt",
    "curvature.hv_calls": "curvature.hv_components",
    "quadrature.integrate_calls": "quadrature.integrate_scalar",
    "quadrature.tower_requests": "quadrature.QuadratureGrid.tower",
    "scenario.run_task_calls": "scenario.run_task",
}

COUNTERS = (
    "jets.passes",
    "metric.f2_calls",
    "metric.f2_calls_jet",
    "metric.f2_calls_array",
    "metric.f2_max_depth",
    "metric.f2_node_evals",
    "connection.tower_builds",
    "connection.tower_builds_jet",
    "connection.attr_computes",
    "forms.coeff_evals",
    "quadrature.tower_hits",
    "quadrature.bytes_computed",
)

# per-layer metrics that are exact counts and must repeat between runs of a seed
EXACT_COUNTS = (
    *CALL_COUNTS,
    "metric.components_calls",
    *(c for c in COUNTERS if c != "quadrature.tower_hits"),
)


def _jet_depth(v, Jet):
    depth = 0
    while isinstance(v, Jet):
        depth += 1
        v = v.coeffs[0]
    return depth, v


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.name_ids = {}
        self.span_name, self.start, self.end, self.parent, self.op = [], [], [], [], []
        self.stack = [-1]
        self.op_id = -1  # -1 while setting up
        self.counts = Counter({k: 0 for k in COUNTERS})

    # -- recording -------------------------------------------------------------

    def _open(self, name):
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx):
        self.end[idx] = self.clock()
        self.stack.pop()

    def wrap(self, name, fn, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # -- installation ----------------------------------------------------------

    def install(self, package):
        """Wrap every layer of ``package`` (the imported finslerforms)."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        self._Jet = modules["jets"].Jet
        hooks = {
            "jets.grad_wrt": self._count_passes,
            "quadrature.integrate_scalar": self._count_bytes,
        }
        wrappers = {}  # id of an original function -> its wrapper
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and attr not in HOT_HELPERS.get(layer, ())
                ):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self.wrap(name, obj, hooks.get(name))
        namespaces = [package] + [
            mod for mod in vars(package).values()
            if inspect.ismodule(mod) and mod.__name__.startswith(package.__name__ + ".")
        ]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    setattr(ns, attr, wrappers[id(obj)])
        for (layer, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for m in methods:
                setattr(cls, m, self.wrap(f"{layer}.{cls_name}.{m}", getattr(cls, m)))
        self._install_tower(modules["connection"].LocalTower)
        self._install_grid_tower(modules["quadrature"].QuadratureGrid)
        return self

    def _install_tower(self, LocalTower):
        init = LocalTower.__init__

        def counted_init(tower, s, xs, ys):
            self.counts["connection.tower_builds"] += 1
            if any(isinstance(v, self._Jet) for v in list(xs) + list(ys)):
                self.counts["connection.tower_builds_jet"] += 1
            init(tower, s, xs, ys)

        LocalTower.__init__ = counted_init
        for attr, prop in list(vars(LocalTower).items()):
            if isinstance(prop, functools.cached_property):
                traced = self.wrap(f"connection.LocalTower.{attr}", prop.func, self._count_attr)
                new = functools.cached_property(traced)
                new.__set_name__(LocalTower, attr)
                setattr(LocalTower, attr, new)

    def _install_grid_tower(self, QuadratureGrid):
        get_tower = self.wrap("quadrature.QuadratureGrid.tower", QuadratureGrid.tower)

        def tower(grid, s):
            builds = self.counts["connection.tower_builds"]
            out = get_tower(grid, s)
            if self.counts["connection.tower_builds"] == builds:
                self.counts["quadrature.tower_hits"] += 1
            return out

        QuadratureGrid.tower = tower

    def instrument_metric(self, s):
        """Instance wrapper on ``s.f2``: counts and spans every F^2 evaluation."""
        s.f2 = self.wrap("metric.f2", s.f2, self._count_f2)

    def counting_form(self, phi):
        """Count evaluations of an input form's coefficients."""
        coeffs = phi.coeffs

        def counted(xs, ys):
            self.counts["forms.coeff_evals"] += 1
            return coeffs(xs, ys)

        object.__setattr__(phi, "coeffs", counted)
        return phi

    # -- counters at span boundaries -----------------------------------------------

    def _count_passes(self, args, kwargs):
        lists, which = args[1], args[2]
        self.counts["jets.passes"] += len(lists[which])

    def _count_attr(self, args, kwargs):
        self.counts["connection.attr_computes"] += 1

    def _count_bytes(self, args, kwargs):
        grid = args[2] if len(args) > 2 else kwargs["grid"]
        # integrand, weights and density are each read once per node
        self.counts["quadrature.bytes_computed"] += 3 * 8 * grid.num_nodes

    def _count_f2(self, args, kwargs):
        c = self.counts
        c["metric.f2_calls"] += 1
        depth, shapes, jet = 0, [], False
        for v in list(args[0]) + list(args[1]):
            d, p = _jet_depth(v, self._Jet)
            jet = jet or d > 0
            depth = max(depth, d)
            shapes.append(np.shape(p))
        shape = np.broadcast_shapes(*shapes)
        if jet:
            c["metric.f2_calls_jet"] += 1
        if shape:
            c["metric.f2_calls_array"] += 1
        c["metric.f2_max_depth"] = max(c["metric.f2_max_depth"], depth)
        c["metric.f2_node_evals"] += math.prod(shape)

    # -- results -----------------------------------------------------------------------

    def self_times(self):
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_t = dur - covered
        names = np.asarray(self.span_name, dtype=np.int64)
        by_id = np.zeros(len(self.name_ids))
        np.add.at(by_id, names, self_t)
        calls = np.bincount(names, minlength=len(self.name_ids))
        id_to_name = {i: n for n, i in self.name_ids.items()}
        return (
            {id_to_name[i]: float(by_id[i]) for i in range(len(by_id))},
            {id_to_name[i]: int(calls[i]) for i in range(len(calls))},
        )

    def layer_metrics(self, construct_s):
        self_s, calls = self.self_times()
        out = {}
        for layer in LAYERS:
            mine = [n for n in self_s if n.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(calls[n] for n in mine)
            out[f"{layer}.self_s"] = sum(self_s[n] for n in mine)
        for metric, names in SELF_GROUPS.items():
            out[metric] = sum(self_s.get(n, 0.0) for n in names)
        for metric, name in CALL_COUNTS.items():
            out[metric] = calls.get(name, 0)
        out["metric.components_calls"] = sum(
            calls.get(n, 0) for n in SELF_GROUPS["metric.components.self_s"]
        )
        counts = dict(self.counts)
        hits = counts.pop("quadrature.tower_hits")
        out.update(counts)
        requests = out["quadrature.tower_requests"]
        out["quadrature.tower_hit_ratio"] = hits / requests if requests else 0.0
        out["metric.construct_s"] = construct_s
        out["trace.spans"] = len(self.start)
        return out

    def write(self, path):
        """Write the recorded spans to a compressed ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted(self.name_ids, key=self.name_ids.get)
        np.savez_compressed(
            path,
            names=np.asarray(names),
            name=np.asarray(self.span_name, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
            op=np.asarray(self.op, dtype=np.int32),
        )
