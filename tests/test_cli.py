import json
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from finslerforms import builtins as bi
from finslerforms import curvature, forms, quadrature
from finslerforms.cli import main
from finslerforms.connection import LocalTower, pack
from finslerforms.errors import ConfigError, TaskError
from finslerforms.scenario import (
    POINT_READERS,
    grid_from_config,
    metric_from_config,
    parse_task,
    run_scenario,
    run_task,
    scenario_hash,
    validate_scenario,
)

from conftest import base_dependent_randers, sample_points


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


SCENARIO = {
    "metric": "randers-torus",
    "seed": 7,
    "grid": {"base": [16, 16], "fiber": [32]},
    "tasks": [
        {"kind": "tensor", "params": {"which": "g", "at": {"x": [0.3, 0.4], "y": [1.0, 0.5]}}},
        {"kind": "check", "params": {"which": "adjointness", "p": 1, "pairs": 2}, "tolerance": 1e-4},
        {"kind": "check", "params": {"which": "divergence", "forms": 2}, "tolerance": 1e-5},
    ],
}


# a constant 4D Randers metric, a dimension with no default grid
RANDERS_4D = {"family": "randers", "a": np.eye(4).tolist(), "b": [0.3, 0.0, 0.0, 0.0]}
AT_4D = {"x": [0.1, 0.2, 0.3, 0.4], "y": [1.0, 0.5, 0.0, 0.0]}

# two valid tasks, the second of which fails while it runs: its constant field
# is so large that the Bochner integrand overflows at every node.  Ricci and
# Gamma do not vanish on riemannian-torus, so K and |nabla X|^2 overflow there;
# on randers-torus K is the structural zero and the same field gives a finite
# report
FAILING_AT_RUN_TIME = {
    "metric": "riemannian-torus",
    "grid": {"base": [16, 16], "fiber": [16]},
    "tasks": [
        {"kind": "tensor", "params": {"which": "g", "at": {"x": [0.3, 0.4], "y": [1.0, 0.5]}}},
        {"kind": "check", "params": {"which": "bochner", "field": "constant",
                                     "components": [1e200, 1e200]}},
    ],
}

# an integer that JSON can hold and a float cannot
HUGE = 10**400

# malformed scenario documents and the ConfigError message each one raises
MALFORMED = [
    ({"metric": "euclidean", "tasks": [{"kind": "frobnicate"}]}, "unknown kind"),
    ({"tasks": [1]}, "must be an object"),
    ({"tasks": [{"kind": "tensor", "params": []}]}, "'params' must be an object"),
    (
        {"tasks": [{"kind": "tensor", "params": {"at": {"x": [0.1, 0.2]}}}]},
        "needs an 'at' point",
    ),
    (
        {"metric": {"family": "euclidean", "dim": 2, "chart": {"periodic": [True, True]}}},
        "needs 'bounds'",
    ),
    (
        {"tasks": [{"kind": "check", "params": {"which": "adjointness", "p": "x"}}]},
        "'p' must be an integer",
    ),
    ({"grid": {"base": "ab"}}, "lists of integer node counts"),
    (
        {"tasks": [{"kind": "check", "params": {"which": "divergence"}, "tolerance": "x"}]},
        "'tolerance' must be a number",
    ),
    (
        {"tasks": [{"kind": "check", "params": {"which": "divergence"},
                    "tolerance": float("nan")}]},
        "'tolerance' must be a finite number >= 0",
    ),
    (
        {"tasks": [{"kind": "check", "params": {"which": "divergence"}, "tolerance": -1e-4}]},
        "'tolerance' must be a finite number >= 0",
    ),
    (
        {"tasks": [{"kind": "laplacian", "params": {"form": "dx1", "tol": "x"}}]},
        "'tol' must be a number",
    ),
    ({"grid": {"tolerance": "x"}}, "grid 'tolerance' must be a number"),
    ({"grid": {"base": [4, 4]}}, "at least 8 nodes per axis"),
    (
        {"metric": "randers-torus-3d", "grid": {"base": [8, 8, 8], "fiber": [16]}},
        "one fiber node count per fiber angle",
    ),
    (
        {"metric": "randers-torus",
         "tasks": [{"kind": "check", "params": {"which": "adjointness", "p": 2}}]},
        "adjointness degree must be between 0 and 1",
    ),
    (
        {"tasks": [{"kind": "check", "params": {"which": "adjointness", "p": -1}}]},
        "adjointness degree must be between 0 and 1",
    ),
    (
        {"tasks": [{"kind": "check", "params": {"which": "adjointness", "pairs": 0}}]},
        "'pairs' must be at least 1",
    ),
    (
        {"tasks": [{"kind": "check", "params": {"which": "divergence", "forms": 0}}]},
        "'forms' must be at least 1",
    ),
    (
        {"tasks": [{"kind": "check", "params": {"which": "ricci-identity", "fields": 0}}]},
        "'fields' must be at least 1",
    ),
    (
        {"tasks": [{"kind": "check", "params": {"which": "ricci-identity", "points": -2}}]},
        "'points' must be at least 1",
    ),
    ({"seed": "abc"}, "'seed' must be an integer"),
    ({"metric": {"family": "euclidean", "dim": "x"}}, "metric 'dim' must be an integer"),
    (
        {"metric": {"family": "riemannian", "a": "abc"}},
        "coefficient matrix must hold numbers",
    ),
    (
        {"metric": {"family": "randers", "a": [[1, 0], [0, 1]], "b": ["z", 0]}},
        "drift vector must hold numbers",
    ),
    (
        {"metric": {"family": "euclidean", "chart": {"bounds": [[0, 1], [0, "q"]]}}},
        "chart bounds must be",
    ),
    (
        {"metric": {"family": "euclidean", "chart": {"bounds": [0, 1]}}},
        "chart bounds must be",
    ),
    *(
        (
            {"tasks": [{"kind": "check", "params": {
                "which": "bochner", "field": "constant", "components": comps}}]},
            "'components' must be a list of 2 finite numbers",
        )
        for comps in (["a", 1], [1], 5)
    ),
    ({"seed": 1.5}, "'seed' must be an integer, got 1.5"),
    ({"seed": True}, "'seed' must be an integer, got True"),
    ({"seed": "3"}, "'seed' must be an integer"),
    ({"metric": {"family": "euclidean", "dim": 2.7}}, "metric 'dim' must be an integer"),
    (
        {"tasks": [{"kind": "check", "params": {"which": "adjointness", "pairs": 1.5}}]},
        "'pairs' must be an integer, got 1.5",
    ),
    (
        {"tasks": [{"kind": "check", "params": {"which": "adjointness", "p": 0.9}}]},
        "'p' must be an integer, got 0.9",
    ),
    (
        {"tasks": [{"kind": "check", "params": {"which": "divergence", "forms": False}}]},
        "'forms' must be an integer",
    ),
    (
        {"tasks": [{"kind": "check", "params": {"which": "ricci-identity", "degree": 2.5}}]},
        "'degree' must be an integer",
    ),
    *(
        (
            {"tasks": [{"kind": "check", "params": dict(params, degree=degree)}]},
            f"'degree' must be at least 1, got {degree}",
        )
        for params in (
            {"which": "ricci-identity"},
            {"which": "bochner", "field": "trig-random"},
        )
        for degree in (0, -3)
    ),
    (
        {"tasks": [{"kind": "check", "params": {
            "which": "ricci-identity", "fields": float("inf")}}]},
        "'fields' must be an integer",
    ),
    (
        {"tasks": [{"kind": "tensor", "params": {"at": {"x": [0.1, 0.2], "y": [0, 0]}}}]},
        "'at' point: tangent vector is zero",
    ),
    (
        {"metric": "riemannian-sphere", "tasks": [{"kind": "curvature", "params": {
            "at": {"x": [0.01, 0.2], "y": [1, 0]}}}]},
        r"'at' point: x=\[0.01, 0.2\] outside chart domain",
    ),
    *(
        (
            {"metric": "randers-torus", "tasks": [{"kind": "check", "params": {
                "which": "bochner", "field": "sin-x1-d1", "expect_harmonic": value}}]},
            f"'expect_harmonic' must be true or false, got {value!r}",
        )
        for value in ("no", 1)
    ),
    *(
        (
            {"tasks": [{"kind": "tensor", "params": {"at": at}}]},
            "'at' coordinates must be lists of numbers",
        )
        for at in (
            {"x": ["0.1", True], "y": [1.0, 0.5]},
            {"x": [0.1, 0.2], "y": [1.0, False]},
            {"x": "0.1,0.2", "y": [1.0, 0.5]},
        )
    ),
    (
        {"metric": {"family": "euclidean", "dim": 4}, "tasks": [{"kind": "integrate"}]},
        r"needs a grid, and default grids exist for n in \{2, 3\} only",
    ),
    ({"tasks": [{"kind": "check", "params": {"which": "bogus"}}]}, "unknown check 'bogus'"),
    *(
        (
            {"tasks": [{"kind": kind, "params": {
                "which": "bogus", "at": {"x": [0.1, 0.2], "y": [1, 0]}}}]},
            f"unknown {kind} 'bogus'",
        )
        for kind in ("tensor", "curvature")
    ),
    (
        {"tasks": [{"kind": "check", "params": {"which": "bochner", "field": ["d1"]}}]},
        r"unknown vector field \['d1'\]",
    ),
    # integers too large for a float, wherever a document gives a number
    (
        {"tasks": [{"kind": "check", "params": {"which": "divergence"}, "tolerance": HUGE}]},
        "'tolerance' must be a number",
    ),
    ({"grid": {"tolerance": HUGE}}, "grid 'tolerance' must be a number"),
    (
        {"tasks": [{"kind": "tensor", "params": {"at": {"x": [HUGE, 0.2], "y": [1, 0]}}}]},
        "'at' coordinates must be lists of numbers",
    ),
    (
        {"tasks": [{"kind": "check", "params": {
            "which": "bochner", "field": "constant", "components": [1, HUGE]}}]},
        "'components' must be a list of 2 finite numbers",
    ),
    ({"metric": {"family": "riemannian", "a": [[HUGE, 0], [0, 1]]}}, "matrix must hold numbers"),
    (
        {"metric": {"family": "randers", "a": [[1, 0], [0, 1]], "b": [HUGE, 0]}},
        "drift vector must hold numbers",
    ),
    (
        {"metric": {"family": "euclidean", "chart": {"bounds": [[0, HUGE], [0, 1]]}}},
        "chart bounds must be",
    ),
    # inline metrics that fail the positivity check
    ({"metric": {"family": "riemannian", "a": [[1, 0], [0, -1]]}}, "not positive"),
    ({"metric": {"family": "riemannian", "a": [[float("inf"), 0], [0, 1]]}}, "not positive"),
    ({"metric": {"family": "randers", "a": [[-1, 0], [0, 1]], "b": [0, 0]}}, "not positive"),
    # sizes beyond what a chart or a grid can hold, refused before any allocation
    ({"metric": {"family": "euclidean", "dim": HUGE}}, "metric 'dim' must be at most 8"),
    ({"metric": {"family": "euclidean", "dim": 9}}, "metric 'dim' must be at most 8"),
    (
        {"metric": {"family": "riemannian", "a": np.eye(9).tolist()}},
        "metric 'a' must have at most 8 rows",
    ),
    ({"grid": {"base": [HUGE, 16], "fiber": [16]}}, "grid must have at most 16777216 nodes"),
    ({"grid": {"base": [4096, 4096]}}, "grid must have at most 16777216 nodes"),
    # periodic flags that are not booleans, which bool() would read as a torus
    *(
        (
            {"metric": {"family": "euclidean", "chart": {
                "bounds": [[0, 1], [0, 1]], "periodic": periodic}}},
            "chart periodic flags must be true or false",
        )
        for periodic in (["false", "false"], "ab")
    ),
    ({"tasks": {"kind": "tensor"}}, "'tasks' must be a list"),
    ({"metric": {"family": "riemannian"}}, "riemannian metric needs coefficient matrix 'a'"),
    # grid counts that are present but no list of counts, or a count that is no integer
    *(
        ({"grid": grid}, "grid 'base' and 'fiber' must be non-empty lists of integer node counts")
        for grid in ({"base": 0}, {"base": []}, {"fiber": False})
    ),
    ({"grid": {"base": [True, 8]}}, "grid 'base' count must be an integer, got True"),
    ({"grid": {"fiber": [64.5]}}, "grid 'fiber' count must be an integer, got 64.5"),
]
MALFORMED_IDS = [
    "unknown-kind", "task-not-object", "params-not-object", "point-without-y",
    "chart-without-bounds", "degree-not-integer", "grid-counts-not-integers",
    "tolerance-not-number", "tolerance-nan", "tolerance-negative",
    "laplacian-tol-not-number", "grid-tolerance-not-number", "grid-too-few-nodes",
    "grid-fiber-counts-short", "adjointness-psi-above-top-degree",
    "adjointness-negative-degree", "no-pairs", "no-forms", "no-fields",
    "negative-points", "seed-not-integer", "dim-not-integer", "matrix-not-numbers",
    "drift-not-numbers", "chart-bound-not-number", "chart-bounds-not-pairs",
    "components-not-numbers", "components-too-short", "components-not-list",
    "seed-fractional", "seed-bool", "seed-string", "dim-fractional",
    "pairs-fractional", "p-fractional", "forms-bool", "degree-fractional",
    "ricci-degree-zero", "ricci-degree-negative", "bochner-degree-zero",
    "bochner-degree-negative", "fields-infinite", "point-zero-y", "point-outside-chart",
    "expect-harmonic-string", "expect-harmonic-number", "at-string-coordinate",
    "at-bool-coordinate", "at-not-list", "dim-without-default-grid", "unknown-check",
    "unknown-tensor", "unknown-curvature-block", "unknown-bochner-field",
    "tolerance-huge-integer", "grid-tolerance-huge-integer", "at-huge-integer",
    "components-huge-integer", "matrix-huge-integer", "drift-huge-integer",
    "chart-bound-huge-integer", "matrix-indefinite", "matrix-infinite", "randers-indefinite",
    "dim-huge-integer", "dim-above-bound", "matrix-above-dim-bound", "grid-count-huge-integer",
    "grid-above-node-bound", "chart-periodic-strings", "chart-periodic-string",
    "tasks-not-list", "riemannian-without-a", "grid-base-zero", "grid-base-empty",
    "grid-fiber-false", "grid-count-bool", "grid-count-fractional",
]

# the malformed documents that the command line can hand over: all but those
# with a bad seed (the CLI parses --seed itself) or a task that is no object
RUN_TASK_MALFORMED = [
    pytest.param(doc, message, id=name)
    for (doc, message), name in zip(MALFORMED, MALFORMED_IDS)
    if "seed" not in doc and all(isinstance(t, dict) for t in doc.get("tasks", []))
]

# one cheap task of every kind and check, on randers-torus
EVERY_TASK = [
    ("tensor", {"which": "Gamma", "at": {"x": [0.3, 0.4], "y": [1.0, 0.5]}}, None),
    ("curvature", {"which": "P", "at": {"x": [0.3, 0.4], "y": [1.0, 0.5]}}, None),
    ("laplacian", {"form": "sin-x1-dx1", "tol": 1e-6}, None),
    ("integrate", {"field": "dx2"}, None),
    ("check", {"which": "ricci-identity", "fields": 1, "points": 2, "degree": 1}, None),
    ("check", {"which": "adjointness", "p": 0, "pairs": 2}, 1e-3),
    ("check", {"which": "divergence", "forms": 2}, None),
    ("check", {"which": "bochner", "field": "trig-random", "degree": 1}, 1e-2),
    ("check", {"which": "bochner", "field": "constant", "components": [1, 0.5]}, None),
]


def _residual(value):
    return SimpleNamespace(data=np.array([[0.0, value]]))


# a check whose second defect is NaN, patched in where the defect is computed:
# (check params, module, function, wrapper of the value it returns)
NAN_DEFECTS = [
    ({"which": "divergence", "forms": 3}, quadrature, "divergence_integral_check", float),
    ({"which": "adjointness", "pairs": 3}, quadrature, "adjointness_defect", float),
    (
        {"which": "ricci-identity", "fields": 1, "points": 3},
        curvature, "ricci_identity_residual", _residual,
    ),
    (
        {"which": "ricci-identity", "fields": 3, "points": 1},
        curvature, "ricci_identity_residual", _residual,
    ),
]


# the rank of each block a tensor or curvature task reads
READER_RANKS = {
    "g": 2, "ginv": 2, "C": 3, "T": 1, "ell": 1, "G": 1, "N": 2, "Gamma": 3, "Cv": 3,
    "Rhh": 4, "P": 4, "Q": 4, "Rflag": 3, "Ricci": 2,
}


class TestPointReaders:
    """Every reader of a tensor or curvature task, through the scenario path,
    on a genuinely Finsler metric that depends on the base point."""

    @pytest.fixture(scope="class", params=[2, 3], ids=["2d", "3d"])
    def metric(self, request):
        return base_dependent_randers(request.param)

    def test_ranks_cover_every_reader(self):
        assert {which for readers in POINT_READERS.values() for which in readers} == set(READER_RANKS)

    @pytest.mark.parametrize(
        "kind, which", [(kind, which) for kind, readers in POINT_READERS.items() for which in readers]
    )
    def test_task_reads_the_tower(self, metric, kind, which):
        z = sample_points(metric, 1)[0]
        at = {"x": z.x.tolist(), "y": z.y.tolist()}
        result, ok = run_task(
            metric, None, kind, {"which": which, "at": at}, None, np.random.default_rng(0)
        )
        got = np.asarray(result["components"], float)
        assert ok is True and result["which"] == which
        assert got.shape == (metric.dim,) * READER_RANKS[which]
        assert np.all(np.isfinite(got))
        want = POINT_READERS[kind][which](LocalTower(metric, list(z.x), list(z.y)))
        assert got.tobytes() == np.asarray(want, float).tobytes()


class TestScenarioRunner:
    def test_happy_path(self):
        report = run_scenario(SCENARIO)
        assert report["pass"] is True
        assert report["scenario_hash"] == scenario_hash(SCENARIO)
        assert len(report["tasks"]) == 3
        assert all(t["pass"] for t in report["tasks"])

    def test_ricci_identity_scenario(self):
        doc = {
            "metric": "euclidean",
            "seed": 1,
            "grid": {"base": [16, 16], "fiber": [16]},
            "tasks": [
                {
                    "kind": "check",
                    "params": {"which": "ricci-identity", "fields": 3, "points": 2},
                    "tolerance": 1e-8,
                }
            ],
        }
        report = run_scenario(doc)
        assert report["pass"] is True
        assert report["tasks"][0]["result"]["max_residual"] < 1e-8

    @pytest.mark.parametrize(
        "kind, which, y", [("tensor", "g", 1e200), ("curvature", "P", 1e-150)], ids=["g", "P"]
    )
    def test_non_finite_result_fails(self, kind, which, y):
        """A task whose result holds a NaN reads pass: false, and so does the
        report, whatever the task kind."""
        at = {"x": [0.1, 0.2], "y": [y, y]}
        task = {"kind": kind, "params": {"which": which, "at": at}}
        report = run_scenario({"metric": "randers-torus", "tasks": [task]})
        task = report["tasks"][0]
        assert not np.all(np.isfinite(np.asarray(task["result"]["components"], float)))
        assert task["pass"] is False and report["pass"] is False

    def test_grid_counts_may_be_integral_floats(self):
        """A count of 8.0 is 8, as every other integer of a document may be."""
        _, grid = validate_scenario({"grid": {"base": [8.0, 16.0], "fiber": [24.0]}})
        assert [ax.count for ax in grid.base_axes + grid.fiber_axes] == [8, 16, 24]
        assert all(type(ax.count) is int for ax in grid.base_axes + grid.fiber_axes)

    def test_task_that_fails_at_run_time_is_a_task_error(self):
        validate_scenario(FAILING_AT_RUN_TIME)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TaskError) as exc:
            run_scenario(FAILING_AT_RUN_TIME)
        assert exc.value.index == 1
        assert str(exc.value) == "task 1: integrand is not finite at some node"

    def test_finite_tensor_passes(self):
        at = {"x": [0.1, 0.2], "y": [1.0, 0.5]}
        task = {"kind": "tensor", "params": {"which": "g", "at": at}}
        report = run_scenario({"metric": "randers-torus", "tasks": [task]})
        assert report["tasks"][0]["pass"] is True and report["pass"] is True

    def test_invalid_randers_rejected_before_math(self):
        doc = {
            "metric": {"family": "randers", "dim": 2, "a": [[1, 0], [0, 1]], "b": [1.2, 0.0]},
            "tasks": [],
        }
        with pytest.raises(ConfigError, match="a-norm of b"):
            validate_scenario(doc)

    @pytest.mark.parametrize("doc, message", MALFORMED, ids=MALFORMED_IDS)
    def test_unknown_task_kind_rejected(self, doc, message):
        with pytest.raises(ConfigError, match=message):
            validate_scenario(doc)

    @pytest.mark.parametrize("doc, message", RUN_TASK_MALFORMED)
    def test_malformed_document_rejected_by_run_task(self, doc, message):
        """The path of the command line: metric and grid from their builders,
        then each task through run_task, which parses it before anything runs."""
        with pytest.raises(ConfigError, match=message):
            s = metric_from_config(doc.get("metric", "euclidean"))
            grid = grid_from_config(s, doc.get("grid"))
            for t in doc.get("tasks", []):
                rng = np.random.default_rng(0)
                run_task(s, grid, t.get("kind"), t.get("params", {}), t.get("tolerance"), rng)

    @pytest.mark.parametrize(
        "kind, params, tolerance",
        EVERY_TASK,
        ids=["tensor", "curvature", "laplacian", "integrate", "ricci-identity", "adjointness",
             "divergence", "bochner-trig-random", "bochner-constant"],
    )
    def test_parsing_draws_nothing(self, kind, params, tolerance, monkeypatch):
        """A parser calls no seeded generator and leaves numpy's global one
        alone, so run_task draws exactly what the task's run draws."""
        s = bi.get_metric("randers-torus")
        grid = grid_from_config(s, {"base": [8, 8], "fiber": [8]})
        global_state = np.random.get_state()[1].copy()
        with monkeypatch.context() as m:
            for name in ("random_trig_form", "random_trig_vector", "random_chart_points"):
                m.setattr(bi, name, lambda *a, name=name, **kw: pytest.fail(f"parse drew {name}"))
            run = parse_task(s, kind, params, tolerance, "task")
        assert np.array_equal(np.random.get_state()[1], global_state)
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        assert run(grid, rng_a) == run_task(s, grid, kind, params, tolerance, rng_b)
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize(
        "params, module, name, wrap", NAN_DEFECTS,
        ids=["divergence", "adjointness", "ricci-identity-points", "ricci-identity-fields"],
    )
    def test_nan_defect_fails_its_check(self, params, module, name, wrap, monkeypatch):
        """A NaN defect after a finite one is the reported worst, and fails the check."""
        values = iter([1e-12, math.nan, 1e-12])
        monkeypatch.setattr(module, name, lambda *args, **kwargs: wrap(next(values)))
        s = bi.get_metric("euclidean")
        grid = grid_from_config(s, {"base": [8, 8], "fiber": [8]})
        result, ok = run_task(s, grid, "check", params, None, np.random.default_rng(0))
        key = "max_residual" if params["which"] == "ricci-identity" else "max_defect"
        assert math.isnan(result[key])
        assert ok is False

    def test_integral_floats_accepted(self):
        doc = {
            "seed": 2.0,
            "metric": {"family": "euclidean", "dim": 2.0},
            "tasks": [{"kind": "check", "params": {"which": "adjointness", "p": 1.0, "pairs": 2.0}}],
        }
        s, _ = validate_scenario(doc)
        assert s.dim == 2

    def test_determinism_excluding_wall_times(self):
        """Identical scenario and seed produce identical reports."""

        def strip(report):
            report = json.loads(json.dumps(report))
            report.pop("wall_time_s")
            for t in report["tasks"]:
                t.pop("wall_time_s")
            return json.dumps(report, sort_keys=True)

        a = strip(run_scenario(SCENARIO))
        b = strip(run_scenario(SCENARIO))
        assert a == b


class TestCommandLine:
    def test_run_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SCENARIO))
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True

    def test_run_exits_one_when_a_task_fails_at_run_time(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(FAILING_AT_RUN_TIME))
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run_cli(capsys, "run", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: task 1:")

    def test_task_that_fails_at_run_time_prints_no_runtime_warning(self, tmp_path, capsys):
        """The overflow that fails the task raises no numpy RuntimeWarning,
        which would print to stderr before the error line."""
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(FAILING_AT_RUN_TIME))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "run", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: task 1: integrand is not finite at some node\n"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("grid", ["16x", "16,16", "8,ax8"])
    def test_malformed_grid_flag_is_a_config_error(self, capsys, grid):
        code, out, err = run_cli(capsys, "integrate", "--metric", "euclidean", "--grid", grid)
        assert code == 2
        assert out == ""
        assert "configuration error: --grid expects" in err

    def test_run_bad_scenario_exits_nonzero(self, tmp_path, capsys):
        doc = {
            "metric": {"family": "randers", "dim": 2, "a": [[1, 0], [0, 1]], "b": [1.2, 0.0]},
            "tasks": [],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "run", str(path))
        assert code != 0
        assert "a-norm of b" in err

    @pytest.mark.parametrize(
        "contents, message",
        [
            (None, "cannot read scenario file"),
            ("{not json", "scenario file is not JSON"),
            (
                json.dumps({"metric": "randers-torus", "tasks": [{"kind": "check", "params": {
                    "which": "bochner", "field": "sin-x1-d1", "expect_harmonic": "no"}}]}),
                "'expect_harmonic' must be true or false, got 'no'",
            ),
            (
                json.dumps({"metric": {"family": "euclidean", "dim": 4}, "tasks": [
                    {"kind": "tensor", "params": {"at": {"x": [0.1, 0.2, 0.3, 0.4],
                                                         "y": [1, 0, 0, 0]}}},
                    {"kind": "check", "params": {"which": "divergence"}}]}),
                "task 1: needs a grid, and default grids exist for n in {2, 3} only",
            ),
            (
                json.dumps({"tasks": [{"kind": "check", "params": {"which": "divergence"},
                                       "tolerance": HUGE}]}),
                "'tolerance' must be a number",
            ),
            (
                json.dumps({"metric": {"family": "riemannian", "a": [[1, 0], [0, -1]]}}),
                "not positive",
            ),
            *(
                (json.dumps({"grid": grid}), "must be non-empty lists of integer node counts")
                for grid in ({"base": 0}, {"base": []}, {"fiber": False})
            ),
            (json.dumps({"grid": {"base": [True, 8]}}), "grid 'base' count must be an integer"),
        ],
        ids=["missing-file", "not-json", "expect-harmonic-string", "dim-without-default-grid",
             "tolerance-huge-integer", "indefinite-inline-metric", "grid-base-zero",
             "grid-base-empty", "grid-fiber-false", "grid-count-bool"],
    )
    def test_unreadable_scenario_file_is_a_config_error(self, tmp_path, capsys, contents, message):
        path = tmp_path / "scenario.json"
        if contents is not None:
            path.write_text(contents)
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert out == ""
        assert "configuration error" in err and message in err

    def test_malformed_inline_metric_is_a_config_error(self, capsys):
        code, out, err = run_cli(capsys, "tensor", "--metric", "{bad", "--at", "0.3,0.4;1.0,0.5")
        assert code == 2
        assert out == ""
        assert "configuration error" in err and "--metric is not valid JSON" in err

    def test_tensor_subcommand(self, capsys):
        code, out, _ = run_cli(
            capsys, "tensor", "--metric", "randers-torus", "--at", "0.3,0.4;1.0,0.5", "--which", "g"
        )
        assert code == 0
        doc = json.loads(out)
        g = np.array(doc["components"])
        assert g.shape == (2, 2)
        assert np.allclose(g, g.T)

    def test_curvature_subcommand(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "curvature",
            "--metric",
            "riemannian-sphere",
            "--at",
            "1.0,0.5;1.0,0.2",
            "--which",
            "Ricci",
        )
        assert code == 0
        doc = json.loads(out)
        assert np.array(doc["components"]).shape == (2, 2)

    def test_integrate_subcommand(self, capsys):
        code, out, _ = run_cli(
            capsys, "integrate", "--metric", "euclidean", "--grid", "16,16x16"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["integral"] == pytest.approx((2 * np.pi) ** 3, rel=1e-8)

    def test_integrate_3d_reports_its_metric_id(self, capsys):
        code, out, _ = run_cli(
            capsys, "integrate", "--metric", "euclidean-3d", "--grid", "8,8,8x16,16"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["metric"] == "euclidean-3d"
        assert doc["integral"] == pytest.approx(4 * np.pi * (2 * np.pi) ** 3, rel=1e-6)

    def test_check_subcommand_exit_codes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check",
            "adjointness",
            "--metric",
            "randers-torus",
            "--grid",
            "16,16x16",
            "--count",
            "2",
            "--seed",
            "3",
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--p", "3"), "adjointness degree must be between 0 and 1, got 3"),
            (("--p", "-1"), "adjointness degree must be between 0 and 1, got -1"),
            (("--count", "0"), "'pairs' must be at least 1"),
        ],
        ids=["p-above-top-degree", "p-negative", "count-zero"],
    )
    def test_vacuous_check_is_a_config_error(self, capsys, argv, message):
        code, out, err = run_cli(
            capsys, "check", "adjointness", "--metric", "randers-torus", "--grid", "8,8x8", *argv
        )
        assert code == 2
        assert out == ""
        assert "configuration error" in err and message in err

    def test_laplacian_subcommand(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "laplacian",
            "--metric",
            "randers-torus",
            "--form",
            "dx1",
            "--grid",
            "16,16x16",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "harmonic"

    def test_laplacian_exits_one_when_its_task_fails(self, capsys):
        """A verdict whose closed/co-closed cross-check disagrees fails the
        task, as it does under ``run``: the report says so and the exit is 1."""
        argv = ("--metric", "riemannian-torus", "--grid", "16,16x24", "--form", "dx1")
        code, out, _ = run_cli(capsys, "laplacian", *argv, "--tol", "1e-30", "--tol-grid", "1")
        doc = json.loads(out)
        assert code == 1
        assert doc["pass"] is False and doc["equivalence_consistent"] is False
        code, out, _ = run_cli(capsys, "laplacian", *argv)
        assert code == 0 and json.loads(out)["pass"] is True

    def test_integrate_reports_its_pass(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--metric", "euclidean", "--grid", "8,8x8")
        assert code == 0 and json.loads(out)["pass"] is True

    def test_laplacian_and_check_reports_are_assembled_as_before(self, capsys):
        """The reports equal, key for key, the ones the laplacian and check
        subcommands used to assemble from the engine calls themselves."""
        s = bi.get_metric("randers-torus")
        grid = quadrature.QuadratureGrid.for_structure(s, (8, 8), (8,))
        head = {"metric": s.label, "grid": grid.meta()}
        phi = bi.get_form("sin-x1-dx1", s)
        verdict = quadrature.is_h_harmonic(s, phi, grid, tol=1e-8)
        lap = {**head, "pass": verdict["equivalence_consistent"], "form": phi.label, **verdict}
        res = quadrature.bochner_integral(s, bi.get_field("sin-x1-d1", s), grid)
        ok = res["divergence_defect"] <= grid.tolerance and abs(res["sum"]) <= grid.tolerance
        bochner = {**head, "seed": 0, "pass": ok, "which": "bochner", "field": "sin-x1-d1", **res,
                   "tolerance": grid.tolerance}
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(2):
            a, b = bi.random_trig_form(rng, s, 1), bi.random_trig_form(rng, s, 2)
            worst = max(worst, quadrature.adjointness_defect(s, a, b, grid))
        adjointness = {**head, "seed": 3, "pass": worst <= grid.tolerance, "which": "adjointness",
                       "p": 1, "max_defect": worst, "tolerance": grid.tolerance}
        argv = ("--metric", "randers-torus", "--grid", "8,8x8")
        for want, command in (
            (lap, ("laplacian", "--form", "sin-x1-dx1")),
            (bochner, ("check", "bochner", "--field", "sin-x1-d1", "--expect-harmonic")),
            (adjointness, ("check", "adjointness", "--count", "2", "--seed", "3")),
        ):
            code, out, _ = run_cli(capsys, *command, *argv)
            assert code == (0 if want.get("pass", True) else 1)
            assert json.loads(out) == json.loads(json.dumps(want, default=float))

    def test_pointwise_tasks_need_no_grid(self, tmp_path, capsys):
        """On a dimension with no default grid and no grid given, the
        pointwise tasks run and report no grid."""
        doc = {"metric": RANDERS_4D, "tasks": [
            {"kind": "tensor", "params": {"which": "Gamma", "at": AT_4D}},
            {"kind": "curvature", "params": {"which": "Q", "at": AT_4D}},
            {"kind": "check", "params": {"which": "ricci-identity", "fields": 1, "points": 1}},
        ]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "run", str(path))
        report = json.loads(out)
        assert code == 0 and report["pass"] is True and report["grid"] is None
        assert np.max(np.abs(report["tasks"][1]["result"]["components"])) > 1e-3
        metric = json.dumps(RANDERS_4D)
        code, out, _ = run_cli(capsys, "check", "ricci-identity", "--metric", metric, "--count", "1")
        report = json.loads(out)
        assert code == 0 and report["pass"] is True and report["grid"] is None

    def test_grid_on_unsupported_dimension_is_a_config_error(self, capsys):
        metric = '{"family": "euclidean", "dim": 4}'
        code, out, err = run_cli(capsys, "integrate", "--metric", metric)
        assert code == 2
        assert out == ""
        assert "configuration error" in err and "default grids exist" in err

    def test_explicit_grid_on_four_axes(self, tmp_path, capsys):
        """Given its node counts, a 4D metric has a grid, from --grid and from
        a scenario's 'grid' alike; a 1-D metric has none (S^0 has no angle)."""
        metric = json.dumps(RANDERS_4D)
        volume = 2.0 * math.pi**2 * (2.0 * math.pi) ** 4
        code, out, _ = run_cli(capsys, "integrate", "--metric", metric, "--grid", "8,8,8,8x8,8,8")
        report = json.loads(out)
        assert code == 0 and report["grid"]["num_nodes"] == 8**7
        assert report["integral"] == pytest.approx(volume, rel=1e-6)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"metric": RANDERS_4D, "grid": {"base": [8] * 4, "fiber": [8] * 3},
                                    "tasks": [{"kind": "integrate"}]}))
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 0 and json.loads(out)["tasks"][0]["result"]["integral"] == report["integral"]
        code, out, err = run_cli(capsys, "integrate", "--metric", '{"family": "euclidean", "dim": 1}',
                                 "--grid", "8x8")
        assert code == 2
        assert out == ""
        assert "configuration error" in err and "n >= 2" in err

    def test_pointwise_laplacian_rows_need_a_grid(self, capsys):
        metric = '{"family": "euclidean", "dim": 4}'
        code, out, err = run_cli(capsys, "laplacian", "--metric", metric, "--points", "--format", "csv")
        assert code == 2
        assert out == ""
        assert "configuration error" in err and "needs a grid" in err

    def test_laplacian_pointwise_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "laplacian",
            "--metric",
            "euclidean",
            "--form",
            "sin-x1-dx1",
            "--grid",
            "8,8x8",
            "--format",
            "csv",
            "--points",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("x1,x2,theta1")
        assert len(lines) == 1 + 8 * 8 * 8

    def test_laplacian_points_computes_only_the_expansion(self, capsys, tmp_path, monkeypatch):
        """--points writes per-node rows through the output helper and runs
        no grid norms; without --format csv it is a configuration error."""
        def no_norms(*args, **kwargs):
            raise AssertionError("--points ran is_h_harmonic")

        monkeypatch.setattr(quadrature, "is_h_harmonic", no_norms)
        path = tmp_path / "lap.csv"
        argv = ("laplacian", "--metric", "euclidean", "--form", "sin-x1-dx1", "--grid", "8,8x8")
        code, out, _ = run_cli(capsys, *argv, "--format", "csv", "--points", "--out", str(path))
        assert code == 0 and out == ""
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("x1,x2,theta1") and len(lines) == 1 + 8 * 8 * 8
        code, out, err = run_cli(capsys, *argv, "--points")
        assert code == 2
        assert out == ""
        assert "configuration error" in err and "--points" in err

    def test_laplacian_points_not_finite_exits_one(self, capsys, monkeypatch):
        """A Laplacian with a NaN at one node writes no rows and exits 1."""
        expansion = forms.laplacian_expansion_coeffs

        def nan_at_one_node(tower, phi):
            arr = pack(expansion(tower, phi), phi.degree)
            arr = np.array(np.broadcast_to(arr, arr.shape[:1] + (8, 8, 8)))
            arr[0, 1, 2, 3] = math.nan
            return list(arr)

        monkeypatch.setattr(forms, "laplacian_expansion_coeffs", nan_at_one_node)
        argv = ("laplacian", "--metric", "euclidean", "--form", "sin-x1-dx1", "--grid", "8,8x8")
        code, out, err = run_cli(capsys, *argv, "--format", "csv", "--points")
        assert code == 1
        assert out == ""
        assert "Laplacian is not finite at some node" in err

    def test_csv_floats_carry_full_precision(self, capsys):
        code, out, _ = run_cli(
            capsys, "integrate", "--metric", "euclidean", "--grid", "16,16x16", "--format", "csv"
        )
        assert code == 0
        row = next(l for l in out.splitlines() if l.startswith("integral"))
        value = row.split(",")[1]
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 16

    def test_list_builtins_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "list-builtins")
        code2, out2, _ = run_cli(capsys, "list-builtins")
        assert code1 == code2 == 0
        assert out1 == out2
        catalog = json.loads(out1)
        for mid in catalog["metrics"]:
            bi.get_metric(mid)
        s = bi.get_metric("euclidean")
        for fid in catalog["forms"]:
            bi.get_form(fid, s)
        for vid in catalog["vector_fields"]:
            bi.get_field(vid, s)

    def test_diagnostics_subcommand(self, capsys):
        code, out, _ = run_cli(
            capsys, "diagnostics", "--metric", "randers-torus", "--at", "0.3,0.4;1.0,0.5"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["max_rel_diff"] < 1e-6

    def test_diagnostics_on_one_axis_is_a_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "diagnostics", "--metric", '{"family": "euclidean", "dim": 1}', "--at", "0.1;1"
        )
        assert code == 2
        assert out == ""
        assert "configuration error" in err and "needs dim >= 2, got 1" in err

    def test_bad_at_argument(self, capsys):
        code, _, err = run_cli(capsys, "tensor", "--metric", "euclidean", "--at", "nonsense")
        assert code == 2
        assert "configuration error" in err

    @pytest.mark.parametrize("at", ["0.1,0.2;1,0.5,7", "0.1;1,0.5", "0.1,0.2,0.3;1,0.5,7"])
    @pytest.mark.parametrize("command, where", [("tensor", "tensor task"), ("diagnostics", "--at")])
    def test_at_argument_of_the_wrong_dimension(self, capsys, command, where, at):
        code, out, err = run_cli(capsys, command, "--metric", "randers-torus", "--at", at)
        assert code == 2 and out == ""
        assert err == f"configuration error: {where}: 'at' point has wrong dimension\n"

    def test_too_few_grid_nodes_is_a_config_error(self, capsys):
        code, out, err = run_cli(capsys, "integrate", "--metric", "euclidean", "--grid", "4,4x4")
        assert code == 2
        assert out == ""
        assert "configuration error" in err and "at least 8 nodes" in err

    def test_gauss_legendre_count_off_a_multiple_of_eight_is_a_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "integrate", "--metric", "euclidean-3d", "--grid", "8,8,8x12,8"
        )
        assert code == 2
        assert out == ""
        assert "configuration error" in err and "multiple of 8" in err

    def test_too_many_grid_nodes_is_a_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "integrate", "--metric", "euclidean", "--grid", "100000,100000x64"
        )
        assert code == 2
        assert out == ""
        assert "configuration error" in err and "at most 16777216 nodes" in err

    def test_non_finite_at_argument(self, capsys):
        code, out, err = run_cli(capsys, "tensor", "--metric", "euclidean", "--at", "0.1,0.2;nan,1")
        assert code == 2
        assert out == ""
        assert "non-finite" in err

    def test_non_finite_report_is_an_error(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "tensor", "--metric", "randers-torus", "--which", "g",
                "--at", "0.1,0.2;1e200,1e200",
            )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "non-finite" in err
        assert err.count("\n") == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_run_keeps_the_report_when_one_task_is_non_finite(self, tmp_path, capsys):
        """``run`` writes a non-finite value as null and exits 1; the report
        stays strict JSON and the finite task's result stands."""
        at = {"x": [0.1, 0.2], "y": [1.0, 0.5]}
        finite = {"kind": "tensor", "params": {"which": "g", "at": at}}
        huge = {"kind": "tensor", "params": {"which": "g", "at": {**at, "y": [1e200, 1e200]}}}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"metric": "randers-torus", "tasks": [finite, huge]}))
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 1

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        first, second = json.loads(out, parse_constant=reject)["tasks"]
        alone = run_scenario({"metric": "randers-torus", "tasks": [finite]})["tasks"][0]
        assert first["pass"] is True and first["result"] == alone["result"]
        assert second["pass"] is False
        assert second["result"]["components"] == [[None, None], [None, None]]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("check", "divergence", "--tol", "-1"), "--tol must be a finite number >= 0"),
            (("laplacian", "--tol", "nan"), "--tol must be a finite number >= 0"),
            (("check", "divergence", "--tol", "x"), "--tol must be a number"),
            (("integrate", "--tol-grid", "-5"), "--tol-grid must be a finite number >= 0"),
            (("laplacian", "--tol-grid", "inf"), "--tol-grid must be a finite number >= 0"),
            (("check", "divergence", "--seed", "-1"), "--seed must be at least 0, got -1"),
        ],
        ids=["check-tol-negative", "laplacian-tol-nan", "check-tol-not-number",
             "integrate-tol-grid-negative", "laplacian-tol-grid-inf", "check-seed-negative"],
    )
    def test_bad_tolerance_flag_is_a_config_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv, "--metric", "euclidean", "--grid", "8,8x8")
        assert code == 2
        assert out == ""
        assert "configuration error" in err and message in err
