"""Property tests of the input boundary: malformed input of any shape is a
ConfigError (exit code 2), never a traceback.

Examples are derived from the test source (``derandomize=True``), so every
run draws the same inputs.  Grid node counts stay small or far beyond the
node bound: a valid large grid would run real work.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finslerforms import builtins as bi
from finslerforms.cli import main
from finslerforms.errors import ConfigError
from finslerforms.scenario import CHECK_KINDS, INT_PARAMS, TASK_PARSERS, validate_scenario

FUZZ = settings(
    derandomize=True, max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

HUGE = 10**400  # a JSON integer no float can hold

# any JSON value, with the non-finite floats Python's json module reads too
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from([HUGE, -HUGE])
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
numbers = st.integers(-2, 3) | st.floats(-3, 3) | st.sampled_from(
    [HUGE, float("nan"), float("inf"), 1e308, 0.0, True]
)
dims = st.integers(-1, 4) | st.sampled_from([9, HUGE, 2.0, 2.5, True, "2", None])


def vectors(n):
    return st.lists(numbers, min_size=n, max_size=n)


@st.composite
def metrics(draw):
    choice = draw(st.sampled_from(["builtin", "object", "junk"]))
    if choice == "builtin":
        return draw(st.sampled_from(sorted(bi.list_builtins()["metrics"]) + ["no-such-metric"]))
    if choice == "junk":
        return draw(json_values)
    n = draw(st.integers(1, 3))
    cfg = {"family": draw(st.sampled_from(["euclidean", "riemannian", "randers", "custom", "x"]))}
    for key, value in (
        ("dim", dims),
        ("a", st.lists(vectors(n), min_size=n, max_size=n) | vectors(n) | json_values),
        ("b", vectors(n) | json_values),
        ("expression", st.sampled_from(["quartic", "cubic"]) | json_values),
        ("chart", st.fixed_dictionaries({}, optional={
            "bounds": st.lists(st.lists(numbers, max_size=3), max_size=4) | json_values,
            "periodic": st.lists(json_values, max_size=4) | json_values,
            "excluded_margin": numbers | json_values,
        }) | json_values),
    ):
        if draw(st.booleans()):
            cfg[key] = draw(value)
    return cfg


counts = st.lists(st.integers(-2, 12) | st.sampled_from([10**9, HUGE, 8.0, "8", True]), max_size=4)
grids = st.none() | json_values | st.fixed_dictionaries({}, optional={
    "base": counts | json_values, "fiber": counts | json_values, "tolerance": numbers | json_values,
})
task_params = st.fixed_dictionaries({}, optional={
    "which": st.sampled_from([*CHECK_KINDS, "g", "Gamma", "Rhh", "P", "x"]) | json_values,
    "at": st.fixed_dictionaries({}, optional={
        "x": st.lists(numbers, max_size=4) | json_values,
        "y": st.lists(numbers, max_size=4) | json_values,
    }) | json_values,
    "form": st.sampled_from(["dx1", "area", "no-such-form"]) | json_values,
    "field": st.sampled_from(["one", "d1", "constant", "trig-random", "x"]) | json_values,
    "tol": numbers | json_values,
    "expect_harmonic": st.booleans() | json_values,
    "components": st.lists(numbers, max_size=4) | json_values,
    **{key: numbers | json_values for key in INT_PARAMS},
}) | json_values
tasks = st.lists(
    st.fixed_dictionaries({}, optional={
        "kind": st.sampled_from([*TASK_PARSERS, "frobnicate"]) | json_values,
        "params": task_params,
        "tolerance": numbers | json_values,
    }) | json_values,
    max_size=3,
)
documents = st.fixed_dictionaries({}, optional={
    "metric": metrics(), "grid": grids, "tasks": tasks | json_values, "seed": numbers | json_values,
}) | json_values


@FUZZ
@given(doc=documents)
def test_validate_scenario_raises_only_config_error(doc):
    try:
        validate_scenario(doc)
    except ConfigError:
        pass


# mostly coordinates a float can hold, so that many points are valid
coordinates = st.sampled_from(
    ["0.1", "0.5", "1", "2", "-0.3", "0", "1e-150", "1e200"] * 4 + ["1e400", "nan", "inf", "x", ""]
)


def points(lo, hi):
    return st.builds(
        lambda xs, ys, sep: ",".join(xs) + sep + ",".join(ys),
        st.lists(coordinates, min_size=lo, max_size=hi),
        st.lists(coordinates, min_size=lo, max_size=hi),
        st.sampled_from([";"] * 4 + [";;", ",", ""]),
    )


at_texts = st.one_of(points(2, 2), points(3, 3), points(1, 4), st.text(max_size=12))
builtin_metrics = st.sampled_from(bi.METRIC_IDS)
metric_texts = st.one_of(
    builtin_metrics,
    builtin_metrics,
    metrics().filter(lambda m: isinstance(m, dict)).map(json.dumps),
    st.text(max_size=12),
)


@FUZZ
@given(
    command=st.sampled_from(["tensor", "curvature", "diagnostics"]),
    metric=metric_texts,
    at=at_texts,
)
def test_cli_point_commands_exit_cleanly(command, metric, at):
    """Exit 0, 1 or 2 and no traceback; a report on exit 0 is strict JSON."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([command, f"--metric={metric}", f"--at={at}"])
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=lambda c: pytest.fail(f"{c} in the report"))
