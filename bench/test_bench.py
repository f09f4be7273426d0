"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402

child.import_package()

import workloads  # noqa: E402

SEED = workloads.PINNED_SEED
FAST_OPS = workloads.PASSES["point-2d"][:2]  # tensor+curvature and flag curvature


@pytest.fixture(scope="module")
def inputs():
    log = workloads.InputLog()
    log.install()
    return log


@pytest.fixture(scope="module")
def ctx():
    return workloads.setup("point-2d")


@pytest.fixture(scope="module")
def reference():
    return child.load_reference("point-2d", SEED)


def test_pinned_seed_matches_reference(ctx, inputs, reference):
    records = child.run_pass(ctx, FAST_OPS, SEED, inputs, reference)
    assert [r["failures"] for r in records] == [[], []]


def test_perturbed_output_is_counted_as_failed(ctx, inputs, reference):
    def perturb(i, result):
        if i == 1:
            flag = result.outputs["flag"]
            j = max(range(len(flag)), key=lambda k: abs(flag[k]))
            flag[j] *= 1.0 + 1e-6

    records = child.run_pass(ctx, FAST_OPS, SEED, inputs, reference, perturb=perturb)
    assert records[0]["failures"] == []
    assert len(records[1]["failures"]) == 1
    assert "misses reference" in records[1]["failures"][0]


def test_changed_input_fingerprint_fails_the_op(ctx, inputs, reference):
    changed = copy.deepcopy(reference)
    changed["ops"][0]["inputs"][0] += 1e-6
    records = child.run_pass(ctx, FAST_OPS, SEED, inputs, changed)
    assert "input fingerprint" in records[0]["failures"][0]
    assert records[1]["failures"] == []


@pytest.mark.parametrize(
    "result",
    [
        workloads.OpResult(residuals={"ricci": (2e-5, 1e-5)}),
        workloads.OpResult(residuals={"ricci": (float("nan"), 1e-5)}),
        workloads.OpResult(outputs={"Gamma": [0.5, float("inf")]}),
        workloads.OpResult(ok=False),
    ],
)
def test_identity_checks_fail_at_any_seed(result):
    assert workloads.verify(result, [], reference=None)


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_traced_run_is_bit_identical_and_counts_repeat():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "point-2d", "--seed", str(SEED),
         "--seconds", "5", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert result["metrics"]["quadrature.integrate_calls"]["value"] == 0  # idle layer
    assert result["metrics"]["curvature.hv_calls"]["value"] == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "point-2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
