"""Benchmark of finslerforms: time until a verified identity.

Run from the root of a checkout:

    python3 bench/run.py --workload point-2d --seed 1 --seconds 20 --trace 0

Workloads are ``point-2d``, ``grid-2d`` and ``mixed-3d`` (see README.md).
Every measured process is a fresh interpreter started by this script, one
at a time, with ``FINSLER_THREADS`` unset and BLAS threads at 1.

With ``--trace 0`` one process runs whole passes of the workload's ops for
``--seconds`` seconds and at least ``MIN_OPS`` ops, and ten more only
set up, each between two baseline processes; the last line of
output carries the end-to-end metrics.  With ``--trace 1`` two untraced
and two traced processes each run exactly one pass; their outputs must be
bit-identical and the two traced runs' counters must agree exactly; the last
line carries the per-layer metrics of the first traced run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 170.0  # the whole run must end within 180 s
MIN_OPS = 33  # with 10 ops beyond it, the tail is then p69 or higher
SETUP_SAMPLES = 5  # set-up-only processes before the measuring one, and as many after
NOMINAL_START_S = 0.1  # about the baseline's time on a 2-core x86-64 VM with no other load
TAIL_BEYOND = 10  # the tail is the highest percentile with this many ops beyond it


class ChildFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("FINSLER_THREADS", None)
    env.pop("PYTHONPATH", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles the same sources
    return env


def spawn(job, deadline):
    """Run one child process to completion and return its JSON report."""
    job = dict(job, t_spawn=time.monotonic())
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("out of time before starting a child process")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), json.dumps(job)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise ChildFailed(f"child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    rank = max(n - 1 - TAIL_BEYOND, 0)
    return xs[rank], (100.0 * rank / (n - 1) if n > 1 else 100.0)


def setup_ratios(job, deadline):
    """Set-up times of SETUP_SAMPLES processes, each divided by the mean time
    of the baseline processes started just before and just after it."""
    base = [spawn(dict(job, mode="baseline"), deadline)["setup_s"]]
    ratios, raw = [], []
    for _ in range(SETUP_SAMPLES):
        raw.append(spawn(dict(job, mode="setup"), deadline)["setup_s"])
        base.append(spawn(dict(job, mode="baseline"), deadline)["setup_s"])
        ratios.append(raw[-1] / (0.5 * (base[-2] + base[-1])))
    return ratios, raw


def measure(args, deadline):
    job = {"workload": args.workload, "seed": args.seed, "trace": False}
    ratios, raw_setups = setup_ratios(job, deadline)
    main = spawn(dict(job, mode="measure", seconds=args.seconds, min_ops=MIN_OPS), deadline)
    more_ratios, more_raw = setup_ratios(job, deadline)
    ratios += more_ratios
    raw_setups += more_raw

    lat = main["latencies"]
    tail_s, tail_pct = tail(lat)
    setup_s = NOMINAL_START_S * statistics.median(ratios)
    raw_setup = statistics.median(raw_setups)
    print(
        f"{args.workload}: {len(main['pass_s'])} passes, {len(lat)} ops, "
        f"fail_frac {main['failed'] / main['attempted']:.3f}; "
        f"tail = p{tail_pct:.1f} with {min(TAIL_BEYOND, len(lat) - 1)} of {len(lat)} ops beyond; "
        f"unscaled setup {raw_setup:.3f} s, "
        f"unscaled wall {raw_setup + statistics.median(main['raw_pass_s']):.3f} s"
    )
    for line in main["failures"]:
        print("FAILED", line)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (setup_s + statistics.median(main["pass_s"]), "s"),
        "task_p50_s": (statistics.median(lat), "s"),
        "task_tail_s": (tail_s, "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    return main["attempted"], main["failed"], True, metrics


def traced(args, deadline):
    from tracing import EXACT_COUNTS

    job = {"workload": args.workload, "seed": args.seed, "mode": "measure",
           "seconds": 0, "min_ops": 1}
    # untraced, traced, traced, untraced: a drift in machine speed during the
    # four runs cancels out of the overhead to first order
    plain = [spawn(dict(job, trace=False), deadline)]
    runs = [spawn(dict(job, trace=True, label=label), deadline) for label in ("traced-a", "traced-b")]
    plain.append(spawn(dict(job, trace=False), deadline))
    ok = True
    for run in (plain[1], *runs):
        if run["digests"] != plain[0]["digests"]:
            ok = False
            print("FAILED outputs differ between the traced and untraced runs")
    for key in EXACT_COUNTS:
        a, b = (run["layers"][key] for run in runs)
        if a != b:
            ok = False
            print(f"FAILED counter {key} differs between two traced runs: {a} != {b}")
    for run in (*plain, *runs):
        for line in run["failures"]:
            print("FAILED", line)
    layers = dict(runs[0]["layers"])
    untraced_wall = statistics.mean(r["setup_s"] + r["pass_s"][0] for r in plain)
    traced_wall = statistics.mean(r["setup_s"] + r["pass_s"][0] for r in runs)
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    print(
        f"{args.workload}: untraced wall {untraced_wall:.3f} s, traced wall {traced_wall:.3f} s "
        f"(means of two runs each), {layers['trace.spans']} spans"
    )
    metrics = {k: (v, _unit(k)) for k, v in layers.items()}
    attempted = sum(r["attempted"] for r in (*plain, *runs))
    failed = sum(r["failed"] for r in (*plain, *runs))
    return attempted, failed, ok, metrics


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "finslerforms" / "__init__.py").is_file():
        print(f"no finslerforms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        attempted, failed, ok, metrics = (traced if args.trace else measure)(args, deadline)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": bool(ok and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
