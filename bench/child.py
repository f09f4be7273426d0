"""One measured process of the finslerforms benchmark.

``run.py`` starts this script in a fresh interpreter, one at a time, with a
JSON job as its only argument, and reads one JSON object from the last line
of its standard output.  Modes:

* ``baseline``: import NumPy, report the time since start and exit; the
  yardstick for set-up time, since it starts the same way but never
  imports the program;
* ``setup``: import, build the workload, report the set-up time and exit;
* ``measure``: set up, then run whole passes until ``seconds`` have elapsed
  and at least ``min_ops`` ops have run.

Set-up time runs from the moment the parent started this process (the
parent's ``time.monotonic()``, which is system-wide on Linux) until the
first op is ready.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

JOB = json.loads(sys.argv[1]) if __name__ == "__main__" else None
ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
MAX_REPORTED_FAILURES = 5


def import_package():
    """Import finslerforms from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import finslerforms

    if Path(finslerforms.__file__).resolve().parent != src / "finslerforms":
        raise SystemExit(f"finslerforms imported from {finslerforms.__file__}, not {src}")
    return finslerforms


def load_reference(workload, seed):
    import workloads

    if seed != workloads.PINNED_SEED:
        return None
    with open(BENCH / "reference.json") as fh:
        return json.load(fh)["workloads"][workload]


def run_pass(ctx, ops, seed, inputs, reference=None, tracer=None, perturb=None):
    """Run every op of a pass once; returns per-op records.

    Each op is timed between two yardstick measurements, and its record holds
    both the raw latency and the latency at the yardstick's nominal speed.
    ``perturb``, when given, may alter an op's result before it is verified;
    the benchmark's own test uses it to show a wrong output is counted.
    """
    import numpy as np

    import workloads
    import yardstick

    records = []
    speed = [yardstick.measure()]
    for i, (kind, fn) in enumerate(ops):
        rng = np.random.default_rng([seed, i])
        fingerprint = inputs.begin()
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            result = fn(ctx, rng)
            failures = []
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            result, failures = None, [f"raised {exc!r}"]
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.op_id = -1
        speed.append(yardstick.measure())
        if result is not None:
            if perturb is not None:
                perturb(i, result)
            ref = reference["ops"][i] if reference is not None else None
            failures = workloads.verify(result, fingerprint, ref)
        records.append({
            "kind": kind,
            "raw_latency": latency,
            "latency": yardstick.scale(latency, speed[-2], speed[-1], ctx.yardstick_exponent),
            "failures": failures,
            "digest": workloads.digest(result, fingerprint) if result is not None else None,
            "result": result,
            "inputs": list(fingerprint),
        })
    return records


def main(job):
    t_spawn = job["t_spawn"]
    if job["mode"] == "baseline":
        import numpy  # noqa: F401

        print(json.dumps({"setup_s": time.monotonic() - t_spawn}))
        return 0
    package = import_package()
    sys.path.insert(0, str(BENCH))
    import workloads
    from tracing import Tracer

    name, seed = job["workload"], job["seed"]
    if name not in workloads.PASSES:
        print(f"unknown workload {name!r}; choose from {sorted(workloads.PASSES)}", file=sys.stderr)
        return 2
    tracer = Tracer().install(package) if job["trace"] else None
    inputs = workloads.InputLog(tracer.counting_form if tracer else None)
    inputs.install()
    ctx = workloads.setup(name, tracer.instrument_metric if tracer else None)
    report = {"setup_s": time.monotonic() - t_spawn, "construct_s": ctx.construct_s}
    if job["mode"] == "setup":
        print(json.dumps(report))
        return 0

    ops = workloads.PASSES[name]
    reference = load_reference(name, seed)
    passes, raw_passes, latencies, failures = [], [], [], []
    attempted = failed = 0
    first = None
    t_start = time.perf_counter()
    while True:
        records = run_pass(ctx, ops, seed, inputs, reference, tracer)
        digests = [r["digest"] for r in records]
        if first is None:
            first = digests
        for r, d0 in zip(records, first):
            if r["digest"] != d0 and not r["failures"]:
                r["failures"].append("output differs from the first pass of this run")
            attempted += 1
            if r["failures"]:
                failed += 1
                failures.append(f"{r['kind']}: {'; '.join(r['failures'])}")
            latencies.append(r["latency"])
        passes.append(sum(r["latency"] for r in records))
        raw_passes.append(sum(r["raw_latency"] for r in records))
        if attempted >= job["min_ops"] and time.perf_counter() - t_start >= job["seconds"]:
            break

    report.update(
        attempted=attempted,
        failed=failed,
        failures=failures[:MAX_REPORTED_FAILURES],
        pass_s=passes,
        raw_pass_s=raw_passes,
        latencies=latencies,
        digests=first,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(ctx.construct_s)
        tracer.write(ROOT / ".bench_out" / f"spans-{name}-seed{seed}-{job['label']}.npz")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(JOB))
