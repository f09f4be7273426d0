"""Write ``reference.json``: every op's outputs and input fingerprint at the
pinned seed, from one pass of each workload.

    python3 bench/make_reference.py

Run it only when a change to the benchmark's workloads is meant to change
the reference; a change to the program must leave the file as it is.
"""

from __future__ import annotations

import json
import sys

import child


def main():
    child.import_package()
    sys.path.insert(0, str(child.BENCH))
    import workloads

    inputs = workloads.InputLog()
    inputs.install()
    doc = {"seed": workloads.PINNED_SEED, "rel_tol": workloads.REFERENCE_REL_TOL, "workloads": {}}
    for name, ops in workloads.PASSES.items():
        ctx = workloads.setup(name)
        records = child.run_pass(ctx, ops, workloads.PINNED_SEED, inputs)
        for r in records:
            if r["failures"]:
                raise SystemExit(f"{name} {r['kind']} failed: {r['failures']}")
        doc["workloads"][name] = {
            "ops": [
                {"kind": r["kind"], "outputs": r["result"].outputs, "inputs": r["inputs"]}
                for r in records
            ]
        }
        print(f"{name}: {len(records)} ops, {sum(r['latency'] for r in records):.2f} s")
    with open(child.BENCH / "reference.json", "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
