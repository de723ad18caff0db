"""Record the per-cell margins the benchmark checks every run against.

Run from the repository root at a commit whose synthesis is trusted:

    python3 perfbench/record_reference.py

It synthesizes each packaged config the workloads start from and writes
perfbench/reference.json, keyed by config name and cell id.
"""

import json
import os
import sys

import run

sys.path.insert(0, run.SRC)

import pipeline  # noqa: E402


def main():
    bases = sorted({w.base for w in pipeline.WORKLOADS.values()})
    reference = {}
    for base in bases:
        workload = pipeline.Workload("reference", base, ("synth",), 1)
        work_dir = os.path.join(run.BENCH_DIR, "work", "reference")
        try:
            path = pipeline.write_config(workload, 0, run.DATA, work_dir)
            outcome = pipeline.Outcome()
            cfg, _, _ = pipeline.setup(workload, path, {}, outcome)
            pipeline.run_stage("synth", cfg, outcome)
            if outcome.failures:
                raise SystemExit("synthesis failed: %s" % outcome.failures)
            with open(os.path.join(cfg.out, "controllers.json")) as fh:
                reference[base] = {str(c["id"]): c["delta"]
                                   for c in json.load(fh)}
        finally:
            pipeline.clean(work_dir)
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
