"""Pipeline benchmark for safefield: stage times on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload case_study --seed 1 --seconds 10 --trace 0

--trace 0 measures the untraced pipeline and prints the end-to-end metrics,
with every timing scaled to a reference machine speed (see speed.py);
--trace 1 runs set-up and the measured stages once with spans around each
layer's public functions, prints the per-layer metrics and writes the spans
to .perfbench/traces/. Every run checks the program's outputs. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 only when every output was correct.
"""

import argparse
import json
import os
import platform
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(SRC, "safefield", "data")
BENCH_DIR = os.path.join(ROOT, ".perfbench")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# NumPy, and everything that imports it, is imported inside functions: the
# thread caps only take effect if they are set before its first import.

# A stage shorter than this is repeated and its median taken: on a shared
# 2-CPU machine a sub-second stage's time can double during a slow spell.
MIN_STAGE_S = 3.0
# Set-up runs at least SETUP_MIN_REPEATS times, and more until the set-ups
# add up to SETUP_MIN_S; setup_s is their median.
SETUP_MIN_REPEATS = 2
SETUP_MIN_S = 1.0


def cap_threads():
    """Cap BLAS/OpenMP pools at the CPUs this process may use. Must run
    before NumPy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def context(nproc):
    """Machine and library facts that change which program is measured:
    the kernels pick numba or NumPy at import time."""
    import numpy
    import scipy
    from safefield import _kernels

    def imports(name):
        try:
            __import__(name)
        except ImportError:
            return False
        return True

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": imports("numba"),
        "highspy_imports": imports("highspy"),
        "kernels": "numba" if _kernels.USING_NUMBA else "numpy",
        "SAFE_FIELD_PURE_NUMPY": os.environ.get("SAFE_FIELD_PURE_NUMPY"),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def warm_up(cfg_path):
    """Pay one-time library costs before any timing: load HiGHS through
    SciPy's LP entry point and build the expectation kernel."""
    import numpy as np
    from scipy.optimize import linprog
    from safefield import cli
    from safefield.measurement import build_expectation_kernel

    linprog(np.ones(2), A_ub=np.ones((1, 2)), b_ub=np.ones(1),
            bounds=[(0, None)] * 2, method="highs")
    build_expectation_kernel(cli.load_config(cfg_path).grid)


def describe(samples, unit):
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    import numpy as np

    n = len(samples)
    text = "median %.6g %s" % (float(np.median(samples)), unit)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - q / 100.0) >= 10:
            text += ", p%g %.6g %s" % (q, float(np.percentile(samples, q)),
                                        unit)
            break
    return text + ", n=%d" % n


def measure(workload, config_path, reference, seconds, outcome):
    """Untraced set-ups and passes, with the machine's speed sampled
    throughout; returns the end-to-end metrics. Every timing is scaled to
    reference speed (see speed.py)."""
    import numpy as np
    import pipeline
    from speed import REFERENCE_S, Speed

    speed = Speed()
    setups, synths = [], []
    samples = {name: [] for name in workload.stages}
    with speed:
        spent = 0.0
        while len(setups) < SETUP_MIN_REPEATS or spent < SETUP_MIN_S:
            cfg, interval, synth = pipeline.setup(
                workload, config_path, reference, outcome, clock=speed.clock)
            setups.append(interval)
            spent += interval[1] - interval[0]
            if synth is not None:
                synths.append(synth)
        steps, passes = 0, 0
        deadline = speed.clock() + seconds
        while passes == 0 or speed.clock() < deadline:
            steps_before = outcome.steps
            intervals = pipeline.run_pass(workload, cfg, reference, outcome,
                                          MIN_STAGE_S, speed.clock)
            for name, values in intervals.items():
                samples[name].extend(values)
            steps = (outcome.steps - steps_before) / len(intervals["simulate"])
            passes += 1
    if workload.setup_synth:
        samples["synth"] = synths

    def scaled(intervals):
        return [(end - start) * speed.factor(start, end)
                for start, end in intervals]

    def raw_median(intervals):
        return float(np.median([end - start for start, end in intervals]))

    times = {name: scaled(v) for name, v in samples.items()}
    setup_times = scaled(setups)
    rates = [steps / t for t in times["simulate"]]
    kernel = speed.samples
    print("speed: calibration kernel median %.6g s over %d samples "
          "(quartiles %.6g, %.6g s); reference %g s"
          % (float(np.median(kernel)), len(kernel),
             float(np.percentile(kernel, 25)),
             float(np.percentile(kernel, 75)), REFERENCE_S))
    print("setup_s: %s (raw wall median %.6g s)"
          % (describe(setup_times, "s"), raw_median(setups)))
    for name, values in times.items():
        print("%s_s: %s (raw wall median %.6g s)%s"
              % (name, describe(values, "s"), raw_median(samples[name]),
                 " (inside set-up)" if name not in workload.stages else ""))
    print("sim_steps_per_s: " + describe(rates, "1/s"))
    print("min_barrier: %.9g (smallest min_h over %d trajectories; printed, "
          "not gated)" % (min(outcome.barriers, default=0.0),
                          len(outcome.barriers)))
    medians = {name: float(np.median(v)) for name, v in times.items()}
    pipeline_s = sum(medians[name] for name in workload.stages)
    print("pipeline_s: %.6g s (sum of the measured stages' medians)"
          % pipeline_s)
    return {
        "setup_s": float(np.median(setup_times)),
        "synth_s": medians["synth"],
        "verify_s": medians["verify"],
        "simulate_s": medians["simulate"],
        "sim_steps_per_s": float(np.median(rates)),
        "pipeline_s": pipeline_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        # 0.0 only when no controller was read, which fails the run anyway
        "min_margin": min(outcome.margins, default=0.0),
    }


def trace(workload, config_path, reference, outcome, run_id, ctx):
    """One traced set-up and pass; returns the per-layer metrics."""
    import pipeline
    import tracing

    span_cost = tracing.calibrate_overhead()
    tracer = tracing.Tracer(run_id)
    seen = []
    tracer.install()
    try:
        with pipeline.caught_warnings(seen):
            cfg, _, _ = pipeline.setup(workload, config_path, reference,
                                       outcome, tracer)
            pipeline.run_traced_pass(workload, cfg, reference, outcome,
                                     tracer)
    finally:
        tracer.remove()
    metrics = tracing.layer_metrics(
        tracer, seen, (outcome.states_sampled, outcome.skipped), span_cost)
    os.makedirs(os.path.join(BENCH_DIR, "traces"), exist_ok=True)
    path = os.path.join(BENCH_DIR, "traces", run_id + ".csv")
    tracer.write_csv(path, json.dumps(ctx, sort_keys=True))
    print("spans: %d written to %s" % (len(tracer.names),
                                       os.path.relpath(path, ROOT)))
    print("tracing overhead: %.3g us per span, %.3g%% of traced wall time"
          % (span_cost * 1e6, metrics["trace.overhead_pct"]))
    _print_coverage(metrics)
    return metrics


def _print_coverage(m):
    """How the layer self times account for each traced stage."""
    rows = (
        ("synth", m["stage.synth_s"],
         (("assemble", m["synthesis.assemble_s"]),
          ("margin solve", m["synthesis.margin_solve_s"]),
          ("tiebreak solve", m["synthesis.tiebreak_solve_s"]),
          ("other", m["synthesis.other_s"]))),
        ("verify", m["stage.verify_s"],
         (("adversary HiGHS", m["lp_core.highs_s.verification"]),
          ("adversary solve plumbing", m["lp_core.plumbing_s.verification"]),
          ("adversary self", m["verification.adversary_self_s"]),
          ("other", m["verification.other_s"]))),
        ("simulate", m["stage.simulate_s"],
         (("sense (blur %.4g s)" % m["measurement.blur_s"],
           m["simulation.sense_s"]),
          ("control_input", m["simulation.control_s"]),
          ("other", m["simulation.other_s"]))),
    )
    for stage, wall, parts in rows:
        if wall <= 0:
            continue
        print("%s %.4g s = %s" % (stage, wall, " + ".join(
            "%s %.4g s (%.1f%%)" % (name, v, 100.0 * v / wall)
            for name, v in parts)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure passes until this much time has elapsed "
                         "(at least one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "safefield", "__init__.py")):
        print("perfbench: no safefield sources at %s" % SRC, file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path.insert(0, SRC)
    import pipeline

    if args.workload not in pipeline.WORKLOADS:
        print("perfbench: unknown workload %r (known: %s)"
              % (args.workload, ", ".join(pipeline.WORKLOADS)),
              file=sys.stderr)
        return 2
    workload = pipeline.WORKLOADS[args.workload]
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)[workload.base]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    run_id = "%s-seed%d-trace%d-pid%d" % (args.workload, args.seed,
                                           args.trace, os.getpid())
    work_dir = os.path.join(BENCH_DIR, "work", run_id)
    ctx = context(nproc)
    print("context: " + json.dumps(ctx, sort_keys=True))
    outcome = pipeline.Outcome()
    try:
        config_path = pipeline.write_config(workload, args.seed, DATA,
                                            work_dir)
        warm_up(config_path)
        if args.trace:
            metrics = trace(workload, config_path, reference, outcome,
                            run_id, ctx)
        else:
            metrics = measure(workload, config_path, reference, args.seconds,
                              outcome)
    finally:
        pipeline.clean(work_dir)
    failed = len(outcome.failures)
    for what in outcome.failures:
        print("FAILED: %s" % what)
    print("failed_ops_share: %.6g (%d failed of %d attempted: cells "
          "synthesized, cells verified, trajectories run, field cells "
          "sampled, stages that raised or exited non-zero)"
          % (failed / max(outcome.attempted, 1), failed, outcome.attempted))
    for name, unit in units.items():
        print("%s: %.9g %s" % (name, metrics[name], unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
