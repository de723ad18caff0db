"""The benchmark's own tests. They run the command as a user would, so
they take a few minutes:

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXACT_COUNTS = (
    "lp_core.highs_iterations.synthesis",
    "lp_core.highs_iterations.verification",
    "verification.adversary_calls",
    "simulation.steps",
    "simulation.crossings",
    "synthesis.lp_nnz",
    "measurement.blur_taps",
)


def run_bench(cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload",
                         ["case_study", "gaussian_loop", "patrol_long"])
def test_counts_repeat_exactly(workload):
    results = []
    for _ in range(2):
        proc = run_bench(ROOT, workload, 7, 1)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    first, second = (r["metrics"] for r in results)
    assert all(r["correct"] and r["failed"] == 0 for r in results)
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["simulation.steps"]["value"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "case_study", 1, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_sampling_scales_to_reference():
    sys.path.insert(0, HERE)
    import speed

    sampler = speed.Speed()
    with sampler:
        wall0, clock0 = time.perf_counter(), sampler.clock()
        deadline = wall0 + 1.0
        while time.perf_counter() < deadline:
            sum(i * i for i in range(1000))
        wall, clock = time.perf_counter() - wall0, sampler.clock() - clock0
    kernel = sampler.samples
    # one sample on entry, then one every TICK_S
    assert len(kernel) >= 1.0 / (speed.TICK_S + max(kernel))
    # the kernel's time is taken out of the clock
    assert clock < wall - 0.5 * sum(kernel[1:])
    whole = sampler.factor(clock0 - 1.0, clock0 + clock + 1.0)
    assert whole == pytest.approx(speed.REFERENCE_S / (sum(kernel)
                                                        / len(kernel)))
    # an interval with no sample in it falls back to the nearest ones
    assert sampler.factor(clock0 + 1e-9, clock0 + 2e-9) > 0
