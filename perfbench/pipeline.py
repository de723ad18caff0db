"""Workload generation, the staged pipeline, and the output checks.

Every workload is a config file generated from the seed into a work
directory; the stages are the ``safefield.cli`` commands a user runs
(``cmd_synth``, ``cmd_verify``, ``cmd_simulate``, ``cmd_field``), and the
checks read back the files those commands write. See README.md for why each
workload exists.
"""

import contextlib
import glob
import io
import json
import os
import shutil
import time
import warnings

import numpy as np

from safefield import cli
from safefield.errors import SafeFieldError
from safefield.geometry import environment_from_dict

MARGIN_TOL = 1e-6  # reference margins agree to the verifier's slack tolerance
BARRIER_TOL = 1e-6  # the simulator's own SAFETY_TOL
START_CLEARANCE = 0.4  # of the cell's shortest bounding-box side
GAUSSIAN_STARTS = 12
# gaussian_loop's sensor-noise seed. The seed argument draws the starts; a
# noise seed that followed it would move the total steps by +-15% from seed
# to seed (the starts alone move them by +-5%), and simulate_s with them.
SENSOR_SEED = 1
MAX_REPEATS = 10

# files each command writes; removed before it runs so a stale file from an
# earlier pass is never checked
STAGE_OUTPUTS = {
    "synth": "controllers.json",
    "verify": "report.json",
    "simulate": "trajectory_*.csv",
    "field": "field_cell*.csv",
}
STAGE_COMMANDS = {
    "synth": cli.cmd_synth,
    "verify": cli.cmd_verify,
    "simulate": cli.cmd_simulate,
    "field": cli.cmd_field,
}


class Workload:
    """base: packaged config it starts from. schedule: the measured stages
    in the order one pass runs them; a stage may appear twice so that its
    samples come from both ends of the pass. setup_synth: controllers are
    synthesized in set-up rather than in a measured stage."""

    def __init__(self, name, base, schedule, setup_synth=False, edit=None):
        self.name = name
        self.base = base
        self.schedule = schedule
        self.stages = tuple(dict.fromkeys(schedule))
        self.setup_synth = setup_synth
        self.edit = edit


def _gaussian_loop(raw, env, rng):
    raw["sim"]["sensor"] = {"kind": "gaussian", "drift": 3.0,
                            "variance": 12.0}
    raw["sim"]["max_time"] = 60.0
    raw["sim"]["seed"] = SENSOR_SEED
    # vertices only: a cheap audit of the controllers the loop runs
    raw["verify_count"] = 0
    raw["starts"] = stratified_starts(env, rng, GAUSSIAN_STARTS)


def _patrol_long(raw, env, rng):
    raw["sim"]["max_time"] = 150.0


WORKLOADS = {
    w.name: w for w in (
        # a stage listed twice is sampled at both places: slow spells on a
        # shared machine last seconds to tens of seconds, and samples spread
        # over the pass keep one spell from deciding a median
        Workload("case_study", "case_study.json",
                 ("synth", "simulate", "verify", "simulate", "field")),
        # gaussian_loop's simulate is long (about 12 s), so one sample a
        # pass is enough, and a second would make its run the longest
        Workload("gaussian_loop", "case_study.json", ("verify", "simulate"),
                 setup_synth=True, edit=_gaussian_loop),
        Workload("patrol_long", "patrol.json",
                 ("synth", "verify", "simulate", "synth", "verify",
                  "simulate", "field"), edit=_patrol_long),
    )
}


def stratified_starts(env_raw, rng, count):
    """count starts, cell k mod n_cells for the k-th, uniform over the part
    of the cell at least START_CLEARANCE times its shortest bounding-box side
    from every facet. Fixing how many starts fall in each cell, and keeping
    them off the edges, keeps the total path length, and so the work, steady
    across seeds."""
    env = environment_from_dict(env_raw)
    cells = sorted(env.cells, key=lambda c: c.id)
    starts = []
    for k in range(count):
        cell = cells[k % len(cells)]
        lo, hi = cell.vertices.min(axis=0), cell.vertices.max(axis=0)
        clearance = START_CLEARANCE * float(np.min(hi - lo))
        while True:
            x = rng.uniform(lo, hi)
            if np.all(cell.body.facet_distance(x) >= clearance):
                break
        starts.append([float(v) for v in x])
    return starts


def write_config(workload, seed, data_dir, work_dir):
    """Generate the workload's config for this seed; return its path."""
    with open(os.path.join(data_dir, workload.base)) as fh:
        raw = json.load(fh)
    env_name = raw["environment"]
    with open(os.path.join(data_dir, env_name)) as fh:
        env = json.load(fh)
    raw["seed"] = seed
    raw["sim"]["seed"] = seed
    raw["out"] = os.path.join(work_dir, "out")
    if workload.edit is not None:
        workload.edit(raw, env, np.random.default_rng(seed))
    os.makedirs(work_dir, exist_ok=True)
    with open(os.path.join(work_dir, env_name), "w") as fh:
        json.dump(env, fh)
    path = os.path.join(work_dir, "config.json")
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=1)
    return path


class Outcome:
    """What one run attempted, what failed, and the values read from the
    program's output files."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.margins = []
        self.barriers = []
        self.steps = 0
        self.states_sampled = 0
        self.skipped = 0

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def run_stage(name, cfg, outcome, tracer=None, clock=time.perf_counter):
    """Run one cli command with its stdout captured; return the clock
    readings at its start and end. An exception or a non-zero exit code
    counts as one more failed operation."""
    for path in glob.glob(os.path.join(cfg.out, STAGE_OUTPUTS[name])):
        os.remove(path)
    buf = io.StringIO()
    span = tracer.span(name) if tracer else contextlib.nullcontext()
    code = None
    with contextlib.redirect_stdout(buf):
        t0 = clock()
        try:
            with span:
                code = STAGE_COMMANDS[name](cfg)
        except SafeFieldError as exc:
            outcome.record(False, "%s raised %s" % (name, exc))
        t1 = clock()
    if code not in (None, cli.EXIT_OK):
        outcome.record(False, "%s exited %d: %s"
                       % (name, code, buf.getvalue().strip()))
    return t0, t1


def check_synth(cfg, reference, outcome):
    path = os.path.join(cfg.out, "controllers.json")
    with open(path) as fh:
        ctrls = json.load(fh)
    for ctrl in ctrls:
        margins = np.asarray(ctrl["delta"], dtype=float)
        ref = np.asarray(reference[str(ctrl["id"])], dtype=float)
        ok = (ctrl["status"] == "Optimal" and margins.shape == ref.shape
              and bool(np.all(np.abs(margins - ref) <= MARGIN_TOL)))
        outcome.record(ok, "cell %d: status %s, margins %s, reference %s"
                       % (ctrl["id"], ctrl["status"], margins.tolist(),
                          ref.tolist()))
        outcome.margins.extend(margins.tolist())
    missing = set(reference) - {str(c["id"]) for c in ctrls}
    for cid in sorted(missing):
        outcome.record(False, "cell %s: no controller" % cid)


def check_verify(cfg, reference, outcome):
    with open(os.path.join(cfg.out, "report.json")) as fh:
        report = json.load(fh)
    for cell in report["cells"]:
        outcome.record(cell["pass"], "verify cell %d failed" % cell["cell"])
        outcome.states_sampled += cell["samples"]
        outcome.skipped += cell["skipped"]


def check_simulate(cfg, reference, outcome):
    goal = np.asarray(cfg.environment.goal, dtype=float)
    for k in range(len(cfg.starts)):
        path = os.path.join(cfg.out, "trajectory_%d.csv" % k)
        if not os.path.exists(path):
            outcome.record(False, "start %d: no trajectory" % k)
            continue
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        d = cfg.environment.dimension
        t, x, cell_id, min_h = rows[:, 0], rows[:, 1:1 + d], rows[:, -3], rows[:, -1]
        crossings = int(np.count_nonzero(np.diff(cell_id)))
        if cfg.mode == "patrol":
            ok = t[-1] >= cfg.sim.max_time - 1e-9 and crossings > 0
        else:
            ok = np.linalg.norm(x[-1] - goal) <= cfg.sim.goal_tol
        low = float(min_h.min())
        ok = ok and low >= -BARRIER_TOL
        outcome.record(ok, "start %d: final x %s at t=%.2f, min_h %.3g"
                       % (k, x[-1].tolist(), t[-1], low))
        outcome.barriers.append(low)
        outcome.steps += rows.shape[0]


def check_field(cfg, reference, outcome):
    cells = cfg.field_cells
    if cells is None:
        with open(os.path.join(cfg.out, "controllers.json")) as fh:
            cells = sorted(c["id"] for c in json.load(fh))
    for cid in cells:
        path = os.path.join(cfg.out, "field_cell%d.csv" % cid)
        arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        outcome.record(arr.shape[0] > 0 and bool(np.all(np.isfinite(arr))),
                       "field of cell %d is empty or not finite" % cid)


CHECKS = {
    "synth": check_synth,
    "verify": check_verify,
    "simulate": check_simulate,
    "field": check_field,
}


def setup(workload, config_path, reference, outcome, tracer=None,
          clock=time.perf_counter):
    """Load the config and, where the workload says so, synthesize the
    controllers. Returns (cfg, set-up (start, end), synth (start, end) or
    None), in readings of clock."""
    span = tracer.span("setup") if tracer else contextlib.nullcontext()
    synth = None
    t0 = clock()
    with span:
        cfg = cli.load_config(config_path)
        if workload.setup_synth:
            synth = run_stage("synth", cfg, outcome, tracer, clock)
    t1 = clock()
    if workload.setup_synth:
        _check("synth", cfg, reference, outcome)
    return cfg, (t0, t1), synth


def run_pass(workload, cfg, reference, outcome, min_stage_s, clock):
    """Run the workload's schedule once. At each place in the schedule a
    stage repeats until its repetitions there add up to min_stage_s (at most
    MAX_REPEATS). Returns {stage: [(start, end) of each repetition]}, in
    readings of clock. Output checks run after each repetition, outside its
    interval."""
    intervals = {name: [] for name in workload.stages}
    for name in workload.schedule:
        spent, reps = 0.0, 0
        while reps == 0 or (spent < min_stage_s and reps < MAX_REPEATS):
            start, end = run_stage(name, cfg, outcome, clock=clock)
            _check(name, cfg, reference, outcome)
            intervals[name].append((start, end))
            spent += end - start
            reps += 1
    return intervals


def run_traced_pass(workload, cfg, reference, outcome, tracer):
    """Run each measured stage once, in pipeline order, under the tracer."""
    for name in workload.stages:
        run_stage(name, cfg, outcome, tracer)
        _check(name, cfg, reference, outcome)


def _check(name, cfg, reference, outcome):
    try:
        CHECKS[name](cfg, reference, outcome)
    except (OSError, ValueError, KeyError) as exc:
        outcome.record(False, "%s output unreadable: %s" % (name, exc))


def clean(work_dir):
    shutil.rmtree(work_dir, ignore_errors=True)


@contextlib.contextmanager
def caught_warnings(sink):
    """Collect warnings raised inside the block into sink."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    sink.extend(str(w.message) for w in caught)
