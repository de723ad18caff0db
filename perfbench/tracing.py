"""In-memory spans around the public functions of each safefield layer.

The traced run replaces a handful of module attributes with timing wrappers
and puts the originals back afterwards; no file under ``src/safefield`` is
touched. A span has a name, start and end times, the index of the enclosing
span (-1 for a stage) and, for some layers, counts read at the boundary (LP
sizes, HiGHS iterations, blur kernel taps, trajectory steps).

The patched attributes are the names the callers look up at call time:

- ``synthesis.assemble_robust_lp`` and ``synthesis.synthesize_cell_controller``
  (looked up by ``synthesize_environment``);
- ``synthesis.solve_lp`` and ``verification.solve_lp``, so every LP solve is
  attributed to its caller, and ``lp_core.linprog`` beneath them;
- ``verification.adversarial_pmf``;
- ``simulation.run_trajectory``, ``simulation.control_input``, the sensing
  closures returned by ``simulation.SensorModel.make``, and
  ``simulation.blur_pmf`` inside them.
"""

import contextlib
import csv
import functools
import json
import time

import numpy as np

from safefield import lp_core, measurement, simulation, synthesis, verification

ASSEMBLE = "synthesis.assemble_robust_lp"
CELL = "synthesis.synthesize_cell_controller"
SOLVE = "lp_core.solve_lp"
HIGHS = "lp_core.linprog"
ADVERSARY = "verification.adversarial_pmf"
TRAJECTORY = "simulation.run_trajectory"
SENSE = "simulation.sense"
CONTROL = "simulation.control_input"
BLUR = "measurement.blur_pmf"

STAGES = ("setup", "synth", "verify", "simulate", "field")
CALLERS = ("synthesis", "verification")
TIEBREAK_FALLBACK = "tiebreak pass returned"
ASSEMBLY_DISAGREE = "hand and mechanical LP assemblies disagree"


class Tracer:
    """Span recorder for one process; ``install`` patches, ``remove``
    restores. Not thread-safe: the benchmark runs in a single thread.

    Spans live in parallel lists of floats and ints, which the garbage
    collector does not track, so a long trace does not slow collection."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.attrs = {}
        self._stack = []
        self._patched = []
        self._taps = {}

    def open(self, name, attrs=None):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        if attrs:
            self.attrs[idx] = dict(attrs)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def traced(self, fn, name, note=None, attrs=None):
        """fn wrapped in a span carrying attrs; note(attrs, args, result)
        adds counts read from a successful call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name, attrs)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                note(self.attrs.setdefault(idx, {}), args, out)
            return out

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        self._patch(synthesis, "assemble_robust_lp",
                    self.traced(synthesis.assemble_robust_lp, ASSEMBLE,
                                _note_lp_size))
        self._patch(synthesis, "synthesize_cell_controller",
                    self.traced(synthesis.synthesize_cell_controller, CELL))
        for module in (synthesis, verification):
            caller = module.__name__.rsplit(".", 1)[-1]
            self._patch(module, "solve_lp",
                        self.traced(module.solve_lp, SOLVE,
                                    attrs={"caller": caller}))
        self._patch(lp_core, "linprog",
                    self.traced(lp_core.linprog, HIGHS, _note_iterations))
        self._patch(verification, "adversarial_pmf",
                    self.traced(verification.adversarial_pmf, ADVERSARY))
        self._patch(simulation, "run_trajectory",
                    self.traced(simulation.run_trajectory, TRAJECTORY,
                                _note_trajectory))
        self._patch(simulation, "control_input",
                    self.traced(simulation.control_input, CONTROL))
        self._patch(simulation, "blur_pmf",
                    self.traced(simulation.blur_pmf, BLUR, self._note_taps))
        make = simulation.SensorModel.make
        tracer = self

        def traced_make(model, seed):
            return tracer.traced(make(model, seed), SENSE)

        self._patch(simulation.SensorModel, "make", traced_make)

    def remove(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _note_taps(self, attrs, args, out):
        pmf, _, variance = args
        key = (pmf.spec.n, pmf.spec.width, float(variance))
        if key not in self._taps:
            self._taps[key] = measurement.gaussian_kernel(pmf.spec,
                                                          variance).size
        attrs["taps"] = self._taps[key]

    def write_csv(self, path, context):
        with open(path, "w", newline="") as fh:
            fh.write("# %s\n" % context)
            out = csv.writer(fh)
            out.writerow(["run_id", "span", "parent", "name", "start_s",
                          "end_s", "attrs"])
            t0 = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                out.writerow([self.run_id, i, self.parents[i], name,
                              "%.9f" % (self.starts[i] - t0),
                              "%.9f" % (self.ends[i] - t0),
                              json.dumps(self.attrs.get(i, {}),
                                         sort_keys=True)])


def _note_lp_size(attrs, args, assembled):
    lp = assembled.lp
    attrs["rows"] = int(lp.b_ub.shape[0] + lp.b_eq.shape[0])
    attrs["cols"] = int(lp.n_vars)
    attrs["nnz"] = int(lp.A_ub.nnz + lp.A_eq.nnz)


def _note_iterations(attrs, args, res):
    attrs["nit"] = int(res.nit)


def _note_trajectory(attrs, args, traj):
    attrs["steps"] = len(traj.t)
    attrs["crossings"] = int(traj.crossings)


def calibrate_overhead(calls=20000):
    """Seconds one traced call adds over the bare call (median of 5)."""
    def noop():
        return None

    costs = []
    for _ in range(5):
        tracer = Tracer("calibration")
        wrapped = tracer.traced(noop, "noop")
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return float(np.median(costs))


def _percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer, warnings_seen, verify_totals, span_cost_s):
    """Per-layer metrics from the recorded spans.

    warnings_seen: messages caught during the traced stages.
    verify_totals: (states sampled, skipped) read from report.json.
    """
    names, parent, attrs = tracer.names, tracer.parents, tracer.attrs
    n = len(names)
    dur = np.array(tracer.ends) - np.array(tracer.starts)
    child_time = np.zeros(n)
    for i in range(n):
        if parent[i] >= 0:
            child_time[parent[i]] += dur[i]
    stage = [None] * n
    for i in range(n):
        p = parent[i]
        stage[i] = names[i] if p < 0 or names[i] in STAGES else stage[p]

    def pick(name, stage_name=None):
        return [i for i in range(n) if names[i] == name
                and (stage_name is None or stage[i] == stage_name)]

    def total(idx):
        return float(dur[idx].sum()) if idx else 0.0

    m = {}
    asm = pick(ASSEMBLE)
    m["synthesis.assemble_s"] = total(asm)
    for key in ("rows", "cols", "nnz"):
        m["synthesis.lp_%s" % key] = sum(attrs.get(i, {}).get(key, 0)
                                         for i in asm)
    margin, tiebreak = [], []
    seen_parent = set()
    for i in pick(SOLVE):
        if names[parent[i]] == CELL:
            (tiebreak if parent[i] in seen_parent else margin).append(i)
            seen_parent.add(parent[i])
    m["synthesis.margin_solve_s"] = total(margin)
    m["synthesis.tiebreak_solve_s"] = total(tiebreak)
    m["synthesis.tiebreak_fallbacks"] = sum(
        str(w).startswith(TIEBREAK_FALLBACK) for w in warnings_seen)
    m["synthesis.assembly_disagreements"] = sum(
        str(w).startswith(ASSEMBLY_DISAGREE) for w in warnings_seen)
    synth_wall = total(pick("synth"))
    m["synthesis.other_s"] = (synth_wall - m["synthesis.assemble_s"]
                              - m["synthesis.margin_solve_s"]
                              - m["synthesis.tiebreak_solve_s"])

    solves = pick(SOLVE)
    for caller in CALLERS:
        mine = [i for i in solves if attrs[i]["caller"] == caller]
        mine_set = set(mine)
        highs = [i for i in pick(HIGHS) if parent[i] in mine_set]
        m["lp_core.solve_calls.%s" % caller] = len(mine)
        m["lp_core.solve_s.%s" % caller] = total(mine)
        m["lp_core.highs_s.%s" % caller] = total(highs)
        m["lp_core.plumbing_s.%s" % caller] = total(mine) - total(highs)
        m["lp_core.highs_iterations.%s" % caller] = sum(
            attrs.get(i, {}).get("nit", 0) for i in highs)

    adv = pick(ADVERSARY)
    adv_ms = dur[adv] * 1e3 if adv else np.zeros(0)
    states, skipped = verify_totals
    m["verification.adversary_calls"] = len(adv)
    m["verification.adversary_ms.p50"] = _percentile(adv_ms, 50)
    m["verification.adversary_ms.p99"] = _percentile(adv_ms, 99)
    m["verification.adversary_self_s"] = float(
        (dur[adv] - child_time[adv]).sum()) if adv else 0.0
    m["verification.skipped"] = skipped
    m["verification.states_sampled"] = states
    m["verification.other_s"] = total(pick("verify")) - total(adv)

    trajectories = pick(TRAJECTORY, "simulate")
    sense = pick(SENSE, "simulate")
    control = pick(CONTROL, "simulate")
    m["simulation.steps"] = sum(attrs.get(i, {}).get("steps", 0)
                                for i in trajectories)
    m["simulation.crossings"] = sum(attrs.get(i, {}).get("crossings", 0)
                                    for i in trajectories)
    m["simulation.sense_s"] = total(sense)
    m["simulation.sense_ms.p99"] = _percentile(dur[sense] * 1e3, 99)
    m["simulation.control_s"] = total(control)
    m["simulation.control_ms.p50"] = _percentile(dur[control] * 1e3, 50)
    m["simulation.control_ms.p99"] = _percentile(dur[control] * 1e3, 99)
    m["simulation.other_s"] = (total(pick("simulate")) - total(sense)
                               - total(control))

    blur = pick(BLUR)
    m["measurement.blur_calls"] = len(blur)
    m["measurement.blur_s"] = total(blur)
    m["measurement.blur_taps"] = sum(attrs.get(i, {}).get("taps", 0)
                                     for i in blur)

    m["stage.synth_s"] = synth_wall
    m["stage.verify_s"] = total(pick("verify"))
    m["stage.simulate_s"] = total(pick("simulate"))
    layer_spans = sum(1 for i in range(n) if names[i] not in STAGES)
    traced_wall = total([i for i in range(n) if parent[i] < 0])
    m["trace.spans"] = layer_spans
    overhead = layer_spans * span_cost_s
    m["trace.overhead_pct"] = 100.0 * overhead / max(traced_wall - overhead,
                                                      1e-12)
    return m

