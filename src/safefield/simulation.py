"""Closed-loop simulation: integrate the dynamics under the sensed-PMF
feedback, switch controllers along the plan when the exit face is crossed,
and record the stability/safety values for auditing."""

import math
from operator import sub

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    GridMismatch,
    LandmarkOutOfView,
    LeftFreeSpace,
    OffGridReading,
    OffPlanCrossing,
    SafetyViolation,
)
from .geometry import integral, integers, read as read_entry, real
from .measurement import GridSpec, blur_cell, delta_pmf_at, drift_shift
# not called here: perfbench/tracing.py wraps simulation.blur_pmf by name
from .measurement import blur_pmf  # noqa: F401

SAFETY_TOL = 1e-6


class SensorModel:
    """delta: the exact offset PMF. gaussian: the delta PMF shifted by a
    random-direction drift of fixed magnitude and blurred by a truncated
    isotropic Gaussian, renormalized on the grid."""

    def __init__(self, kind="delta", drift=0.0, variance=0.0):
        kind = str(kind).lower()
        if kind not in ("delta", "gaussian"):
            raise ConfigError("unknown sensor kind %r" % kind, field="sim.sensor.kind")
        self.kind = kind
        self.drift = read_entry({"drift": drift}, "drift", real, None,
                                "sim.sensor.")
        self.variance = read_entry({"variance": variance}, "variance", real,
                                   None, "sim.sensor.")
        if self.kind == "gaussian" and not (self.drift >= 0
                                            and self.variance >= 0):
            raise ConfigError("drift and variance must be non-negative and "
                              "finite", field="sim.sensor")

    def make(self, seed):
        """Seeded reading function (spec, true offset) -> grid index.

        A reading is the grid cell it lands on: the snapped cell for delta
        (GridSpec.snap itself, which reads the offset as Python floats),
        and for gaussian the snapped cell moved by the drift rounded to
        whole cells and clamped to the grid. The gaussian drift direction
        is drawn at every reading. The PMF of a reading is pmf(spec,
        index)."""
        if self.kind == "delta":
            return GridSpec.snap
        rng = np.random.default_rng(seed)

        def read(spec, y):
            cell = spec.snap(y)
            direction = rng.standard_normal(spec.dim)
            # np.linalg.norm of a 1-D real vector, without its dispatch
            norm = math.sqrt(direction.dot(direction))
            if norm < 1e-12:
                direction = np.zeros(spec.dim)
                direction[0] = 1.0
                norm = 1.0
            drift = [self.drift * v / norm for v in direction.tolist()]
            shift = drift_shift(spec, drift, cell, cell)
            return tuple(c + s for c, s in zip(cell, shift))

        return read

    def pmf(self, spec, index):
        """The PMF of a reading at grid index: all mass on that cell for
        delta, and for gaussian that mass blurred."""
        if self.kind == "delta":
            return delta_pmf_at(spec, index)
        return blur_cell(spec, index, self.variance)


class SimConfig:
    def __init__(self, dt=0.01, max_time=600.0, goal_tol=0.05, sensor=None,
                 seed=0):
        self.sensor = sensor if sensor is not None else SensorModel()
        self.seed = read_entry({"seed": seed}, "seed", integral, None, "sim.")
        for key, value in (("dt", dt), ("max_time", max_time),
                           ("goal_tol", goal_tol)):
            value = read_entry({key: value}, key, real, None, "sim.")
            if not value > 0:
                raise ConfigError("%s must be positive and finite" % key,
                                  field="sim." + key)
            setattr(self, key, value)


class Trajectory:
    """Row-per-step record; the final state is appended with the control the
    active cell would apply there. append takes a row as Python numbers (t,
    V and min_h floats, x and u lists of floats, the cell id an int) and
    keeps them as given, neither converted nor copied: rows share the
    banked lists u. arrays() returns each column as a NumPy array."""

    def __init__(self):
        self.t = []
        self.x = []
        self.u = []
        self.cell_id = []
        self.V = []
        self.min_h = []
        self.reached = None
        self.crossings = 0

    def append(self, t, x, u, cell_id, V, min_h):
        self.t.append(t)
        self.x.append(x)
        self.u.append(u)
        self.cell_id.append(cell_id)
        self.V.append(V)
        self.min_h.append(min_h)

    def arrays(self):
        return (np.asarray(self.t), np.asarray(self.x), np.asarray(self.u),
                np.asarray(self.cell_id), np.asarray(self.V),
                np.asarray(self.min_h))

    def to_csv(self, path):
        """One line per recorded step: t, x1..xd, u1..u_{n_u}, cell_id, V,
        min_h."""
        d = len(self.x[0]) if self.x else 0
        n_u = len(self.u[0]) if self.u else 0
        header = ["t"] + _names("x", d) + _names("u", n_u)
        _write_csv(path, header + ["cell_id", "V", "min_h"], (
            (t, *x, *u, cid, V, mh)
            for t, x, u, cid, V, mh in zip(self.t, self.x, self.u,
                                           self.cell_id, self.V, self.min_h)))


def _names(prefix, n):
    return ["%s%d" % (prefix, i + 1) for i in range(n)]


def _write_csv(path, header, rows):
    """The header, then one line per row of Python floats and ints, one
    entry per column, each written as its repr: for a Python float that is
    the shortest string that reads back to it. The lines are formatted as
    the file is written, one row at a time, so the text is never held
    whole."""
    line = ",".join(["%r"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


def control_input(controller, pmfs):
    """u = K_b + sum over landmarks l of M_l P_l, where M_l = sum_i K_li R_i
    are the controller's fixed control matrices; every PMF must lie on the
    controller's own grid."""
    problem = controller.problem
    if len(pmfs) != len(problem.landmarks):
        raise DimensionMismatch(
            "controller expects %d PMFs, got %d"
            % (len(problem.landmarks), len(pmfs))
        )
    for p in pmfs:
        if p.spec != problem.grid:
            raise GridMismatch("PMFs must lie on the controller's grid")
    u = controller.bias.copy()
    for mat, pmf in zip(controller.control_matrices(), pmfs):
        u = u + mat @ pmf.vector
    return u


class _StepPlan:
    """What every closed-loop step under one controller reads, built once:
    its grid, its landmarks as Python floats, its barrier facets with their
    rows of the cell body, plan entry, dynamics and cell body. The input
    held over a step is a function of the readings, so it is banked by them
    together with its slope term B u and the slope that _step takes:
    control_input and the product are computed once per set of readings."""

    def __init__(self, controller, sensor):
        problem = controller.problem
        self.controller = controller
        self.sensor = sensor
        self.grid = problem.grid
        self.landmarks = [lm.tolist() for lm in problem.landmarks]
        self.entry = problem.entry
        self.body = problem.cell.body
        self.facets = facets = self.entry.barriers
        self.A_h, self.b_h = self.body.A[facets], self.body.b[facets]
        self.dynamics = problem.dynamics
        self.held = {}  # readings -> (u, B u, slope)

    def control(self, read, xs):
        """(u, B u, _slope's slope) at the state xs, a list of Python floats:
        one reading per landmark at its offset lm - x (subtracted
        elementwise, as NumPy would), then control_input on their PMFs."""
        grid = self.grid
        readings = tuple([read(grid, list(map(sub, lm, xs)))
                          for lm in self.landmarks])
        held = self.held.get(readings)
        if held is None:
            u = control_input(self.controller,
                              [self.sensor.pmf(grid, i) for i in readings])
            Bu = self.dynamics.B @ u
            held = self.held[readings] = (u.tolist(), Bu,
                                          _slope(self.dynamics, Bu))
        return held


def _slope(dynamics, Bu):
    """Bu = B u as Python floats when _step may take it as its one slope,
    else None. Without drift every stage slope A s + B u is B u, except at
    a zero entry of B u, where the staged slope takes its sign from A s."""
    if dynamics.drift_free:
        slope = Bu.tolist()
        if all(slope):
            return slope
    return None


def _step(dynamics, x, xs, Bu, slope, dt):
    """One classical Runge-Kutta (RK4) step under a held input u, given by
    Bu = B u and slope = _slope(dynamics, Bu), from the state as an array x
    and as Python floats xs; returns the next state both ways. A slope goes
    through RK4's own operations on the floats (cheaper than NumPy calls
    for a few entries, and rounded the same): the staged step bit for
    bit. Without one the step is staged."""
    if slope is not None:
        h = dt / 6.0
        xs = [xi + h * (k + 2.0 * k + 2.0 * k + k) for xi, k in zip(xs, slope)]
        return np.array(xs), xs

    def f(state):
        return dynamics.A @ state + Bu

    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x, x.tolist()


def start_cell(env, plan, x):
    """The cell a run from x begins in: the first of plan's cells, in plan
    order, that contains x. A stabilize plan holds every cell in id order,
    so there it is the smallest-id cell that holds x. A start in none of
    them is a ConfigError with field starts."""
    for cid in plan.entries:
        if env.cell_by_id(cid).contains(x):
            return cid
    where = (" of the patrol cycle %s" % list(plan.entries)
             if plan.mode == "patrol" else "")
    raise ConfigError("start %s lies in no cell%s"
                      % (np.asarray(x, dtype=float).tolist(), where),
                      field="starts")


def run_trajectory(env, plan, controllers, config, x0=None, steps=None):
    """Integrate under the plan with controllers, a dict keyed by cell id;
    u is recomputed every step from fresh readings (zero-order hold within
    a step). Each step reads exactly the controller's landmarks on its own
    grid, so the checks of control_input cannot fail here.

    What a controller's steps share is built at its first step, as a step
    plan (_StepPlan): its grid, landmarks, barrier rows, entry and dynamics.
    The plan banks the held input u, as control_input returns it, with its
    slope term B u and its RK4 slope by the readings. steps, a dict cell id
    -> _StepPlan, carries the plans and their banks from run to run:
    cli.cmd_simulate passes one to every start of a command. A banked input
    is a function of the controller, the sensor model and the readings
    alone, so sharing it changes no output; runs that share steps must
    share controllers and config.sensor, and a plan built for another
    controller or sensor is a ValueError. Without steps a run builds its
    own.

    A step computes what fixes its row and the next state, and no more: the
    readings (or the bank's entry for readings seen before), the barrier
    rows, the progress where it is not yet known, one RK4 step and the
    containment rows. It keeps the state both as an array and as Python
    floats. Arithmetic that IEEE rounds the same either way takes the
    floats: the landmark offsets, the barrier minimum, the drift-free RK4
    update and the record. Every product and norm that BLAS computes stays
    a NumPy call, since BLAS may round it otherwise (fused multiply-adds):
    the barrier rows a x + b, the progress v . (x - o), the containment
    rows, B u and the goal and depth norms. The per-step products call
    ndarray.dot, which reaches the same BLAS routine as @ without the
    matmul dispatch. The progress that the crossing test takes after a step
    is the next row's V while the controller stays. A run takes at most
    round(max_time / dt) steps, each adding dt to t, and records one row
    more.

    The run begins in start_cell and follows the plan's exit map: crossing
    the active exit face hands over to the entry's next_id. In patrol mode
    a crossing that does not land in that cell is an OffPlanCrossing.
    Stabilize mode always drives with the controller of a cell that holds
    the state: a crossing that lands elsewhere, or a drift out through a
    shared non-exit face (legal, since shared faces carry no barrier),
    hands over to next_id if it holds the state and otherwise to the
    smallest-id cell that does, whose controller funnels it back toward
    the goal. The active controller is kept for up to |u| dt past such a
    face; a reading it takes there beyond its grid is an OffGridReading.
    """
    if steps is None:
        steps = {}  # cell id -> _StepPlan
    for cid, step in steps.items():
        if (step.controller is not controllers.get(cid)
                or step.sensor is not config.sensor):
            raise ValueError("the step plan of cell %d serves another "
                             "controller or sensor" % cid)
    read = config.sensor.make(config.seed)
    x = np.asarray(env.start if x0 is None else x0, dtype=float).copy()
    xs = x.tolist()
    traj = Trajectory()
    active_id = start_cell(env, plan, x)
    t = 0.0
    dt = config.dt
    n_steps = int(round(config.max_time / dt))
    patrol = plan.mode == "patrol"
    goal = plan.goal if plan.mode == "stabilize" else None
    V = None  # the active entry's progress at x, once known

    def handover(ids):
        nxt = plan.entries[active_id].next_id
        return nxt if nxt in ids else min(ids)

    for k in range(n_steps + 1):
        step = steps.get(active_id)
        if step is None:
            ctrl = controllers.get(active_id)
            if ctrl is None:
                raise ConfigError("no controller for cell %d" % active_id,
                                  field="controllers")
            step = steps[active_id] = _StepPlan(ctrl, config.sensor)
        try:
            u, Bu, slope = step.control(read, xs)
        except LandmarkOutOfView as exc:
            raise OffGridReading(
                "cell %d read a landmark off its grid at x=%s, t=%.3f: %s"
                % (active_id, xs, t, exc),
                t=t, x=x.copy(), cell_id=active_id, trajectory=traj,
            ) from exc
        entry = step.entry
        # the smallest barrier value -(a x + b), inf without barriers
        h = (step.A_h.dot(x) + step.b_h).tolist()
        worst = max(h, default=-math.inf)
        min_h = -worst
        if V is None:
            V = entry.progress(x)
        traj.append(t, xs, u, active_id, V, min_h)
        if min_h < -SAFETY_TOL:
            facet = step.facets[h.index(worst)]
            raise SafetyViolation(
                "barrier %s of cell %d reached %.3g at t=%.3f"
                % (facet, active_id, min_h, t),
                t=t, x=x.copy(), cell_id=active_id, facet=facet,
                trajectory=traj,
            )
        if goal is not None:
            gap = x - goal
            if math.sqrt(gap.dot(gap)) <= config.goal_tol:
                traj.reached = True
                return traj
        if k == n_steps:
            break
        x, xs = _step(step.dynamics, x, xs, Bu, slope, dt)
        t += dt
        ids = env.cell_ids_containing(x)
        if not ids:
            raise LeftFreeSpace(
                "state %s left every cell at t=%.3f" % (xs, t),
                t=t, x=x.copy(), cell_id=active_id, trajectory=traj,
            )
        if patrol:
            V = entry.progress(x)
            if V <= 0.0:
                planned = plan.entries[active_id].next_id
                if planned not in ids:
                    raise OffPlanCrossing(
                        "left cell %d for %s, not planned cell %d at t=%.3f"
                        % (active_id, sorted(set(ids) - {active_id}),
                           planned, t),
                        t=t, x=x.copy(), cell_id=active_id, planned=planned,
                        trajectory=traj,
                    )
                active_id, V = planned, None
                traj.crossings += 1
            continue
        others = [i for i in ids if i != active_id]
        V = entry.progress(x) if entry.exit_face is not None else None
        if V is not None and V <= 0.0 and others:
            active_id, V = handover(others), None
            traj.crossings += 1
        elif active_id not in ids:
            # one integration step can overshoot a barrier-free shared
            # face by at most |u| dt; only a deeper excursion counts as
            # having left the cell
            depth = float(np.max(step.body.values(x)))
            if depth > np.linalg.norm(u) * dt + 1e-9:
                active_id, V = handover(ids), None
    traj.reached = False if plan.mode == "stabilize" else None
    return traj


def sample_vector_field(controller, resolution, sensor=None, seed=0):
    """Control inputs on a lattice over the controller's cell; rows (x, u),
    u from the same step plan as run_trajectory's."""
    problem = controller.problem
    cell = problem.cell
    shape = (cell.body.dim,)
    res = read_entry({"resolution": resolution}, "resolution", lambda v:
                     integers(np.broadcast_to(np.array(v, object), shape)),
                     None, "field.")
    if min(res) < 2:
        raise ConfigError("resolution must be at least 2 per axis",
                          field="field.resolution")
    sensor = sensor or SensorModel()
    read, step = sensor.make(seed), _StepPlan(controller, sensor)
    verts = cell.vertices
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    axes = [np.linspace(lo[a], hi[a], res[a]) for a in range(len(res))]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    rows = []
    for x in points:
        if not cell.contains(x):
            continue
        xs = x.tolist()
        rows.append(xs + step.control(read, xs)[0])
    if not rows:
        return np.zeros((0, 2 * cell.body.dim))
    return np.asarray(rows)


def save_field_csv(arr, d, path):
    """Vector-field CSV: x1..xd then u1..u_{n_u}."""
    arr = np.asarray(arr, dtype=float)
    n_u = arr.shape[1] - d if arr.size else d
    _write_csv(path, _names("x", d) + _names("u", n_u), arr.tolist())
