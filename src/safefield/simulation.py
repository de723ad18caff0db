"""Closed-loop simulation: integrate the dynamics under the sensed-PMF
feedback, switch controllers along the plan when the exit face is crossed,
and record the stability/safety values for auditing."""

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    GridMismatch,
    LeftFreeSpace,
    OffPlanCrossing,
    SafetyViolation,
)
from .measurement import blur_cell, delta_pmf_at, drift_shift
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
        self.drift = float(drift)
        self.variance = float(variance)
        if self.kind == "gaussian" and (self.drift < 0 or self.variance < 0):
            raise ConfigError("drift and variance must be non-negative",
                              field="sim.sensor")

    def make(self, seed):
        """Seeded sensing closure (spec, true offset) -> PmfGrid.

        A reading is one of n_points PMFs per grid, fixed by the cell it
        lands on: the snapped cell for delta, and for gaussian the snapped
        cell moved by the drift rounded to whole cells and clamped to the
        grid, blurred. Each closure banks the PMFs it has built, keyed by
        grid and cell, and hands the same read-only PmfGrid back when the
        cell recurs. The gaussian drift direction is drawn at every reading,
        so the random stream does not depend on the bank."""
        bank = {}

        def banked(spec, cell, build):
            key = (spec.n, spec.width, cell)
            pmf = bank.get(key)
            if pmf is None:
                pmf = bank[key] = build(spec, cell)
            return pmf

        if self.kind == "delta":
            return lambda spec, y: banked(spec, spec.snap(y), delta_pmf_at)
        rng = np.random.default_rng(seed)

        def blurred(spec, cell):
            return blur_cell(spec, cell, self.variance)

        def sense(spec, y):
            cell = spec.snap(y)
            direction = rng.standard_normal(spec.dim)
            norm = np.linalg.norm(direction)
            if norm < 1e-12:
                direction = np.zeros(spec.dim)
                direction[0] = 1.0
                norm = 1.0
            drift = [self.drift * v / norm for v in direction.tolist()]
            shift = drift_shift(spec, drift, cell, cell)
            return banked(spec, tuple(c + s for c, s in zip(cell, shift)),
                          blurred)

        return sense


class SimConfig:
    def __init__(self, dt=0.01, max_time=600.0, goal_tol=0.05, sensor=None,
                 seed=0):
        self.dt = float(dt)
        self.max_time = float(max_time)
        self.goal_tol = float(goal_tol)
        self.sensor = sensor if sensor is not None else SensorModel()
        self.seed = int(seed)
        if self.dt <= 0:
            raise ConfigError("dt must be positive", field="sim.dt")
        if self.max_time <= 0:
            raise ConfigError("max_time must be positive", field="sim.max_time")
        if self.goal_tol <= 0:
            raise ConfigError("goal_tol must be positive", field="sim.goal_tol")


class Trajectory:
    """Row-per-step record; the final state is appended with the control the
    active cell would apply there."""

    def __init__(self, mode):
        self.mode = mode
        self.t = []
        self.x = []
        self.u = []
        self.cell_id = []
        self.V = []
        self.min_h = []
        self.reached = None
        self.crossings = 0

    def append(self, t, x, u, cell_id, V, min_h):
        self.t.append(float(t))
        self.x.append(np.asarray(x, dtype=float).copy())
        self.u.append(np.asarray(u, dtype=float).copy())
        self.cell_id.append(int(cell_id))
        self.V.append(float(V))
        self.min_h.append(float(min_h))

    def arrays(self):
        return (np.asarray(self.t), np.asarray(self.x), np.asarray(self.u),
                np.asarray(self.cell_id), np.asarray(self.V),
                np.asarray(self.min_h))

    def to_csv(self, path):
        """One line per recorded step, written as it is formatted; repr of
        a Python float is the shortest string that reads back to it."""
        d = len(self.x[0]) if self.x else 0
        n_u = len(self.u[0]) if self.u else 0
        header = (
            ["t"]
            + ["x%d" % (i + 1) for i in range(d)]
            + ["u%d" % (i + 1) for i in range(n_u)]
            + ["cell_id", "V", "min_h"]
        )
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for t, x, u, cid, V, mh in zip(self.t, self.x, self.u,
                                           self.cell_id, self.V, self.min_h):
                cols = [t] + x.tolist() + u.tolist() + [cid, V, mh]
                fh.write(",".join(map(repr, cols)) + "\n")


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
    return _control_law(controller.bias, [
        mat @ pmf.vector
        for mat, pmf in zip(controller.control_matrices(), pmfs)])


def _control_law(bias, terms):
    """u = K_b + sum_l M_l P_l from the terms M_l P_l, added in landmark
    order."""
    u = bias.copy()
    for term in terms:
        u = u + term
    return u


def _banked_terms(controller):
    """The terms M_l P_l of one controller's readings, banked by the PMF they
    come from. A sensing closure hands back the same read-only PmfGrid
    whenever a grid cell recurs, so each term is computed once per cell a
    landmark is read on."""
    banks = [({}, mat) for mat in controller.control_matrices()]

    def terms(pmfs):
        out = []
        for (bank, mat), pmf in zip(banks, pmfs):
            term = bank.get(pmf)
            if term is None:
                term = bank[pmf] = mat @ pmf.vector
            out.append(term)
        return out

    return terms


def _barriers(controller):
    """The controller's barrier facets with their rows of its cell body."""
    facets = controller.problem.entry.barriers
    body = controller.problem.cell.body
    return facets, body.A[facets], body.b[facets]


def _barrier_values(barriers, x):
    facets, A, b = barriers
    if not facets:
        return np.inf, None
    vals = -(A @ x + b)
    j = int(vals.argmin())
    return float(vals[j]), facets[j]


def _step(dynamics, x, u, dt):
    """One classical Runge-Kutta (RK4) step under the held input u.

    Without drift every stage slope A s + B u is B u, so the step takes
    that one slope through RK4's own operations, on Python floats (cheaper
    than NumPy calls for a few entries, and rounded the same): the staged
    step bit for bit. A zero entry of B u is the exception, since the
    staged slope takes its sign from A s there; such a step is staged."""
    Bu = dynamics.B @ u
    if dynamics.drift_free:
        slope = Bu.tolist()
        if all(slope):
            h = dt / 6.0
            return np.array([xi + h * (k + 2.0 * k + 2.0 * k + k)
                             for xi, k in zip(x.tolist(), slope)])

    def f(state):
        return dynamics.A @ state + Bu

    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def start_cell(env, mode, cell_ids, x):
    """The cell a run from x begins in: the first of the plan's cells
    cell_ids, in plan order, that contains x. Stabilize mode plans every
    cell in id order, so there it is the smallest-id cell that holds x. A
    start in none of them is a ConfigError with field starts."""
    for cid in cell_ids:
        if env.cell_by_id(cid).contains(x):
            return cid
    where = (" of the patrol cycle %s" % list(cell_ids)
             if mode == "patrol" else "")
    raise ConfigError("start %s lies in no cell%s"
                      % (np.asarray(x, dtype=float).tolist(), where),
                      field="starts")


def run_trajectory(env, plan, controllers, config, x0=None):
    """Integrate under the plan with controllers, a dict keyed by cell id;
    u is recomputed every step from freshly sensed PMFs (zero-order hold
    within a step). What a controller's steps share is built at its first
    step: its barrier rows and its bank of control terms. Every step adds
    banked terms (_control_law): each step senses exactly the controller's
    landmarks on its own grid, so the checks of control_input cannot fail
    here.

    The run begins in start_cell and follows the plan's exit map: crossing
    the active exit face hands over to the entry's next_id. In patrol mode
    a crossing that does not land in that cell is an OffPlanCrossing.
    Stabilize mode always drives with the controller of a cell that holds
    the state: a crossing that lands elsewhere, or a drift out through a
    shared non-exit face (legal, since shared faces carry no barrier),
    hands over to next_id if it holds the state and otherwise to the
    smallest-id cell that does, whose controller funnels it back toward
    the goal.
    """
    loops = {}  # cell id -> (barrier rows, banked control terms)
    sense = config.sensor.make(config.seed)
    x = np.asarray(env.start if x0 is None else x0, dtype=float).copy()
    traj = Trajectory(plan.mode)
    active_id = start_cell(env, plan.mode, plan.entries, x)
    t = 0.0
    n_steps = int(round(config.max_time / config.dt))

    def handover(ids):
        nxt = plan.entries[active_id].next_id
        return nxt if nxt in ids else min(ids)

    for _ in range(n_steps + 1):
        ctrl = controllers.get(active_id)
        if ctrl is None:
            raise ConfigError("no controller for cell %d" % active_id,
                              field="controllers")
        problem = ctrl.problem
        pmfs = [sense(problem.grid, lm - x) for lm in problem.landmarks]
        loop = loops.get(active_id)
        if loop is None:
            loop = loops[active_id] = (_barriers(ctrl), _banked_terms(ctrl))
        barriers, terms = loop
        u = _control_law(ctrl.bias, terms(pmfs))
        min_h, facet = _barrier_values(barriers, x)
        traj.append(t, x, u, active_id, problem.entry.progress(x), min_h)
        if min_h < -SAFETY_TOL:
            raise SafetyViolation(
                "barrier %s of cell %d reached %.3g at t=%.3f"
                % (facet, active_id, min_h, t),
                t=t, x=x.copy(), cell_id=active_id, facet=facet,
                trajectory=traj,
            )
        if plan.mode == "stabilize" and plan.goal is not None:
            if np.linalg.norm(x - plan.goal) <= config.goal_tol:
                traj.reached = True
                return traj
        if t >= config.max_time - 1e-12:
            break
        x = _step(problem.dynamics, x, u, config.dt)
        t += config.dt
        inside = env.cells_containing(x)
        if not inside:
            raise LeftFreeSpace(
                "state %s left every cell at t=%.3f" % (x.tolist(), t),
                t=t, x=x.copy(), trajectory=traj,
            )
        if plan.mode == "patrol":
            if problem.entry.progress(x) <= 0.0:
                planned = plan.entries[active_id].next_id
                ids = {c.id for c in inside}
                if planned not in ids:
                    raise OffPlanCrossing(
                        "left cell %d for %s, not planned cell %d at t=%.3f"
                        % (active_id, sorted(ids - {active_id}), planned, t),
                        t=t, x=x.copy(), cell_id=active_id, planned=planned,
                        trajectory=traj,
                    )
                active_id = planned
                traj.crossings += 1
            continue
        ids = {c.id for c in inside}
        if (problem.entry.exit_face is not None
                and problem.entry.progress(x) <= 0.0 and ids - {active_id}):
            active_id = handover(ids - {active_id})
            traj.crossings += 1
        elif active_id not in ids:
            # one integration step can overshoot a barrier-free shared
            # face by at most |u| dt; only a deeper excursion counts as
            # having left the cell
            depth = float(np.max(problem.cell.body.values(x)))
            if depth > np.linalg.norm(u) * config.dt + 1e-9:
                active_id = handover(ids)
    traj.reached = False if plan.mode == "stabilize" else None
    return traj


def sample_vector_field(controller, resolution, sensor=None, seed=0):
    """Control inputs on a lattice over the controller's cell; rows (x, u)."""
    problem = controller.problem
    cell = problem.cell
    res = np.broadcast_to(np.asarray(resolution, dtype=int),
                          (cell.body.dim,)).copy()
    if np.any(res < 2):
        raise ConfigError("resolution must be at least 2 per axis",
                          field="field.resolution")
    sense = (sensor or SensorModel()).make(seed)
    verts = cell.vertices
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    axes = [np.linspace(lo[a], hi[a], res[a]) for a in range(len(res))]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    rows = []
    for x in points:
        if not cell.contains(x):
            continue
        pmfs = [sense(problem.grid, lm - x) for lm in problem.landmarks]
        rows.append(np.concatenate([x, control_input(controller, pmfs)]))
    if not rows:
        return np.zeros((0, 2 * cell.body.dim))
    return np.asarray(rows)


def save_field_csv(arr, d, path):
    """Vector-field CSV: x1..xd then u1..u_{n_u}."""
    arr = np.asarray(arr, dtype=float)
    n_u = arr.shape[1] - d if arr.size else d
    header = ["x%d" % (i + 1) for i in range(d)]
    header += ["u%d" % (i + 1) for i in range(n_u)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
