"""The closed loop stepped the plain way: the test oracle for the banked,
drift-aware loop of simulation.run_trajectory.

Every step takes the four staged RK4 slopes A s + B u, calls
control_input on PMFs built afresh by unbanked_sensor (no grid index, no
bank, no SensorModel.pmf), and evaluates the progress wherever it is
needed. Patrol steps an index through the cycle. Stabilize hands over only
along the start's own path to the goal, and to the smallest-id cell
holding the state elsewhere, as when each start had a plan of its own. The
simulator must log the same rows, bit for bit, and count the same
crossings.

The oracle shares no per-step helper with the simulator: its barrier
values, progress, containment test and RK4 step are its own, and each
product in them is a matmul (@), as the plain formula reads.
"""

import numpy as np

from safefield.errors import (
    ConfigError,
    LeftFreeSpace,
    OffPlanCrossing,
    SafetyViolation,
)
from safefield.geometry import ABS_TOL
from safefield.measurement import blur_pmf, make_delta_pmf
from safefield.simulation import SAFETY_TOL, Trajectory, control_input


def unbanked_sensor(model, seed):
    """The sensor as a recipe with no bank and no grid index: a fresh delta
    PMF per reading, blurred by blur_pmf along the same seeded stream of
    directions as model's readings."""
    if model.kind == "delta":
        return make_delta_pmf
    rng = np.random.default_rng(seed)

    def sense(spec, y):
        pmf = make_delta_pmf(spec, y)
        direction = rng.standard_normal(spec.dim)
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            direction, norm = np.array([1.0, 0.0]), 1.0
        return blur_pmf(pmf, model.drift * direction / norm, model.variance)

    return sense


def barrier_rows(ctrl):
    """The controller's barrier facets with their rows of its cell body."""
    facets = ctrl.problem.entry.barriers
    body = ctrl.problem.cell.body
    return facets, body.A[facets], body.b[facets]


def barrier_values(rows, x):
    """The smallest barrier value -(a x + b) over barrier_rows' rows, and
    the first facet that attains it (inf and None without barriers)."""
    facets, A, b = rows
    if not facets:
        return np.inf, None
    values = A @ x + b
    j = int(np.argmax(values))
    return -float(values[j]), facets[j]


def progress(entry, x):
    """The plan entry's progress V(x) = v . (x - o)."""
    return float(entry.v @ (x - entry.o))


def holding(env):
    """A function x -> the set of ids of env's cells that hold x: every
    cell's rows A x + b, stacked in cell order, in one product, and a cell
    holds x when its largest value is at most ABS_TOL. The rows are stacked
    as the environment stacks them, since a row computed alone may round
    otherwise."""
    A = np.vstack([c.body.A for c in env.cells])
    b = np.concatenate([c.body.b for c in env.cells])
    ends = np.cumsum([c.body.n_rows for c in env.cells]).tolist()
    spans = [(c.id, end - c.body.n_rows, end)
             for c, end in zip(env.cells, ends)]

    def ids(x):
        values = A @ x + b
        return {i for i, lo, hi in spans if values[lo:hi].max() <= ABS_TOL}

    return ids


def staged_step(dynamics, x, u, dt):
    """One classical Runge-Kutta (RK4) step under the held input u, every
    stage slope evaluated in full."""
    Bu = dynamics.B @ u

    def f(state):
        return dynamics.A @ state + Bu

    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_trajectory(env, plan, controllers, config, x0=None):
    """run_trajectory's contract, one full sense, control and RK4 pass per
    step."""
    barriers = {}
    holding_x = holding(env)
    sense = unbanked_sensor(config.sensor, config.seed)
    x = np.asarray(env.start if x0 is None else x0, dtype=float).copy()
    traj = Trajectory()
    entries = list(plan.entries.values())
    n_entries = len(entries)
    on_plan = [i for i, e in enumerate(entries)
               if env.cell_by_id(e.cell_id).contains(x)]
    if not on_plan:
        raise ConfigError("start lies in no plan cell", field="starts")
    active = on_plan[0]
    active_id = entries[active].cell_id
    # stabilize hands over the way a plan made for this start alone did: to
    # the successor on the start's own path, and elsewhere to the smallest id
    next_on_path = {}
    if plan.mode == "stabilize":
        cur = active_id
        while plan.entries[cur].next_id is not None:
            cur = next_on_path[cur] = plan.entries[cur].next_id
    t = 0.0
    n_steps = int(round(config.max_time / config.dt))

    def handover(ids):
        nxt = next_on_path.get(active_id)
        return nxt if nxt in ids else min(ids)

    for k in range(n_steps + 1):
        if plan.mode == "patrol":
            active_id = entries[active].cell_id
        ctrl = controllers.get(active_id)
        if ctrl is None:
            raise ConfigError("no controller for cell %d" % active_id,
                              field="controllers")
        cell = env.cell_by_id(active_id)
        problem = ctrl.problem
        if active_id not in barriers:
            barriers[active_id] = barrier_rows(ctrl)
        pmfs = [sense(problem.grid, lm - x) for lm in problem.landmarks]
        u = control_input(ctrl, pmfs)
        min_h, facet = barrier_values(barriers[active_id], x)
        traj.append(t, x.tolist(), u.tolist(), active_id,
                    progress(problem.entry, x), min_h)
        if min_h < -SAFETY_TOL:
            raise SafetyViolation("barrier violated", t=t, x=x.copy(),
                                  cell_id=active_id, facet=facet,
                                  trajectory=traj)
        if plan.mode == "stabilize" and plan.goal is not None:
            if np.linalg.norm(x - plan.goal) <= config.goal_tol:
                traj.reached = True
                return traj
        if k == n_steps:
            break
        x = staged_step(problem.dynamics, x, u, config.dt)
        t += config.dt
        ids = holding_x(x)
        if not ids:
            raise LeftFreeSpace("left every cell", t=t, x=x.copy(),
                                cell_id=active_id, trajectory=traj)
        if plan.mode == "patrol":
            if progress(problem.entry, x) <= 0.0:
                active = (active + 1) % n_entries
                planned = entries[active].cell_id
                if planned not in ids:
                    raise OffPlanCrossing("off the plan", t=t, x=x.copy(),
                                          cell_id=active_id, planned=planned,
                                          trajectory=traj)
                traj.crossings += 1
            continue
        if (problem.entry.exit_face is not None
                and progress(problem.entry, x) <= 0.0
                and ids - {active_id}):
            active_id = handover(ids - {active_id})
            traj.crossings += 1
        elif active_id not in ids:
            depth = float(np.max(cell.body.values(x)))
            if depth > np.linalg.norm(u) * config.dt + 1e-9:
                active_id = handover(ids)
    traj.reached = False if plan.mode == "stabilize" else None
    return traj
