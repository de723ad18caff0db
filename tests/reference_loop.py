"""The closed loop stepped the plain way: the test oracle for the banked,
drift-aware loop of simulation.run_trajectory.

Every step takes the four staged RK4 slopes A s + B u, calls
control_input on freshly sensed PMFs, and evaluates the progress wherever
it is needed. Patrol steps an index through the cycle. Stabilize hands over
only along the start's own path to the goal, and to the smallest-id cell
holding the state elsewhere, as when each start had a plan of its own. The
simulator must log the same rows, bit for bit, and count the same
crossings.
"""

import numpy as np

from safefield.errors import (
    ConfigError,
    LeftFreeSpace,
    OffPlanCrossing,
    SafetyViolation,
)
from safefield.simulation import (
    SAFETY_TOL,
    Trajectory,
    _barrier_values,
    _barriers,
    control_input,
)


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
    sense = config.sensor.make(config.seed)
    x = np.asarray(env.start if x0 is None else x0, dtype=float).copy()
    traj = Trajectory(plan.mode)
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

    for _ in range(n_steps + 1):
        if plan.mode == "patrol":
            active_id = entries[active].cell_id
        ctrl = controllers.get(active_id)
        if ctrl is None:
            raise ConfigError("no controller for cell %d" % active_id,
                              field="controllers")
        cell = env.cell_by_id(active_id)
        problem = ctrl.problem
        if active_id not in barriers:
            barriers[active_id] = _barriers(ctrl)
        pmfs = [sense(problem.grid, lm - x) for lm in problem.landmarks]
        u = control_input(ctrl, pmfs)
        min_h, facet = _barrier_values(barriers[active_id], x)
        traj.append(t, x, u, active_id, problem.entry.progress(x), min_h)
        if min_h < -SAFETY_TOL:
            raise SafetyViolation("barrier violated", t=t, x=x.copy(),
                                  cell_id=active_id, facet=facet,
                                  trajectory=traj)
        if plan.mode == "stabilize" and plan.goal is not None:
            if np.linalg.norm(x - plan.goal) <= config.goal_tol:
                traj.reached = True
                return traj
        if t >= config.max_time - 1e-12:
            break
        x = staged_step(problem.dynamics, x, u, config.dt)
        t += config.dt
        inside = env.cells_containing(x)
        if not inside:
            raise LeftFreeSpace("left every cell", t=t, x=x.copy(),
                                trajectory=traj)
        if plan.mode == "patrol":
            if problem.entry.progress(x) <= 0.0:
                active = (active + 1) % n_entries
                planned = entries[active].cell_id
                if planned not in {c.id for c in inside}:
                    raise OffPlanCrossing("off the plan", t=t, x=x.copy(),
                                          cell_id=active_id, planned=planned,
                                          trajectory=traj)
                traj.crossings += 1
            continue
        ids = {c.id for c in inside}
        if (problem.entry.exit_face is not None
                and problem.entry.progress(x) <= 0.0
                and ids - {active_id}):
            active_id = handover(ids - {active_id})
            traj.crossings += 1
        elif active_id not in ids:
            depth = float(np.max(cell.body.values(x)))
            if depth > np.linalg.norm(u) * config.dt + 1e-9:
                active_id = handover(ids)
    traj.reached = False if plan.mode == "stabilize" else None
    return traj
