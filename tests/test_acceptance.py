"""End-to-end acceptance checks. The case-study tests exercise the packaged
eight-cell environment at the published operating point; the property tests
pin the robustness claims (margin soundness, duality, conservatism
monotonicity, measurement exactness) on randomized instances."""

import json

import numpy as np
import pytest

from safefield import planning, simulation
from safefield.errors import OffPlanCrossing
from safefield.lp_core import solve_lp
from safefield.measurement import (GridSpec, PmfGrid, UncertaintyBounds,
                                   blur_pmf, build_expectation_kernel,
                                   gaussian_kernel, make_delta_pmf)
from safefield.geometry import ConvexCell
from safefield.planning import PlanEntry
from safefield.simulation import SensorModel, SimConfig, control_input
from safefield.controller import CellProblem
from safefield.synthesis import (assemble_robust_lp,
                                 synthesize_cell_controller,
                                 synthesize_environment)
from safefield.verification import adversarial_pmf, verify_controller

from dual_form import machine_lp
from helpers import (PACKAGED_GAINS, packaged_gains, random_cell,
                     small_setup, transit_entry_for)

pytestmark = pytest.mark.filterwarnings("ignore:bounds")

GOAL_TOL = 0.05
STARTS = [[10.0, 50.0], [30.0, 50.0], [50.0, 50.0]]


def case_config(sensor, seed=3):
    return SimConfig(dt=0.01, max_time=60.0, goal_tol=GOAL_TOL,
                     sensor=sensor, seed=seed)


@pytest.fixture(scope="module")
def delta_runs(case_setup):
    """Delta-sensor case-study trajectories, one per start point."""
    env, plan = case_setup["env"], case_setup["plan"]
    cfg = case_config(SensorModel())
    ctrls = case_setup["controllers"]
    return [simulation.run_trajectory(env, plan, ctrls, cfg, x0=s)
            for s in STARTS]


def test_case_study_reaches_goal_from_all_starts(case_setup, delta_runs):
    assert all(c.status == "Optimal"
               for c in case_setup["controllers"].values())
    env, plan = case_setup["env"], case_setup["plan"]
    gauss = SensorModel("gaussian", drift=3.0, variance=12.0)
    runs = list(delta_runs)
    for s in STARTS:
        runs.append(simulation.run_trajectory(
            env, plan, case_setup["controllers"], case_config(gauss), x0=s))
    for traj in runs:
        assert traj.reached
        assert np.linalg.norm(traj.x[-1] - env.goal) <= GOAL_TOL
        assert min(traj.min_h) >= -1e-6


def test_packaged_gains_are_the_pinned_ones():
    # K, K_b and delta of every cell of the case study at eps 4 and 12 and
    # of the patrol, within 1e-8 of each array's largest entry; rewriting
    # the file (packaged_gains(PACKAGED_GAINS)) changes what is pinned
    with open(PACKAGED_GAINS) as fh:
        pinned = json.load(fh)
    mine = packaged_gains()
    assert mine.keys() == pinned.keys()
    for run, cells in pinned.items():
        assert mine[run].keys() == cells.keys(), run
        for cell_id, gains in cells.items():
            for key, want in gains.items():
                got, want = np.asarray(mine[run][cell_id][key]), np.asarray(want)
                scale = float(np.max(np.abs(want), initial=0.0))
                assert got.shape == want.shape, (run, cell_id, key)
                assert np.allclose(got, want, rtol=1e-8, atol=1e-8 * scale), (
                    run, cell_id, key)


def test_random_cells_hold_margins_against_adversary():
    spec = GridSpec((10, 10), (10.0, 10.0))
    bounds = UncertaintyBounds(0.125, 0.5)
    rng = np.random.default_rng(23)
    _, _, basis, dyn = small_setup()
    for k in range(20):
        cell, lm = random_cell(rng, cell_id=k)
        entry = transit_entry_for(cell, 0)
        asm = assemble_robust_lp(CellProblem(
            cell, entry, [lm], dyn, 1.0, 100.0, bounds, spec, basis))
        ctrl = synthesize_cell_controller(asm)
        report = verify_controller(ctrl, count=200, seed=k)
        assert report.passed
        worst = report.worst()
        assert worst is None or worst["worst_slack"] <= 1e-6


def test_inner_duality_and_assembly_routes_agree():
    # direct adversary: primal vs dual objective on random instances
    spec = GridSpec((30, 30), (40.0, 40.0))
    bounds = UncertaintyBounds(4.0, 16.0)
    rng = np.random.default_rng(7)
    n_p = spec.n[0] * spec.n[1]
    for _ in range(100):
        c_p = rng.normal(size=n_p)
        x = rng.uniform(-10.0, 10.0, size=2)
        lm = x + rng.uniform(-6.0, 6.0, size=2)
        res = adversarial_pmf(c_p, x, spec, bounds, lm)
        assert res.duality_gap <= 1e-6
    # hand-assembled vs machine-dualized synthesis LP on small cells
    small = GridSpec((10, 10), (10.0, 10.0))
    small_bounds = UncertaintyBounds(0.125, 0.5)
    _, _, basis, dyn = small_setup()
    rng = np.random.default_rng(29)
    for k in range(20):
        cell, lm = random_cell(rng, cell_id=k)
        entry = transit_entry_for(cell, 0)
        asm = assemble_robust_lp(CellProblem(
            cell, entry, [lm], dyn, 1.0, 100.0, small_bounds, small, basis))
        objs = []
        for lp in (asm.lp, machine_lp(asm)):
            sol = solve_lp(lp)
            assert sol.status == "Optimal"
            objs.append(sol.objective)
        assert abs(objs[0] - objs[1]) <= 1e-6


def test_tighter_bounds_never_lower_the_optimum():
    # axis-aligned cells spanning cap-saturated and bound-limited sizes
    spec = GridSpec((30, 30), (40.0, 40.0))
    _, _, basis, dyn = small_setup()
    rng = np.random.default_rng(41)
    strict = 0
    for k in range(10):
        w = rng.uniform(6.0, 24.0)
        h = rng.uniform(5.0, 20.0)
        verts = np.array([[-w / 2, -h / 2], [w / 2, -h / 2],
                          [w / 2, h / 2], [-w / 2, h / 2]])
        cell = ConvexCell(k, verts, [0])
        entry = transit_entry_for(cell, 0)
        lm = rng.uniform(-0.25, 0.25, size=2) * np.array([w, h])
        vals = []
        for eps, sig in ((2.0, 9.0), (8.0, 128.0)):
            asm = assemble_robust_lp(CellProblem(
                cell, entry, [lm], dyn, 1.0, 100.0,
                UncertaintyBounds(eps, sig), spec, basis))
            sol = solve_lp(asm.lp)
            assert sol.status == "Optimal"
            vals.append(sol.objective)
        assert vals[0] >= vals[1] - 1e-8
        if vals[0] > vals[1] + 1e-6:
            strict += 1
    assert strict > 0  # the comparison is not an artifact of saturated caps


def test_goal_cell_pins_the_goal(case_setup):
    env = case_setup["env"]
    goal = np.asarray(env.goal, dtype=float)
    ctrl = case_setup["controllers"][planning.goal_cell_id(env)]
    grid, landmarks = ctrl.problem.grid, ctrl.problem.landmarks
    pmfs = [make_delta_pmf(grid, lm - goal) for lm in landmarks]
    assert np.max(np.abs(control_input(ctrl, pmfs))) <= 1e-8
    dyn = case_setup["dynamics"]
    dt, x = 0.01, goal.copy()
    for _ in range(int(round(10.0 / dt))):
        u = control_input(ctrl, [make_delta_pmf(grid, lm - x)
                                 for lm in landmarks])
        x = x + dt * (dyn.A @ x + dyn.B @ u)
        assert np.linalg.norm(x - goal) <= GOAL_TOL


def _snapped_shift(spec, drift, occupied):
    """Drift in whole cells, clamped so the occupied index box stays on-grid."""
    shift = np.floor(np.asarray(drift) / np.asarray(spec.pitch) + 0.5)
    lo = [min(idx[q] for idx in occupied) for q in range(2)]
    hi = [max(idx[q] for idx in occupied) for q in range(2)]
    return [int(np.clip(shift[q], -lo[q], spec.n[q] - 1 - hi[q]))
            for q in range(2)]


def _direct_blur(mass, kernel, shift):
    """Output entry (i, j) gathers mass[(i, j) - shift - tap] * kernel[tap]
    over every tap, one product at a time, then the grid is renormalized."""
    n1, n2 = mass.shape
    m1, m2 = kernel.shape
    h1, h2 = (m1 - 1) // 2, (m2 - 1) // 2
    w, k = mass.tolist(), kernel.tolist()
    out = np.zeros(mass.shape)
    for i in range(n1):
        for j in range(n2):
            acc = 0.0
            for a in range(m1):
                si = i - shift[0] - a + h1
                if 0 <= si < n1:
                    for b in range(m2):
                        sj = j - shift[1] - b + h2
                        if 0 <= sj < n2:
                            acc += w[si][sj] * k[a][b]
            out[i, j] = acc
    return out / out.sum()


def test_measurement_primitives_are_exact():
    spec = GridSpec((30, 30), (40.0, 40.0))
    U = build_expectation_kernel(spec)
    pts = spec.points()
    n_p = pts.shape[0]
    rng = np.random.default_rng(31)
    for _ in range(500):
        P = rng.random(n_p)
        P /= P.sum()
        y = rng.uniform(-20.0, 20.0, size=2)
        # the deviation rows of the bound set: the MAD of P around y
        fast = (UncertaintyBounds.rows(U.T, y).T @ P)[4:]
        for q in range(2):
            slow = 0.0
            for j in range(n_p):
                slow += abs(U[q, j] - y[q]) * P[j]
            assert abs(fast[q] - slow) <= 1e-10
    for _ in range(20):
        # dense mass on a random index box, so the shift clamp also binds
        lo = rng.integers(0, 10, size=2)
        hi = rng.integers(20, 30, size=2)
        mass = np.zeros(spec.n)
        mass[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1] = rng.random(hi - lo + 1)
        pmf = PmfGrid(spec, mass / mass.sum())
        drift = rng.uniform(-12.0, 12.0, size=2)
        variance = rng.uniform(0, 4)
        out = blur_pmf(pmf, drift, variance)
        assert abs(out.mass.sum() - 1.0) <= 1e-12
        shift = _snapped_shift(spec, drift, [lo, hi])
        direct = _direct_blur(pmf.mass, gaussian_kernel(spec, variance), shift)
        assert np.max(np.abs(out.mass - direct)) <= 1e-15
    clipped = 0
    for _ in range(300):
        # deltas anywhere on the grid, a third of them in a corner box
        y = rng.uniform(-20.0, 20.0, size=2)
        if rng.random() < 1.0 / 3.0:
            y = np.sign(y) * rng.uniform(15.0, 20.0, size=2)
        drift = rng.uniform(-6.0, 6.0, size=2)
        variance = rng.uniform(0.5, 12.0)
        pmf = make_delta_pmf(spec, y)
        out = blur_pmf(pmf, drift, variance)
        kernel = gaussian_kernel(spec, variance)
        idx = spec.snap(y)
        shift = _snapped_shift(spec, drift, [idx])
        half = [(m - 1) // 2 for m in kernel.shape]
        paste = np.zeros(spec.n)
        placed = 0
        for a in range(kernel.shape[0]):
            for b in range(kernel.shape[1]):
                i = idx[0] + shift[0] + a - half[0]
                j = idx[1] + shift[1] + b - half[1]
                if 0 <= i < spec.n[0] and 0 <= j < spec.n[1]:
                    paste[i, j] = kernel[a, b]
                    placed += 1
        clipped += placed < kernel.size
        assert np.array_equal(out.mass, paste / paste.sum())
    assert 50 <= clipped <= 250
    for j in range(n_p):
        idx = np.unravel_index(j, spec.n)
        assert spec.snap(pts[j]) == idx
        assert np.array_equal(U[:, j], pts[j])
        delta = make_delta_pmf(spec, pts[j])
        assert delta.mass[idx] == 1.0 and delta.mass.sum() == 1.0


def test_progress_decreases_along_delta_runs(case_setup, delta_runs):
    alpha_v, dt = case_setup["alpha_v"], 0.01
    for traj in delta_runs:
        t, x, u, cid, V, mh = traj.arrays()
        same = cid[1:] == cid[:-1]
        bound = V[:-1] * (1.0 - alpha_v * dt) + 1e-4
        assert np.all(V[1:][same] <= bound[same])


def test_patrol_cycle_crosses_and_stays_safe(patrol_env, case_setup):
    env = patrol_env
    graph = planning.build_graph(env)
    plan = planning.make_plan(env, graph, mode="patrol")
    ctrls = synthesize_environment(
        env, plan.entries,
        case_setup["dynamics"], case_setup["spec"], case_setup["bounds"],
        case_setup["basis"], alpha_v=1.0, alpha_h=100.0)
    cfg = SimConfig(dt=0.01, max_time=10.0, sensor=SensorModel(), seed=0)
    traj = simulation.run_trajectory(env, plan, ctrls, cfg)
    assert traj.crossings >= 5
    assert min(traj.min_h) >= -1e-6


def test_patrol_crossing_off_the_plan_fails(case_setup):
    # annulus8's cell 0 exits through x = 20, which it shares with cell 1
    # below y = 10 and with cell 2 above; on the second lap cell 0's
    # controller crosses into cell 2 while the cycle plans cell 1.
    # make_plan refuses this cycle, so the plan is built entry by entry.
    env = case_setup["env"]
    graph = case_setup["graph"]
    cycle = [0, 1, 3, 4, 5, 6, 7]
    plan = planning.HighLevelPlan("patrol", {
        cid: planning._transit_entry(env, graph, cid, nxt)
        for cid, nxt in zip(cycle, cycle[1:] + cycle[:1])})
    ctrls = synthesize_environment(
        env, plan.entries,
        case_setup["dynamics"], case_setup["spec"], case_setup["bounds"],
        case_setup["basis"], alpha_v=1.0, alpha_h=100.0)
    cfg = SimConfig(dt=0.01, max_time=120.0, sensor=SensorModel(), seed=0)
    with pytest.raises(OffPlanCrossing) as err:
        simulation.run_trajectory(env, plan, ctrls, cfg, x0=[10.0, 10.0])
    assert "left cell 0 for [2], not planned cell 1 at t=6.560" in str(err.value)
    assert (err.value.cell_id, err.value.planned) == (0, 1)
    assert min(err.value.trajectory.min_h) >= -1e-6
