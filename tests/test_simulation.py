import os
import tracemalloc

import numpy as np
import pytest

from helpers import (OBLIQUE_PATROL_ENV, OFF_GRID_ENV, ROTATED_PATROL_ENV,
                     counted_law, pushing_controller, same_bits,
                     three_cell_env)
import reference_loop
from reference_loop import reference_trajectory, staged_step, unbanked_sensor
from safefield import cli, simulation
from safefield.clfcbf import LinearDynamics
from safefield.errors import (
    ClosedLoopFailure,
    ConfigError,
    DimensionMismatch,
    GridMismatch,
    LandmarkOutOfView,
    LeftFreeSpace,
    OffGridReading,
)
from safefield.measurement import (
    GridSpec,
    PmfGrid,
    UncertaintyBounds,
    blur_pmf,
    build_expectation_kernel,
    make_delta_pmf,
)
from safefield.geometry import ConvexCell, Environment, environment_from_dict
from safefield.planning import PlanEntry, build_graph, make_plan
from safefield.simulation import (
    SensorModel,
    SimConfig,
    Trajectory,
    _slope,
    _step,
    control_input,
    run_trajectory,
    sample_vector_field,
    save_field_csv,
)
from safefield.controller import CellController, CellProblem, GainBasis
from safefield.synthesis import synthesize_environment

pytestmark = pytest.mark.filterwarnings("ignore:bounds")

SPEC = GridSpec((16, 16), (6.0, 6.0))
BOUNDS = UncertaintyBounds(0.05, 0.2)


@pytest.fixture(scope="module")
def rig():
    env = three_cell_env()
    graph = build_graph(env)
    basis = GainBasis()
    dyn = LinearDynamics.single_integrator(2)
    plan = make_plan(env, graph, mode="stabilize")
    ctrls = synthesize_environment(env, plan.entries, dyn, SPEC, BOUNDS,
                                   basis, 1.0, 100.0)
    plan_p = make_plan(env, graph, mode="patrol")
    ctrls_p = synthesize_environment(
        env, plan_p.entries, dyn, SPEC, BOUNDS, basis, 1.0, 100.0)
    return {"env": env, "plan": plan, "ctrls": ctrls,
            "plan_p": plan_p, "ctrls_p": ctrls_p}


def zero_gain_controller(n_landmarks=2, gains=None):
    """A controller whose law is its bias, unless gains are given."""
    if gains is None:
        gains = [[np.zeros((2, 2)) for _ in range(3)]
                 for _ in range(n_landmarks)]
    landmarks = [[0.0, 0.0], [1.0, 0.0]][:n_landmarks]
    cell = ConvexCell(0, [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]],
                      range(n_landmarks))
    problem = CellProblem(
        cell, PlanEntry(0, None, [0.0, 1.0], [0.0, 0.0]), landmarks,
        LinearDynamics.single_integrator(2), 1.0, 100.0, BOUNDS, SPEC,
        GainBasis())
    return CellController(problem, gains, bias=[1.5, -2.0], margins=[0.1])


def uncached_input(ctrl, pmfs):
    """bias + sum_l (sum_k K_lk R_k) @ P_l, with the feature maps R_k built
    afresh from the controller's basis and grid."""
    grid = ctrl.problem.grid
    maps = GainBasis(ctrl.problem.basis.names).matrices(
        build_expectation_kernel(grid), grid.width)
    u = np.array(ctrl.bias)
    for per_landmark, pmf in zip(ctrl.gains, pmfs):
        u = u + sum(K @ R for K, R in zip(per_landmark, maps)) @ pmf.vector
    return u


def replay_matches_uncached(traj, ctrls, config):
    """Every logged u equals the uncached law on the PMFs the run sensed:
    the unbanked sensor recipe is replayed with the run's seed, one reading
    per landmark and logged row, in the run's order."""
    sense = unbanked_sensor(config.sensor, config.seed)
    for x, u, cid in zip(traj.x, traj.u, traj.cell_id):
        ctrl = ctrls[cid]
        p = ctrl.problem
        pmfs = [sense(p.grid, lm - x) for lm in p.landmarks]
        assert np.array_equal(u, uncached_input(ctrl, pmfs))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("error, build", [
    (ConfigError, lambda v: SimConfig(dt=v)),
    (ConfigError, lambda v: SimConfig(max_time=v)),
    (ConfigError, lambda v: SimConfig(goal_tol=v)),
    (ConfigError, lambda v: SensorModel("gaussian", drift=v)),
    (ConfigError, lambda v: SensorModel("gaussian", variance=v)),
    (ValueError, lambda v: UncertaintyBounds(v, 1.0)),
    (ValueError, lambda v: UncertaintyBounds(1.0, v)),
    (DimensionMismatch, lambda v: GridSpec((4, 4), (v, 1.0))),
    (DimensionMismatch, lambda v: GridSpec((4, 4), (1.0, v))),
], ids=["dt", "max_time", "goal_tol", "drift", "variance", "epsilon",
        "sigma_m", "width-0", "width-1"])
def test_non_finite_inputs_are_refused_at_construction(error, build, value):
    # each with the error a negative value gets, not later in a run
    with pytest.raises(error, match="finite"):
        build(value)


def test_sensor_validation_and_roundtrip():
    with pytest.raises(ConfigError):
        SensorModel("lidar")
    with pytest.raises(ConfigError):
        SensorModel("gaussian", drift=-1.0)


def sensed(model, seed):
    """model's readings turned into their PMFs: (spec, y) -> PmfGrid."""
    read = model.make(seed)
    return lambda spec, y: model.pmf(spec, read(spec, y))


def test_delta_sensor_matches_snap():
    model = SensorModel()
    y = np.array([0.7, -1.1])
    assert model.make(0)(SPEC, y) == SPEC.snap(y)
    assert np.array_equal(sensed(model, 0)(SPEC, y).mass,
                          make_delta_pmf(SPEC, y).mass)


def test_gaussian_sensor_is_seeded_and_normalized():
    model = SensorModel("gaussian", 0.5, 0.1)
    y = np.array([0.3, 0.4])
    a = sensed(model, 7)(SPEC, y)
    b = sensed(model, 7)(SPEC, y)
    assert np.array_equal(a.mass, b.mass)
    assert abs(a.mass.sum() - 1.0) <= 1e-12
    assert np.all(a.mass >= 0.0)


@pytest.mark.parametrize("model", [
    SensorModel(),
    SensorModel("gaussian", 0.5, 0.1),
    SensorModel("gaussian", 3.0, 12.0),
    SensorModel("gaussian", 1.0, 0.0),
    SensorModel("gaussian", 30.0, 2.0),
], ids=["delta", "gaussian", "case-study-scale", "variance-0", "clamp-binds"])
def test_banked_readings_equal_the_unbanked_recipe(model):
    # two grids read alternately by one closure, a third of the offsets in
    # the corner boxes, where the clamp and the clipped paste both bind
    grids = [SPEC, GridSpec((30, 30), (40.0, 40.0))]
    read, recipe = model.make(3), unbanked_sensor(model, 3)
    rng = np.random.default_rng(17)
    readings = 0
    seen = set()
    for _ in range(1500):
        unit = rng.uniform(-1.0, 1.0, size=2)
        if rng.random() < 1.0 / 3.0:
            unit = np.sign(unit) * rng.uniform(0.85, 1.0, size=2)
        for spec in grids:
            y = unit * np.array(spec.width) / 2.0
            index = read(spec, y)
            got, want = model.pmf(spec, index), recipe(spec, y)
            assert got.spec == spec
            assert np.array_equal(got.mass, want.mass)
            readings += 1
            seen.add((spec.n, index))
    # a reading is one of the grids' cells, and the cells recur
    assert len(seen) <= sum(spec.n_points for spec in grids) < readings


def test_a_run_builds_one_pmf_per_landmark_and_index(rig, monkeypatch):
    calls = []
    pmf = SensorModel.pmf

    def counted(model, spec, index):
        calls.append(index)
        return pmf(model, spec, index)

    monkeypatch.setattr(SensorModel, "pmf", counted)
    runs = [(rig["plan_p"], rig["ctrls_p"], SimConfig(dt=0.01, max_time=5.0),
             [0.5, 0.5]),
            (rig["plan"], rig["ctrls"],
             SimConfig(dt=0.01, max_time=30.0, goal_tol=0.05,
                       sensor=SensorModel("gaussian", 0.3, 0.05), seed=9),
             None)]
    for plan, ctrls, config, start in runs:
        calls.clear()
        traj = run_trajectory(rig["env"], plan, ctrls, config, x0=start)
        # replay the readings: one per landmark and logged row, in order
        read = config.sensor.make(config.seed)
        terms = set()
        for x, cid in zip(traj.x, traj.cell_id):
            p = ctrls[cid].problem
            terms.update((cid, l, read(p.grid, lm - x))
                         for l, lm in enumerate(p.landmarks))
        assert sorted(calls) == sorted(index for _, _, index in terms)
        # readings recur, so the bank saves builds
        assert len(terms) < len(traj.x)


@pytest.mark.parametrize("model", [SensorModel(),
                                   SensorModel("gaussian", 0.3, 0.05)],
                         ids=["delta", "gaussian"])
def test_field_rows_equal_control_input_on_the_sensed_pmfs(rig, model):
    for cid, ctrl in rig["ctrls"].items():
        p = ctrl.problem
        arr = sample_vector_field(ctrl, (9, 9), sensor=model, seed=5)
        sense = sensed(model, 5)
        assert len(arr) > 20
        for row in arr:
            x = row[:2]
            pmfs = [sense(p.grid, lm - x) for lm in p.landmarks]
            assert np.array_equal(row[2:], control_input(ctrl, pmfs))


def test_runs_bank_what_control_input_returns(rig, monkeypatch):
    calls = counted_law(monkeypatch)
    runs = [(rig["plan_p"], rig["ctrls_p"], SimConfig(dt=0.01, max_time=5.0),
             [0.5, 0.5]),
            (rig["plan"], rig["ctrls"],
             SimConfig(dt=0.01, max_time=30.0, goal_tol=0.05,
                       sensor=SensorModel("gaussian", 0.3, 0.05), seed=9),
             None)]
    for plan, ctrls, config, start in runs:
        calls.clear()
        traj = run_trajectory(rig["env"], plan, ctrls, config, x0=start)
        # replay the readings: the law runs once per controller and new
        # readings tuple, in the order the run first reads them
        read = config.sensor.make(config.seed)
        keys = [(cid, tuple(read(ctrls[cid].problem.grid, lm - x)
                            for lm in ctrls[cid].problem.landmarks))
                for x, cid in zip(traj.x, traj.cell_id)]
        new = list(dict.fromkeys(keys))
        assert [c for c, _ in calls] == [ctrls[cid] for cid, _ in new]
        returned = dict(zip(new, (u for _, u in calls)))
        assert all(u == returned[key].tolist()
                   for key, u in zip(keys, traj.u))
        assert len(new) < len(keys)


def test_shared_step_plans_serve_only_their_controllers_and_sensor(rig):
    env, plan, ctrls = rig["env"], rig["plan"], rig["ctrls"]
    config = SimConfig(dt=0.01, max_time=0.05)
    steps = {}
    run_trajectory(env, plan, ctrls, config, x0=[0.5, 0.5], steps=steps)
    assert list(steps) == [0] and steps[0].controller is ctrls[0]
    # cell 0's patrol controller, or a sensor model of its own
    for controllers, sensor in (({**ctrls, **rig["ctrls_p"]}, config.sensor),
                                (ctrls, SensorModel())):
        with pytest.raises(ValueError, match="another controller or sensor"):
            run_trajectory(env, plan, controllers,
                           SimConfig(dt=0.01, max_time=0.05, sensor=sensor),
                           x0=[0.5, 0.5], steps=steps)


@pytest.mark.parametrize("model", [SensorModel(),
                                   SensorModel("gaussian", 0.3, 0.05)],
                         ids=["delta", "gaussian"])
def test_field_rows_bank_what_control_input_returns(rig, model, monkeypatch):
    calls = counted_law(monkeypatch)
    for ctrl in rig["ctrls"].values():
        calls.clear()
        arr = sample_vector_field(ctrl, (9, 9), sensor=model, seed=5)
        read, p = model.make(5), ctrl.problem
        keys = [tuple(read(p.grid, lm - row[:2]) for lm in p.landmarks)
                for row in arr]
        new = list(dict.fromkeys(keys))
        assert [c for c, _ in calls] == [ctrl] * len(new)
        returned = dict(zip(new, (u for _, u in calls)))
        assert all(np.array_equal(row[2:], returned[key])
                   for key, row in zip(keys, arr))


def test_pmf_mass_is_read_only():
    y = np.array([0.3, -0.4])
    fresh = np.full(SPEC.n, 1.0 / SPEC.n_points)
    pmfs = [make_delta_pmf(SPEC, y), blur_pmf(make_delta_pmf(SPEC, y), y, 0.1),
            sensed(SensorModel(), 0)(SPEC, y),
            sensed(SensorModel("gaussian", 0.5, 0.1), 0)(SPEC, y),
            PmfGrid(SPEC, fresh)]
    for pmf in pmfs:
        with pytest.raises(ValueError):
            pmf.mass[0, 0] = 0.5
        with pytest.raises(ValueError):
            pmf.vector[0] = 0.5
    # the caller's array is copied, not frozen
    assert fresh.flags.writeable


@pytest.mark.parametrize("seed", [1.7, True, "3", np.nan],
                         ids=["fraction", "bool", "string", "nan"])
def test_a_seed_must_be_an_integral_number(seed):
    # an integral float is a seed; truncating 1.7 to 1 is not
    assert SimConfig(seed=2.0).seed == 2
    with pytest.raises(ConfigError) as err:
        SimConfig(seed=seed)
    assert err.value.field == "sim.seed"


@pytest.mark.parametrize("resolution", [2.9, (8, 2.9), "3", True, np.nan,
                                        (8, 8, 8)],
                         ids=["fraction", "fraction-entry", "string", "bool",
                              "nan", "three-axes"])
def test_a_field_resolution_must_be_integral_per_axis(rig, resolution):
    ctrl = rig["ctrls"][2]
    assert same_bits(sample_vector_field(ctrl, 3.0),
                     sample_vector_field(ctrl, (3, 3)))
    with pytest.raises(ConfigError) as err:
        sample_vector_field(ctrl, resolution)
    assert err.value.field == "field.resolution"


def test_sim_config_validation_and_roundtrip():
    for bad in (dict(dt=0.0), dict(max_time=0.0), dict(goal_tol=-1.0)):
        with pytest.raises(ConfigError):
            SimConfig(**bad)


def test_step_matches_closed_form():
    # x' = -x/2 + u settles at 2u: x(t) = 2u + (x0 - 2u) exp(-t/2)
    dyn = LinearDynamics(-0.5 * np.eye(2), np.eye(2))
    x0 = np.array([1.0, -2.0])
    u = np.array([0.25, 0.5])
    dt = 0.05
    exact = 2 * u + (x0 - 2 * u) * np.exp(-dt / 2.0)
    Bu = dyn.B @ u
    rk4, rk4s = _step(dyn, x0, x0.tolist(), Bu, _slope(dyn, Bu), dt)
    assert float(np.max(np.abs(rk4 - exact))) <= 1e-9
    assert rk4s == rk4.tolist()


def test_drift_free_step_equals_the_staged_step():
    rng = np.random.default_rng(21)
    drift_free = [LinearDynamics.single_integrator(2),
                  LinearDynamics(-np.zeros((2, 2)), np.eye(2)),
                  LinearDynamics(np.zeros((2, 2)), [[0.5, -2.0], [1.5, 0.25]]),
                  LinearDynamics(np.zeros((3, 3)), rng.standard_normal((3, 2)))]
    assert all(dyn.drift_free for dyn in drift_free)
    assert not LinearDynamics([[0.0, 1e-300], [0.0, 0.0]], np.eye(2)).drift_free
    closed = staged = 0
    for _ in range(4000):
        dyn = drift_free[rng.integers(len(drift_free))]
        x = rng.standard_normal(dyn.d) * 10.0 ** rng.integers(-3, 4)
        u = rng.standard_normal(dyn.n_u) * 10.0 ** rng.integers(-3, 4)
        for v in (x, u):
            v[rng.random(v.shape) < 0.3] = 0.0
            v[rng.random(v.shape) < 0.3] = -0.0
        dt = float(rng.choice([0.01, 0.05, rng.uniform(1e-4, 1.0)]))
        Bu = dyn.B @ u
        slope = _slope(dyn, Bu)
        x_next, xs_next = _step(dyn, x, x.tolist(), Bu, slope, dt)
        assert same_bits(x_next, staged_step(dyn, x, u, dt))
        assert xs_next == x_next.tolist()
        if slope is not None:
            closed += 1
        else:
            staged += 1
    # both branches ran, each many times
    assert closed > 1000 and staged > 1000


def test_dynamics_are_read_only():
    dyn = LinearDynamics.single_integrator(2)
    with pytest.raises(ValueError):
        dyn.A[0, 1] = 1.0
    with pytest.raises(ValueError):
        dyn.B[0, 0] = 2.0


def packaged_patrol_run(overrides=()):
    """patrol.json as shipped, with each (dotted key, value) of overrides
    set as cli.load_config sets a flag's."""
    data = os.path.join(os.path.dirname(cli.__file__), "data")
    cfg = cli.load_config(os.path.join(data, "patrol.json"), overrides)
    env, plan = cfg.environment, cfg.plan
    ctrls = synthesize_environment(
        env, plan.entries, LinearDynamics.single_integrator(2), cfg.grid,
        cfg.bounds, cfg.basis, cfg.alpha_v, cfg.alpha_h)
    return env, plan, ctrls, cfg.sim, cfg.starts[0]


def case_study_run(case_setup, sensor, start):
    env = case_setup["env"]
    plan = case_setup["plan"]
    cfg = SimConfig(dt=0.01, max_time=60.0, goal_tol=0.05, sensor=sensor,
                    seed=1)
    return env, plan, case_setup["controllers"], cfg, start


def two_landmark_run():
    """The three-cell rig with two landmarks read in every cell."""
    base = three_cell_env()
    cells = [ConvexCell(c.id, c.vertices, ids)
             for c, ids in zip(base.cells, [[0, 1], [1, 0], [2, 0]])]
    env = Environment(cells, base.landmarks, base.start, base.goal)
    graph = build_graph(env)
    plan = make_plan(env, graph)
    ctrls = synthesize_environment(env, plan.entries,
                                   LinearDynamics.single_integrator(2), SPEC,
                                   BOUNDS, GainBasis(), 1.0, 100.0)
    cfg = SimConfig(dt=0.01, max_time=30.0, goal_tol=0.05,
                    sensor=SensorModel("gaussian", 0.3, 0.05), seed=9)
    return env, plan, ctrls, cfg, None


def loop_run(run, case_setup):
    """(env, plan, controllers, config, start) of one named run."""
    if run == "patrol":
        return packaged_patrol_run()
    if run == "patrol-150s":
        # the benchmark's patrol_long horizon: 15,001 rows, and a handover
        # on almost every step
        return packaged_patrol_run([("sim.max_time", 150.0)])
    if run == "oblique-patrol":
        # exits on the diagonal, where the loop's progress v . (x - o) is
        # rounded as BLAS rounds it
        return packaged_patrol_run([("environment", OBLIQUE_PATROL_ENV),
                                    ("sim.max_time", 5.0)])
    if run == "rotated-patrol":
        # every facet oblique: the barrier rows a x + b, too, are rounded as
        # BLAS rounds them
        return packaged_patrol_run([("environment", ROTATED_PATROL_ENV),
                                    ("sim.max_time", 5.0)])
    if run == "case-study":
        return case_study_run(case_setup, SensorModel(), [10.0, 50.0])
    if run == "gaussian":
        return case_study_run(case_setup,
                              SensorModel("gaussian", 3.0, 12.0), [50.0, 50.0])
    return two_landmark_run()


@pytest.mark.parametrize("run", ["patrol", "patrol-150s", "oblique-patrol",
                                 "rotated-patrol", "case-study", "gaussian",
                                 "two-landmarks"])
def test_the_loop_logs_the_reference_loop(run, case_setup):
    env, plan, ctrls, cfg, start = loop_run(run, case_setup)
    traj = run_trajectory(env, plan, ctrls, cfg, x0=start)
    ref = reference_trajectory(env, plan, ctrls, cfg, x0=start)
    assert all(same_bits(a, b) for a, b in zip(traj.arrays(), ref.arrays()))
    assert (traj.crossings, traj.reached) == (ref.crossings, ref.reached)
    # the runs switch controllers: thousands of patrol crossings, and
    # stabilize runs handing over between cells
    assert traj.crossings >= {"patrol": 2000, "patrol-150s": 14000,
                              "oblique-patrol": 400,
                              "rotated-patrol": 400}.get(run, 3)
    if run == "patrol-150s":
        assert len(traj.t) == 15001


@pytest.mark.parametrize("run", ["patrol-150s", "case-study", "gaussian"])
def test_the_loop_writes_the_reference_loop_csv(run, case_setup, tmp_path):
    # the CSV text pins the record's contract: a row holds Python numbers,
    # where a NumPy scalar would print as np.float64(...)
    env, plan, ctrls, cfg, start = loop_run(run, case_setup)
    traj = run_trajectory(env, plan, ctrls, cfg, x0=start)
    ref = reference_trajectory(env, plan, ctrls, cfg, x0=start)
    mine, theirs = tmp_path / "loop.csv", tmp_path / "reference.csv"
    traj.to_csv(str(mine))
    ref.to_csv(str(theirs))
    text = mine.read_bytes()
    assert text == theirs.read_bytes()
    assert b"np." not in text
    rows = np.loadtxt(str(mine), delimiter=",", skiprows=1, ndmin=2)
    t, x, u, cell_id, V, min_h = traj.arrays()
    d, n_u = x.shape[1], u.shape[1]
    assert same_bits(rows[:, 0], t)
    assert same_bits(rows[:, 1:1 + d], x)
    assert same_bits(rows[:, 1 + d:1 + d + n_u], u)
    assert np.array_equal(rows[:, -3], cell_id) and cell_id.dtype.kind == "i"
    assert same_bits(rows[:, -2], V)
    assert same_bits(rows[:, -1], min_h)


@pytest.mark.parametrize("max_time", [30.0, 60.0, 0.024])
def test_a_run_steps_once_between_recorded_rows(max_time, monkeypatch):
    # a horizon that dt does not sum to exactly (60 s sums to
    # 59.99999999999663) takes no step past the last recorded row
    env, plan, ctrls, cfg, start = packaged_patrol_run(
        [("sim.max_time", max_time)])
    steps = []
    for module, name in ((simulation, "_step"),
                         (reference_loop, "staged_step")):
        def counted(*args, _step=getattr(module, name)):
            steps.append(name)
            return _step(*args)
        monkeypatch.setattr(module, name, counted)
    for run, name in ((run_trajectory, "_step"),
                      (reference_trajectory, "staged_step")):
        steps.clear()
        traj = run(env, plan, ctrls, cfg, x0=start)
        assert traj.reached is None
        assert steps.count(name) == len(traj.t) - 1
        assert len(traj.t) == round(max_time / cfg.dt) + 1


def test_control_input_zero_gains_returns_bias():
    ctrl = zero_gain_controller()
    rng = np.random.default_rng(2)
    for _ in range(5):
        pmfs = [make_delta_pmf(SPEC, rng.uniform(-2, 2, 2)) for _ in range(2)]
        assert np.array_equal(control_input(ctrl, pmfs), ctrl.bias)


def test_control_input_adds_the_landmarks_in_order():
    rng = np.random.default_rng(8)
    ctrl = zero_gain_controller(gains=rng.standard_normal((2, 3, 2, 2)))
    for _ in range(50):
        pmfs = []
        for _ in range(2):
            mass = rng.uniform(0.0, 1.0, SPEC.n)
            pmfs.append(PmfGrid(SPEC, mass / mass.sum()))
        assert np.array_equal(control_input(ctrl, pmfs),
                              uncached_input(ctrl, pmfs))


def test_control_input_rejects_mismatches():
    ctrl = zero_gain_controller()
    pmf = make_delta_pmf(SPEC, np.zeros(2))
    with pytest.raises(DimensionMismatch):
        control_input(ctrl, [pmf])
    other = make_delta_pmf(GridSpec((8, 8), (6.0, 6.0)), np.zeros(2))
    with pytest.raises(GridMismatch):
        control_input(ctrl, [pmf, other])
    # one grid for both PMFs is not enough: it must be the controller's
    for n, width in (((8, 8), (6.0, 6.0)), ((16, 16), (12.0, 12.0))):
        pmf = make_delta_pmf(GridSpec(n, width), np.zeros(2))
        with pytest.raises(GridMismatch):
            control_input(ctrl, [pmf, pmf])


def test_control_input_equals_uncached_law(rig):
    rng = np.random.default_rng(4)
    gaussian = sensed(SensorModel("gaussian", 0.3, 0.05), 11)
    for cell_id, ctrl in rig["ctrls"].items():
        cell = rig["env"].cell_by_id(cell_id)
        p = ctrl.problem
        lo, hi = cell.vertices.min(axis=0), cell.vertices.max(axis=0)
        for _ in range(4):
            x = rng.uniform(lo, hi)
            for sense in (make_delta_pmf, gaussian):
                pmfs = [sense(p.grid, lm - x) for lm in p.landmarks]
                assert np.array_equal(control_input(ctrl, pmfs),
                                      uncached_input(ctrl, pmfs))


def test_controller_law_is_fixed(rig):
    ctrl = rig["ctrls"][0]
    with pytest.raises(AttributeError):
        ctrl.gains = [[np.zeros((2, 2))] * 3] * len(ctrl.problem.landmarks)
    with pytest.raises(AttributeError):
        ctrl.bias = np.zeros(2)
    with pytest.raises(ValueError):
        ctrl.gains[0][0][0, 0] = 1.0
    with pytest.raises(ValueError):
        ctrl.bias[0] = 1.0
    with pytest.raises(ValueError):
        ctrl.control_matrices()[0][0, 0] = 1.0


def test_runs_log_the_uncached_law(rig):
    patrol = SimConfig(dt=0.01, max_time=5.0)
    traj = run_trajectory(rig["env"], rig["plan_p"], rig["ctrls_p"], patrol,
                          x0=[0.5, 0.5])
    replay_matches_uncached(traj, rig["ctrls_p"], patrol)
    gaussian = SimConfig(dt=0.01, max_time=30.0, goal_tol=0.05,
                         sensor=SensorModel("gaussian", 0.3, 0.05), seed=9)
    traj = run_trajectory(rig["env"], rig["plan"], rig["ctrls"], gaussian)
    assert traj.reached
    replay_matches_uncached(traj, rig["ctrls"], gaussian)


def test_stabilize_run_reaches_goal(rig):
    cfg = SimConfig(dt=0.01, max_time=30.0, goal_tol=0.05)
    traj = run_trajectory(rig["env"], rig["plan"], rig["ctrls"], cfg)
    assert traj.reached
    assert traj.crossings >= 1
    assert min(traj.min_h) > 0.0
    assert np.linalg.norm(traj.x[-1] - rig["env"].goal) <= cfg.goal_tol


def test_gaussian_run_reaches_and_reproduces(rig):
    cfg = SimConfig(dt=0.01, max_time=30.0, goal_tol=0.05,
                    sensor=SensorModel("gaussian", 0.3, 0.05), seed=9)
    t1 = run_trajectory(rig["env"], rig["plan"], rig["ctrls"], cfg)
    t2 = run_trajectory(rig["env"], rig["plan"], rig["ctrls"], cfg)
    assert t1.reached
    assert np.array_equal(np.asarray(t1.x), np.asarray(t2.x))
    assert np.array_equal(np.asarray(t1.u), np.asarray(t2.u))


def test_patrol_run_keeps_crossing(rig):
    traj = run_trajectory(rig["env"], rig["plan_p"], rig["ctrls_p"],
                          SimConfig(dt=0.01, max_time=5.0), x0=[0.5, 0.5])
    assert traj.reached is None
    assert traj.crossings >= 5
    assert min(traj.min_h) > 0.0
    assert set(traj.cell_id) == {0, 1}


def test_patrol_starts_in_the_cycle_cell_of_the_start(rig):
    cfg = SimConfig(dt=0.01, max_time=0.5)
    traj = run_trajectory(rig["env"], rig["plan_p"], rig["ctrls_p"], cfg,
                          x0=[1.5, 0.5])
    assert traj.cell_id[0] == 1
    assert min(traj.min_h) > 0.0
    # cell 2 is not on the cycle [0, 1]
    with pytest.raises(ConfigError) as err:
        run_trajectory(rig["env"], rig["plan_p"], rig["ctrls_p"], cfg,
                       x0=[1.0, 1.6])
    assert err.value.field == "starts"


def test_start_outside_cells_is_a_violation(rig):
    # a start in no cell is refused before the first step, in either mode
    for plan, ctrls in ((rig["plan"], rig["ctrls"]),
                        (rig["plan_p"], rig["ctrls_p"])):
        with pytest.raises(ConfigError) as err:
            run_trajectory(rig["env"], plan, ctrls, SimConfig(max_time=1.0),
                           x0=[-0.5, 0.5])
        assert err.value.field == "starts"


def test_a_reading_off_the_grid_fails_the_run_with_its_trajectory():
    # cell 0's controller is kept for up to |u| dt past its shared face;
    # there its landmark lies past the grid's half-width
    env = environment_from_dict(OFF_GRID_ENV)
    plan = make_plan(env, build_graph(env))
    ctrls = {0: pushing_controller(env, plan, SPEC, BOUNDS, GainBasis())}
    cfg = SimConfig(dt=0.01, max_time=10.0)
    with pytest.raises(OffGridReading) as err:
        run_trajectory(env, plan, ctrls, cfg)
    exc = err.value
    assert isinstance(exc.__cause__, LandmarkOutOfView)
    assert exc.cell_id == 0
    # the state is in cell 1 alone, less than one step past the face
    assert env.cell_ids_containing(exc.x) == [1]
    assert 3.0 < exc.x[0] <= 3.0 + 1.5 * cfg.dt
    # the trajectory holds every step before the reading, all in cell 0
    traj = exc.trajectory
    assert len(traj.t) == round(exc.t / cfg.dt) > 100
    assert set(traj.cell_id) == {0}
    assert traj.x[-1][0] <= 3.0
    assert min(traj.min_h) > 0.0


def test_leaving_free_space_names_the_active_cell():
    # pushed along -x, through cell 0's wall x = 0, out of every cell
    env = environment_from_dict(OFF_GRID_ENV)
    plan = make_plan(env, build_graph(env))
    ctrls = {0: pushing_controller(env, plan, SPEC, BOUNDS, GainBasis(),
                                   bias=(-1.5, 0.0))}
    cfg = SimConfig(dt=0.01, max_time=10.0)
    with pytest.raises(LeftFreeSpace) as err:
        run_trajectory(env, plan, ctrls, cfg)
    exc = err.value
    assert isinstance(exc, ClosedLoopFailure)
    assert exc.cell_id == 0
    assert -1.5 * cfg.dt <= exc.x[0] < 0.0
    assert not env.cell_ids_containing(exc.x)
    assert len(exc.trajectory.t) == round(exc.t / cfg.dt)
    assert set(exc.trajectory.cell_id) == {0}


def test_trajectory_csv_roundtrip(tmp_path):
    traj = Trajectory()
    traj.append(0.0, [0.25, 0.5], [1.0, -1.0], 0, 0.75, 0.25)
    traj.append(0.01, [0.26, 0.49], [0.9, -0.8], 1, 0.7, 0.24)
    path = tmp_path / "traj.csv"
    traj.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,u1,u2,cell_id,V,min_h"
    data = np.genfromtxt(str(path), delimiter=",", skip_header=1)
    t, x, u, cid, V, mh = traj.arrays()
    assert np.array_equal(data[:, 0], t)
    assert np.array_equal(data[:, 1:3], x)
    assert np.array_equal(data[:, 3:5], u)
    assert np.array_equal(data[:, 5], cid.astype(float))


def test_trajectory_csv_reads_back_the_recorded_floats(tmp_path):
    rng = np.random.default_rng(2)
    traj = Trajectory()
    awkward = [1.0 / 3.0, -0.0, 5e-324, 1e300, -2.5e-17, 0.1 + 0.2]
    for k in range(300):
        x = rng.standard_normal(2) * 10.0 ** rng.integers(-20, 20)
        u = [awkward[k % 6], rng.standard_normal()]
        traj.append(k * 0.01, x.tolist(), u, k % 3, rng.random(),
                    np.inf if k == 7 else -rng.random())
    path = tmp_path / "traj.csv"
    traj.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,u1,u2,cell_id,V,min_h"
    assert len(lines) == 301
    for k, line in enumerate(lines[1:]):
        cols = line.split(",")
        assert int(cols[5]) == traj.cell_id[k]
        got = [float(v) for v in cols[:5] + cols[6:]]
        want = ([traj.t[k]] + traj.x[k] + traj.u[k]
                + [traj.V[k], traj.min_h[k]])
        # bit for bit, the sign of zero included
        assert np.array_equal(np.array(got).view(np.int64),
                              np.array(want).view(np.int64))
        # and the text is the repr of each value, the cell id an int
        row = want[:5] + [traj.cell_id[k]] + want[5:]
        assert line == ",".join(map(repr, row))


def test_field_csv_text_is_the_repr_of_each_value(tmp_path):
    # the field writer is the trajectory writer: the same awkward values
    # come out as their repr
    awkward = [1.0 / 3.0, -0.0, 5e-324, 1e300, -2.5e-17, 0.1 + 0.2, np.inf,
               -np.inf]
    rng = np.random.default_rng(5)
    arr = np.array([rng.permutation(awkward)[:4] for _ in range(50)])
    path = tmp_path / "field.csv"
    save_field_csv(arr, 2, str(path))
    want = ["x1,x2,u1,u2"] + [",".join(map(repr, row)) for row in arr.tolist()]
    assert path.read_text() == "\n".join(want) + "\n"


def test_trajectory_csv_is_written_row_by_row(tmp_path):
    traj = Trajectory()
    for k in range(20000):
        traj.append(k * 0.01, [k / 7.0, -k / 3.0], [1.0 / (k + 1), 2.0], 0,
                    k / 11.0, -k / 13.0)
    path = tmp_path / "traj.csv"
    tracemalloc.start()
    try:
        traj.to_csv(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the file is about 2 MB; one formatted row at a time stays far below
    assert path.stat().st_size > 1_000_000
    assert peak < 200_000


def test_field_samples_push_through_the_exit(rig):
    cell = rig["env"].cell_by_id(2)
    ctrl = rig["ctrls"][2]
    arr = sample_vector_field(ctrl, (8, 8))
    assert arr.shape[1] == 4
    assert arr.shape[0] > 0
    for row in arr:
        assert cell.contains(row[:2])
        assert float(ctrl.problem.entry.v @ row[2:]) < 0.0


def test_field_resolution_validation(rig):
    with pytest.raises(ConfigError):
        sample_vector_field(rig["ctrls"][2], (1, 8))


def test_field_csv_header(tmp_path, rig):
    arr = sample_vector_field(rig["ctrls"][2], (3, 3))
    path = tmp_path / "field.csv"
    save_field_csv(arr, 2, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,u1,u2"
    assert len(lines) == 1 + arr.shape[0]
    data = np.genfromtxt(str(path), delimiter=",", skip_header=1)
    assert np.array_equal(np.atleast_2d(data), arr)
