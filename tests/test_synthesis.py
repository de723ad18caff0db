import copy
import json
import os

import numpy as np
import pytest
import scipy.sparse as sp

from dual_form import (affine_blocks, bias_image, feature_maps, gain_image,
                       lift, machine_lp, violation)
from helpers import check_candidates_against_lp, random_cell, transit_entry_for
from safefield import cli, synthesis, verification
from safefield.clfcbf import LinearDynamics
from safefield.errors import (ConfigError, DimensionMismatch, GridMismatch,
                              LandmarkNotVisible, SynthesisInfeasible)
from safefield.geometry import ConvexCell, deviation_candidates, region_points
from safefield.lp_core import LpSolution, StandardLp, solve_lp
from safefield.measurement import (GridSpec, UncertaintyBounds,
                                   build_expectation_kernel, make_delta_pmf)
from safefield.planning import PlanEntry, build_graph, make_plan
from safefield.synthesis import (
    DELTA_CAP,
    CellProblem,
    GainBasis,
    LpColumns,
    assemble_robust_lp,
    _tiebreak_lp,
    goal_v_floor,
    load_controllers,
    nominal_theta,
    save_controllers,
    synthesize_cell_controller,
)
from safefield.simulation import control_input

# test scale keeps eps below the grid pitch on purpose; silence the advisory
pytestmark = pytest.mark.filterwarnings("ignore:bounds")

ALPHA_V = 1.0
ALPHA_H = 100.0


def setup():
    spec = GridSpec((10, 10), (10.0, 10.0))
    bounds = UncertaintyBounds(0.125, 0.5)
    return spec, bounds, GainBasis(), LinearDynamics.single_integrator(2)


def assembled_random(rng, spec, bounds, basis, dyn, positions=None):
    cell, lm = random_cell(rng)
    entry = transit_entry_for(cell, 0)
    if positions is None:
        positions = [lm]
    asm = assemble_robust_lp(CellProblem(
        cell, entry, positions, dyn, ALPHA_V, ALPHA_H, bounds, spec, basis))
    return asm, cell, entry, lm


def two_landmark_random(rng, spec, bounds, basis, dyn):
    """Random transit cell seeing its landmark and a second one offset by
    (1, -0.5)."""
    cell, lm = random_cell(rng)
    cell = ConvexCell(cell.id, cell.vertices, [0, 1])
    return assemble_robust_lp(CellProblem(
        cell, transit_entry_for(cell, 0), [lm, lm + np.array([1.0, -0.5])],
        dyn, ALPHA_V, ALPHA_H, bounds, spec, basis))


def goal_square(spec, bounds, basis, dyn, goal_bounds=None, v_floor="auto"):
    """Square cell with the goal at a vertex; barriers on the facets away
    from the goal, matching how a planner treats a goal-vertex cell."""
    verts = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]])
    cell = ConvexCell(9, verts, [0])
    goal = np.array([0.0, 0.0])
    v = verts.mean(axis=0) - goal
    walls = [j for j in range(cell.body.n_rows)
             if abs(cell.body.A[j] @ goal + cell.body.b[j]) > 1e-9]
    entry = PlanEntry(9, None, v / np.linalg.norm(v), goal, barriers=walls)
    use_bounds = goal_bounds or bounds
    if v_floor == "auto":
        v_floor = goal_v_floor(entry, use_bounds, spec)
    asm = assemble_robust_lp(CellProblem(
        cell, entry, [np.array([2.0, 2.0])], dyn, ALPHA_V, ALPHA_H, use_bounds,
        spec, basis, v_floor))
    return asm, cell, entry, goal


def test_cosine_map_stores_exact_zeros():
    # on the case-study grid (30 cells a side) the two centers a quarter of
    # the width from the middle put cos at +-pi/2, which rounds to 6.1e-17:
    # two centers per axis, times the 30 grid points on each
    spec = GridSpec((30, 30), (40.0, 40.0))
    U = build_expectation_kernel(spec)
    R = GainBasis(("mean", "cosine")).matrices(U, spec.width)[1]
    assert np.count_nonzero(R == 0.0) == 2 * 2 * 30
    assert np.all((R == 0.0) | (np.abs(R) > 0.05))
    unrounded = np.cos(np.pi * U / (np.asarray(spec.width)[:, None] / 2.0))
    assert np.array_equal(R[R != 0.0], unrounded[R != 0.0])


def test_columns_cover_every_variable_once():
    # 2 landmarks, 3 maps, n_u = d = 2, 4 rows
    cols = LpColumns(2, 3, 2, 2, 4)
    blocks = [cols.gain, cols.bias, cols.delta, cols.lam, cols.t]
    flat = np.concatenate([b.ravel() for b in blocks])
    assert cols.n_vars == (2 * 3 * 2 * 2 + 2 + 4 + 4 * 2 * (1 + 4 + 2)
                           + 2 * 3 * 2 * 2 + 2)
    # each column once, in the order listed; theta is the gains, then the
    # bias, and t holds one column per entry of theta
    assert np.array_equal(flat, np.arange(cols.n_vars))
    assert np.array_equal(cols.theta, np.r_[cols.gain.ravel(), cols.bias])
    assert np.array_equal(cols.bias, [24, 25])
    assert np.array_equal(cols.t, 86 + np.arange(26))
    # lam[k, l] splits into lam_s, lam_p (2d) and lam_z (d)
    parts = np.concatenate([cols.lam_s[..., None], cols.lam_p, cols.lam_z],
                           axis=-1)
    assert np.array_equal(parts, cols.lam)
    assert cols.lam_p.shape == (4, 2, 4) and cols.lam_z.shape == (4, 2, 2)
    # gain walks (landmark, map, row, col) in row-major order
    assert cols.gain.shape == (2, 3, 2, 2)
    assert cols.gain[0, 0, 0, 0] == 0
    assert cols.gain[0, 0, 0, 1] == 1
    assert cols.gain[0, 0, 1, 0] == 2
    assert cols.gain[0, 1, 0, 0] == 4
    assert cols.gain[1, 0, 0, 0] == 12


def test_lp_dimensions_square():
    # d=2, 4 facets (1 exit), 9 grid points, 3 basis kinds, 1 landmark
    spec = GridSpec((3, 3), (8.0, 8.0))
    _, bounds, basis, dyn = setup()
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cell = ConvexCell(0, verts, [0])
    entry = transit_entry_for(cell, 0)
    asm = assemble_robust_lp(CellProblem(
        cell, entry, [np.array([0.5, 0.5])], dyn, ALPHA_V, ALPHA_H, bounds,
        spec, basis))
    # 4 rows (CLF + 3 CBF) over the unit square, n_p = 9, d = 2:
    # 14 gains + 4 margins + 4 * (1 + 2d + d) multipliers + 14 tiebreak
    # bounds t = 60 columns. Each row holds at the 4 vertices, and each grid
    # point's feasibility row at one candidate, the square's point nearest to
    # a_i (the square is axis-aligned): 4 * (4 + 9) = 52 inequalities; the
    # tiebreak block adds the floor and +-theta - t, 1 + 2 * 14 = 29 more.
    # No equality.
    assert asm.cols.theta.size == 14
    assert asm.cols.n_vars == 60
    assert asm.lp.A_ub.shape == (81, 60)
    assert asm.lp.A_eq.shape == (0, 60)


def pinned_zero_rows(lp):
    """Equality rows with rhs 0, coefficients of one sign and only columns
    bounded below by 0: each forces all of its columns to 0."""
    A = lp.A_eq.tocsr()
    n_pos = np.asarray((A > 0).sum(axis=1)).ravel()
    n_neg = np.asarray((A < 0).sum(axis=1)).ravel()
    n_free = abs(A) @ (lp.lb < 0).astype(float)
    one_sign = (n_pos == 0) != (n_neg == 0)
    return np.nonzero((lp.b_eq == 0) & one_sign & (n_free == 0))[0]


def test_no_column_is_pinned_at_zero():
    spec, bounds, basis, dyn = setup()
    rng = np.random.default_rng(11)
    transit = assembled_random(rng, spec, bounds, basis, dyn)[0]
    goal = goal_square(spec, bounds, basis, dyn)[0]
    two = two_landmark_random(rng, spec, bounds, basis, dyn)
    for asm in (transit, goal, two):
        assert pinned_zero_rows(asm.lp).size == 0


def oracle_cases():
    """Five random transit cells, goal_square and a two-landmark cell."""
    spec, bounds, basis, dyn = setup()
    rng = np.random.default_rng(11)
    cases = [assembled_random(rng, spec, bounds, basis, dyn)[0] for _ in range(5)]
    cases.append(goal_square(spec, bounds, basis, dyn)[0])
    cases.append(two_landmark_random(rng, spec, bounds, basis, dyn))
    assert cases[-2].lp.b_eq.size and cases[-1].cols.gain.shape[0] == 2
    return cases


def test_gain_coefficients_match_the_oracle_image():
    """Every row's gain coefficients in the assembled LP are, bit for bit,
    the oracle's dense Kronecker image of its w: at each point row the
    image's row for that grid point, at each bound row w on the bias. The
    last 1 + 2G rows are the tiebreak block: the floor -sum(delta), then
    theta - t and -theta - t."""
    for asm in oracle_cases():
        A = asm.lp.A_ub.toarray()
        theta = asm.cols.theta
        maps = [feature_maps(asm)] * len(asm.problem.landmarks)
        n = 0
        for k, row in enumerate(asm.rows):
            n_v = region_points(asm.regions[k]).shape[0]
            bias = bias_image(row.w, asm.cols)
            assert np.array_equal(A[n:n + n_v, theta],
                                  np.tile(bias, (n_v, 1)))
            n += n_v
            image = gain_image(row.w, maps, asm.cols)
            off = 0
            for blk in affine_blocks(asm):
                idx, _ = deviation_candidates(asm.regions[k],
                                              (blk.landmark[:, None] - blk.U).T)
                assert np.array_equal(A[n:n + idx.size, theta],
                                      image[off + idx])
                n += idx.size
                off += blk.n_points
        G = theta.size
        block = np.zeros((1 + 2 * G, asm.cols.n_vars))
        block[0, asm.cols.delta] = -1.0
        at_t = 1 + np.arange(2 * G)
        block[at_t, np.tile(theta, 2)] = np.repeat([1.0, -1.0], G)
        block[at_t, np.tile(asm.cols.t, 2)] = -1.0
        assert np.array_equal(A[n:], block)


def uncapped(asm):
    """asm with its margin caps removed, so none can bind."""
    out = copy.copy(asm)
    out.lp = copy.copy(asm.lp)
    out.lp.ub = asm.lp.ub.copy()
    out.lp.ub[asm.cols.delta] = np.inf
    return out


def test_vertex_and_dual_forms_share_the_optimum():
    # without caps some cells' margins grow without bound in both forms
    optimal = 0
    for asm in map(uncapped, oracle_cases()):
        mine, ref = solve_lp(asm.lp), solve_lp(machine_lp(asm))
        assert mine.status == ref.status
        if mine.status == "Optimal":
            optimal += 1
            assert abs(mine.objective - ref.objective) <= 1e-9 * abs(ref.objective)
    assert optimal


def test_lifted_optimum_is_dual_feasible():
    for asm in oracle_cases():
        sol = solve_lp(asm.lp)
        assert sol.status == "Optimal"
        assert violation(machine_lp(asm), lift(asm, sol.x)) <= 1e-9


def test_hand_and_machine_optima_match():
    spec, bounds, basis, dyn = setup()
    rng = np.random.default_rng(13)
    for _ in range(3):
        cell, lm = random_cell(rng)
        entry = transit_entry_for(cell, 0)
        asm = assemble_robust_lp(CellProblem(
            cell, entry, [lm], dyn, ALPHA_V, ALPHA_H, bounds, spec, basis))
        objs = []
        for lp in (asm.lp, machine_lp(asm)):
            sol = solve_lp(lp)
            assert sol.status == "Optimal"
            objs.append(sol.objective)
        assert abs(objs[0] - objs[1]) <= 1e-6 * (1.0 + abs(objs[0]))


def test_deviation_candidates_on_goal_regions():
    # the floored CLF region of goal_square: as built, cut down to the
    # corner of largest progress, and empty
    spec, bounds, basis, dyn = setup()
    _, cell, entry, _ = goal_square(spec, bounds, basis, dyn)
    top = max(float(entry.v @ (x - entry.o)) for x in cell.vertices)
    rng = np.random.default_rng(3)
    a = rng.uniform(-2.0, 6.0, size=(30, 2))
    for v_floor, n_points in (("auto", 3), (top, 1), (100.0, 0)):
        region = goal_square(spec, bounds, basis, dyn, v_floor=v_floor)[0].regions[0]
        assert region_points(region).shape[0] == n_points
        check_candidates_against_lp(region, a, rng)


def test_empty_clf_region_leaves_the_row_vacuous():
    # v_floor above every state's progress: the CLF row constrains nothing,
    # and its margin sits at its cap, 0.25 + 2 * 4.0 in both forms
    spec, bounds, basis, dyn = setup()
    asm = goal_square(spec, bounds, basis, dyn, v_floor=100.0)[0]
    objs = [solve_lp(lp).objective for lp in (asm.lp, machine_lp(asm))]
    assert objs[0] == pytest.approx(8.25, abs=1e-9)
    assert objs[1] == pytest.approx(8.25, abs=1e-9)


def test_margins_within_caps_and_bookkeeping():
    spec, bounds, basis, dyn = setup()
    rng = np.random.default_rng(17)
    asm, cell, entry, _ = assembled_random(rng, spec, bounds, basis, dyn)
    ctrl = synthesize_cell_controller(asm)
    assert ctrl.problem.entry is asm.problem.entry
    kinds = ctrl.to_dict()["kinds"]
    assert kinds[0] == "clf" and all(k == "cbf" for k in kinds[1:])
    assert ctrl.to_dict()["facets"] == [None] + [
        j for j in range(cell.body.n_rows) if j != 0]
    assert np.all(ctrl.margins >= -1e-9)
    caps = np.array([DELTA_CAP[k] for k in kinds])
    assert np.all(ctrl.margins <= caps + 1e-9)
    assert ctrl.status == "Optimal"
    assert ctrl.saturation["max_u_vertices"] >= 0.0


def test_tighter_bounds_cannot_lower_the_optimum():
    spec, _, basis, dyn = setup()
    rng = np.random.default_rng(19)
    cell, lm = random_cell(rng)
    entry = transit_entry_for(cell, 0)
    objs = []
    for eps, sig in ((0.125, 0.5), (0.25, 1.0)):
        asm = assemble_robust_lp(CellProblem(
            cell, entry, [lm], dyn, ALPHA_V, ALPHA_H,
            UncertaintyBounds(eps, sig), spec, basis))
        sol = solve_lp(asm.lp)
        assert sol.status == "Optimal"
        objs.append(sol.objective)
    assert objs[0] >= objs[1] - 1e-8


def test_second_landmark_cannot_lower_the_optimum():
    # zeroing the extra landmark's gains reproduces any single-landmark design
    spec, bounds, basis, dyn = setup()
    rng = np.random.default_rng(23)
    cell, lm = random_cell(rng)
    entry = transit_entry_for(cell, 0)
    objs = []
    for positions in ([lm], [lm, lm + np.array([1.0, -0.5])]):
        seen = ConvexCell(cell.id, cell.vertices, range(len(positions)))
        asm = assemble_robust_lp(CellProblem(
            seen, entry, positions, dyn, ALPHA_V, ALPHA_H, bounds, spec,
            basis))
        sol = solve_lp(asm.lp)
        assert sol.status == "Optimal"
        objs.append(sol.objective)
    assert objs[1] >= objs[0] - 1e-8


def test_goal_observation_is_an_equilibrium():
    spec, bounds, basis, dyn = setup()
    asm, cell, entry, goal = goal_square(spec, bounds, basis, dyn)
    ctrl = synthesize_cell_controller(asm)
    u = ctrl.bias.copy()
    for mat, lm in zip(ctrl.control_matrices(), ctrl.problem.landmarks):
        u = u + mat @ make_delta_pmf(spec, lm - goal).vector
    assert float(np.max(np.abs(u))) <= 1e-8


def test_goal_with_unbounded_spoofing_is_infeasible():
    # without a stability floor the decrease demand at the goal contradicts
    # the pinned equilibrium once the adversary may report any support point
    spec, bounds, basis, dyn = setup()
    asm, cell, entry, _ = goal_square(
        spec, bounds, basis, dyn,
        goal_bounds=UncertaintyBounds(1e3, 1e6), v_floor=None)
    with pytest.raises(SynthesisInfeasible):
        synthesize_cell_controller(asm)


def test_landmark_not_visible():
    spec, bounds, basis, dyn = setup()
    rng = np.random.default_rng(29)
    cell, _ = random_cell(rng)
    entry = transit_entry_for(cell, 0)
    with pytest.raises(LandmarkNotVisible):
        assemble_robust_lp(CellProblem(
            cell, entry, [np.array([100.0, 0.0])], dyn, ALPHA_V, ALPHA_H,
            bounds, spec, basis))


@pytest.mark.parametrize("n, width, landmark", [
    ((4, 4, 4), (16.0, 16.0, 16.0), [2.0, 2.0]),
    ((6, 6), (16.0, 16.0), [2.0]),
], ids=["2-D-landmark-on-3-D-grid", "one-coordinate-landmark"])
def test_landmark_of_another_dimension_than_the_grid(n, width, landmark):
    _, bounds, basis, dyn = setup()
    cell, _ = random_cell(np.random.default_rng(29))
    entry = transit_entry_for(cell, 0)
    with pytest.raises(DimensionMismatch, match="landmark dimension"):
        assemble_robust_lp(CellProblem(
            cell, entry, [np.array(landmark)], dyn, ALPHA_V, ALPHA_H, bounds,
            GridSpec(n, width), basis))


def test_controller_json_roundtrip(case_setup, tmp_path):
    # a loaded controller is bound to the run: it carries the environment's
    # cell, that cell's own plan entry and the environment's landmark
    # coordinates, and saving
    # the loaded controllers writes the bytes they were read from
    env, plan = case_setup["env"], case_setup["plan"]
    ctrls = case_setup["controllers"]
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_controllers(ctrls, str(p1))
    loaded = load_controllers(str(p1), env, plan)
    save_controllers(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert list(loaded) == list(ctrls) == sorted(plan.entries)
    for cell_id, back in loaded.items():
        ctrl = ctrls[cell_id]
        problem = back.problem
        assert problem.cell is env.cell_by_id(cell_id)
        assert problem.entry is plan.entries[cell_id]
        assert np.array_equal(problem.landmarks,
                              env.landmarks[problem.cell.landmark_ids])
        assert np.array_equal(back.bias, ctrl.bias)
        for a, b in zip(back.gains, ctrl.gains):
            for ai, bi in zip(a, b):
                assert np.array_equal(ai, bi)
    # a valid json document, not just readable by our loader
    json.loads(p1.read_text())


@pytest.mark.parametrize("key, value", [
    ("kinds", lambda kinds: ["clf"] * len(kinds)),
    ("facets", lambda facets: [0] + facets[1:]),
], ids=["second-clf-row", "clf-row-on-a-facet"])
def test_load_refuses_rows_other_than_the_entry(case_setup, tmp_path, key,
                                                value):
    # a loaded controller carries its cell's plan entry, so kinds and facets
    # must be that entry's rows: one clf row without a facet, then one cbf
    # row per barrier
    data = [c.to_dict() for c in case_setup["controllers"].values()]
    data[1] = dict(data[1], **{key: value(data[1][key])})
    path = tmp_path / "controllers.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError) as info:
        load_controllers(str(path), case_setup["env"], case_setup["plan"])
    assert info.value.field == "controllers.1"
    assert "(%s differ)" % key in str(info.value)


def test_margins_must_match_the_entry_rows():
    spec, bounds, basis, dyn = setup()
    asm, _, _, _ = assembled_random(np.random.default_rng(31), spec, bounds,
                                    basis, dyn)
    ctrl = synthesize_cell_controller(asm)
    data = ctrl.to_dict()
    data["delta"] = data["delta"][:-1]
    p = ctrl.problem
    with pytest.raises(DimensionMismatch, match="rows disagree"):
        synthesis.CellController.from_dict(data, p.cell, p.entry,
                                           p.landmarks)


@pytest.mark.parametrize("other", [
    lambda cell: ConvexCell(cell.id + 1, cell.vertices, cell.landmark_ids),
    lambda cell: ConvexCell(cell.id, cell.vertices, cell.landmark_ids * 2),
], ids=["another-cell-id", "another-landmark-count"])
def test_controller_refuses_a_cell_its_entry_does_not_name(other):
    # a controller's problem pairs the cell with its plan entry and
    # landmarks where it is built: the cell must be the one the entry
    # names, with one landmark id per landmark coordinate
    spec, bounds, basis, dyn = setup()
    asm, _, _, _ = assembled_random(np.random.default_rng(31), spec, bounds,
                                    basis, dyn)
    ctrl = synthesize_cell_controller(asm)
    p = ctrl.problem
    with pytest.raises(DimensionMismatch, match="entry, cell and landmarks"):
        synthesis.CellController.from_dict(ctrl.to_dict(), other(p.cell),
                                           p.entry, p.landmarks)


def test_feature_matrices_grid_mismatch():
    """The feature maps are built on the controller's own grid: a PMF on a
    grid of the same shape but another width is refused, not mis-read."""
    spec, bounds, basis, dyn = setup()
    rng = np.random.default_rng(37)
    asm, cell, entry, _ = assembled_random(rng, spec, bounds, basis, dyn)
    ctrl = synthesize_cell_controller(asm)
    assert ctrl.problem.grid == spec
    n_p = int(np.prod(spec.n))
    assert all(m.shape[-1] == n_p for m in ctrl.control_matrices())
    y = np.zeros(2)
    landmarks = ctrl.problem.landmarks
    u = control_input(ctrl, [make_delta_pmf(spec, y) for _ in landmarks])
    assert u.shape == ctrl.bias.shape
    other = GridSpec((10, 10), (12.0, 12.0))
    with pytest.raises(GridMismatch):
        control_input(ctrl, [make_delta_pmf(other, y) for _ in landmarks])


def packaged_cell(env, mode, cell_id, spec, bounds):
    """Assembled LP, cell, plan entry and tiebreak target of one cell of a
    packaged environment, built as synthesize_environment builds them."""
    _, _, basis, dyn = setup()
    entry = make_plan(env, build_graph(env), mode).entries[cell_id]
    cell = env.cell_by_id(cell_id)
    positions = [env.landmarks[j] for j in cell.landmark_ids]
    v_floor = (goal_v_floor(entry, bounds, spec)
               if entry.exit_face is None else None)
    asm = assemble_robust_lp(CellProblem(
        cell, entry, positions, dyn, ALPHA_V, ALPHA_H, bounds, spec, basis,
        v_floor))
    return asm, cell, entry, nominal_theta(asm)


def margin_first(asm, nominal):
    """The solution of the margin LP, then of the tiebreak floored at its
    optimum."""
    sol = solve_lp(asm.lp)
    return solve_lp(_tiebreak_lp(asm, sol.objective, nominal)).x


def assert_read_from(ctrl, asm, x):
    """ctrl's gains, bias and margins are those of the LP solution x."""
    cols = asm.cols
    expected = dict(ctrl.to_dict(), K=x[cols.gain].tolist(),
                    K_b=x[cols.bias].tolist(), delta=x[cols.delta].tolist())
    assert ctrl.to_dict() == expected


def recorded_solves(monkeypatch, solve=solve_lp):
    """Route synthesis's LP solves through solve, recording each LP's sense
    and the status it returned."""
    calls = []

    def recorded(lp):
        sol = solve(lp)
        calls.append((lp.sense, sol.status))
        return sol

    monkeypatch.setattr(synthesis, "solve_lp", recorded)
    return calls


def test_reachable_caps_take_one_solve(patrol_env, monkeypatch):
    # patrol.json's bounds and grid: every margin of cell 0 reaches its cap,
    # so the tiebreak floored at the sum of the caps is the only solve
    spec = GridSpec((20, 20), (60.0, 60.0))
    asm, cell, entry, nominal = packaged_cell(
        patrol_env, "patrol", 0, spec, UncertaintyBounds(4.0, 16.0))
    expected = margin_first(asm, nominal)
    calls = recorded_solves(monkeypatch)
    ctrl = synthesize_cell_controller(asm)
    assert calls == [("min", "Optimal")]
    assert np.array_equal(ctrl.margins,
                          [DELTA_CAP[k] for k in ctrl.to_dict()["kinds"]])
    assert_read_from(ctrl, asm, expected)


def test_unreachable_caps_fall_back_to_margin_first(annulus_env, monkeypatch):
    # case-study cell 1 at eps 12 reaches a margin sum of 0.25 of its 4.25:
    # the floored tiebreak is infeasible, and the margin pass floors it anew
    spec = GridSpec((30, 30), (40.0, 40.0))
    asm, cell, entry, nominal = packaged_cell(
        annulus_env, "stabilize", 1, spec, UncertaintyBounds(12.0, 16.0))
    expected = margin_first(asm, nominal)
    calls = recorded_solves(monkeypatch)
    ctrl = synthesize_cell_controller(asm)
    assert calls == [("min", "Infeasible"), ("max", "Optimal"),
                     ("min", "Optimal")]
    assert ctrl.margins.sum() < np.sum(asm.lp.ub[asm.cols.delta]) - 1.0
    assert_read_from(ctrl, asm, expected)


def test_infeasible_cell_with_a_target_is_infeasible(monkeypatch):
    spec, bounds, basis, dyn = setup()
    spoofed = UncertaintyBounds(1e3, 1e6)
    asm, cell, entry, _ = goal_square(spec, bounds, basis, dyn,
                                      goal_bounds=spoofed, v_floor=None)
    calls = recorded_solves(monkeypatch)
    with pytest.raises(SynthesisInfeasible):
        synthesize_cell_controller(asm)
    assert calls == [("min", "Infeasible"), ("max", "Infeasible")]


def test_failed_tiebreak_warns_and_keeps_the_margin_gains(patrol_env,
                                                          monkeypatch):
    spec = GridSpec((20, 20), (60.0, 60.0))
    asm, cell, entry, nominal = packaged_cell(
        patrol_env, "patrol", 1, spec, UncertaintyBounds(4.0, 16.0))
    margin = solve_lp(asm.lp).x

    def no_tiebreak(lp):
        if lp.sense == "min":
            return LpSolution("Infeasible", None, None, None, None)
        return solve_lp(lp)

    calls = recorded_solves(monkeypatch, no_tiebreak)
    with pytest.warns(UserWarning, match="tiebreak pass returned Infeasible "
                                         "for cell 1"):
        ctrl = synthesize_cell_controller(asm)
    assert calls == [("min", "Infeasible"), ("max", "Optimal"),
                     ("min", "Infeasible")]
    assert_read_from(ctrl, asm, margin)


def margin_only(asm):
    """asm's margin LP without the tiebreak block: its last 1 + 2G
    inequality rows and its G columns t sliced off."""
    lp, G = asm.lp, asm.cols.t.size
    n, m = lp.n_vars - G, lp.b_ub.size - (1 + 2 * G)
    return StandardLp(lp.sense, lp.c[:n], A_ub=lp.A_ub[:m, :n],
                      b_ub=lp.b_ub[:m], A_eq=lp.A_eq[:, :n], b_eq=lp.b_eq,
                      lb=lp.lb[:n], ub=lp.ub[:n], lazy=lp.lazy[:m])


def stacked_tiebreak_lp(asm, z_star, nominal):
    """Oracle for _tiebreak_lp: the tiebreak LP stacked onto margin_only(asm)
    by sparse hstack and vstack, new columns t >= |theta - target| and,
    below the margin rows, the objective floor and +-theta - t <=
    +-target."""
    lp = margin_only(asm)
    theta = asm.cols.theta
    G = theta.size
    n = lp.n_vars
    pad_ub = sp.hstack([lp.A_ub, sp.csr_matrix((lp.b_ub.shape[0], G))])
    obj_cols = np.nonzero(lp.c)[0]
    extra = synthesis._Coo()
    extra.add(0, obj_cols, -lp.c[obj_cols])
    rows = 1 + np.arange(2 * G)
    extra.add(rows, np.tile(theta, 2), np.repeat([1.0, -1.0], G))
    extra.add(rows, n + np.tile(np.arange(G), 2), -1.0)
    tol = synthesis.TIEBREAK_TOL * max(1.0, abs(z_star))
    A_ub = sp.vstack([pad_ub, extra.matrix((1 + 2 * G, n + G))]).tocsr()
    b_ub = np.concatenate([
        lp.b_ub, [-(z_star - tol)], nominal, -np.asarray(nominal),
    ])
    A_eq = sp.hstack([lp.A_eq, sp.csr_matrix((lp.b_eq.shape[0], G))]).tocsr()
    c = np.zeros(n + G)
    c[n:] = 1.0
    lb = np.concatenate([lp.lb, np.zeros(G)])
    ub = np.concatenate([lp.ub, np.full(G, np.inf)])
    lazy = np.concatenate([lp.lazy, np.zeros(1 + 2 * G, dtype=bool)])
    return StandardLp("min", c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=lp.b_eq,
                      lb=lb, ub=ub, lazy=lazy)


def assert_same_lp(a, b):
    """a and b are the same LP, array for array, down to the CSR layout."""
    assert a.sense == b.sense
    for name in ("c", "b_ub", "b_eq", "lb", "ub", "lazy"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("A_ub", "A_eq"):
        A, B = getattr(a, name), getattr(b, name)
        assert A.shape == B.shape, name
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(A, part), getattr(B, part)), (
                name, part)


@pytest.mark.parametrize("env_name, mode, spec, eps", [
    ("annulus_env", "stabilize", GridSpec((30, 30), (40.0, 40.0)), 4.0),
    ("annulus_env", "stabilize", GridSpec((30, 30), (40.0, 40.0)), 12.0),
    ("patrol_env", "patrol", GridSpec((20, 20), (60.0, 60.0)), 4.0),
], ids=["case-study", "case-study-eps-12", "patrol"])
def test_tiebreak_lp_is_the_stacked_lp_on_the_assembled_matrix(
        request, env_name, mode, spec, eps):
    # the cap-floor tiebreak of every cell, and at eps 12, where every cell
    # falls back to the margin pass, the tiebreak from its optimum: the
    # margin LP's own matrices, and the margin optimum is that of the LP
    # without the tiebreak block, bit for bit
    env = request.getfixturevalue(env_name)
    for cell in env.cells:
        asm, _, _, nominal = packaged_cell(env, mode, cell.id, spec,
                                           UncertaintyBounds(eps, 16.0))
        floors = [float(np.sum(asm.lp.ub[asm.cols.delta]))]
        if eps == 12.0:
            margin = solve_lp(asm.lp).objective
            assert margin == solve_lp(margin_only(asm)).objective
            floors.append(margin)
        for z in floors:
            tb = _tiebreak_lp(asm, z, nominal)
            assert tb.A_ub is asm.lp.A_ub and tb.A_eq is asm.lp.A_eq
            assert_same_lp(tb, stacked_tiebreak_lp(asm, z, nominal))


def test_loaded_controller_reassembles_its_own_lp(tmp_path, monkeypatch):
    # a saved controller carries its whole cell problem: the LP rebuilt
    # from a loaded controller's problem is the one synthesis solved, array
    # for array, on both cells of the packaged patrol
    cfg = cli.load_config(os.path.join(os.path.dirname(cli.__file__), "data",
                                       "patrol.json"))
    env = cfg.environment
    plan = make_plan(env, build_graph(env), cfg.mode)
    solved = {}

    def recorded(problem):
        solved[problem.cell.id] = asm = assemble_robust_lp(problem)
        return asm

    monkeypatch.setattr(synthesis, "assemble_robust_lp", recorded)
    ctrls = synthesis.synthesize_environment(
        env, plan.entries, LinearDynamics.single_integrator(env.dimension),
        cfg.grid, cfg.bounds, cfg.basis, cfg.alpha_v, cfg.alpha_h)
    path = str(tmp_path / "controllers.json")
    save_controllers(ctrls, path)
    loaded = load_controllers(path, env, plan)
    assert sorted(loaded) == sorted(solved) == [0, 1]
    for cell_id, ctrl in loaded.items():
        assert_same_lp(assemble_robust_lp(ctrl.problem).lp,
                       solved[cell_id].lp)


def full_solve(asm):
    """asm with no row lazy, so HiGHS sees every row at once."""
    out = copy.copy(asm)
    out.lp = copy.copy(asm.lp)
    out.lp.lazy = np.zeros_like(asm.lp.lazy)
    return out


def lazy_and_full(env, mode, spec, bounds):
    """Per cell of env, the controller solved by row generation and the one
    solved from every row of the same LP."""
    out = {}
    for cell in env.cells:
        asm = packaged_cell(env, mode, cell.id, spec, bounds)[0]
        assert asm.lp.lazy.any()
        out[cell.id] = tuple(
            synthesize_cell_controller(lp) for lp in (asm, full_solve(asm)))
    return out


def gain_gap(a, b):
    return max(float(np.max(np.abs(np.asarray(a.gains) - np.asarray(b.gains)))),
               float(np.max(np.abs(a.bias - b.bias))))


@pytest.mark.parametrize("env_name, mode, spec", [
    ("annulus_env", "stabilize", GridSpec((30, 30), (40.0, 40.0))),
    ("patrol_env", "patrol", GridSpec((20, 20), (60.0, 60.0))),
], ids=["case-study", "patrol"])
def test_lazy_rows_match_the_full_solve(request, env_name, mode, spec):
    env = request.getfixturevalue(env_name)
    pairs = lazy_and_full(env, mode, spec, UncertaintyBounds(4.0, 16.0))
    for lazy, full in pairs.values():
        assert np.array_equal(lazy.margins, full.margins)
        assert gain_gap(lazy, full) <= 1e-12


def test_lazy_rows_match_the_full_solve_where_caps_are_missed(annulus_env):
    # at eps 12 every case-study cell misses a cap and falls back to the
    # margin pass; the lazy controllers still pass verification
    pairs = lazy_and_full(annulus_env, "stabilize",
                          GridSpec((30, 30), (40.0, 40.0)),
                          UncertaintyBounds(12.0, 16.0))
    for lazy, full in pairs.values():
        assert np.max(np.abs(lazy.margins - full.margins)) <= 1e-8
    reports = verification.verify_environment(
        {cell_id: lazy for cell_id, (lazy, _) in pairs.items()},
        count=50, seed=0, raise_on_fail=False)
    assert len(reports) == 8 and all(r.passed for r in reports)
