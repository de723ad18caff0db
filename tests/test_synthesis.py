import json

import numpy as np
import pytest

from helpers import machine_lp, random_cell, transit_entry_for
from safefield.clfcbf import LinearDynamics
from safefield.errors import GridMismatch, LandmarkNotVisible, SynthesisInfeasible
from safefield.geometry import ConvexCell, polygon_to_halfspaces
from safefield.lp_core import solve_lp
from safefield.measurement import GridSpec, UncertaintyBounds, make_delta_pmf
from safefield.planning import PlanEntry
from safefield.synthesis import (
    DELTA_CAP_DEFAULT,
    GainBasis,
    _matrices_match,
    assemble_robust_lp,
    goal_v_floor,
    load_controllers,
    save_controllers,
    synthesize_cell_controller,
)

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
    cell.exit_face = 0
    entry = transit_entry_for(cell, 0)
    if positions is None:
        positions = [lm]
    asm = assemble_robust_lp(cell, entry, dyn, ALPHA_V, ALPHA_H, bounds, spec,
                             positions, basis)
    return asm, cell, entry, lm


def goal_square(spec, bounds, basis, dyn, goal_bounds=None, v_floor="auto"):
    """Square cell with the goal at a vertex; barriers on the facets away
    from the goal, matching how a planner treats a goal-vertex cell."""
    verts = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]])
    cell = ConvexCell(9, polygon_to_halfspaces(verts), [0])
    goal = np.array([0.0, 0.0])
    v = verts.mean(axis=0) - goal
    entry = PlanEntry(9, None, v / np.linalg.norm(v), goal)
    walls = [j for j in range(cell.body.n_rows)
             if abs(cell.body.A[j] @ goal + cell.body.b[j]) > 1e-9]
    use_bounds = goal_bounds or bounds
    if v_floor == "auto":
        v_floor = goal_v_floor(entry, use_bounds, spec)
    asm = assemble_robust_lp(cell, entry, dyn, ALPHA_V, ALPHA_H, use_bounds,
                             spec, [np.array([2.0, 2.0])], basis,
                             barrier_facets=walls, v_floor=v_floor, goal=goal)
    return asm, cell, entry, goal


def test_lp_dimensions_square():
    # d=2, 4 facets (1 exit), 9 grid points, 3 basis kinds, 1 landmark
    spec = GridSpec((3, 3), (8.0, 8.0))
    _, bounds, basis, dyn = setup()
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cell = ConvexCell(0, polygon_to_halfspaces(verts), [0])
    cell.exit_face = 0
    entry = transit_entry_for(cell, 0)
    asm = assemble_robust_lp(cell, entry, dyn, ALPHA_V, ALPHA_H, bounds, spec,
                             [np.array([0.5, 0.5])], basis)
    assert asm.meta.layout.n_gains == 14
    assert asm.meta.n_vars == 494
    assert asm.meta.n_ub == 40
    assert asm.meta.n_eq == 224
    assert asm.lp.A_ub.shape == (40, 494)
    assert asm.lp.A_eq.shape == (224, 494)


def test_hand_and_machine_assemblies_agree():
    # _matrices_match compares at MATRIX_MATCH_TOL (1e-12)
    spec, bounds, basis, dyn = setup()
    rng = np.random.default_rng(11)
    cases = [assembled_random(rng, spec, bounds, basis, dyn)[0] for _ in range(5)]
    cases.append(goal_square(spec, bounds, basis, dyn)[0])
    cell, lm = random_cell(rng)
    cell.exit_face = 0
    cases.append(assemble_robust_lp(cell, transit_entry_for(cell, 0), dyn,
                                    ALPHA_V, ALPHA_H, bounds, spec,
                                    [lm, lm + np.array([1.0, -0.5])], basis))
    assert cases[-2].meta.n_goal_rows and cases[-1].meta.layout.n_landmarks == 2
    for asm in cases:
        lp, ref = asm.lp, machine_lp(asm)
        assert _matrices_match(lp.A_ub, lp.b_ub, lp.A_eq, lp.b_eq,
                               ref.A_ub, ref.b_ub, ref.A_eq, ref.b_eq)


def test_hand_and_machine_optima_match():
    spec, bounds, basis, dyn = setup()
    rng = np.random.default_rng(13)
    for _ in range(3):
        cell, lm = random_cell(rng)
        cell.exit_face = 0
        entry = transit_entry_for(cell, 0)
        asm = assemble_robust_lp(cell, entry, dyn, ALPHA_V, ALPHA_H,
                                 bounds, spec, [lm], basis)
        objs = []
        for lp in (asm.lp, machine_lp(asm)):
            sol = solve_lp(lp)
            assert sol.status == "Optimal"
            objs.append(sol.objective)
        assert abs(objs[0] - objs[1]) <= 1e-6 * (1.0 + abs(objs[0]))


def test_margins_within_caps_and_bookkeeping():
    spec, bounds, basis, dyn = setup()
    rng = np.random.default_rng(17)
    asm, cell, entry, _ = assembled_random(rng, spec, bounds, basis, dyn)
    ctrl = synthesize_cell_controller(asm, cell, entry, list(cell.landmark_ids))
    assert ctrl.kinds[0] == "clf" and all(k == "cbf" for k in ctrl.kinds[1:])
    assert ctrl.facets[0] is None
    assert ctrl.facets[1:] == [j for j in range(cell.body.n_rows) if j != 0]
    assert np.all(ctrl.margins >= -1e-9)
    caps = np.array([DELTA_CAP_DEFAULT[k] for k in ctrl.kinds])
    assert np.all(ctrl.margins <= caps + 1e-9)
    assert ctrl.status == "Optimal"
    assert ctrl.saturation["max_u_vertices"] >= 0.0


def test_tighter_bounds_cannot_lower_the_optimum():
    spec, _, basis, dyn = setup()
    rng = np.random.default_rng(19)
    cell, lm = random_cell(rng)
    cell.exit_face = 0
    entry = transit_entry_for(cell, 0)
    objs = []
    for eps, sig in ((0.125, 0.5), (0.25, 1.0)):
        asm = assemble_robust_lp(cell, entry, dyn, ALPHA_V, ALPHA_H,
                                 UncertaintyBounds(eps, sig), spec, [lm], basis)
        sol = solve_lp(asm.lp)
        assert sol.status == "Optimal"
        objs.append(sol.objective)
    assert objs[0] >= objs[1] - 1e-8


def test_second_landmark_cannot_lower_the_optimum():
    # zeroing the extra landmark's gains reproduces any single-landmark design
    spec, bounds, basis, dyn = setup()
    rng = np.random.default_rng(23)
    cell, lm = random_cell(rng)
    cell.exit_face = 0
    entry = transit_entry_for(cell, 0)
    objs = []
    for positions in ([lm], [lm, lm + np.array([1.0, -0.5])]):
        asm = assemble_robust_lp(cell, entry, dyn, ALPHA_V, ALPHA_H, bounds,
                                 spec, positions, basis)
        sol = solve_lp(asm.lp)
        assert sol.status == "Optimal"
        objs.append(sol.objective)
    assert objs[1] >= objs[0] - 1e-8


def test_goal_observation_is_an_equilibrium():
    spec, bounds, basis, dyn = setup()
    asm, cell, entry, goal = goal_square(spec, bounds, basis, dyn)
    ctrl = synthesize_cell_controller(asm, cell, entry, [0])
    u = ctrl.bias.copy()
    for mat, lm in zip(ctrl.control_matrices(spec), ctrl.landmarks):
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
        synthesize_cell_controller(asm, cell, entry, [0])


def test_landmark_not_visible():
    spec, bounds, basis, dyn = setup()
    rng = np.random.default_rng(29)
    cell, _ = random_cell(rng)
    cell.exit_face = 0
    entry = transit_entry_for(cell, 0)
    with pytest.raises(LandmarkNotVisible):
        assemble_robust_lp(cell, entry, dyn, ALPHA_V, ALPHA_H, bounds, spec,
                           [np.array([100.0, 0.0])], basis)


def test_controller_json_roundtrip(tmp_path):
    spec, bounds, basis, dyn = setup()
    rng = np.random.default_rng(31)
    asm, cell, entry, _ = assembled_random(rng, spec, bounds, basis, dyn)
    ctrl = synthesize_cell_controller(asm, cell, entry, list(cell.landmark_ids))
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_controllers([ctrl], str(p1))
    loaded = load_controllers(str(p1))
    save_controllers(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    back = loaded[0]
    assert back.cell_id == ctrl.cell_id
    assert np.array_equal(back.bias, ctrl.bias)
    for a, b in zip(back.gains, ctrl.gains):
        for ai, bi in zip(a, b):
            assert np.array_equal(ai, bi)
    x = np.array([0.3, -0.7])
    assert back.progress(x) == ctrl.progress(x)
    # a valid json document, not just readable by our loader
    json.loads(p1.read_text())


def test_feature_matrices_grid_mismatch():
    spec, bounds, basis, dyn = setup()
    rng = np.random.default_rng(37)
    asm, cell, entry, _ = assembled_random(rng, spec, bounds, basis, dyn)
    ctrl = synthesize_cell_controller(asm, cell, entry, list(cell.landmark_ids))
    with pytest.raises(GridMismatch):
        ctrl.feature_matrices(GridSpec((10, 10), (12.0, 12.0)))
