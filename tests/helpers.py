"""Shared builders for randomized test cells and small synthesis setups."""

import numpy as np
from scipy.optimize import linprog as scipy_linprog

from safefield import lp_core
from safefield.clfcbf import LinearDynamics
from safefield.geometry import (ConvexCell, Environment, deviation_candidates,
                                region_points)
from safefield.lp_core import StandardLp, solve_lp
from safefield.measurement import GridSpec, UncertaintyBounds
from safefield.planning import PlanEntry
from safefield.controller import CellController, CellProblem, GainBasis


def random_convex_polygon(rng, n_min=4, n_max=7, radius=3.0, center=(0.0, 0.0)):
    """Counterclockwise convex polygon: circle points under a random stretch
    (affine images of a circle polygon stay convex)."""
    n = int(rng.integers(n_min, n_max + 1))
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
        gaps = np.diff(np.r_[ang, ang[0] + 2.0 * np.pi])
        if gaps.min() > 0.3 and gaps.max() < np.pi - 0.3:
            break
    pts = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    pts = pts * rng.uniform(0.6, 1.0, size=2)
    return pts + np.asarray(center, dtype=float)


def random_cell(rng, cell_id=0, n_min=4, n_max=7, radius=3.0):
    """Random convex cell with the landmark drawn near the centroid."""
    verts = random_convex_polygon(rng, n_min, n_max, radius)
    cell = ConvexCell(cell_id, verts, [0])
    centroid = verts.mean(axis=0)
    landmark = centroid + rng.uniform(-0.3, 0.3, size=2) * radius
    return cell, landmark


def transit_entry_for(cell, exit_face):
    """Plan entry for one facet of a cell: inward normal, facet midpoint,
    and every other facet a barrier."""
    A = cell.body.A
    b = cell.body.b
    verts = cell.vertices
    on = [v for v in verts if abs(A[exit_face] @ v + b[exit_face]) <= 1e-9]
    o = np.mean(on, axis=0)
    barriers = [j for j in range(cell.body.n_rows) if j != exit_face]
    return PlanEntry(cell.id, exit_face, -A[exit_face], o, barriers=barriers)


def check_candidates_against_lp(hs, a, rng):
    """For a random weight lam >= 0 per point a[i], some zero, the minimum of
    lam.|x - a[i]| over deviation_candidates equals the LP minimum over x in
    hs, with t >= |x - a[i]|; an empty hs has no candidates and an
    infeasible LP. Returns how many a[i] lie in hs."""
    idx, gap = deviation_candidates(hs, region_points(hs), a)
    inside = 0
    for i, ai in enumerate(a):
        lam = rng.uniform(0.0, 1.0, size=2) * (rng.uniform(size=2) > 0.2)
        eye, zero = np.eye(2), np.zeros((hs.n_rows, 2))
        sol = solve_lp(StandardLp(
            "min", np.r_[0.0, 0.0, lam],
            A_ub=np.block([[hs.A, zero], [eye, -eye], [-eye, -eye]]),
            b_ub=np.r_[-hs.b, ai, -ai], lb=np.full(4, -np.inf)))
        mine = gap[idx == i] @ lam
        if sol.status == "Infeasible":
            assert mine.size == 0
            continue
        assert abs(mine.min() - sol.objective) <= 1e-9
        inside += hs.contains(ai)
    return inside


def small_setup(n=(6, 6), width=(16.0, 16.0), epsilon=2.0, sigma_m=8.0):
    spec = GridSpec(n, width)
    bounds = UncertaintyBounds(epsilon, sigma_m)
    basis = GainBasis()
    dynamics = LinearDynamics.single_integrator(2)
    return spec, bounds, basis, dynamics


def three_cell_env():
    """Two unit squares under a roof strip; the goal vertex (1, 1) touches
    all three cells, so every facet through it is shared and the goal cell
    keeps its hard walls away from the goal. The goal landmark sits on the
    goal so its observation snaps tie-to-lower and the resulting idle
    plateau lies outside the cell."""
    cells = [
        ConvexCell(0, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], [0]),
        ConvexCell(1, [[1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0]], [1]),
        ConvexCell(2, [[0.0, 1.0], [2.0, 1.0], [2.0, 2.0], [0.0, 2.0]], [2]),
    ]
    return Environment(cells, [[1.0, 1.0], [1.5, 0.5], [1.0, 1.5]],
                       [0.4, 1.6], [1.0, 1.0], patrol_cycle=[0, 1])


# Cell 0 = [0, 3]^2 reads its landmark at (0, 0): the far vertex (3, 3) sees
# it at exactly the half-width of a 6-wide grid, as annulus8.json's cell 0
# sees its landmark at the half-width of a 40-wide one. Cell 0 is the goal
# cell, so its face x = 3, shared with cell 1, carries no barrier.
OFF_GRID_ENV = {
    "cells": [
        {"id": 0, "vertices": [[0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [0.0, 3.0]],
         "landmark_ids": [0]},
        {"id": 1, "vertices": [[3.0, 0.0], [6.0, 0.0], [6.0, 3.0], [3.0, 3.0]],
         "landmark_ids": [1]},
    ],
    "landmarks": [[0.0, 0.0], [6.0, 0.0]],
    "start": [1.0, 1.5],
    "goal": [0.0, 0.0],
}


def pushing_controller(env, plan, grid, bounds, basis, cell_id=0,
                       bias=(1.5, 0.0)):
    """The controller of cell_id with zero gains and a constant input bias.
    By default it pushes cell 0 of OFF_GRID_ENV along +x, through the
    barrier-free face x = 3; the loop keeps it for up to |u| dt past that
    face, where its landmark is off the grid."""
    cell = env.cell_by_id(cell_id)
    entry = plan.entries[cell_id]
    problem = CellProblem(
        cell, entry, [env.landmarks[j] for j in cell.landmark_ids],
        LinearDynamics.single_integrator(2), 1.0, 100.0, bounds, grid, basis)
    gains = [[np.zeros((2, 2)) for _ in range(basis.n_k)]]
    return CellController(problem, gains, bias=list(bias),
                          margins=np.full(1 + len(entry.barriers), 0.1))


# Two triangles that share the diagonal x + y = 40, so each patrol exit is
# oblique: v = (+-1, +-1) / sqrt(2), where BLAS may round v . (x - o) unlike
# the scalar sum. Run with patrol.json's settings.
OBLIQUE_PATROL_ENV = {
    "cells": [
        {"id": 0, "vertices": [[0.0, 0.0], [40.0, 0.0], [0.0, 40.0]],
         "landmark_ids": [0]},
        {"id": 1, "vertices": [[40.0, 0.0], [40.0, 40.0], [0.0, 40.0]],
         "landmark_ids": [1]},
    ],
    "landmarks": [[13.0, 13.0], [27.0, 27.0]],
    "start": [10.0, 10.0],
    "goal": [40.0, 0.0],
    "patrol_cycle": [0, 1],
}


def same_bits(a, b):
    """a and b are both None, or arrays (or floats) of equal shape, dtype
    and bytes: signed zeros and NaN payloads included."""
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_highs_matches_linprog(c, A, b, n_ub, lb, ub):
    """lp_core.linprog on this model returns, bit for bit, what SciPy's
    public linprog(method="highs") returns for the same LP given as A_ub,
    b_ub, A_eq, b_eq and bounds: the status, x, the objective, the
    inequality and equality marginals and the simplex iterations. Returns
    the status."""
    mine = lp_core.linprog(c, A, b, n_ub, lb, ub)
    A = A.tocsr()
    n_eq = A.shape[0] - n_ub
    theirs = scipy_linprog(
        c, A_ub=A[:n_ub] if n_ub else None, b_ub=b[:n_ub] if n_ub else None,
        A_eq=A[n_ub:] if n_eq else None, b_eq=b[n_ub:] if n_eq else None,
        bounds=np.column_stack([lb, ub]), method="highs")
    assert mine.status == theirs.status, (mine.message, theirs.message)
    assert mine.nit == theirs.nit
    assert same_bits(mine.x, theirs.x)
    assert same_bits(mine.fun, theirs.fun)
    if mine.status == 0:
        assert same_bits(mine.duals[:n_ub], theirs.ineqlin.marginals)
        assert same_bits(mine.duals[n_ub:], theirs.eqlin.marginals)
    else:
        assert mine.duals is None
    return mine.status
