"""Shared builders for randomized test cells and small synthesis setups."""

import numpy as np
import scipy.sparse as sp

from safefield.clfcbf import LinearDynamics
from safefield.geometry import ConvexCell, Environment, polygon_to_halfspaces
from safefield.lp_core import StandardLp
from safefield.measurement import GridSpec, UncertaintyBounds
from safefield.planning import PlanEntry
from safefield.synthesis import GainBasis, _machine_fill


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
    body = polygon_to_halfspaces(verts)
    cell = ConvexCell(cell_id, body, [0])
    centroid = verts.mean(axis=0)
    landmark = centroid + rng.uniform(-0.3, 0.3, size=2) * radius
    return cell, landmark


def transit_entry_for(cell, exit_face):
    """Plan entry for one facet of a cell: inward normal, facet midpoint."""
    A = cell.body.A
    b = cell.body.b
    verts = cell.vertices
    on = [v for v in verts if abs(A[exit_face] @ v + b[exit_face]) <= 1e-9]
    o = np.mean(on, axis=0)
    return PlanEntry(cell.id, exit_face, -A[exit_face], o)


def machine_lp(asm):
    """The assembled LP with its dualized rows rebuilt by the mechanical
    derivation from the same rows, regions and blocks. The goal equality is
    not a dualization, so its rows are copied from the assembled LP."""
    meta, lp = asm.meta, asm.lp
    ub, b_ub, eq, b_eq = _machine_fill(meta, asm.rows, asm.regions, asm.blocks)
    g0 = meta.n_eq - meta.n_goal_rows
    A_eq = sp.vstack([eq.matrix((meta.n_eq, meta.n_vars))[:g0], lp.A_eq[g0:]])
    b_eq[g0:] = lp.b_eq[g0:]
    return StandardLp(lp.sense, lp.c,
                      A_ub=ub.matrix((meta.n_ub, meta.n_vars)), b_ub=b_ub,
                      A_eq=A_eq, b_eq=b_eq, lb=lp.lb, ub=lp.ub)


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
        ConvexCell(0, polygon_to_halfspaces(
            [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), [0]),
        ConvexCell(1, polygon_to_halfspaces(
            [[1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0]]), [1]),
        ConvexCell(2, polygon_to_halfspaces(
            [[0.0, 1.0], [2.0, 1.0], [2.0, 2.0], [0.0, 2.0]]), [2]),
    ]
    return Environment(cells, [[1.0, 1.0], [1.5, 0.5], [1.0, 1.5]],
                       [0.4, 1.6], [1.0, 1.0], patrol_cycle=[0, 1])
