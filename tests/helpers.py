"""Shared builders for randomized test cells and small synthesis setups."""

import json
import os

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog as scipy_linprog

from safefield import cli, lp_core, simulation, synthesis
from safefield.clfcbf import LinearDynamics
from safefield.geometry import (ABS_TOL, ConvexCell, Environment,
                                deviation_candidates, region_points)
from safefield.lp_core import StandardLp, solve_lp
from safefield.measurement import GridSpec, UncertaintyBounds
from safefield.planning import PlanEntry
from safefield.controller import CellController, CellProblem, GainBasis


class Coo:
    """The oracles' own matrix writer: entries added as broadcast (rows,
    cols, vals) triplets, an entry added twice summed, as scipy.sparse
    sums a COO's duplicates."""

    def __init__(self):
        self.r, self.c, self.v = [], [], []

    def add(self, rows, cols, vals):
        rows, cols, vals = np.broadcast_arrays(
            np.atleast_1d(np.asarray(rows, dtype=np.int64)),
            np.atleast_1d(np.asarray(cols, dtype=np.int64)),
            np.atleast_1d(np.asarray(vals, dtype=float)),
        )
        self.r.append(rows.ravel())
        self.c.append(cols.ravel())
        self.v.append(vals.ravel())

    def matrix(self, shape):
        """The summed entries as CSR, without stored zeros."""
        if not self.r:
            return sp.csr_matrix(shape)
        out = sp.coo_matrix(
            (np.concatenate(self.v), (np.concatenate(self.r), np.concatenate(self.c))),
            shape=shape,
        ).tocsr()
        out.eliminate_zeros()
        return out


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


def reference_deviation_candidates(hs, V, a):
    """geometry.deviation_candidates as it computed each point's crossings
    and their containment tests anew, on one (n, candidates, 2) array: the
    oracle of the version that finds them once per grid-axis value."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n = a.shape[0]
    A, b = hs.A, hs.b
    parts = [np.broadcast_to(V, (n,) + V.shape)]
    for q in range(2):
        o = 1 - q
        cross = np.empty((n, hs.n_rows, 2))
        cross[:, :, q] = a[:, q, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            cross[:, :, o] = -(b + A[:, q] * a[:, q, None]) / A[:, o]
        cross[:, np.abs(A[:, o]) < ABS_TOL] = np.nan
        parts.append(cross)
    parts.append(a[:, None, :])
    C = np.concatenate(parts, axis=1)
    tol = ABS_TOL * (1.0 + np.linalg.norm(C, axis=2))
    inside = np.all(C @ A.T + b[None, None, :] <= tol[:, :, None], axis=2)
    inside[:, :V.shape[0]] = True
    gap = np.where(inside[:, :, None], np.abs(C - a[:, None, :]), np.inf)
    order = np.lexsort((gap[:, :, 1], gap[:, :, 0]), axis=-1)
    g1 = np.take_along_axis(gap[:, :, 1], order, axis=1)
    before = np.minimum.accumulate(g1, axis=1)[:, :-1]
    minimal = np.c_[np.isfinite(g1[:, 0]), g1[:, 1:] < before]
    keep = np.zeros(g1.shape, dtype=bool)
    np.put_along_axis(keep, order, minimal, axis=1)
    idx, c = np.nonzero(keep)
    return idx, gap[idx, c]


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


# OBLIQUE_PATROL_ENV turned 30 degrees about (20, 20), coordinates rounded
# to 6 decimals: every facet is oblique, the barriers too, so BLAS may round
# the barrier rows a x + b unlike the scalar sums. Run with patrol.json's
# settings.
ROTATED_PATROL_ENV = {
    "cells": [
        {"id": 0, "vertices": [[12.679492, -7.320508], [47.320508, 12.679492],
                               [-7.320508, 27.320508]],
         "landmark_ids": [0]},
        {"id": 1, "vertices": [[47.320508, 12.679492], [27.320508, 47.320508],
                               [-7.320508, 27.320508]],
         "landmark_ids": [1]},
    ],
    "landmarks": [[17.437822, 10.437822], [22.562178, 29.562178]],
    "start": [16.339746, 6.339746],
    "goal": [47.320508, 12.679492],
    "patrol_cycle": [0, 1],
}


def counted_law(monkeypatch):
    """simulation.control_input wrapped to log each (controller, u) that it
    returns."""
    calls = []
    law = simulation.control_input

    def counted(controller, pmfs):
        u = law(controller, pmfs)
        calls.append((controller, u))
        return u

    monkeypatch.setattr(simulation, "control_input", counted)
    return calls


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


# the packaged configs whose gains tests/data/packaged_gains.json pins: the
# case study at its own epsilon and at 12, and the patrol
PACKAGED_GAINS = os.path.join(os.path.dirname(__file__), "data",
                              "packaged_gains.json")
PACKAGED_RUNS = [("case_study.json", None), ("case_study.json", 12.0),
                 ("patrol.json", None)]


def packaged_gains(path=None):
    """K, K_b and delta of every cell that synthesis gives each of
    PACKAGED_RUNS, as {"<config>@eps=<epsilon or default>": {"<cell id>":
    {"K": ..., "K_b": ..., "delta": ...}}}. With path, also writes them
    there as JSON: rewriting PACKAGED_GAINS changes what the gains are
    pinned to."""
    out = {}
    for name, eps in PACKAGED_RUNS:
        overrides = () if eps is None else (("epsilon", eps),)
        cfg = cli.load_config(os.path.join(os.path.dirname(cli.__file__),
                                           "data", name), overrides)
        controllers = synthesis.synthesize_environment(
            cfg.environment, cfg.plan.entries,
            LinearDynamics.single_integrator(cfg.environment.dimension),
            cfg.grid, cfg.bounds, cfg.basis, cfg.alpha_v, cfg.alpha_h)
        out["%s@eps=%s" % (name, "default" if eps is None else eps)] = {
            str(cell_id): {key: ctrl.to_dict()[key]
                           for key in ("K", "K_b", "delta")}
            for cell_id, ctrl in controllers.items()}
    if path is not None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return out
