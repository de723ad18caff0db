"""The vertex-form LP with every point row written into the matrix: the
independent oracle of synthesis.PointRows, and a separation that reads a
materialized matrix, to stand in for PointRows in lp_core.solve_lp.

fill_rows writes the rows entry by entry with the oracles' own COO writer
(helpers.Coo), which sums where an entry is written twice, each point row
among the bound rows of its constraint; materialized(asm) runs it on an
assembled cell LP's problem and lists its rows in the LP's order. It finds
each row's region vertices and deviation candidates anew, shared with no
other row."""

import numpy as np

from helpers import Coo
from safefield import geometry
from safefield.lp_core import StandardLp


def fill_rows(cols, rows, regions, landmarks, bounds, points, maps):
    """Inequality rows of the vertex-form LP, per row k: the bound row at
    each vertex of its region regions[row.region], then per landmark the
    dual-feasibility row of each grid point at each of its deviation
    candidates; last the tiebreak block (see synthesis._fill_rows). Returns
    the rows as a Coo, their right-hand sides and the mask of point
    rows."""
    features = np.stack(maps)
    ub = Coo()
    b_ub = []
    lazy = []
    n = 0
    for k, row in enumerate(rows):
        region = regions[row.region]
        V = geometry.region_points(region)
        at_v = n + np.arange(V.shape[0])[:, None]
        ub.add(at_v, cols.bias, row.w)
        ub.add(at_v, cols.delta[k], 1.0)
        for l, landmark in enumerate(landmarks):
            ub.add(at_v, cols.lam_s[k, l], 1.0)
            ub.add(at_v, cols.lam[k, l, 1:], bounds.rhs(landmark - V))
        b_ub.append(-row.r - V @ row.c_x)
        lazy.append(np.zeros(V.shape[0], dtype=bool))
        n += V.shape[0]
        image = (row.w[None, :, None, None] * features[:, None]).reshape(
            -1, features.shape[2])
        for l, landmark in enumerate(landmarks):
            idx, gap = geometry.deviation_candidates(
                region, geometry.region_points(region), landmark - points)
            at_i = n + np.arange(idx.size)[:, None]
            ub.add(at_i, cols.lam_s[k, l], -1.0)
            ub.add(at_i, cols.lam_p[k, l],
                   np.hstack([-points[idx], points[idx]]))
            ub.add(at_i, cols.lam_z[k, l], -gap)
            ub.add(at_i, cols.gain[l].ravel(), image[:, idx].T)
            b_ub.append(np.zeros(idx.size))
            lazy.append(np.ones(idx.size, dtype=bool))
            n += idx.size
    G = cols.t.size
    ub.add(n, cols.delta, -1.0)
    at_t = n + 1 + np.arange(2 * G)
    ub.add(at_t, np.tile(cols.theta, 2), np.repeat([1.0, -1.0], G))
    ub.add(at_t, np.tile(cols.t, 2), -1.0)
    b_ub.append(np.zeros(1 + 2 * G))
    lazy.append(np.zeros(1 + 2 * G, dtype=bool))
    return ub, np.concatenate(b_ub), np.concatenate(lazy)


def materialized(asm):
    """The inequality rows of the assembled cell LP asm, every point row
    written out: the CSR matrix, the right-hand sides and the point-row
    mask, in the LP's order (lp_core): the matrix rows, then the point
    rows, each in the order fill_rows writes them."""
    p = asm.problem
    rows, regions = p.rows()
    ub, b_ub, lazy = fill_rows(asm.cols, rows, regions, p.landmarks,
                               p.bounds, p.grid.points(), p.features())
    A_ub = ub.matrix((b_ub.size, asm.cols.n_vars))
    order = np.argsort(lazy, kind="stable")
    return A_ub[order], b_ub[order], lazy[order]


class MatrixRows:
    """The separation of the rows in the mask lazy of A x <= b, read from
    the matrix: what lp_core.solve_lp reads of synthesis.PointRows."""

    def __init__(self, A, b, lazy):
        self.A = A.tocsr()
        self.b_all = np.asarray(b, dtype=float)
        self._at = np.flatnonzero(lazy)
        self.b = self.b_all[self._at]

    def deficits(self, x):
        return (self.A @ x - self.b_all)[self._at]

    def rows(self, selected):
        rows = self.A[self._at[selected]]
        return rows.data, rows.indices, rows.indptr


def lp_with_rows(sense, c, A_ub, b_ub, lazy, **rest):
    """The LP over A_ub x <= b_ub (and rest) whose rows in the mask lazy
    are held as a MatrixRows separation: its rows are those not in lazy,
    then those in lazy, each in their order in A_ub."""
    A_ub = A_ub.tocsr()
    return StandardLp(sense, c, A_ub=A_ub[~lazy], b_ub=b_ub[~lazy],
                      points=MatrixRows(A_ub, b_ub, lazy), **rest)


def oracle_lp(asm):
    """asm's margin LP with its inequality rows read from materialized(asm)
    through MatrixRows, and everything else its own."""
    lp = asm.lp
    A_ub, b_ub, lazy = materialized(asm)
    return lp_with_rows(lp.sense, lp.c, A_ub, b_ub, lazy, A_eq=lp.A_eq,
                        b_eq=lp.b_eq, lb=lp.lb, ub=lp.ub)
