"""Per-cell robust gain synthesis via a single LP.

Each stability/safety row must hold for every state in its region and every
measurement PMF consistent with the error bounds at that state. Dualizing
the inner adversary twice replaces the semi-infinite constraint with
finitely many linear rows over the gains, the margins and dual multipliers:
first over the PMF, then over the state for the scalar bound row (no
deviation entry enters it) and over the state and the point's own
absolute-deviation entries for each per-point feasibility row.
The LP maximizes the weighted margins; a second pass then picks, among
margin-optimal gains, the ones closest in l1 distance to a structured target
so the synthesized fields stay interpretable.

Synthesis assembles the constraint matrix once, by a direct transcription of
the explicit constraint groups (_hand_fill). _machine_fill derives the same
matrices by mechanically applying the two dualization templates; synthesis
never runs it. It is the oracle the tests hold the transcription to.
"""

import json
import warnings

import numpy as np
import scipy.sparse as sp

from . import measurement, planning
from .clfcbf import GainLayout, LinearDynamics, build_cell_rows
from .errors import (
    DimensionMismatch,
    GoalObservationOffGrid,
    GridMismatch,
    LandmarkNotVisible,
    LandmarkOutOfView,
    SolverFailure,
    SynthesisInfeasible,
)
from .lp_core import StandardLp, solve_lp
from .measurement import build_expectation_kernel, make_delta_pmf
from .simulation import control_input

OMEGA_DEFAULT = {"clf": 1.0, "cbf": 1.0}
DELTA_CAP_DEFAULT = {"clf": 0.25, "cbf": 4.0}
TIEBREAK_TOL = 1e-9
MATRIX_MATCH_TOL = 1e-12


class GainBasis:
    """Feature maps turning a vectorized PMF into d-vector features: each map
    R_i is a d x n_p matrix. The mean map is required so plain mean-feedback
    controllers stay representable; the others enrich the gain space."""

    KNOWN = ("mean", "quadratic", "cosine")

    def __init__(self, names=("mean", "quadratic", "cosine")):
        names = tuple(names)
        bad = [n for n in names if n not in self.KNOWN]
        if bad:
            raise DimensionMismatch("unknown feature maps %r" % bad)
        if "mean" not in names:
            raise DimensionMismatch("the mean map is required")
        self.names = names

    @property
    def n_k(self):
        return len(self.names)

    def matrices(self, kernel, width):
        """Evaluate every map on the grid behind kernel; resolution enters
        only through the kernel, so the same gains transfer across grids."""
        U = np.asarray(kernel, dtype=float)
        half = np.asarray(width, dtype=float)[:, None] / 2.0
        out = []
        for name in self.names:
            if name == "mean":
                out.append(U.copy())
            elif name == "quadratic":
                out.append(U * U)
            else:
                out.append(np.cos(np.pi * U / half))
        return out


class _Coo:
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
        if not self.r:
            return sp.csr_matrix(shape)
        return sp.coo_matrix(
            (np.concatenate(self.v), (np.concatenate(self.r), np.concatenate(self.c))),
            shape=shape,
        ).tocsr()


class LpMeta:
    """Variable and row layout of the per-cell LP, shared by _hand_fill and
    its oracle _machine_fill so their matrices are directly comparable.

    Variables: gains theta, margins delta, then per row k the multipliers
    lam_x (region rows) and per landmark lam_s, lam_p, lam_z, eta1, eta2,
    beta. eta blocks are (axis, point) row-major; beta blocks are (point,
    region row) row-major.
    """

    def __init__(self, layout, kinds, n_reg, n_ps, n_goal_rows=0):
        self.layout = layout
        self.kinds = list(kinds)
        self.n_rows = len(self.kinds)
        self.n_reg = list(n_reg)
        self.n_ps = list(n_ps)
        self.n_goal_rows = int(n_goal_rows)
        d = layout.d
        self._var = {}
        pos = 0

        def take(key, size):
            nonlocal pos
            self._var[key] = (pos, int(size))
            pos += int(size)

        take(("theta",), layout.n_gains)
        take(("delta",), self.n_rows)
        for k in range(self.n_rows):
            take(("lam_x", k), self.n_reg[k])
            for l, n_p in enumerate(self.n_ps):
                take(("lam_s", k, l), 1)
                take(("lam_p", k, l), 2 * d)
                take(("lam_z", k, l), d)
                take(("eta1", k, l), d * n_p)
                take(("eta2", k, l), d * n_p)
                take(("beta", k, l), n_p * self.n_reg[k])
        self.n_vars = pos

        self._row_ub = {}
        pos = 0
        for k in range(self.n_rows):
            self._row_ub[("bound", k)] = (pos, 1)
            pos += 1
            for l, n_p in enumerate(self.n_ps):
                self._row_ub[("dualfeas", k, l)] = (pos, n_p)
                pos += n_p
        self.n_ub = pos

        self._row_eq = {}
        pos = 0
        for k in range(self.n_rows):
            self._row_eq[("stat_x", k)] = (pos, d)
            pos += d
            for l, n_p in enumerate(self.n_ps):
                self._row_eq[("stat_xi", k, l)] = (pos, n_p * d)
                pos += n_p * d
                self._row_eq[("stat_z", k, l)] = (pos, d * n_p)
                pos += d * n_p
        if self.n_goal_rows:
            self._row_eq[("goal",)] = (pos, self.n_goal_rows)
            pos += self.n_goal_rows
        self.n_eq = pos

    def var(self, *key):
        return self._var[key]

    def vrange(self, *key):
        start, size = self._var[key]
        return np.arange(start, start + size)

    def row_ub(self, *key):
        return self._row_ub[key]

    def row_eq(self, *key):
        return self._row_eq[key]

    def default_bounds(self, caps):
        lb = np.zeros(self.n_vars)
        ub = np.full(self.n_vars, np.inf)
        s, z = self.var("theta")
        lb[s:s + z] = -np.inf
        s, z = self.var("delta")
        ub[s:s + z] = caps
        for k in range(self.n_rows):
            for l in range(len(self.n_ps)):
                s, _ = self.var("lam_s", k, l)
                lb[s] = -np.inf
        return lb, ub


def _hand_fill(meta, rows, regions, blocks):
    """Transcribe the explicit constraint groups (i)-(v); non-negativity is
    carried by the variable bounds."""
    d = meta.layout.d
    ub, eq = _Coo(), _Coo()
    b_ub = np.zeros(meta.n_ub)
    b_eq = np.zeros(meta.n_eq)
    theta0, _ = meta.var("theta")
    delta0, _ = meta.var("delta")
    for k, row in enumerate(rows):
        A_x, b_x = regions[k].A, regions[k].b
        n_reg = b_x.shape[0]
        rb = meta.row_ub("bound", k)[0]
        sx0 = meta.row_eq("stat_x", k)[0]
        lx0, _ = meta.var("lam_x", k)
        # (i) scalarized worst-case bound, region and margin part
        ub.add(rb, lx0 + np.arange(n_reg), -b_x)
        ub.add(rb, delta0 + k, 1.0)
        nz = np.nonzero(row.r.coef[0])[0]
        ub.add(rb, theta0 + nz, row.r.coef[0][nz])
        b_ub[rb] = -row.r.const[0]
        # (ii) stationarity in the state, region part
        for s in range(d):
            eq.add(sx0 + s, lx0 + np.arange(n_reg), A_x[:, s])
            b_eq[sx0 + s] = row.c_x[s]
        off = 0
        for l, blk in enumerate(blocks):
            n_p = blk.n_points
            U, lm = blk.U, blk.landmark
            ls0, _ = meta.var("lam_s", k, l)
            lp0, _ = meta.var("lam_p", k, l)
            lz0, _ = meta.var("lam_z", k, l)
            e10, _ = meta.var("eta1", k, l)
            e20, _ = meta.var("eta2", k, l)
            bt0, _ = meta.var("beta", k, l)
            # (i) per-landmark part
            ub.add(rb, ls0, 1.0)
            ub.add(rb, lp0 + np.arange(2 * d), -blk.b_p)
            ub.add(rb, lz0 + np.arange(d), blk.bounds.sigma_m)
            # (ii) per-landmark part
            for s in range(d):
                eq.add(sx0 + s, lp0 + np.arange(2 * d), blk.A_x[:, s])
            # (iii) elementwise bound
            df0 = meta.row_ub("dualfeas", k, l)[0]
            rows_i = df0 + np.arange(n_p)
            ub.add(
                np.repeat(rows_i, n_reg),
                bt0 + np.arange(n_p * n_reg),
                np.tile(-b_x, n_p),
            )
            for q in range(d):
                ub.add(rows_i, e10 + q * n_p + np.arange(n_p), lm[q] - U[q])
                ub.add(rows_i, e20 + q * n_p + np.arange(n_p), U[q] - lm[q])
            block = row.c_p.coef[off:off + n_p]
            ri, ci = np.nonzero(block)
            ub.add(df0 + ri, theta0 + ci, block[ri, ci])
            ub.add(
                np.repeat(rows_i, 2 * d),
                np.tile(lp0 + np.arange(2 * d), n_p),
                -blk.A_p.T.ravel(),
            )
            ub.add(rows_i, ls0, -1.0)
            b_ub[rows_i] = -row.c_p.const[off:off + n_p]
            # (iv) stationarity in the state, per point
            sxi0 = meta.row_eq("stat_xi", k, l)[0]
            for s in range(d):
                ridx = sxi0 + np.arange(n_p) * d + s
                for reg in range(n_reg):
                    eq.add(ridx, bt0 + np.arange(n_p) * n_reg + reg, A_x[reg, s])
                eq.add(ridx, e10 + s * n_p + np.arange(n_p), 1.0)
                eq.add(ridx, e20 + s * n_p + np.arange(n_p), -1.0)
            # (v) deviation multiplier split
            sz0 = meta.row_eq("stat_z", k, l)[0]
            for q in range(d):
                ridx = sz0 + q * n_p + np.arange(n_p)
                eq.add(ridx, lz0 + q, 1.0)
                eq.add(ridx, e10 + q * n_p + np.arange(n_p), -1.0)
                eq.add(ridx, e20 + q * n_p + np.arange(n_p), -1.0)
            off += n_p
    return ub, b_ub, eq, b_eq


def _robust_row(ub, eq, b_ub, b_eq, ub_row, eq_rows, mult_cols,
                g_rows, g_cols, g_vals, h,
                obj_const, obj_outer, rhs_const, rhs_outer):
    """Mechanical counterpart of: max over {w : G w <= h} of obj.w <= rhs,
    where obj and rhs are affine in the outer LP variables. Introduces the
    multipliers mu >= 0 at mult_cols and writes G^T mu = obj (one equality
    per inner variable, at eq_rows) plus the bound row h^T mu <= rhs."""
    eq.add(eq_rows[g_cols], mult_cols[g_rows], g_vals)
    for inner_idx, outer_cols, coeffs in obj_outer:
        eq.add(eq_rows[inner_idx], outer_cols, -np.asarray(coeffs, dtype=float))
    b_eq[eq_rows] = obj_const
    ub.add(ub_row, mult_cols, h)
    for outer_cols, coeffs in rhs_outer:
        ub.add(ub_row, outer_cols, -np.asarray(coeffs, dtype=float))
    b_ub[ub_row] = rhs_const


def _machine_fill(meta, rows, regions, blocks):
    """Derive the same LP mechanically; the tests' oracle for _hand_fill.

    Stage A (dual of the inner PMF maximization, per landmark): for
    max c_p.P s.t. 1.P = 1, A_p P <= -A'_x x - b_p, z_q.P <= sigma_m, P >= 0
    the dual certificate is
        lam_s + lam_p.(-A'_x x - b_p) + sigma_m sum_q lam_z_q  >=  inner max
    subject to per-point feasibility
        lam_s + (A_p^T lam_p)_i + sum_q lam_z_q z_qi >= c_p_i.
    Stage B: each certificate row must hold for all states in the region,
    and each per-point row also for every deviation vector z dominating the
    per-point gaps; that inner maximization is itself dualized by
    _robust_row. The bound row does not involve z, so it is dualized over x
    alone; a per-point row involves only its own entries z_.i.
    """
    d = meta.layout.d
    ub, eq = _Coo(), _Coo()
    b_ub = np.zeros(meta.n_ub)
    b_eq = np.zeros(meta.n_eq)
    theta0, _ = meta.var("theta")
    delta0, _ = meta.var("delta")
    for k, row in enumerate(rows):
        A_x, b_x = regions[k].A, regions[k].b
        n_reg = b_x.shape[0]
        reg_rows = np.repeat(np.arange(n_reg), d)
        reg_cols = np.tile(np.arange(d), n_reg)

        # ---- bound row: the inner variable is x alone over the region
        # A_x x + b_x <= 0, multipliers lam_x; no deviation entry enters it.
        obj_outer = []
        rhs_outer = [
            (theta0 + np.arange(meta.layout.n_gains), -row.r.coef[0]),
            (np.array([delta0 + k]), np.array([-1.0])),
        ]
        for l, blk in enumerate(blocks):
            # certificate objective, state-linear and multiplier parts
            obj_outer.append((
                np.tile(np.arange(d), 2 * d),
                meta.var("lam_p", k, l)[0] + np.repeat(np.arange(2 * d), d),
                -blk.A_x.ravel(),
            ))
            rhs_outer.extend([
                (np.array([meta.var("lam_s", k, l)[0]]), np.array([-1.0])),
                (meta.vrange("lam_p", k, l), blk.b_p),
                (meta.vrange("lam_z", k, l), np.full(d, -blk.bounds.sigma_m)),
            ])
        _robust_row(
            ub, eq, b_ub, b_eq,
            meta.row_ub("bound", k)[0],
            meta.row_eq("stat_x", k)[0] + np.arange(d), meta.vrange("lam_x", k),
            reg_rows, reg_cols, A_x.ravel(), -b_x, row.c_x, obj_outer,
            -row.r.const[0], rhs_outer,
        )

        # ---- per-point feasibility rows: inner variables (x, z_.i); the
        # remaining deviation entries are separable and drop out.
        off = 0
        for l, blk in enumerate(blocks):
            n_p = blk.n_points
            lp0, _ = meta.var("lam_p", k, l)
            ls0, _ = meta.var("lam_s", k, l)
            lz0, _ = meta.var("lam_z", k, l)
            e10, _ = meta.var("eta1", k, l)
            e20, _ = meta.var("eta2", k, l)
            bt0, _ = meta.var("beta", k, l)
            df0 = meta.row_ub("dualfeas", k, l)[0]
            sxi0 = meta.row_eq("stat_xi", k, l)[0]
            sz0 = meta.row_eq("stat_z", k, l)[0]
            qs = np.arange(d)
            ep_rows = n_reg + np.arange(2 * d)
            g_rows_i = np.concatenate([reg_rows, ep_rows, ep_rows])
            g_cols_i = np.concatenate([reg_cols, np.tile(qs, 2), np.tile(d + qs, 2)])
            for i in range(n_p):
                gap_i = blk.landmark - blk.U[:, i]
                g_vals_i = np.concatenate(
                    [A_x.ravel(), np.ones(d), -np.ones(d), -np.ones(2 * d)]
                )
                h_i = np.concatenate([-b_x, gap_i, -gap_i])
                mult_i = np.concatenate([
                    bt0 + i * n_reg + np.arange(n_reg),
                    e10 + qs * n_p + i,
                    e20 + qs * n_p + i,
                ])
                eq_rows_i = np.concatenate([
                    sxi0 + i * d + qs,
                    sz0 + qs * n_p + i,
                ])
                _robust_row(
                    ub, eq, b_ub, b_eq,
                    df0 + i, eq_rows_i, mult_i,
                    g_rows_i, g_cols_i, g_vals_i, h_i,
                    np.zeros(2 * d),
                    [(d + qs, lz0 + qs, -np.ones(d))],
                    -row.c_p.const[off + i],
                    [
                        (np.array([ls0]), np.array([1.0])),
                        (lp0 + np.arange(2 * d), blk.A_p[:, i]),
                        (theta0 + np.arange(meta.layout.n_gains), -row.c_p.coef[off + i]),
                    ],
                )
            off += n_p
    return ub, b_ub, eq, b_eq


def _canonical_sign(csr, rhs):
    """Scale each row (and its rhs) so the first stored nonzero is positive;
    equality rows are sign-symmetric so this is a no-op mathematically."""
    csr = csr.copy()
    csr.sort_indices()
    rhs = rhs.copy()
    for i in range(csr.shape[0]):
        lo, hi = csr.indptr[i], csr.indptr[i + 1]
        if hi > lo and csr.data[lo] < 0:
            csr.data[lo:hi] *= -1.0
            rhs[i] *= -1.0
    return csr, rhs


def _matrices_match(a_ub, b_ub, a_eq, b_eq, m_ub, mb_ub, m_eq, mb_eq):
    diff = a_ub - m_ub
    if diff.nnz and np.max(np.abs(diff.data)) > MATRIX_MATCH_TOL:
        return False
    if np.max(np.abs(b_ub - mb_ub), initial=0.0) > MATRIX_MATCH_TOL:
        return False
    ca, ra = _canonical_sign(a_eq, b_eq)
    cm, rm = _canonical_sign(m_eq, mb_eq)
    diff = ca - cm
    if diff.nnz and np.max(np.abs(diff.data)) > MATRIX_MATCH_TOL:
        return False
    return np.max(np.abs(ra - rm), initial=0.0) <= MATRIX_MATCH_TOL


def stack_landmarks(kernel, bounds, positions):
    """Per-landmark constraint blocks; the stacked PMF vector is their
    concatenation and each landmark keeps its own full constraint set."""
    if len(positions) < 1:
        raise DimensionMismatch("need at least one landmark")
    return [measurement.ProbabilityBlocks(kernel, bounds, l) for l in positions]


class AssembledCellLp:
    """Phase-one LP plus the ingredients needed for tiebreaking and
    extraction."""

    def __init__(self, lp, meta, rows, regions, blocks, basis, spec,
                 dynamics, alpha_v, alpha_h, v_floor=None):
        self.lp = lp
        self.meta = meta
        self.rows = rows
        self.regions = regions
        self.blocks = blocks
        self.basis = basis
        self.spec = spec
        self.dynamics = dynamics
        self.alpha_v = alpha_v
        self.alpha_h = alpha_h
        self.v_floor = v_floor


def _check_visibility(cell, landmarks, spec):
    half = np.asarray(spec.width) / 2.0
    for l in landmarks:
        worst = np.max(np.abs(np.asarray(l)[None, :] - cell.vertices), axis=0)
        if np.any(worst > half + 1e-9):
            raise LandmarkNotVisible(
                "landmark %s exceeds the grid half-width %s somewhere in cell %d"
                % (np.asarray(l).tolist(), half.tolist(), cell.id)
            )


def _fill_goal(eq, meta, spec, maps, positions, goal):
    """Equilibrium equality u = 0 for the observation snapped at the goal."""
    layout = meta.layout
    g0 = meta.row_eq("goal")[0]
    theta0, _ = meta.var("theta")
    for l, pos in enumerate(positions):
        y = np.asarray(pos, dtype=float) - np.asarray(goal, dtype=float)
        try:
            pmf = make_delta_pmf(spec, y)
        except LandmarkOutOfView as exc:
            raise GoalObservationOffGrid(
                "goal observation of landmark %d leaves the grid: %s" % (l, exc)
            ) from None
        for i, R in enumerate(maps):
            f = R @ pmf.vector
            for m in range(layout.n_u):
                base = layout.gain_index(l, i, m, 0)
                eq.add(g0 + m, theta0 + base + np.arange(layout.d), f)
    for m in range(layout.n_u):
        eq.add(g0 + m, theta0 + layout.bias_start() + m, 1.0)


def assemble_robust_lp(cell, entry, dynamics, alpha_v, alpha_h, bounds, spec,
                       positions, basis, omega=None, caps=None,
                       barrier_facets=None, v_floor=None, goal=None):
    """Build the per-cell LP.

    positions: landmark coordinates observed from this cell. barrier_facets
    defaults to every facet except the exit facet. v_floor, when set, limits
    the stability row to the part of the cell where the progress function is
    at least that value. goal, when set, appends the equilibrium equality for
    the observation snapped at the goal point.
    """
    d = dynamics.d
    if cell.body.dim != d:
        raise DimensionMismatch("cell dimension does not match dynamics")
    _check_visibility(cell, positions, spec)
    bounds.warn_if_below_pitch(spec)
    kernel = build_expectation_kernel(spec)
    blocks = stack_landmarks(kernel, bounds, positions)
    layout = GainLayout(len(positions), basis.n_k, dynamics.n_u, d)
    maps = basis.matrices(kernel, spec.width)

    if barrier_facets is None:
        barrier_facets = [j for j in range(cell.body.n_rows) if j != entry.exit_face]
    rows, regions = build_cell_rows(cell.body, entry, dynamics, alpha_v, alpha_h,
                                    [maps] * len(positions), layout,
                                    barrier_facets, v_floor)

    omega_map = dict(OMEGA_DEFAULT, **(omega or {}))
    caps_map = dict(DELTA_CAP_DEFAULT, **(caps or {}))
    omega_k = np.array([omega_map[r.kind] for r in rows])
    caps_k = np.array([caps_map[r.kind] for r in rows])

    n_goal = dynamics.n_u if goal is not None else 0
    meta = LpMeta(layout, [r.kind for r in rows], [reg.n_rows for reg in regions],
                  [b.n_points for b in blocks], n_goal_rows=n_goal)
    ub, b_ub, eq, b_eq = _hand_fill(meta, rows, regions, blocks)
    if goal is not None:
        _fill_goal(eq, meta, spec, maps, positions, goal)

    c = np.zeros(meta.n_vars)
    dstart, _ = meta.var("delta")
    c[dstart:dstart + meta.n_rows] = omega_k
    lb, ub_bounds = meta.default_bounds(caps_k)
    lp = StandardLp("max", c,
                    A_ub=ub.matrix((meta.n_ub, meta.n_vars)), b_ub=b_ub,
                    A_eq=eq.matrix((meta.n_eq, meta.n_vars)), b_eq=b_eq,
                    lb=lb, ub=ub_bounds)
    return AssembledCellLp(lp, meta, rows, regions, blocks, basis, spec,
                           dynamics, alpha_v, alpha_h, v_floor=v_floor)


def _tiebreak_lp(assembled, z_star, nominal_theta):
    """Among margin-optimal solutions, minimize the l1 distance of the gains
    to the structured target."""
    lp = assembled.lp
    meta = assembled.meta
    G = meta.layout.n_gains
    n = lp.n_vars
    theta0, _ = meta.var("theta")
    pad_ub = sp.hstack([lp.A_ub, sp.csr_matrix((lp.b_ub.shape[0], G))])
    obj_cols = np.nonzero(lp.c)[0]
    floor = sp.csr_matrix(
        (-lp.c[obj_cols], (np.zeros(obj_cols.shape[0], dtype=np.int64), obj_cols)),
        shape=(1, n + G),
    )
    tol = TIEBREAK_TOL * max(1.0, abs(z_star))
    rows = np.arange(G)
    plus = sp.coo_matrix(
        (np.concatenate([np.ones(G), -np.ones(G)]),
         (np.concatenate([rows, rows]),
          np.concatenate([theta0 + rows, n + rows]))),
        shape=(G, n + G),
    )
    minus = sp.coo_matrix(
        (np.concatenate([-np.ones(G), -np.ones(G)]),
         (np.concatenate([rows, rows]),
          np.concatenate([theta0 + rows, n + rows]))),
        shape=(G, n + G),
    )
    A_ub = sp.vstack([pad_ub, floor, plus, minus]).tocsr()
    b_ub = np.concatenate([
        lp.b_ub, [-(z_star - tol)], nominal_theta, -np.asarray(nominal_theta),
    ])
    A_eq = sp.hstack([lp.A_eq, sp.csr_matrix((lp.b_eq.shape[0], G))]).tocsr()
    c = np.zeros(n + G)
    c[n:] = 1.0
    lb = np.concatenate([lp.lb, np.zeros(G)])
    ub = np.concatenate([lp.ub, np.full(G, np.inf)])
    return StandardLp("min", c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=lp.b_eq,
                      lb=lb, ub=ub)


def _extract_duals(meta, x):
    out = []
    for k in range(meta.n_rows):
        per_landmark = []
        for l in range(len(meta.n_ps)):
            entry = {}
            for name in ("lam_s", "lam_p", "lam_z", "eta1", "eta2", "beta"):
                s, z = meta.var(name, k, l)
                entry[name] = x[s:s + z].copy()
            per_landmark.append(entry)
        s, z = meta.var("lam_x", k)
        out.append({"lam_x": x[s:s + z].copy(), "landmarks": per_landmark})
    return out


class CellController:
    """Synthesized gains and everything needed to run and audit them."""

    def __init__(self, cell_id, basis, gains, bias, margins, kinds, facets,
                 grid, bounds, alpha_v, alpha_h, landmark_ids, landmarks,
                 v, o, exit_face, v_floor, dynamics, duals=None, status="Optimal",
                 saturation=None):
        self.cell_id = cell_id
        self.basis = basis
        self.gains = gains
        self.bias = np.asarray(bias, dtype=float)
        self.margins = np.asarray(margins, dtype=float)
        self.kinds = list(kinds)
        self.facets = list(facets)
        self.grid = grid
        self.bounds = bounds
        self.alpha_v = float(alpha_v)
        self.alpha_h = float(alpha_h)
        self.landmark_ids = list(landmark_ids)
        self.landmarks = [np.asarray(p, dtype=float) for p in landmarks]
        self.v = np.asarray(v, dtype=float)
        self.o = np.asarray(o, dtype=float)
        self.exit_face = exit_face
        self.v_floor = v_floor
        self.dynamics = dynamics
        self.duals = duals
        self.status = status
        self.saturation = saturation

    @property
    def layout(self):
        d = self.v.shape[0]
        return GainLayout(len(self.landmarks), self.basis.n_k, self.bias.shape[0], d)

    def theta(self):
        return self.layout.pack(self.gains, self.bias)

    def feature_matrices(self, spec):
        if not spec.same_widths(self.grid):
            raise GridMismatch(
                "grid widths %s do not match controller widths %s"
                % (spec.width, self.grid.width)
            )
        return self.basis.matrices(build_expectation_kernel(spec), spec.width)

    def control_matrices(self, spec):
        """Per-landmark n_u x n_p matrices acting on the vectorized PMF."""
        maps = self.feature_matrices(spec)
        return [
            sum(K @ R for K, R in zip(per_landmark, maps))
            for per_landmark in self.gains
        ]

    def progress(self, x):
        return float(self.v @ (np.asarray(x, dtype=float) - self.o))

    def to_dict(self):
        return {
            "id": self.cell_id,
            "basis": list(self.basis.names),
            "K": [[Ki.tolist() for Ki in per_l] for per_l in self.gains],
            "K_b": self.bias.tolist(),
            "delta": self.margins.tolist(),
            "alpha_v": self.alpha_v,
            "alpha_h": self.alpha_h,
            "epsilon": self.bounds.epsilon,
            "sigma_m": self.bounds.sigma_m,
            "grid": {"n": list(self.grid.n), "width": list(self.grid.width)},
            "landmark_ids": self.landmark_ids,
            "landmarks": [p.tolist() for p in self.landmarks],
            "kinds": self.kinds,
            "facets": self.facets,
            "v": self.v.tolist(),
            "o": self.o.tolist(),
            "exit_face": self.exit_face,
            "v_floor": self.v_floor,
            "dynamics": {"A": self.dynamics.A.tolist(), "B": self.dynamics.B.tolist()},
            "status": self.status,
            "saturation": self.saturation,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            cell_id=d["id"],
            basis=GainBasis(d["basis"]),
            gains=[[np.asarray(Ki, dtype=float) for Ki in per_l] for per_l in d["K"]],
            bias=d["K_b"],
            margins=d["delta"],
            kinds=d["kinds"],
            facets=d["facets"],
            grid=measurement.GridSpec(d["grid"]["n"], d["grid"]["width"]),
            bounds=measurement.UncertaintyBounds(d["epsilon"], d["sigma_m"]),
            alpha_v=d["alpha_v"],
            alpha_h=d["alpha_h"],
            landmark_ids=d["landmark_ids"],
            landmarks=d["landmarks"],
            v=d["v"],
            o=d["o"],
            exit_face=d["exit_face"],
            v_floor=d["v_floor"],
            dynamics=LinearDynamics(d["dynamics"]["A"], d["dynamics"]["B"]),
            status=d.get("status", "Optimal"),
            saturation=d.get("saturation"),
        )


def synthesize_cell_controller(assembled, cell, entry, landmark_ids,
                               nominal_theta=None):
    """Solve the assembled LP (margin pass, then the tiebreak pass) and wrap
    the result."""
    sol = solve_lp(assembled.lp)
    if sol.status == "Infeasible":
        raise SynthesisInfeasible(
            "no stabilizing safe gains for cell %d under these bounds" % cell.id
        )
    if sol.status == "Unbounded":
        raise SolverFailure(
            "margin program for cell %d is unbounded; margin caps missing" % cell.id
        )
    final = sol
    if nominal_theta is not None:
        lp2 = _tiebreak_lp(assembled, sol.objective, nominal_theta)
        sol2 = solve_lp(lp2)
        if sol2.status == "Optimal":
            final = sol2
        else:
            warnings.warn(
                "tiebreak pass returned %s for cell %d; keeping the margin-pass gains"
                % (sol2.status, cell.id)
            )
    meta = assembled.meta
    n_core = meta.n_vars
    x = final.x[:n_core]
    theta0, G = meta.var("theta")
    d0, _ = meta.var("delta")
    theta = x[theta0:theta0 + G]
    margins = x[d0:d0 + meta.n_rows]
    gains, bias = meta.layout.unpack(theta)
    ctrl = CellController(
        cell_id=cell.id,
        basis=assembled.basis,
        gains=gains,
        bias=bias,
        margins=margins,
        kinds=[r.kind for r in assembled.rows],
        facets=[r.facet for r in assembled.rows],
        grid=assembled.spec,
        bounds=assembled.blocks[0].bounds,
        alpha_v=assembled.alpha_v,
        alpha_h=assembled.alpha_h,
        landmark_ids=landmark_ids,
        landmarks=[blk.landmark for blk in assembled.blocks],
        v=entry.v,
        o=entry.o,
        exit_face=entry.exit_face,
        v_floor=assembled.v_floor,
        dynamics=assembled.dynamics,
        duals=_extract_duals(meta, x),
        status="Optimal",
    )
    ctrl.saturation = _saturation_report(ctrl, cell)
    return ctrl


def _saturation_report(ctrl, cell):
    """Worst control magnitude over the cell vertices under exact sensing;
    the input set is not part of the LP, so report it instead."""
    worst = 0.0
    for x in cell.vertices:
        u = control_input(ctrl, [make_delta_pmf(ctrl.grid, lm - x)
                                 for lm in ctrl.landmarks])
        worst = max(worst, float(np.max(np.abs(u))))
    return {"max_u_vertices": worst}


def nominal_transit_theta(layout, basis, entry, positions, bounds, spec,
                          alpha_v, cap_clf, approach=2.0, lateral=1.0):
    """Structured target for transit cells: approach the exit facet along its
    normal, center laterally, and keep a constant push through the facet."""
    d = layout.d
    if layout.n_u != d:
        return np.zeros(layout.n_gains)
    v = np.asarray(entry.v, dtype=float)
    o = np.asarray(entry.o, dtype=float)
    proj = np.outer(v, v)
    M = approach * proj + lateral * (np.eye(d) - proj)
    push = alpha_v * (bounds.epsilon + max(spec.pitch)) * np.sum(np.abs(v)) + cap_clf + 1.0
    L = len(positions)
    i_mean = basis.names.index("mean")
    gains = [[np.zeros((d, d)) for _ in range(layout.n_k)] for _ in range(L)]
    bias = -push * v
    for l, pos in enumerate(positions):
        gains[l][i_mean] = M / L
        bias = bias - (M / L) @ (np.asarray(pos, dtype=float) - o)
    return layout.pack(gains, bias)


def nominal_goal_theta(layout, basis, positions, spec, goal,
                       kappa=2.4, shear=0.25):
    """Structured target for the goal cell: a contraction toward the snapped
    goal observation with a small cross-axis shear so quantization plateaus
    are crossed by sliding along the grid lines through the goal."""
    d = layout.d
    if layout.n_u != d:
        return np.zeros(layout.n_gains)
    M = kappa * np.eye(d)
    if d == 2:
        M = M - shear * np.array([[0.0, 1.0], [1.0, 0.0]])
    L = len(positions)
    i_mean = basis.names.index("mean")
    gains = [[np.zeros((d, d)) for _ in range(layout.n_k)] for _ in range(L)]
    bias = np.zeros(d)
    pts = spec.points()
    for l, pos in enumerate(positions):
        y = np.asarray(pos, dtype=float) - np.asarray(goal, dtype=float)
        center = pts[spec.flat_index(spec.snap(y))]
        gains[l][i_mean] = M / L
        bias = bias - (M / L) @ center
    return layout.pack(gains, bias)


def goal_v_floor(entry, bounds, spec):
    """Stability is only enforced where the progress function clears the
    worst-case sensing error, leaving the terminal plateau to the
    equilibrium equality."""
    return 2.0 * np.sum(np.abs(entry.v)) * (bounds.epsilon + max(spec.pitch))


def synthesize_environment(env, entries, graph, dynamics, spec, bounds, basis,
                           alpha_v, alpha_h, omega=None, caps=None,
                           mode="stabilize"):
    """One controller per plan cell; the goal cell gets the equilibrium
    equality and a floored stability region."""
    caps_map = dict(DELTA_CAP_DEFAULT, **(caps or {}))
    goal_id = planning.goal_cell_id(env) if mode == "stabilize" else None
    controllers = []
    for cell_id in sorted(entries):
        entry = entries[cell_id]
        cell = env.cell_by_id(cell_id)
        positions = [env.landmarks[j] for j in cell.landmark_ids]
        is_goal = mode == "stabilize" and cell_id == goal_id
        barrier = None
        v_floor = None
        goal = None
        if is_goal:
            shared = set()
            for nb in graph.neighbors(cell_id):
                shared.add(graph.edge(cell_id, nb).row_for(cell_id))
            barrier = [j for j in range(cell.body.n_rows) if j not in shared]
            v_floor = goal_v_floor(entry, bounds, spec)
            goal = env.goal
        try:
            assembled = assemble_robust_lp(
                cell, entry, dynamics, alpha_v, alpha_h, bounds, spec,
                positions, basis, omega=omega, caps=caps,
                barrier_facets=barrier, v_floor=v_floor, goal=goal,
            )
            layout = assembled.meta.layout
            if is_goal:
                nominal = nominal_goal_theta(layout, basis, positions, spec, env.goal)
            else:
                nominal = nominal_transit_theta(
                    layout, basis, entry, positions, bounds, spec,
                    alpha_v, caps_map["clf"],
                )
            ctrl = synthesize_cell_controller(
                assembled, cell, entry, list(cell.landmark_ids), nominal_theta=nominal
            )
        except (SynthesisInfeasible, SolverFailure) as exc:
            raise type(exc)("cell %d: %s" % (cell_id, exc)) from exc
        controllers.append(ctrl)
    return controllers


def save_controllers(controllers, path):
    with open(path, "w") as fh:
        json.dump([c.to_dict() for c in controllers], fh, indent=2)
        fh.write("\n")


def load_controllers(path):
    with open(path) as fh:
        data = json.load(fh)
    return [CellController.from_dict(d) for d in data]
