"""The cell LP in its dual form: the test oracle for the vertex form.

The dual form keeps every robust row semi-infinite in the state and
removes the state by LP duality a second time: the bound row through
multipliers lam_x on the region rows, and each per-point row through
multipliers beta (region rows) and eta1, eta2 (deviation rows). Its
projection onto theta, delta, lam_s, lam_p and lam_z is the vertex form's
feasible set, so the two LPs share their optimum; lift maps a vertex-form
point into the dual form.

A row c_x.x + w.u + r <= 0 enters both forms through its image over the
flat gains. The oracle builds that image on its own, densely, with one
Kronecker product per feature map (gain_image).
"""

import numpy as np
import scipy.sparse as sp

from helpers import Coo
from safefield.lp_core import StandardLp, solve_lp
from safefield.measurement import build_expectation_kernel


class AffineBlocks:
    """The error-bound set of one landmark in x-affine form, written here
    apart from the code it checks: the mean rows A_x x + A_p P + b_p <= 0
    (2d rows) and, per axis q, z_q.P <= sigma_m with the couplings
    U_q - (landmark - x)_q 1 <= z_q and -(U_q - (landmark - x)_q 1) <= z_q."""

    def __init__(self, spec, bounds, landmark):
        self.U = build_expectation_kernel(spec)
        d = self.U.shape[0]
        self.landmark = np.asarray(landmark, dtype=float)
        self.sigma_m = bounds.sigma_m
        eps = bounds.epsilon
        self.A_p = np.vstack([self.U, -self.U])
        self.A_x = np.vstack([np.eye(d), -np.eye(d)])
        self.b_p = np.concatenate([-self.landmark - eps, self.landmark - eps])

    @property
    def n_points(self):
        return self.U.shape[1]


def affine_blocks(asm):
    """One AffineBlocks per landmark of an assembled cell."""
    p = asm.problem
    return [AffineBlocks(p.grid, p.bounds, l) for l in p.landmarks]


def feature_maps(asm):
    """The feature maps R_i of an assembled cell, on its grid."""
    p = asm.problem
    return p.basis.matrices(build_expectation_kernel(p.grid), p.grid.width)


def gain_image(w, maps_per_landmark, cols):
    """Coefficients over the flat gains of a row whose control term is
    w^T u, one row per entry of the stacked PMF vector: the coefficient of
    K_{l,i}[m, s] on P_l[j] is w[m] R_i[s, j]."""
    n_p_total = sum(maps[0].shape[1] for maps in maps_per_landmark)
    coef = np.zeros((n_p_total, cols.theta.size))
    off = 0
    for l, maps in enumerate(maps_per_landmark):
        n_p = maps[0].shape[1]
        for i, R in enumerate(maps):
            coef[off:off + n_p, cols.gain[l, i].ravel()] = np.kron(
                w[None, :], np.asarray(R, dtype=float).T)
        off += n_p
    return coef


def bias_image(w, cols):
    """Coefficients over the flat gains of w^T K_b."""
    coef = np.zeros(cols.theta.size)
    coef[cols.bias] = w
    return coef


class DualFormMeta:
    """Variable and row layout of the dual form.

    Variables: gains theta, margins delta, then per row k the multipliers
    lam_x (region rows) and per landmark lam_s, lam_p, lam_z, eta1, eta2,
    beta. eta blocks are (axis, point) row-major; beta blocks are (point,
    region row) row-major. theta and delta sit where the vertex form keeps
    them.
    """

    def __init__(self, cols, n_rows, n_reg, n_ps, n_goal_rows=0):
        self.cols = cols
        self.n_rows = int(n_rows)
        self.n_reg = list(n_reg)
        self.n_ps = list(n_ps)
        self.n_goal_rows = int(n_goal_rows)
        d = cols.d
        self._var = {}
        pos = 0

        def take(key, size):
            nonlocal pos
            self._var[key] = (pos, int(size))
            pos += int(size)

        take(("theta",), cols.theta.size)
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
        self.n_eq = pos + self.n_goal_rows

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


def robust_row(ub, eq, b_ub, b_eq, ub_row, eq_rows, mult_cols,
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


def machine_fill(meta, rows, regions, blocks, maps):
    """Derive the dual form mechanically; maps are the feature maps R_i.

    Stage A (dual of the inner PMF maximization, per landmark): for
    max c_p.P s.t. 1.P = 1, A_p P <= -A'_x x - b_p, z_q.P <= sigma_m, P >= 0
    the dual certificate is
        lam_s + lam_p.(-A'_x x - b_p) + sigma_m sum_q lam_z_q  >=  inner max
    subject to per-point feasibility
        lam_s + (A_p^T lam_p)_i + sum_q lam_z_q z_qi >= c_p_i.
    Stage B: each certificate row must hold for all states in the region,
    and each per-point row also for every deviation vector z dominating the
    per-point gaps; that inner maximization is itself dualized by
    robust_row. The bound row does not involve z, so it is dualized over x
    alone; a per-point row involves only its own entries z_.i.
    """
    d = meta.cols.d
    G = meta.cols.theta.size
    ub, eq = Coo(), Coo()
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
            (theta0 + np.arange(G), -bias_image(row.w, meta.cols)),
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
                (meta.vrange("lam_z", k, l), np.full(d, -blk.sigma_m)),
            ])
        robust_row(
            ub, eq, b_ub, b_eq,
            meta.row_ub("bound", k)[0],
            meta.row_eq("stat_x", k)[0] + np.arange(d), meta.vrange("lam_x", k),
            reg_rows, reg_cols, A_x.ravel(), -b_x, row.c_x, obj_outer,
            -row.r, rhs_outer,
        )

        # ---- per-point feasibility rows: inner variables (x, z_.i); the
        # remaining deviation entries are separable and drop out.
        image = gain_image(row.w, [maps] * len(blocks), meta.cols)
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
                robust_row(
                    ub, eq, b_ub, b_eq,
                    df0 + i, eq_rows_i, mult_i,
                    g_rows_i, g_cols_i, g_vals_i, h_i,
                    np.zeros(2 * d),
                    [(d + qs, lz0 + qs, -np.ones(d))],
                    0.0,
                    [
                        (np.array([ls0]), np.array([1.0])),
                        (lp0 + np.arange(2 * d), blk.A_p[:, i]),
                        (theta0 + np.arange(G), -image[off + i]),
                    ],
                )
            off += n_p
    return ub, b_ub, eq, b_eq


def rows_and_regions(asm):
    """The rows of an assembled cell and, per row, the region it holds on."""
    rows, regions = asm.problem.rows()
    return rows, [regions[row.region] for row in rows]


def dual_meta(asm):
    return DualFormMeta(asm.cols, asm.cols.delta.size,
                        [reg.n_rows for reg in rows_and_regions(asm)[1]],
                        [blk.n_points for blk in affine_blocks(asm)],
                        n_goal_rows=asm.lp.b_eq.shape[0])


def machine_lp(asm):
    """The assembled cell's LP in dual form, from the same rows, regions,
    bound set (affine_blocks), weights and caps. The goal equality is not a
    dualization; its rows touch theta alone and are copied from the
    assembled LP."""
    meta, lp = dual_meta(asm), asm.lp
    ub, b_ub, eq, b_eq = machine_fill(meta, *rows_and_regions(asm),
                                      affine_blocks(asm), feature_maps(asm))
    g0 = meta.n_eq - meta.n_goal_rows
    G = meta.cols.theta.size
    goal = sp.hstack([lp.A_eq[:, :G], sp.csr_matrix((meta.n_goal_rows, meta.n_vars - G))])
    A_eq = sp.vstack([eq.matrix((meta.n_eq, meta.n_vars))[:g0], goal])
    b_eq[g0:] = lp.b_eq
    delta = asm.cols.delta
    c = np.zeros(meta.n_vars)
    c[delta] = lp.c[delta]
    lb, ub_bounds = meta.default_bounds(lp.ub[delta])
    return StandardLp(lp.sense, c,
                      A_ub=ub.matrix((meta.n_ub, meta.n_vars)), b_ub=b_ub,
                      A_eq=A_eq, b_eq=b_eq, lb=lb, ub=ub_bounds)


def _solved(lp):
    sol = solve_lp(lp)
    assert sol.status == "Optimal", sol.status
    return sol.x


def lift(asm, x):
    """A vertex-form point in dual-form coordinates: theta, delta and the
    PMF multipliers are copied; lam_x solves each bound row's inner LP over
    the region, and beta, eta1, eta2 solve each point row's inner LP."""
    cols, meta = asm.cols, dual_meta(asm)
    d = cols.d
    out = np.zeros(meta.n_vars)
    n_head = cols.theta.size + cols.delta.size
    out[:n_head] = x[:n_head]
    blocks = affine_blocks(asm)
    for k, (row, region) in enumerate(zip(*rows_and_regions(asm))):
        A, b = region.A, region.b
        n_reg = b.shape[0]
        target = row.c_x.copy()
        for l, blk in enumerate(blocks):
            for name in ("lam_s", "lam_p", "lam_z"):
                out[meta.vrange(name, k, l)] = x[getattr(cols, name)[k, l]]
            target -= blk.A_x.T @ x[cols.lam_p[k, l]]
        # bound row: min -b.lam_x over A^T lam_x = target, lam_x >= 0
        out[meta.vrange("lam_x", k)] = _solved(StandardLp(
            "min", -b, A_eq=A.T, b_eq=target, lb=np.zeros(n_reg)))
        # point rows, one block per point over (beta, eta1, eta2) >= 0:
        # min -b.beta + a_i.(eta1 - eta2) over A^T beta + eta1 - eta2 = 0,
        # eta1 + eta2 = lam_z
        eye = np.eye(d)
        block = np.block([[A.T, eye, -eye],
                          [np.zeros((d, n_reg)), eye, eye]])
        for l, blk in enumerate(blocks):
            n_p = blk.n_points
            lam_z = x[cols.lam_z[k, l]]
            a = (blk.landmark[:, None] - blk.U).T
            cost = np.hstack([np.tile(-b, (n_p, 1)), a, -a]).ravel()
            rhs = np.tile(np.concatenate([np.zeros(d), lam_z]), n_p)
            w = _solved(StandardLp(
                "min", cost, A_eq=sp.kron(sp.eye(n_p), block), b_eq=rhs,
                lb=np.zeros(cost.size))).reshape(n_p, n_reg + 2 * d)
            out[meta.vrange("beta", k, l)] = w[:, :n_reg].ravel()
            out[meta.vrange("eta1", k, l)] = w[:, n_reg:n_reg + d].T.ravel()
            out[meta.vrange("eta2", k, l)] = w[:, n_reg + d:].T.ravel()
    return out


def violation(lp, x):
    """Largest violation of lp's constraints and bounds at x."""
    worst = [np.max(lp.A_ub @ x - lp.b_ub, initial=0.0),
             np.max(np.abs(lp.A_eq @ x - lp.b_eq), initial=0.0),
             np.max(lp.lb - x, initial=0.0), np.max(x - lp.ub, initial=0.0)]
    return float(max(worst))
