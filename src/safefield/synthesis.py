"""Per-cell robust gain synthesis via a single LP.

Each stability/safety row must hold for every state in its region and every
measurement PMF consistent with the error bounds at that state. Dualizing
the inner maximization over the PMF gives, per landmark, multipliers
(lam_s, lam_p, lam_z) whose dual bound and per-point feasibility rows must
then hold for every state in the region. Both inner problems over the state
have closed forms: the bound row is affine in the state, so it is written
once per vertex of the region, and each point row is piecewise linear in
it, so it is written once per deviation candidate of the point
(geometry.deviation_candidates). The result is finitely many linear rows
over the gains, the margins and those multipliers. This module alone knows
the flat layout of the gains in that LP (GainLayout): each row's control
coefficient w is expanded over the gains here, as w[m] R_i[s, j] on gain
K_{l,i}[m, s] and PMF entry P_l[j], and w itself on the bias.
The LP maximizes the sum of the margins; a second pass then picks, among
margin-optimal gains, the ones closest in l1 distance to a structured target
so the synthesized fields stay interpretable.
"""

import json
import warnings

import numpy as np
import scipy.sparse as sp

from . import geometry, measurement
from .clfcbf import LinearDynamics, build_cell_rows
from .errors import (
    ConfigError,
    DimensionMismatch,
    GoalObservationOffGrid,
    LandmarkNotVisible,
    LandmarkOutOfView,
    SolverFailure,
    SynthesisInfeasible,
)
from .lp_core import StandardLp, solve_lp
from .measurement import build_expectation_kernel, make_delta_pmf
from .simulation import control_input

DELTA_CAP = {"clf": 0.25, "cbf": 4.0}
TIEBREAK_TOL = 1e-9


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
        """Evaluate every map on the grid behind kernel."""
        U = np.asarray(kernel, dtype=float)
        half = np.asarray(width, dtype=float)[:, None] / 2.0
        out = []
        for name in self.names:
            if name == "mean":
                out.append(U.copy())
            elif name == "quadratic":
                out.append(U * U)
            else:
                R = np.cos(np.pi * U / half)
                # cos(+-pi/2) rounds to 6.1e-17: store the exact zeros
                R[np.abs(R) <= 1e-15] = 0.0
                out.append(R)
        return out


class GainLayout:
    """Flat ordering of the gain decision vector: for each landmark, each
    feature map contributes an n_u x d block stored row-major; the bias K_b
    occupies the last n_u slots."""

    def __init__(self, n_landmarks, n_k, n_u, d):
        self.n_landmarks = int(n_landmarks)
        self.n_k = int(n_k)
        self.n_u = int(n_u)
        self.d = int(d)

    @property
    def n_gains(self):
        return self.n_landmarks * self.n_k * self.n_u * self.d + self.n_u

    def gain_index(self, landmark, i, m, s):
        return ((landmark * self.n_k + i) * self.n_u + m) * self.d + s

    def block_start(self, landmark, i):
        return self.gain_index(landmark, i, 0, 0)

    def bias_start(self):
        return self.n_landmarks * self.n_k * self.n_u * self.d

    def pack(self, gains, bias):
        """gains[l][i] is the n_u x d matrix for landmark l, map i."""
        return np.concatenate([np.asarray(gains, dtype=float).ravel(),
                               np.asarray(bias, dtype=float)])

    def unpack(self, theta):
        """(gains, bias), gains as an array indexed [l, i, m, s]."""
        theta = np.array(theta, dtype=float)
        start = self.bias_start()
        return (theta[:start].reshape(self.n_landmarks, self.n_k, self.n_u, self.d),
                theta[start:])


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
        """The summed entries as CSR, without stored zeros."""
        if not self.r:
            return sp.csr_matrix(shape)
        out = sp.coo_matrix(
            (np.concatenate(self.v), (np.concatenate(self.r), np.concatenate(self.c))),
            shape=shape,
        ).tocsr()
        out.eliminate_zeros()
        return out


class LpMeta:
    """Variable layout of the per-cell LP: gains theta, margins delta, then
    per row k and landmark l the PMF-dual multipliers lam_s (unit mass,
    free), lam_p (2d mean rows) and lam_z (d deviation rows)."""

    def __init__(self, layout, n_rows, n_landmarks):
        self.layout = layout
        self.n_rows = int(n_rows)
        self.n_landmarks = int(n_landmarks)
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
            for l in range(self.n_landmarks):
                take(("lam_s", k, l), 1)
                take(("lam_p", k, l), 2 * d)
                take(("lam_z", k, l), d)
        self.n_vars = pos

    def var(self, *key):
        return self._var[key]

    def default_bounds(self, caps):
        lb = np.zeros(self.n_vars)
        ub = np.full(self.n_vars, np.inf)
        s, z = self.var("theta")
        lb[s:s + z] = -np.inf
        s, z = self.var("delta")
        ub[s:s + z] = caps
        for k in range(self.n_rows):
            for l in range(self.n_landmarks):
                lb[self.var("lam_s", k, l)[0]] = -np.inf
        return lb, ub


def _fill_rows(meta, rows, regions, blocks, maps):
    """Inequality rows of the vertex-form LP, per row k: the bound row at
    each vertex v of its region, then per landmark the dual-feasibility row
    of each grid point i at each of its deviation candidates.

    Row k reads c_x.x + w.u + r <= -delta_k, and u = K_b + sum_l M_l P_l
    with M_l = sum_i K_li R_i (maps[i] = R_i), so its PMF coefficient on
    landmark l is c_i = (w^T M_l)_i, linear in the gains. The inner maximum
    of c.P over the PMFs consistent with observing the landmark from x has
    the dual bound
        lam_s + lam_p.(-A'_x x - b_p) + sigma_m sum_q lam_z_q
    under the per-point feasibility
        lam_s + (A_p^T lam_p)_i + sum_q lam_z_q |x_q - a_qi| >= c_i,
    a_i = landmark - U_i. Both must hold on the whole region. The bound row
    is affine in x, so its vertices suffice; the point rows need the
    minimum over the region of their last sum, which is attained at one of
    geometry.deviation_candidates. An empty region has neither, so its row
    constrains nothing."""
    layout = meta.layout
    d = layout.d
    features = np.stack(maps)
    ub = _Coo()
    b_ub = []
    n = 0
    theta0, _ = meta.var("theta")
    delta0, _ = meta.var("delta")
    bias = theta0 + layout.bias_start() + np.arange(layout.n_u)
    # rows share their region (the cell body) except a floored CLF row
    candidates = {}
    for region in regions:
        if id(region) not in candidates:
            candidates[id(region)] = [geometry.deviation_candidates(
                region, (blk.landmark[:, None] - blk.U).T) for blk in blocks]
    for k, row in enumerate(rows):
        V = geometry.region_points(regions[k])
        at_v = n + np.arange(V.shape[0])[:, None]
        ub.add(at_v, bias, row.w)
        ub.add(at_v, delta0 + k, 1.0)
        for l, blk in enumerate(blocks):
            ub.add(at_v, meta.var("lam_s", k, l)[0], 1.0)
            ub.add(at_v, meta.var("lam_p", k, l)[0] + np.arange(2 * d),
                   -(V @ blk.A_x.T + blk.b_p))
            ub.add(at_v, meta.var("lam_z", k, l)[0] + np.arange(d),
                   blk.bounds.sigma_m)
        b_ub.append(-row.r - V @ row.c_x)
        n += V.shape[0]
        # image[(i n_u + m) d + s, j] = w[m] R_i[s, j]: the coefficient of
        # K_{l,i}[m, s] on P_l[j], in each landmark's block of theta
        image = (row.w[None, :, None, None] * features[:, None]).reshape(
            -1, features.shape[2])
        for l, blk in enumerate(blocks):
            idx, gap = candidates[id(regions[k])][l]
            at_i = n + np.arange(idx.size)[:, None]
            ub.add(at_i, meta.var("lam_s", k, l)[0], -1.0)
            ub.add(at_i, meta.var("lam_p", k, l)[0] + np.arange(2 * d),
                   -blk.A_p.T[idx])
            ub.add(at_i, meta.var("lam_z", k, l)[0] + np.arange(d), -gap)
            ub.add(at_i, theta0 + layout.block_start(l, 0)
                   + np.arange(image.shape[0]), image[:, idx].T)
            b_ub.append(np.zeros(idx.size))
            n += idx.size
    return ub, np.concatenate(b_ub)


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
                eq.add(m, theta0 + base + np.arange(layout.d), f)
    for m in range(layout.n_u):
        eq.add(m, theta0 + layout.bias_start() + m, 1.0)


def assemble_robust_lp(cell, entry, dynamics, alpha_v, alpha_h, bounds, spec,
                       positions, basis, barrier_facets=None, v_floor=None,
                       goal=None):
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
                                    barrier_facets, v_floor)

    meta = LpMeta(layout, len(rows), len(blocks))
    ub, b_ub = _fill_rows(meta, rows, regions, blocks, maps)
    eq = _Coo()
    n_goal = dynamics.n_u if goal is not None else 0
    if goal is not None:
        _fill_goal(eq, meta, spec, maps, positions, goal)

    c = np.zeros(meta.n_vars)
    dstart, _ = meta.var("delta")
    c[dstart:dstart + meta.n_rows] = 1.0
    lb, ub_bounds = meta.default_bounds([DELTA_CAP[r.kind] for r in rows])
    lp = StandardLp("max", c,
                    A_ub=ub.matrix((b_ub.size, meta.n_vars)), b_ub=b_ub,
                    A_eq=eq.matrix((n_goal, meta.n_vars)), b_eq=np.zeros(n_goal),
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


class CellController:
    """Synthesized gains and everything needed to run and audit them.

    The gains, bias, basis and grid are fixed at construction, and so are
    the per-landmark control matrices built from them: a controller is a
    constant of the closed loop, so a different law is a new controller."""

    def __init__(self, cell_id, basis, gains, bias, margins, kinds, facets,
                 grid, bounds, alpha_v, alpha_h, landmark_ids, landmarks,
                 v, o, exit_face, v_floor, dynamics, status="Optimal",
                 saturation=None):
        self.cell_id = cell_id
        self._basis = basis
        self._grid = grid
        self._gains = tuple(tuple(_frozen(Ki) for Ki in per_l)
                            for per_l in gains)
        self._bias = _frozen(bias)
        self.margins = np.asarray(margins, dtype=float)
        self.kinds = list(kinds)
        self.facets = list(facets)
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
        self.status = status
        self.saturation = saturation
        if (len(self._gains) != len(self.landmarks)
                or any(len(per_l) != basis.n_k for per_l in self._gains)
                or any(K.shape != (dynamics.n_u, dynamics.d)
                       for per_l in self._gains for K in per_l)
                or self._bias.shape != (dynamics.n_u,)
                or not len(self.margins) == len(self.kinds) == len(self.facets)):
            raise DimensionMismatch(
                "cell %s: gains, bias, landmarks and rows disagree" % cell_id)
        features = basis.matrices(build_expectation_kernel(grid), grid.width)
        self._control = tuple(
            _frozen(sum(K @ R for K, R in zip(per_landmark, features)))
            for per_landmark in self._gains
        )

    @property
    def basis(self):
        return self._basis

    @property
    def grid(self):
        return self._grid

    @property
    def gains(self):
        """gains[l][i]: the n_u x d gain of landmark l on feature map i."""
        return self._gains

    @property
    def bias(self):
        return self._bias

    def control_matrices(self):
        """Per-landmark n_u x n_p matrices sum_i K_li R_i acting on the
        vectorized PMF."""
        return self._control

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
            gains=d["K"],
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


def _frozen(a):
    """A read-only float copy of a."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


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
                          alpha_v, approach=2.0, lateral=1.0):
    """Structured target for transit cells: approach the exit facet along its
    normal, center laterally, and keep a constant push through the facet."""
    d = layout.d
    if layout.n_u != d:
        return np.zeros(layout.n_gains)
    v = np.asarray(entry.v, dtype=float)
    o = np.asarray(entry.o, dtype=float)
    proj = np.outer(v, v)
    M = approach * proj + lateral * (np.eye(d) - proj)
    push = (alpha_v * (bounds.epsilon + max(spec.pitch)) * np.sum(np.abs(v))
            + DELTA_CAP["clf"] + 1.0)
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
                           alpha_v, alpha_h):
    """One controller per plan entry (a dict keyed by cell id, as in
    HighLevelPlan.entries); the goal cell, whose entry has no exit facet,
    gets the equilibrium equality and a floored stability region."""
    controllers = []
    for cell_id in sorted(entries):
        entry = entries[cell_id]
        cell = env.cell_by_id(cell_id)
        positions = [env.landmarks[j] for j in cell.landmark_ids]
        is_goal = entry.exit_face is None
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
                positions, basis, barrier_facets=barrier, v_floor=v_floor, goal=goal,
            )
            layout = assembled.meta.layout
            if is_goal:
                nominal = nominal_goal_theta(layout, basis, positions, spec, env.goal)
            else:
                nominal = nominal_transit_theta(
                    layout, basis, entry, positions, bounds, spec, alpha_v)
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
    """The controllers that save_controllers wrote to path. A file that is
    not such a list raises ConfigError naming the file and the entry."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ConfigError("invalid JSON: %s" % exc, path=path,
                              field="controllers") from None
    if not isinstance(data, list):
        raise ConfigError("controllers must be a list", path=path,
                          field="controllers")
    controllers = []
    for k, entry in enumerate(data):
        try:
            controllers.append(CellController.from_dict(entry))
        except KeyError as exc:
            raise ConfigError("controller lacks key %s" % exc, path=path,
                              field="controllers.%d" % k) from None
        except (TypeError, ValueError, DimensionMismatch) as exc:
            raise ConfigError("malformed controller: %s" % exc, path=path,
                              field="controllers.%d" % k) from None
    return controllers
