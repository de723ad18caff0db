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
the columns of that LP (LpColumns): each row's control coefficient w is
expanded over the gains here, as w[m] R_i[s, j] on gain K_{l,i}[m, s] and
PMF entry P_l[j], and w itself on the bias. A cell's problem is stated once,
as a CellProblem: the cell, its plan entry, the landmarks it reads and
everything else the rows and the PMF set depend on. The assembled LP and the
controller solved from it keep that problem. Which rows a cell carries, and
whether it stops at its goal, is read from its plan entry. A saved
controller names those rows and the landmarks it reads, so load_controllers
checks it against the run's plan and environment.
The LP maximizes the sum of the margins; a tiebreak pass then picks, among
margin-optimal gains, the ones closest in l1 distance to a structured target
so the synthesized fields stay interpretable. When every margin can reach
its cap, the tiebreak floored at the sum of the caps is the only solve;
otherwise the margin pass runs first and floors the tiebreak at its optimum.
These solves share one matrix, assembled once with the tiebreak's rows and
columns in it, and differ only in sense, cost and right-hand side.
Only a few of the thousands of point rows bind, so they are marked lazy:
each solve hands HiGHS the bound rows, the goal equalities, the tiebreak
rows and a seed of point rows, and adds the point rows that its optimum
violates until none is (lp_core.solve_lp). Each solve's result is optimal
for its whole LP.
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
        if not isinstance(names, (list, tuple)):
            raise DimensionMismatch("feature maps must be a list of names, "
                                    "not %r" % (names,))
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


class LpColumns:
    """Column index of the per-cell LP, one slice of range(n_vars) per
    block: the gains gain[l, i, m, s] (K_{l,i}[m, s], landmark l, feature
    map i) and the bias, which together are theta; the margins delta, one
    per row; then per row k and landmark l the PMF-dual multipliers
    lam[k, l] = (lam_s (unit mass, free) | lam_p (2d mean rows) | lam_z (d
    deviation rows)); last t, one per entry of theta, the tiebreak's bound
    on |theta - target|."""

    def __init__(self, n_landmarks, n_k, n_u, d, n_rows):
        self.d = d
        shapes = [(n_landmarks, n_k, n_u, d), (n_u,), (n_rows,),
                  (n_rows, n_landmarks, 3 * d + 1),
                  (n_landmarks * n_k * n_u * d + n_u,)]
        ends = np.cumsum([np.prod(shape, dtype=int) for shape in shapes])
        self.n_vars = int(ends[-1])
        self.gain, self.bias, self.delta, self.lam, self.t = (
            block.reshape(shape) for block, shape
            in zip(np.split(np.arange(self.n_vars), ends[:-1]), shapes))
        self.theta = np.arange(ends[1])
        self.lam_s = self.lam[..., 0]
        self.lam_p = self.lam[..., 1:2 * d + 1]
        self.lam_z = self.lam[..., 2 * d + 1:]


class CellProblem:
    """The robust CLF/CBF program of one cell: the cell, its plan entry, the
    coordinates of the landmarks it reads (one per cell.landmark_ids), the
    dynamics, the CLF and CBF rates alpha_v and alpha_h, the error bounds,
    the measurement grid, the feature basis and v_floor, the progress floor
    of a goal cell's stability row (None elsewhere). A cell that is not the
    one its entry names, or whose landmark count is not the coordinates',
    raises DimensionMismatch."""

    def __init__(self, cell, entry, landmarks, dynamics, alpha_v, alpha_h,
                 bounds, grid, basis, v_floor=None):
        self.cell = cell
        self.entry = entry
        self.landmarks = [np.asarray(p, dtype=float) for p in landmarks]
        self.dynamics = dynamics
        self.alpha_v = float(alpha_v)
        self.alpha_h = float(alpha_h)
        self.bounds = bounds
        self.grid = grid
        self.basis = basis
        self.v_floor = v_floor
        if (cell.id != entry.cell_id
                or len(self.landmarks) != len(cell.landmark_ids)):
            raise DimensionMismatch("cell %s: entry, cell and landmarks "
                                    "disagree" % cell.id)

    def rows(self):
        """The entry's rows and the region each must hold on
        (clfcbf.build_cell_rows)."""
        return build_cell_rows(self.cell.body, self.entry, self.dynamics,
                               self.alpha_v, self.alpha_h, self.v_floor)

    def features(self):
        """The basis's feature maps R_i on the grid, each d x n_p."""
        return self.basis.matrices(build_expectation_kernel(self.grid),
                                   self.grid.width)


def _fill_rows(cols, rows, regions, landmarks, bounds, points, maps):
    """Inequality rows of the vertex-form LP, per row k: the bound row at
    each vertex v of its region, then per landmark the dual-feasibility row
    of each grid point i at each of its deviation candidates.

    Row k reads c_x.x + w.u + r <= -delta_k, and u = K_b + sum_l M_l P_l
    with M_l = sum_i K_li R_i (maps[i] = R_i), so its PMF coefficient on
    landmark l is c_i = (w^T M_l)_i, linear in the gains. The inner maximum
    of c.P over the PMFs consistent with observing the landmark from x
    (unit mass and bounds.rows(u, y)^T P <= bounds.rhs(y) at the offset y =
    landmark - x, u the grid points) has the dual bound
        lam_s + (lam_p, lam_z).rhs(landmark - x)
    under the per-point feasibility
        lam_s + (lam_p, lam_z).rows(u_i, landmark - x) >= c_i.
    Both must hold on the whole region. The bound row is affine in x, so
    its vertices suffice. In a point row, rows splits into the mean part
    [u_i, -u_i] on lam_p and the deviation |x - a_i| on lam_z, a_i =
    landmark - u_i, whose minimum over the region is attained at one of
    geometry.deviation_candidates. An empty region has neither, so its row
    constrains nothing. Last comes the tiebreak block, the floor -sum(delta)
    <= -z and +-theta - t <= +-target, at right-hand side 0, where it
    constrains nothing (delta >= 0, t is free above); _tiebreak_lp sets it.

    Returns the rows, their right-hand sides and the lazy mask: few of the
    point rows bind at the optimum, so they enter the solve only when
    violated (lp_core.solve_lp); the other rows are always in."""
    features = np.stack(maps)
    ub = _Coo()
    b_ub = []
    lazy = []
    n = 0
    # rows share their region (the cell body) except a floored CLF row
    candidates = {}
    for region in regions:
        if id(region) not in candidates:
            candidates[id(region)] = [geometry.deviation_candidates(
                region, landmark - points) for landmark in landmarks]
    for k, row in enumerate(rows):
        V = geometry.region_points(regions[k])
        at_v = n + np.arange(V.shape[0])[:, None]
        ub.add(at_v, cols.bias, row.w)
        ub.add(at_v, cols.delta[k], 1.0)
        for l, landmark in enumerate(landmarks):
            ub.add(at_v, cols.lam_s[k, l], 1.0)
            ub.add(at_v, cols.lam[k, l, 1:], bounds.rhs(landmark - V))
        b_ub.append(-row.r - V @ row.c_x)
        lazy.append(np.zeros(V.shape[0], dtype=bool))
        n += V.shape[0]
        # image[(i n_u + m) d + s, j] = w[m] R_i[s, j]: the coefficient of
        # K_{l,i}[m, s] on P_l[j], laid out as cols.gain[l].ravel()
        image = (row.w[None, :, None, None] * features[:, None]).reshape(
            -1, features.shape[2])
        for l in range(len(landmarks)):
            idx, gap = candidates[id(regions[k])][l]
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


class AssembledCellLp:
    """A cell problem's margin LP, whose matrix every solve of the cell
    shares, with its columns and the rows and regions it was built from."""

    def __init__(self, problem, lp, cols, rows, regions):
        self.problem = problem
        self.lp = lp
        self.cols = cols
        self.rows = rows
        self.regions = regions


def _check_visibility(cell, landmarks, spec):
    half = np.asarray(spec.width) / 2.0
    for l in landmarks:
        worst = np.max(np.abs(np.asarray(l)[None, :] - cell.vertices), axis=0)
        if np.any(worst > half + 1e-9):
            raise LandmarkNotVisible(
                "landmark %s exceeds the grid half-width %s somewhere in cell %d"
                % (np.asarray(l).tolist(), half.tolist(), cell.id)
            )


def _fill_goal(eq, cols, spec, maps, positions, goal):
    """Equilibrium equality u = 0 for the observation snapped at the goal."""
    at_u = np.arange(cols.bias.size)
    for l, pos in enumerate(positions):
        y = np.asarray(pos, dtype=float) - np.asarray(goal, dtype=float)
        try:
            pmf = make_delta_pmf(spec, y)
        except LandmarkOutOfView as exc:
            raise GoalObservationOffGrid(
                "goal observation of landmark %d leaves the grid: %s" % (l, exc)
            ) from None
        for i, R in enumerate(maps):
            eq.add(at_u[:, None], cols.gain[l, i], R @ pmf.vector)
    eq.add(at_u, cols.bias, 1.0)


def assemble_robust_lp(problem):
    """Build the LP of a CellProblem: a CBF row per facet in
    entry.barriers and, for an entry without an exit facet, the equilibrium
    equality for the observation snapped at its goal entry.o. v_floor, when
    set, limits the stability row to the part of the cell where the
    progress function is at least that value."""
    p = problem
    d = p.dynamics.d
    if p.cell.body.dim != d:
        raise DimensionMismatch("cell dimension does not match dynamics")
    if any(l.shape != (p.grid.dim,) for l in p.landmarks):
        raise DimensionMismatch("landmark dimension mismatch")
    _check_visibility(p.cell, p.landmarks, p.grid)
    p.bounds.warn_if_below_pitch(p.grid)
    if not p.landmarks:
        raise DimensionMismatch("need at least one landmark")
    maps = p.features()
    rows, regions = p.rows()

    cols = LpColumns(len(p.landmarks), p.basis.n_k, p.dynamics.n_u, d,
                     len(rows))
    ub, b_ub, lazy = _fill_rows(cols, rows, regions, p.landmarks, p.bounds,
                                p.grid.points(), maps)
    eq = _Coo()
    n_goal = 0
    if p.entry.exit_face is None:
        _fill_goal(eq, cols, p.grid, maps, p.landmarks, p.entry.o)
        n_goal = p.dynamics.n_u

    c = np.zeros(cols.n_vars)
    c[cols.delta] = 1.0
    lb = np.zeros(cols.n_vars)
    ub_bounds = np.full(cols.n_vars, np.inf)
    lb[cols.theta] = -np.inf
    ub_bounds[cols.delta] = [DELTA_CAP[r.kind] for r in rows]
    lb[cols.lam_s] = -np.inf
    lp = StandardLp("max", c,
                    A_ub=ub.matrix((b_ub.size, cols.n_vars)), b_ub=b_ub,
                    A_eq=eq.matrix((n_goal, cols.n_vars)), b_eq=np.zeros(n_goal),
                    lb=lb, ub=ub_bounds, lazy=lazy)
    return AssembledCellLp(p, lp, cols, rows, regions)


def _tiebreak_lp(assembled, z, target):
    """Among solutions whose margins sum to at least z (less a relative
    TIEBREAK_TOL), minimize the l1 distance sum(t) of theta to target. It is
    the margin LP with cost 1 on t and the tiebreak block's right-hand sides
    set (see _fill_rows): no matrix is built, and the matrices, bounds and
    lazy mask are the margin LP's own."""
    lp, cols = assembled.lp, assembled.cols
    c = np.zeros(lp.n_vars)
    c[cols.t] = 1.0
    tol = TIEBREAK_TOL * max(1.0, abs(z))
    b_ub = lp.b_ub.copy()
    b_ub[-(1 + 2 * cols.t.size):] = np.r_[-(z - tol), target, -target]
    return StandardLp("min", c, A_ub=lp.A_ub, b_ub=b_ub, A_eq=lp.A_eq,
                      b_eq=lp.b_eq, lb=lp.lb, ub=lp.ub, lazy=lp.lazy)


class CellController:
    """Gains synthesized for a CellProblem, with the problem they solve.

    The gains and bias are fixed at construction, and so are the
    per-landmark control matrices built from them on the problem's feature
    maps: a controller is a constant of the closed loop, so a different law
    is a new controller. Synthesis raises before it could build a controller
    from any LP status but Optimal, so that is every controller's status."""

    status = "Optimal"

    def __init__(self, problem, gains, bias, margins, saturation=None):
        self.problem = problem
        self._gains = tuple(tuple(_frozen(Ki) for Ki in per_l)
                            for per_l in gains)
        self._bias = _frozen(bias)
        self.margins = np.asarray(margins, dtype=float)
        self.saturation = saturation
        shape = (problem.dynamics.n_u, problem.dynamics.d)
        if (len(self._gains) != len(problem.landmarks)
                or any(len(per_l) != problem.basis.n_k
                       for per_l in self._gains)
                or any(K.shape != shape for per_l in self._gains
                       for K in per_l)
                or self._bias.shape != shape[:1]
                or len(self.margins) != 1 + len(problem.entry.barriers)):
            raise DimensionMismatch(
                "cell %s: gains, bias, landmarks and rows disagree"
                % problem.cell.id)
        features = problem.features()
        self._control = tuple(
            _frozen(sum(K @ R for K, R in zip(per_landmark, features)))
            for per_landmark in self._gains
        )

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

    def to_dict(self):
        p = self.problem
        run = _run_fields(p.cell, p.entry, p.landmarks)
        return {
            "id": run.pop("id"),
            "basis": list(p.basis.names),
            "K": [[Ki.tolist() for Ki in per_l] for per_l in self.gains],
            "K_b": self.bias.tolist(),
            "delta": self.margins.tolist(),
            "alpha_v": p.alpha_v,
            "alpha_h": p.alpha_h,
            "epsilon": p.bounds.epsilon,
            "sigma_m": p.bounds.sigma_m,
            "grid": {"n": list(p.grid.n), "width": list(p.grid.width)},
            **run,
            "v_floor": p.v_floor,
            "dynamics": {"A": p.dynamics.A.tolist(), "B": p.dynamics.B.tolist()},
            "status": self.status,
            "saturation": self.saturation,
        }

    @classmethod
    def from_dict(cls, d, cell, entry, landmarks):
        """The controller to_dict wrote as d, its problem built from the
        cell, plan entry and landmark coordinates of a run whose run fields
        d has and from d's own fields. A malformed number, and a status
        other than the class's, raise ConfigError naming its key
        (geometry.read)."""
        def read(key, convert=geometry.reals, section=d, prefix=""):
            return geometry.read(section, key, convert, None, prefix)

        def status(value):
            if value != cls.status:
                raise ValueError("%r is not %r" % (value, cls.status))

        real = geometry.real
        read("status", status)
        grid, dynamics, saturation = d["grid"], d["dynamics"], d["saturation"]
        if saturation is not None:
            saturation = {"max_u_vertices": read(
                "max_u_vertices", real, saturation, "saturation.")}
        problem = CellProblem(
            cell, entry, landmarks,
            dynamics=LinearDynamics(
                read("A", section=dynamics, prefix="dynamics."),
                read("B", section=dynamics, prefix="dynamics.")),
            alpha_v=read("alpha_v", real),
            alpha_h=read("alpha_h", real),
            bounds=measurement.UncertaintyBounds(read("epsilon", real),
                                                 read("sigma_m", real)),
            grid=measurement.GridSpec(
                read("n", geometry.integers, grid, "grid."),
                read("width", section=grid, prefix="grid.")),
            basis=GainBasis(d["basis"]),
            v_floor=read("v_floor", lambda v: v if v is None else real(v)),
        )
        return cls(problem, read("K"), read("K_b"), read("delta"), saturation)


def _run_fields(cell, entry, landmarks):
    """The fields of a saved controller that its run decides: its cell's
    plan entry and landmarks. to_dict writes id first, the rest after grid."""
    return {
        "id": cell.id,
        "landmark_ids": list(cell.landmark_ids),
        "landmarks": [p.tolist() for p in landmarks],
        "kinds": ["clf"] + ["cbf"] * len(entry.barriers),
        "facets": [None] + entry.barriers,
        "v": entry.v.tolist(),
        "o": entry.o.tolist(),
        "exit_face": entry.exit_face,
    }


def _frozen(a):
    """A read-only float copy of a."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _solve_cell(assembled):
    """The solution of the cell's LP that the controller is read from: the
    gains nearest nominal_theta(assembled) among margin-optimal ones.

    The tiebreak LP floored at the sum of the margin caps is solved first.
    The margin LP's optimum z* is at most that sum, and a feasible floor
    proves z* >= sum - tol, so when every margin can reach its cap this is
    the tiebreak LP of the margin-first path, and the margin pass is
    skipped. (Only a z* that HiGHS reports inside [sum - tol, sum) would
    floor that path's tiebreak differently.) Otherwise the margin pass runs
    and the tiebreak from z* follows; a failed tiebreak keeps the
    margin-pass gains. All three read the one matrix assembled for the
    cell. Each adds the lazy point rows as its optimum violates them, and
    returns an optimum of its whole LP, checked against every row."""
    cell_id = assembled.problem.cell.id
    target = nominal_theta(assembled)
    cap_sum = float(np.sum(assembled.lp.ub[assembled.cols.delta]))
    sol = solve_lp(_tiebreak_lp(assembled, cap_sum, target))
    if sol.status == "Optimal":
        return sol.x
    sol = solve_lp(assembled.lp)
    if sol.status == "Infeasible":
        raise SynthesisInfeasible(
            "no stabilizing safe gains for cell %d under these bounds" % cell_id
        )
    if sol.status == "Unbounded":
        raise SolverFailure(
            "margin program for cell %d is unbounded; margin caps missing" % cell_id
        )
    tiebreak = solve_lp(_tiebreak_lp(assembled, sol.objective, target))
    if tiebreak.status == "Optimal":
        return tiebreak.x
    warnings.warn(
        "tiebreak pass returned %s for cell %d; keeping the margin-pass gains"
        % (tiebreak.status, cell_id)
    )
    return sol.x


def synthesize_cell_controller(assembled):
    """Solve the assembled LP (see _solve_cell) and wrap the result."""
    x = _solve_cell(assembled)
    cols = assembled.cols
    ctrl = CellController(assembled.problem, x[cols.gain], x[cols.bias],
                          x[cols.delta])
    ctrl.saturation = _saturation_report(ctrl)
    return ctrl


def _saturation_report(ctrl):
    """Worst control magnitude over its cell's vertices under exact sensing;
    the input set is not part of the LP, so report it instead."""
    p = ctrl.problem
    worst = 0.0
    for x in p.cell.vertices:
        u = control_input(ctrl, [make_delta_pmf(p.grid, lm - x)
                                 for lm in p.landmarks])
        worst = max(worst, float(np.max(np.abs(u))))
    return {"max_u_vertices": worst}


def nominal_theta(assembled):
    """Structured target of the tiebreak pass for assembled's entry: gain
    M / L on the mean map of each of the L landmarks and a bias b, so that u
    is about b + M (o - x) under exact sensing. Zero where n_u != d.

    Transit (o the exit midpoint): M approaches the exit facet along its
    normal v with gain 2 and centers laterally with gain 1; b pushes through
    the facet by the CLF cost of the worst sensing error, the CLF margin cap
    and one. Goal (o the goal): M contracts toward the snapped goal
    observation with gain 2.4, less a cross-axis shear of 0.25 in 2-D so
    quantization plateaus are crossed by sliding along the grid lines
    through the goal."""
    p, cols = assembled.problem, assembled.cols
    entry, spec, positions = p.entry, p.grid, p.landmarks
    out = np.zeros(cols.theta.size)
    d = cols.d
    if cols.bias.size != d:
        return out
    if entry.exit_face is None:
        M = 2.4 * np.eye(d)
        if d == 2:
            M = M - 0.25 * np.array([[0.0, 1.0], [1.0, 0.0]])
        bias = np.zeros(d)
        pts = spec.points()
        ys = [pts[spec.flat_index(spec.snap(pos - entry.o))]
              for pos in positions]
    else:
        v = entry.v
        proj = np.outer(v, v)
        M = 2.0 * proj + (np.eye(d) - proj)
        push = (p.alpha_v * (p.bounds.epsilon + max(spec.pitch))
                * np.sum(np.abs(v)) + DELTA_CAP["clf"] + 1.0)
        bias = -push * v
        ys = [pos - entry.o for pos in positions]
    L = len(positions)
    for l, y in enumerate(ys):
        out[cols.gain[l, p.basis.names.index("mean")]] = M / L
        bias = bias - (M / L) @ y
    out[cols.bias] = bias
    return out


def goal_v_floor(entry, bounds, spec):
    """Stability is only enforced where the progress function clears the
    worst-case sensing error, leaving the terminal plateau to the
    equilibrium equality."""
    return 2.0 * np.sum(np.abs(entry.v)) * (bounds.epsilon + max(spec.pitch))


def synthesize_environment(env, entries, dynamics, spec, bounds, basis,
                           alpha_v, alpha_h):
    """One controller per plan entry (a dict keyed by cell id, as in
    HighLevelPlan.entries), each certifying what its entry asks, keyed by
    cell id in id order; the goal cell, whose entry has no exit facet, also
    gets a floored stability region."""
    controllers = {}
    for cell_id in sorted(entries):
        entry = entries[cell_id]
        cell = env.cell_by_id(cell_id)
        v_floor = (goal_v_floor(entry, bounds, spec)
                   if entry.exit_face is None else None)
        problem = CellProblem(cell, entry,
                              [env.landmarks[j] for j in cell.landmark_ids],
                              dynamics, alpha_v, alpha_h, bounds, spec, basis,
                              v_floor)
        try:
            controllers[cell_id] = synthesize_cell_controller(
                assemble_robust_lp(problem))
        except (SynthesisInfeasible, SolverFailure) as exc:
            raise type(exc)("cell %d: %s" % (cell_id, exc)) from exc
    return controllers


def save_controllers(controllers, path):
    with open(path, "w") as fh:
        json.dump([c.to_dict() for c in controllers.values()], fh, indent=2)
        fh.write("\n")


def load_controllers(path, env, plan):
    """The controllers save_controllers wrote to path, keyed by cell id in
    file order, each carrying its cell of env, that cell's entry of plan
    and its landmarks of env.
    A file that is not such a list, a cell that plan lacks or that the file
    lists twice, a run field (_run_fields) that differs from the run's and
    a malformed entry raise ConfigError naming the file and the controller
    (controllers.<k>, or controllers.<k>.<key> for a malformed number)."""
    data = geometry.load_json(path, "controllers")
    if not isinstance(data, list):
        raise ConfigError("controllers must be a list", path=path,
                          field="controllers")
    controllers = {}
    for k, saved in enumerate(data):
        field = "controllers.%d" % k
        try:
            cell_id = saved["id"]
            entry = plan.entries.get(cell_id)
            if entry is None:
                reason = "the run's plan has no cell %r" % (cell_id,)
            elif cell_id in controllers:
                reason = "cell %d is listed twice" % cell_id
            else:
                cell = env.cell_by_id(cell_id)
                landmarks = [env.landmarks[j] for j in cell.landmark_ids]
                differ = [key for key, value
                          in _run_fields(cell, entry, landmarks).items()
                          if saved[key] != value]
                if not differ:
                    controllers[cell_id] = CellController.from_dict(
                        saved, cell, entry, landmarks)
                    continue
                reason = ("cell %d was synthesized for another plan or "
                          "environment (%s differ); run synth again"
                          % (cell_id, ", ".join(differ)))
        except ConfigError as exc:
            reason, field = exc.reason, "%s.%s" % (field, exc.field)
        except KeyError as exc:
            reason = "controller lacks key %s" % exc
        except (TypeError, ValueError, DimensionMismatch) as exc:
            reason = "malformed controller: %s" % exc
        raise ConfigError(reason, path=path, field=field)
    return controllers
