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
PMF entry P_l[j], and w itself on the bias. The LP is assembled from a
controller.CellProblem, and the assembled LP and the CellController solved
from it keep that problem.
The LP maximizes the sum of the margins; a tiebreak pass then picks, among
margin-optimal gains, the ones closest in l1 distance to a structured target
so the synthesized fields stay interpretable. When every margin can reach
its cap, the tiebreak floored at the sum of the caps is the only solve;
otherwise the margin pass runs first and floors the tiebreak at its optimum.
These solves share one matrix, assembled once with the tiebreak's rows and
columns in it, and differ only in sense, cost and right-hand side.
Only a few of the thousands of point rows bind, so they are not written
into the matrix: PointRows holds them per cell as candidates, gaps and gain
images, and gives their deficits at a solution and the matrix rows of any
subset. The LP's inequality rows are its matrix rows (the bound rows, then
the tiebreak rows), followed by its point rows (lp_core). Each solve hands
HiGHS the matrix rows, the goal equalities and a seed of point rows, and
adds the point rows that its optimum violates until none is
(lp_core.solve_lp). Each solve's result is optimal for its whole LP, and no
solve writes the point rows it never reads.
"""

import logging
import warnings

import numpy as np

from . import geometry
from .controller import CellController, CellProblem
from .errors import (
    GoalObservationOffGrid,
    LandmarkNotVisible,
    LandmarkOutOfView,
    SolverError,
    SolverFailure,
    SynthesisInfeasible,
)
from .lp_core import StandardLp, solve_lp
from .measurement import make_delta_pmf
from .simulation import control_input

DELTA_CAP = {"clf": 0.25, "cbf": 4.0}
TIEBREAK_TOL = 1e-9

log = logging.getLogger("safefield")


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


class PointRows:
    """The point rows of a cell LP (see _fill_rows) as data, not as matrix
    entries: per row k and landmark l, in that order, a block of the
    deviation candidates (grid point i, gap g) of the row's region. Every
    point row of a block has the same columns, the gains gain[l] on which
    the row's gain image is not 0 everywhere, then lam[k, l], and its
    coefficients on them are
        (image[:, i], -1, -u_i, u_i, -g)
    for the grid point u_i. It is the separation that lp_core.solve_lp
    reads (see StandardLp), whose point rows follow its matrix rows in
    block order: b, their right-hand sides (all 0); deficits(x) and
    rows(selected), the CSR arrays of a subset, which lp_core stacks under
    the matrix rows for HiGHS to read row by row.

    deficits sums each row in the order of its columns, as a CSR mat-vec
    does, so at a finite x it returns that mat-vec's values bit for bit (a
    coefficient 0, which the matrix drops, adds at most a zero's sign)."""

    def __init__(self, points, blocks):
        """blocks: per (k, l) in order, (columns, the gain image's rows on
        those columns over the grid points, candidate point indices,
        gaps)."""
        self._sizes = np.array([block[2].size for block in blocks])
        self._block = np.repeat(np.arange(len(blocks)), self._sizes)
        self.b = np.zeros(self._sizes.sum())
        # per block its columns, and per row (one column here) the
        # coefficients on them, padded to one width with coefficient 0 on
        # column 0
        width = max(block[0].size for block in blocks)
        self._cols = np.zeros((len(blocks), width), dtype=np.int64)
        self._coef = np.zeros((width, self.b.size))
        end = 0
        for b, (columns, image, idx, gap) in enumerate(blocks):
            start, end = end, end + idx.size
            self._cols[b, :columns.size] = columns
            coef = self._coef[:columns.size, start:end]
            g = image.shape[0]
            coef[:g] = image[:, idx]
            coef[g] = -1.0
            coef[g + 1:] = np.vstack([-points[idx].T, points[idx].T, -gap.T])

    def deficits(self, x):
        """A x - b on every point row, in block order."""
        terms = np.repeat(x[self._cols].T, self._sizes, axis=1)
        terms *= self._coef
        out = terms[0].copy()
        for term in terms[1:]:
            out += term
        return out

    def rows(self, selected):
        """The CSR arrays (data, indices, indptr) of the point rows at the
        ascending indices selected into b, with sorted indices and no
        stored zeros."""
        values = self._coef[:, selected].T
        keep = values != 0
        indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
        return (values[keep], self._cols[self._block[selected]][keep],
                indptr)


def _fill_rows(cols, rows, regions, landmarks, bounds, points, maps):
    """Inequality rows of the vertex-form LP, per row k: the bound row at
    each vertex v of its region and per landmark the dual-feasibility row
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
    geometry.deviation_candidates, found once per region (row.region
    indexes regions). An empty region has neither, so its row constrains
    nothing. After the bound rows comes the tiebreak block, the floor
    -sum(delta) <= -z and +-theta - t <= +-target, at right-hand side 0,
    where it constrains nothing (delta >= 0, t is free above); _tiebreak_lp
    sets it.

    Returns the bound and tiebreak rows as one dense array, their
    right-hand sides, the tiebreak block's slice of them and the point rows
    (PointRows, one block per row k and landmark), which few of bind at the
    optimum, so that a solve writes only those it needs as matrix rows
    (lp_core.solve_lp)."""
    features = np.stack(maps)
    blocks = []
    # per region its vertices and, per landmark, its deviation candidates
    vertices = [geometry.region_points(region) for region in regions]
    candidates = [[geometry.deviation_candidates(region, V, landmark - points)
                   for landmark in landmarks]
                  for region, V in zip(regions, vertices)]
    G = cols.t.size
    n_bound = sum(vertices[row.region].shape[0] for row in rows)
    A_ub = np.zeros((n_bound + 1 + 2 * G, cols.n_vars))
    b_ub = np.zeros(A_ub.shape[0])
    kept = 0  # bound rows so far
    for k, row in enumerate(rows):
        V = vertices[row.region]
        at_v = slice(kept, kept + V.shape[0])
        A_v = A_ub[at_v]
        A_v[:, cols.bias] = row.w
        A_v[:, cols.delta[k]] = 1.0
        A_v[:, cols.lam_s[k]] = 1.0
        for l, landmark in enumerate(landmarks):
            A_v[:, cols.lam[k, l, 1:]] = bounds.rhs(landmark - V)
        b_ub[at_v] = -row.r - V @ row.c_x
        kept += V.shape[0]
        # image[(i n_u + m) d + s, j] = w[m] R_i[s, j]: the coefficient of
        # K_{l,i}[m, s] on P_l[j], laid out as cols.gain[l].ravel(); a gain
        # with coefficient 0 at every grid point is in no point row
        image = (row.w[None, :, None, None] * features[:, None]).reshape(
            -1, features.shape[2])
        live = image.any(axis=1)
        image = image[live]
        for l, (idx, gap) in enumerate(candidates[row.region]):
            blocks.append((np.r_[cols.gain[l].ravel()[live], cols.lam[k, l]],
                           image, idx, gap))
    tiebreak = slice(n_bound, n_bound + 1 + 2 * G)
    A_ub[n_bound, cols.delta] = -1.0
    at_t = n_bound + 1 + np.arange(2 * G)
    A_ub[at_t, np.tile(cols.theta, 2)] = np.repeat([1.0, -1.0], G)
    A_ub[at_t, np.tile(cols.t, 2)] = -1.0
    return A_ub, b_ub, tiebreak, PointRows(points, blocks)


class AssembledCellLp:
    """A cell problem's margin LP, whose matrix every solve of the cell
    shares, with its columns and tiebreak, the slice of its matrix rows
    (lp.b_kept) that holds the tiebreak block (see _fill_rows)."""

    def __init__(self, problem, lp, cols, tiebreak):
        self.problem = problem
        self.lp = lp
        self.cols = cols
        self.tiebreak = tiebreak


def _check_visibility(cell, landmarks, spec):
    for l in landmarks:
        try:
            for v in cell.vertices:
                spec.snap(l - v)
        except LandmarkOutOfView:
            raise LandmarkNotVisible(
                "landmark %s exceeds the grid half-width %s somewhere in cell %d"
                % (l.tolist(), [w / 2.0 for w in spec.width], cell.id)
            ) from None


def _fill_goal(cols, spec, maps, positions, goal):
    """Equilibrium equality u = 0 for the observation snapped at the goal,
    one dense row per input."""
    at_u = np.arange(cols.bias.size)
    A_eq = np.zeros((at_u.size, cols.n_vars))
    for l, pos in enumerate(positions):
        try:
            pmf = make_delta_pmf(spec, pos - goal)
        except LandmarkOutOfView as exc:
            raise GoalObservationOffGrid(
                "goal observation of landmark %d leaves the grid: %s" % (l, exc)
            ) from None
        for i, R in enumerate(maps):
            A_eq[at_u[:, None], cols.gain[l, i]] = R @ pmf.vector
    A_eq[at_u, cols.bias] = 1.0
    return A_eq


def assemble_robust_lp(problem):
    """Build the LP of a CellProblem: a CBF row per facet in
    entry.barriers and, for an entry without an exit facet, the equilibrium
    equality for the observation snapped at its goal entry.o. The
    problem's v_floor, when set, limits the stability row to the part of
    the cell where the progress function is at least that value."""
    p = problem
    _check_visibility(p.cell, p.landmarks, p.grid)
    p.bounds.warn_if_below_pitch(p.grid)
    maps = p.features()
    rows, regions = p.rows()

    cols = LpColumns(len(p.landmarks), p.basis.n_k, p.dynamics.n_u,
                     p.dynamics.d, len(rows))
    A_ub, b_ub, tiebreak, point_rows = _fill_rows(
        cols, rows, regions, p.landmarks, p.bounds, p.grid.points(), maps)
    A_eq = np.zeros((0, cols.n_vars))
    if p.entry.exit_face is None:
        A_eq = _fill_goal(cols, p.grid, maps, p.landmarks, p.entry.o)

    c = np.zeros(cols.n_vars)
    c[cols.delta] = 1.0
    lb = np.zeros(cols.n_vars)
    ub_bounds = np.full(cols.n_vars, np.inf)
    lb[cols.theta] = -np.inf
    ub_bounds[cols.delta] = [DELTA_CAP[r.kind] for r in rows]
    lb[cols.lam_s] = -np.inf
    lp = StandardLp("max", c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
                    b_eq=np.zeros(A_eq.shape[0]), lb=lb, ub=ub_bounds,
                    points=point_rows)
    return AssembledCellLp(p, lp, cols, tiebreak)


def _tiebreak_lp(assembled, z, target):
    """Among solutions whose margins sum to at least z (less a relative
    TIEBREAK_TOL), minimize the l1 distance sum(t) of theta to target. It is
    the margin LP with cost 1 on t and the right-hand sides in
    assembled.tiebreak set to the floor -(z - tol), then target and -target
    (see _fill_rows): no matrix is built, and the matrices, bounds and point
    rows are the margin LP's own."""
    lp, cols = assembled.lp, assembled.cols
    c = np.zeros(lp.n_vars)
    c[cols.t] = 1.0
    tol = TIEBREAK_TOL * max(1.0, abs(z))
    b_ub = lp.b_kept.copy()
    b_ub[assembled.tiebreak] = np.r_[-(z - tol), target, -target]
    return StandardLp("min", c, A_ub=lp.A_kept, b_ub=b_ub, A_eq=lp.A_eq,
                      b_eq=lp.b_eq, lb=lp.lb, ub=lp.ub, points=lp.points)


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
    cell. Each adds the point rows as its optimum violates them, and
    returns an optimum of its whole LP, checked against every row.
    Returns that solution and the LpSolution of each solve."""
    cell_id = assembled.problem.cell.id
    target = nominal_theta(assembled)
    cap_sum = float(np.sum(assembled.lp.ub[assembled.cols.delta]))
    solves = []

    def solve(lp):
        solves.append(solve_lp(lp))
        return solves[-1]

    sol = solve(_tiebreak_lp(assembled, cap_sum, target))
    if sol.status == "Optimal":
        return sol.x, solves
    sol = solve(assembled.lp)
    if sol.status == "Infeasible":
        raise SynthesisInfeasible(
            "no stabilizing safe gains for cell %d under these bounds" % cell_id
        )
    if sol.status == "Unbounded":
        raise SolverFailure(
            "margin program for cell %d is unbounded; margin caps missing" % cell_id
        )
    tiebreak = solve(_tiebreak_lp(assembled, sol.objective, target))
    if tiebreak.status == "Optimal":
        return tiebreak.x, solves
    warnings.warn(
        "tiebreak pass returned %s for cell %d; keeping the margin-pass gains"
        % (tiebreak.status, cell_id)
    )
    return sol.x, solves


def synthesize_cell_controller(assembled):
    """Solve the assembled LP (see _solve_cell) and wrap the result. Logs
    at INFO how many point rows the LP has, the most that one HiGHS call
    read, the HiGHS calls and their simplex iterations, and the solve_lp
    calls it took."""
    x, solves = _solve_cell(assembled)
    log.info("synth cell %d: %d point rows, at most %d in one HiGHS call, "
             "%d HiGHS calls, %d simplex iterations, %d solve_lp calls",
             assembled.problem.cell.id,
             assembled.lp.n_ub - assembled.lp.b_kept.size,
             max(sol.point_rows for sol in solves),
             sum(sol.highs_calls for sol in solves),
             sum(sol.iterations for sol in solves), len(solves))
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


def synthesize_environment(env, entries, dynamics, spec, bounds, basis,
                           alpha_v, alpha_h):
    """One controller per plan entry (a dict keyed by cell id, as in
    HighLevelPlan.entries), each certifying what its entry asks, keyed by
    cell id in id order; the goal cell, whose entry has no exit facet, also
    gets a floored stability region. A SolverError names its cell."""
    controllers = {}
    for cell_id in sorted(entries):
        entry = entries[cell_id]
        cell = env.cell_by_id(cell_id)
        problem = CellProblem(cell, entry, env.landmarks[cell.landmark_ids],
                              dynamics, alpha_v, alpha_h, bounds, spec, basis)
        try:
            controllers[cell_id] = synthesize_cell_controller(
                assemble_robust_lp(problem))
        except SolverError as exc:
            exc.args = ("cell %d: %s" % (cell_id, exc),)
            raise
    return controllers
