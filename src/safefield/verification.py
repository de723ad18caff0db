"""Independent check of synthesized controllers.

The synthesis LP certifies each row through a dualization over the PMF and
closed-form minima over the state. This module attacks the original,
un-dualized problem instead: at sampled states it solves the inner
maximization over consistent PMFs directly and checks that every row still
clears its synthesized margin. A row c_x.x + w.u + r meets the PMF only
through the controller's law u = K_b + sum_l M_l P_l, so its coefficient on
landmark l is w^T M_l and its constant w.K_b + r, both read from the
matrices the simulator applies; the flat gain vector of the synthesis LP
is never rebuilt here. Agreement validates the whole dual construction end
to end.

The verifier solves all of a controller's instances at once with a batched
revised simplex in NumPy (inner_maxima). It starts each instance from a
consistent PMF found in closed form, or marks it inconsistent, and prices
every grid column before it accepts a value; it calls no LP solver.
adversarial_pmf solves one inner maximization as a full HiGHS LP and serves
only as the test oracle.
"""

import itertools
import logging

import numpy as np

from . import geometry
from .errors import (
    InfeasibleMeasurementSet,
    NumericalFailure,
    VerificationFailed,
)
from .lp_core import StandardLp, solve_lp
from .measurement import PmfGrid

SLACK_TOL = 1e-6
# inner_maxima's simplex: price (and feasibility) tolerance relative to
# 1 + |c|_inf (1 + |b|_inf), least pivot element, pivots per instance in
# units of its columns (n_p grid points, 3d slacks and the start), and
# degenerate pivots in a row before Dantzig's rule gives way to Bland's.
PRICE_TOL = 1e-9
PIVOT_TOL = 1e-9
PIVOTS_PER_COLUMN = 1
STALL_PIVOTS = 10

log = logging.getLogger("safefield")


class AdversaryResult:
    """Worst consistent PMF for one landmark at one state."""

    def __init__(self, worst_pmf, inner_value, x, duality_gap):
        self.worst_pmf = worst_pmf
        self.inner_value = float(inner_value)
        self.x = np.asarray(x, dtype=float)
        self.duality_gap = float(duality_gap)


def adversarial_pmf(c_p, x, spec, bounds, landmark):
    """Maximize c_p over the PMFs consistent with observing the landmark
    from x: unit mass, mean within epsilon of the true offset, and mean
    absolute deviation (computed against the true offset) within sigma_m.
    One full HiGHS LP: the test oracle of inner_maxima, which verify uses."""
    c_p = np.asarray(c_p, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(landmark, dtype=float) - x
    n_p = spec.n_points
    A_ub = bounds.rows(spec.points(), y).T
    b_ub = bounds.rhs(y)
    lp = StandardLp(
        "max", c_p,
        A_ub=A_ub, b_ub=b_ub,
        A_eq=np.ones((1, n_p)), b_eq=np.ones(1),
        lb=np.zeros(n_p),
    )
    sol = solve_lp(lp)
    if sol.status == "Infeasible":
        raise InfeasibleMeasurementSet(
            "no PMF on this grid matches the bounds at x=%s" % x.tolist()
        )
    if sol.status != "Optimal":
        raise NumericalFailure("adversary LP returned %s" % sol.status)
    dual_obj = float(b_ub @ sol.duals_ub + sol.duals_eq[0])
    gap = abs(sol.objective - dual_obj)
    scale = max(1.0, abs(sol.objective))
    if gap > SLACK_TOL * scale:
        raise NumericalFailure("adversary LP duality gap %.3g" % gap)
    mass = np.clip(sol.x, 0.0, None)
    pmf = PmfGrid(spec, (mass / mass.sum()).reshape(spec.n))
    return AdversaryResult(pmf, sol.objective, x, gap)


def _weight_interval(a, b, a_s, b_s, eps, sigma):
    """The interval (lo, hi) of t in [0, 1] with |a + b t| <= eps and
    a_s + b_s t <= sigma, for b > 0; lo > hi where it is empty."""
    lo = np.maximum(0.0, (-eps - a) / b)
    hi = np.minimum(1.0, (eps - a) / b)
    r = sigma - a_s
    # b_s = 0 leaves t free, or empties the interval when r < 0
    t = np.divide(r, b_s, where=b_s != 0, out=np.where(r >= 0, np.inf, -np.inf))
    return (np.where(b_s < 0, np.maximum(lo, t), lo),
            np.where(b_s < 0, hi, np.minimum(hi, t)))


def _stencil(spec, Y, bounds, tol):
    """Consistent start of each offset Y[i]: the flat indices (m, 2^d) of
    the grid centers around the point of the centers' hull nearest to Y[i],
    their weights, a product of two-center marginals, and a mask of the
    instances that have a consistent PMF at all.

    The rows of axis q read only the q-marginal, so P is consistent iff
    each marginal is. The points (c_j - y, |c_j - y|) lie on a convex
    graph, so a mix of the two centers around y (past the hull, the edge
    center) matches any marginal's mean error and MAD or beats both. Both
    are affine in the weight t on the upper center, and the rows, with tol
    (m,) added to epsilon and sigma_m, cut t to an interval; one empty on
    any axis leaves no consistent PMF. t is the bilinear weight where that
    is in the interval, so an in-bound stencil stays bit for bit; else that
    weight clamped into the exact interval, or the middle of the tolerant
    one where only that is non-empty."""
    m, d = Y.shape
    n, width = np.array(spec.n), np.array(spec.width)
    axes = [spec.centers(q) for q in range(d)]

    def center(j):  # the grid centers at the indices j, axis by axis
        return np.column_stack([axis[j[:, q]] for q, axis in enumerate(axes)])

    s = (Y - [axis[0] for axis in axes]) / (width / n)
    j = np.clip(np.floor(s), 0, n - 2).astype(int)
    f = np.clip(s - j, 0.0, 1.0)
    # on each axis, mean error a + b t and MAD a_s + b_s t; the intervals
    # with no tolerance and with tol stack on a leading axis
    below, above = center(j), center(j + 1)
    a = below - Y
    a_s = np.abs(a)
    tau = np.stack([np.zeros(m), tol])[:, :, None]
    (lo, lo_t), (hi, hi_t) = _weight_interval(
        a, above - below, a_s, np.abs(above - Y) - a_s,
        bounds.epsilon + tau, bounds.sigma_m + tau)
    lo, hi = np.where(lo <= hi, (lo, hi), 0.5 * (lo_t + hi_t))
    keep = (lo_t <= f) & (f <= hi_t) | (lo_t > hi_t)
    t = np.where(keep, f, np.clip(f, lo, hi))
    idx = np.empty((m, 2 ** d), dtype=int)
    w = np.ones((m, 2 ** d))
    for c, corner in enumerate(itertools.product((0, 1), repeat=d)):
        idx[:, c] = np.ravel_multi_index((j + corner).T, spec.n)
        for q in range(d):
            w[:, c] *= t[:, q] if corner[q] else 1.0 - t[:, q]
    return idx, w, np.all(lo_t <= hi_t, axis=1)


def inner_maxima(C, which, X, landmarks, spec, bounds):
    """Batched adversarial_pmf values: entry i is the maximum of c_i @ P,
    c_i = C[which[i]], over the PMFs consistent with observing landmarks[i]
    from X[i], or NaN when no PMF is. Instances share the rows of C.

    A revised simplex on every instance's 3d + 1 rows in lockstep, started
    from the 3d slacks and the consistent stencil PMF around the true
    offset (_stencil), a convex combination of grid columns; an instance
    without one is NaN and solves nothing. Each round inverts every open
    basis afresh and prices all grid and slack columns at its duals pi. A
    value counts when no reduced cost exceeds PRICE_TOL * (1 + |c_i|_inf),
    the basis is feasible and the objective is within SLACK_TOL of the dual
    bound b.pi + max(0, max reduced cost). Else the largest reduced cost
    enters, or after STALL_PIVOTS degenerate pivots in a row the first
    improving column (Bland 1977, which terminates). An instance with no
    column to enter but no certificate, an unbounded ratio, or
    PIVOTS_PER_COLUMN pivots per column raises NumericalFailure naming its
    state, with the instance as its index. Returns (values, stats)."""
    C = np.asarray(C, dtype=float)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(landmarks, dtype=float) - X
    m, n_p = X.shape[0], C.shape[1]
    points = spec.points()
    d = spec.dim
    n_r = 3 * d + 1
    cap = PIVOTS_PER_COLUMN * (n_p + n_r)
    values = np.full(m, np.nan)

    rhs = np.hstack([bounds.rhs(Y), np.ones((m, 1))])
    feas_tol = PRICE_TOL * (1.0 + np.abs(rhs).max(axis=1))
    idx, w, consistent = _stencil(spec, Y, bounds, feas_tol)
    A_s = np.sum(bounds.rows(points[idx], Y[:, None]) * w[:, :, None], axis=1)
    # one m x n_p buffer holds each round's grid reduced costs: a fresh
    # array of that size each round can be mapped, and page-faulted in, anew
    buf = np.empty((m, n_p))
    price_tol = PRICE_TOL * (1.0 + np.abs(C).max(axis=1))[which]

    def failure(i, what):
        return NumericalFailure("adversary simplex %s at x=%s"
                                % (what, X[i].tolist()), index=int(i))

    B = np.tile(np.eye(n_r), (m, 1, 1))
    B[:, :-1, -1] = A_s
    basis = np.tile(np.arange(n_p, n_p + n_r), (m, 1))
    c_B = np.zeros((m, n_r))
    c_B[:, -1] = np.sum(C[which[:, None], idx] * w, axis=1)
    pivots, stall = np.zeros((2, m), dtype=int)
    open_ = np.flatnonzero(consistent)
    rounds = n_pivots = 0
    while open_.size:
        rounds += 1
        Yo, b, tol = Y[open_], rhs[open_], price_tol[open_]
        B_inv = np.linalg.inv(B[open_])
        x_B = np.einsum("kij,kj->ki", B_inv, b)
        pi = np.einsum("kj,kji->ki", c_B[open_], B_inv)
        obj = np.einsum("ki,ki->k", c_B[open_], x_B)
        # grid reduced costs: pi.a_j sums one term per axis, in j's center
        # on that axis, so bounds.rows is priced one axis at a time and no
        # m x n_p x 3d product is formed; the slacks' are S = -pi
        # mode "clip" writes into buf directly; "raise" buffers the output
        R = np.take(C, which[open_], axis=0, out=buf[:open_.size],
                    mode="clip")
        R = R.reshape((-1,) + spec.n)
        R -= pi[:, -1].reshape((-1,) + (1,) * d)
        for q in range(d):
            c_q = spec.centers(q)
            g = ((pi[:, q, None] - pi[:, d + q, None]) * c_q
                 + pi[:, 2 * d + q, None] * np.abs(c_q - Yo[:, q, None]))
            R -= g.reshape((-1,) + (1,) * q + (spec.n[q],) + (1,) * (d - 1 - q))
        R, S = R.reshape(-1, n_p), -pi[:, :-1]
        enter = R.argmax(axis=1)
        r_max = np.take_along_axis(R, enter[:, None], axis=1)[:, 0]
        enter = np.where(S.max(axis=1) > r_max, n_p + S.argmax(axis=1), enter)
        improving = np.maximum(r_max, S.max(axis=1)) > tol
        gap = np.abs(obj - np.einsum("ki,ki->k", b, pi) - np.maximum(r_max, 0))
        done = (~improving & (gap <= SLACK_TOL * np.maximum(1.0, np.abs(obj)))
                & (x_B.min(axis=1) >= -feas_tol[open_]))
        values[open_[done]] = obj[done]
        stuck = open_[~done & ~improving]
        if stuck.size:
            raise failure(stuck[0], "found no entering column but no certificate")
        live = np.flatnonzero(improving)
        ids = open_[live]
        capped = ids[pivots[ids] >= cap]
        if capped.size:
            raise failure(capped[0], "reached its cap of %g pivots" % cap)
        bland = stall[ids] >= STALL_PIVOTS
        lb, enter = live[bland], enter[live]
        enter[bland] = np.argmax(np.hstack([R[lb], S[lb]]) > tol[lb, None], 1)
        col = np.eye(n_r)[np.clip(enter - n_p, 0, n_r - 1)]
        grid = enter < n_p
        rows = bounds.rows(points[enter[grid]], Yo[live[grid]])
        col[grid] = np.hstack([rows, np.ones((rows.shape[0], 1))])
        step = np.einsum("kij,kj->ki", B_inv[live], col)
        ratio = np.divide(np.maximum(x_B[live], 0.0), step, where=step > PIVOT_TOL,
                          out=np.full(step.shape, np.inf))
        theta = ratio.min(axis=1)
        unbounded = ids[~np.isfinite(theta)]
        if unbounded.size:
            raise failure(unbounded[0], "found an unbounded ratio")
        tied = np.where(ratio == theta[:, None], basis[ids], n_p + n_r)
        leave = np.where(bland, tied.argmin(axis=1), ratio.argmin(axis=1))
        B[ids, :, leave] = col
        basis[ids, leave] = enter
        c_B[ids, leave] = np.where(
            grid, C[which[ids], np.minimum(enter, n_p - 1)], 0)
        stall[ids] = np.where(theta <= feas_tol[ids], stall[ids] + 1, 0)
        pivots[ids] += 1
        open_ = ids
        n_pivots += open_.size

    stats = {"instances": m, "pivots": n_pivots, "rounds": rounds}
    return values, stats


def worst_case_row_values(rows, control, bias, pairs, spec, bounds, landmarks):
    """For each (k, x) in pairs, rows[k] under the worst consistent
    measurements at x for the control law u = bias + sum_l control[l] P_l:
    c_x.x + w.bias + r plus, over landmarks l, the inner maximum of
    (w^T control[l]).P; NaN where some landmark admits no consistent PMF at
    x. Every inner maximum is solved in one inner_maxima batch; its
    NumericalFailure is raised again with the index of the pair. Returns
    (values, stats)."""
    n_p = spec.n_points
    n_l = len(landmarks)
    c_p = np.stack([[row.w @ M for M in control] for row in rows])
    r = [float(row.w @ bias) + row.r for row in rows]
    k = np.array([j for j, _ in pairs], dtype=int)
    X = np.array([x for _, x in pairs], dtype=float).reshape(len(pairs), spec.dim)
    # instance (pair j, landmark l) is j n_l + l and reads row k_j n_l + l
    # of the flat c_p
    try:
        inner, stats = inner_maxima(
            c_p.reshape(-1, n_p), (k[:, None] * n_l + np.arange(n_l)).ravel(),
            np.repeat(X, n_l, axis=0),
            np.tile(np.asarray(landmarks, dtype=float), (len(pairs), 1)),
            spec, bounds,
        )
    except NumericalFailure as exc:
        raise NumericalFailure(str(exc), index=exc.index // n_l) from None
    values = np.array([float(rows[j].c_x @ x + r[j]) for j, x in zip(k, X)])
    for l in range(n_l):
        values += inner[l::n_l]
    return values, stats


class VerificationReport:
    """Per-row worst slacks over the sampled states; pass iff every slack
    is below the tolerance."""

    def __init__(self, cell_id, seed, count, tol, rows, skipped):
        self.cell_id = cell_id
        self.seed = seed
        self.count = count
        self.tol = tol
        self.rows = rows
        self.skipped = skipped

    @property
    def passed(self):
        return all(
            r["worst_slack"] is None or r["worst_slack"] <= self.tol
            for r in self.rows
        )

    def worst(self):
        scored = [r for r in self.rows if r["worst_slack"] is not None]
        if not scored:
            return None
        return max(scored, key=lambda r: r["worst_slack"])

    def to_dict(self):
        return {
            "cell": self.cell_id,
            "pass": bool(self.passed),
            "seed": self.seed,
            "samples": self.count,
            "skipped": self.skipped,
            "tolerance": self.tol,
            "rows": self.rows,
        }


def _sample_states(cell, regions, count, seed):
    """The states verify_controller checks: the cell's vertices, the
    vertices of every other region with an interior, then count uniform
    states that cell.contains accepts. Returns them, how many of them are
    vertices, and per region whether geometry.region_points finds no point
    in it: the rows on such a region hold vacuously."""
    points = [v for v in cell.vertices]
    vacuous = [False]  # regions[0] is the cell body
    for region in regions[1:]:
        V = geometry.region_points(region)
        vacuous.append(V.shape[0] == 0)
        if V.shape[0] >= 3:  # a point or a segment adds none
            points.extend(geometry.counterclockwise(V))
    n_vertices = len(points)
    rng = np.random.default_rng(seed)
    verts = cell.vertices
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    tries = 0
    found = 0
    while found < count:
        x = rng.uniform(lo, hi)
        tries += 1
        if tries > 10000 * max(count, 1):
            raise NumericalFailure("interior sampling failed to hit the cell")
        if cell.contains(x):
            points.append(x)
            found += 1
    return points, n_vertices, vacuous


def verify_controller(controller, count=200, seed=0, raise_on_fail=True):
    """Sample the controller's cell and check every row of its plan entry
    against the direct adversary. A simplex failure raises NumericalFailure
    naming the cell, the row and the state. A row whose region holds no
    point is reported vacuous; it passes, since it evaluates no state."""
    problem = controller.problem
    cell = problem.cell
    rows, regions = problem.rows()
    points, n_vertices, vacuous = _sample_states(cell, regions, count, seed)
    # the cell body is regions[0], and the states after the vertices passed
    # its own test in cell.contains; a vertex of another region may lie up
    # to ABS_TOL (1 + |x|) outside it
    inside = [[regions[0].contains(x) for x in points[:n_vertices]]
              + [True] * count]
    inside += [[region.contains(x) for x in points] for region in regions[1:]]
    pairs = [(k, x) for k, row in enumerate(rows)
             for x, ok in zip(points, inside[row.region]) if ok]
    try:
        values, stats = worst_case_row_values(
            rows, controller.control_matrices(), controller.bias, pairs,
            problem.grid, problem.bounds, problem.landmarks,
        )
    except NumericalFailure as exc:
        row = rows[pairs[exc.index][0]]
        raise NumericalFailure("cell %d row (%s, facet %s): %s"
                               % (cell.id, row.kind, row.facet, exc)) from None
    row_of = np.array([k for k, _ in pairs], dtype=int)
    skipped = int(np.isnan(values).sum())
    summaries = []
    for k, row in enumerate(rows):
        delta = float(controller.margins[k])
        mine = np.flatnonzero(row_of == k)
        scored = mine[~np.isnan(values[mine])]
        slack = values[scored] + delta
        worst = int(np.argmax(slack)) if scored.size else None
        summaries.append({
            "kind": row.kind,
            "facet": row.facet,
            "delta": delta,
            "worst_slack": None if worst is None else float(slack[worst]),
            "worst_x": None if worst is None
            else np.asarray(pairs[scored[worst]][1], dtype=float).tolist(),
            "evaluated": int(scored.size),
            "vacuous": vacuous[row.region],
        })
    log.info("verify cell %d: %d adversary instances, %d simplex pivots, "
             "%d pricing rounds, %d skipped",
             cell.id, stats["instances"], stats["pivots"], stats["rounds"],
             skipped)
    report = VerificationReport(cell.id, seed, len(points), SLACK_TOL,
                                summaries, skipped)
    if raise_on_fail and not report.passed:
        bad = report.worst()
        raise VerificationFailed(
            "cell %d row (%s, facet %s) violated by slack %.3g at x=%s"
            % (cell.id, bad["kind"], bad["facet"], bad["worst_slack"], bad["worst_x"]),
            cell_id=cell.id, x=bad["worst_x"], row=bad["kind"],
            slack=bad["worst_slack"],
        )
    return report


def verify_environment(controllers, count=200, seed=0, raise_on_fail=True):
    """Verify every controller of a dict keyed by cell id on its own cell;
    one report each, in the dict's order."""
    return [verify_controller(ctrl, count=count, seed=seed,
                              raise_on_fail=raise_on_fail)
            for ctrl in controllers.values()]
