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

adversarial_pmf solves one inner maximization as a full LP. The verifier
solves all of a controller's instances at once with a batched revised
simplex in NumPy (inner_maxima), which prices every grid column before it
accepts a value, and keeps adversarial_pmf as its fallback and test oracle.
"""

import itertools
import logging

import numpy as np

from . import geometry
from .errors import (
    DegenerateInput,
    InfeasibleMeasurementSet,
    NumericalFailure,
    VerificationFailed,
)
from .lp_core import StandardLp, solve_lp
from .measurement import PmfGrid

SLACK_TOL = 1e-6
# inner_maxima's simplex: price (and feasibility) tolerance relative to
# 1 + |c|_inf (1 + |b|_inf), least pivot element, pivots per instance, and
# degenerate pivots in a row before Dantzig's rule gives way to Bland's.
PRICE_TOL = 1e-9
PIVOT_TOL = 1e-9
MAX_PIVOTS = 100
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
    absolute deviation (computed against the true offset) within sigma_m."""
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


def _stencil(spec, Y):
    """Bilinear stencil of each offset Y[i]: the 2^d grid centers around the
    point of the centers' hull nearest to Y[i], and the non-negative weights
    whose mean is that point. Flat indices and weights are (m, 2^d)."""
    m, d = Y.shape
    lower, frac = [], []
    for q in range(d):
        s = (Y[:, q] - spec.centers(q)[0]) / spec.pitch[q]
        j = np.clip(np.floor(s), 0, spec.n[q] - 2).astype(int)
        lower.append(j)
        frac.append(np.clip(s - j, 0.0, 1.0))
    idx = np.empty((m, 2 ** d), dtype=int)
    w = np.ones((m, 2 ** d))
    for c, corner in enumerate(itertools.product((0, 1), repeat=d)):
        idx[:, c] = np.ravel_multi_index(
            [lower[q] + corner[q] for q in range(d)], spec.n)
        for q in range(d):
            w[:, c] *= frac[q] if corner[q] else 1.0 - frac[q]
    return idx, w


def inner_maxima(C, which, X, landmarks, spec, bounds):
    """Batched adversarial_pmf values: entry i is the maximum of c_i @ P,
    c_i = C[which[i]], over the PMFs consistent with observing landmarks[i]
    from X[i], or NaN when no PMF is. Instances share the rows of C.

    A revised simplex on every instance's 3d + 1 rows in lockstep, started
    from the 3d slacks and the bilinear stencil PMF around the true offset,
    a convex combination of grid columns that is checked here against the
    bounds. Each round inverts every open basis afresh and prices all grid
    and slack columns at its duals pi. A value counts when no reduced cost
    exceeds PRICE_TOL * (1 + |c_i|_inf), the basis is feasible and the
    objective is within SLACK_TOL of the dual bound b.pi + max(0, max
    reduced cost). Else the largest reduced cost enters, or after
    STALL_PIVOTS degenerate pivots in a row the first improving column
    (Bland 1977). Instances without an in-bound stencil, with no column to
    enter, an unbounded ratio or MAX_PIVOTS pivots go to the full LP
    (adversarial_pmf). Returns (values, stats)."""
    C = np.asarray(C, dtype=float)
    X = np.asarray(X, dtype=float)
    LM = np.asarray(landmarks, dtype=float)
    Y = LM - X
    m, n_p = X.shape[0], C.shape[1]
    points = spec.points()
    d = spec.dim
    n_r = 3 * d + 1
    values = np.full(m, np.nan)

    idx, w = _stencil(spec, Y)
    A_s = np.sum(bounds.rows(points[idx], Y[:, None]) * w[:, :, None], axis=1)
    rhs = np.hstack([bounds.rhs(Y), np.ones((m, 1))])
    seeded = np.all(A_s <= rhs[:, :-1], axis=1)
    # one m x n_p buffer holds each round's grid reduced costs: a fresh
    # array of that size each round can be mapped, and page-faulted in, anew
    buf = np.empty((m, n_p))
    price_tol = PRICE_TOL * (1.0 + np.abs(C).max(axis=1))[which]
    feas_tol = PRICE_TOL * (1.0 + np.abs(rhs).max(axis=1))

    B = np.tile(np.eye(n_r), (m, 1, 1))
    B[:, :-1, -1] = A_s
    basis = np.tile(np.arange(n_p, n_p + n_r), (m, 1))
    c_B = np.zeros((m, n_r))
    c_B[:, -1] = np.sum(C[which[:, None], idx] * w, axis=1)
    pivots, stall = np.zeros((2, m), dtype=int)
    open_ = np.flatnonzero(seeded)
    full_lp = list(np.flatnonzero(~seeded))
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
        go = improving & (pivots[open_] < MAX_PIVOTS)
        full_lp.extend(open_[~done & ~go])
        live = np.flatnonzero(go)
        ids = open_[live]
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
        tied = np.where(ratio == theta[:, None], basis[ids], n_p + n_r)
        leave = np.where(bland, tied.argmin(axis=1), ratio.argmin(axis=1))
        B[ids, :, leave] = col
        basis[ids, leave] = enter
        c_B[ids, leave] = np.where(
            grid, C[which[ids], np.minimum(enter, n_p - 1)], 0)
        stall[ids] = np.where(theta <= feas_tol[ids], stall[ids] + 1, 0)
        pivots[ids] += 1
        # no row bounds an unbounded ratio test: the full LP takes over
        ok = np.isfinite(theta)
        full_lp.extend(ids[~ok])
        open_ = ids[ok]
        n_pivots += open_.size

    for i in full_lp:
        try:
            values[i] = adversarial_pmf(C[which[i]], X[i], spec, bounds,
                                        LM[i]).inner_value
        except InfeasibleMeasurementSet:
            pass
    stats = {"instances": m, "pivots": n_pivots, "rounds": rounds,
             "fallbacks": len(full_lp)}
    return values, stats


def worst_case_row_values(rows, control, bias, pairs, spec, bounds, landmarks):
    """For each (k, x) in pairs, rows[k] under the worst consistent
    measurements at x for the control law u = bias + sum_l control[l] P_l:
    c_x.x + w.bias + r plus, over landmarks l, the inner maximum of
    (w^T control[l]).P; NaN where some landmark admits no consistent PMF at
    x. Every inner maximum is solved in one inner_maxima batch. Returns
    (values, stats)."""
    n_p = spec.n_points
    n_l = len(landmarks)
    c_p = np.stack([[row.w @ M for M in control] for row in rows])
    r = [float(row.w @ bias) + row.r for row in rows]
    k = np.array([j for j, _ in pairs], dtype=int)
    X = np.array([x for _, x in pairs], dtype=float).reshape(len(pairs), spec.dim)
    # instance (pair j, landmark l) reads row k_j n_l + l of the flat c_p
    inner, stats = inner_maxima(
        c_p.reshape(-1, n_p), (k[:, None] * n_l + np.arange(n_l)).ravel(),
        np.repeat(X, n_l, axis=0),
        np.tile(np.asarray(landmarks, dtype=float), (len(pairs), 1)),
        spec, bounds,
    )
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
    points = [v for v in cell.vertices]
    for region in regions:
        if region is not cell.body:
            try:
                points.extend(geometry.cell_vertices(region))
            except DegenerateInput:
                pass  # empty restriction: the row holds vacuously there
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
    return points


def verify_controller(controller, count=200, seed=0, raise_on_fail=True):
    """Sample the controller's cell and check every row of its plan entry
    against the direct adversary."""
    problem = controller.problem
    cell = problem.cell
    rows, regions = problem.rows()
    points = _sample_states(cell, regions, count, seed)
    pairs = [(k, x) for k in range(len(rows)) for x in points
             if regions[k].contains(x)]
    values, stats = worst_case_row_values(
        rows, controller.control_matrices(), controller.bias, pairs,
        problem.grid, problem.bounds, problem.landmarks,
    )
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
        })
    log.info("verify cell %d: %d adversary instances, %d simplex pivots, "
             "%d pricing rounds, %d full-LP fallbacks, %d skipped",
             cell.id, stats["instances"], stats["pivots"], stats["rounds"],
             stats["fallbacks"], skipped)
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
