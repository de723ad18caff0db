"""Independent check of synthesized controllers.

The synthesis LP certifies each row through two dualizations. This module
attacks the original, un-dualized problem instead: at sampled states it
solves the inner maximization over consistent PMFs directly and checks that
every row still clears its synthesized margin. Agreement here validates the
whole dual construction end to end.
"""

import numpy as np

from . import geometry
from .clfcbf import build_cell_rows
from .errors import (
    DegenerateInput,
    InfeasibleMeasurementSet,
    NumericalFailure,
    VerificationFailed,
)
from .lp_core import StandardLp, solve_lp
from .measurement import PmfGrid, build_expectation_kernel
from .planning import PlanEntry

SLACK_TOL = 1e-6
REGION_TOL = 1e-9


class AdversaryResult:
    """Worst consistent PMF for one landmark at one state."""

    def __init__(self, worst_pmf, inner_value, kind, x, duality_gap):
        self.worst_pmf = worst_pmf
        self.inner_value = float(inner_value)
        self.kind = kind
        self.x = np.asarray(x, dtype=float)
        self.duality_gap = float(duality_gap)


def adversarial_pmf(c_p, x, spec, bounds, landmark, kind=None):
    """Maximize c_p over the PMFs consistent with observing the landmark
    from x: unit mass, mean within epsilon of the true offset, and mean
    absolute deviation (computed against the true offset) within sigma_m."""
    c_p = np.asarray(c_p, dtype=float)
    x = np.asarray(x, dtype=float)
    U = build_expectation_kernel(spec)
    y = np.asarray(landmark, dtype=float) - x
    d, n_p = U.shape
    dev = np.abs(U - y[:, None])
    A_ub = np.vstack([U, -U, dev])
    b_ub = np.concatenate([
        y + bounds.epsilon,
        -y + bounds.epsilon,
        np.full(d, bounds.sigma_m),
    ])
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
    return AdversaryResult(pmf, sol.objective, kind, x, gap)


def worst_case_row_value(row, theta, x, spec, bounds, landmarks):
    """c_x.x + sum of per-landmark inner maxima + r, i.e. the row's value
    under the worst consistent measurements at x."""
    c_p = row.c_p.evaluate(theta)
    value = float(row.c_x @ np.asarray(x, dtype=float) + row.r.evaluate(theta)[0])
    results = []
    off = 0
    for lm in landmarks:
        n_p = spec.n_points
        res = adversarial_pmf(c_p[off:off + n_p], x, spec, bounds, lm, kind=row.kind)
        results.append(res)
        value += res.inner_value
        off += n_p
    return value, results


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


def _controller_rows(controller, cell):
    maps = controller.feature_matrices(controller.grid)
    entry = PlanEntry(controller.cell_id, controller.exit_face,
                      controller.v, controller.o)
    return build_cell_rows(
        cell.body, entry, controller.dynamics, controller.alpha_v,
        controller.alpha_h, [maps] * len(controller.landmarks),
        controller.layout, [f for f in controller.facets if f is not None],
        controller.v_floor,
    )


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


def verify_controller(controller, cell, count=200, seed=0, tol=SLACK_TOL,
                      raise_on_fail=True):
    """Sample the cell and check every row against the direct adversary."""
    rows, regions = _controller_rows(controller, cell)
    theta = controller.theta()
    points = _sample_states(cell, regions, count, seed)
    skipped = 0
    summaries = []
    for k, row in enumerate(rows):
        worst_slack = -np.inf
        worst_x = None
        evaluated = 0
        delta = float(controller.margins[k])
        for x in points:
            if not regions[k].contains(x, tol=REGION_TOL):
                continue
            try:
                value, _ = worst_case_row_value(
                    row, theta, x, controller.grid, controller.bounds,
                    controller.landmarks,
                )
            except InfeasibleMeasurementSet:
                skipped += 1
                continue
            evaluated += 1
            slack = value + delta
            if slack > worst_slack:
                worst_slack = slack
                worst_x = np.asarray(x, dtype=float)
        summaries.append({
            "kind": row.kind,
            "facet": row.facet,
            "delta": delta,
            "worst_slack": None if evaluated == 0 else float(worst_slack),
            "worst_x": None if worst_x is None else worst_x.tolist(),
            "evaluated": evaluated,
        })
    report = VerificationReport(cell.id, seed, len(points), tol, summaries, skipped)
    if raise_on_fail and not report.passed:
        bad = report.worst()
        raise VerificationFailed(
            "cell %d row (%s, facet %s) violated by slack %.3g at x=%s"
            % (cell.id, bad["kind"], bad["facet"], bad["worst_slack"], bad["worst_x"]),
            cell_id=cell.id, x=bad["worst_x"], row=bad["kind"],
            slack=bad["worst_slack"],
        )
    return report


def verify_environment(controllers, env, count=200, seed=0, tol=SLACK_TOL,
                       raise_on_fail=True):
    """Verify every controller against its own cell; one report each."""
    reports = []
    for ctrl in controllers:
        cell = env.cell_by_id(ctrl.cell_id)
        reports.append(
            verify_controller(ctrl, cell, count=count, seed=seed, tol=tol,
                              raise_on_fail=raise_on_fail)
        )
    return reports
