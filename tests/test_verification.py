import re

import numpy as np
import pytest

from dual_form import bias_image, gain_image
from helpers import transit_entry_for
from safefield import lp_core, verification
from safefield.clfcbf import LinearDynamics, build_clf_row
from safefield.errors import (
    InfeasibleMeasurementSet,
    NumericalFailure,
    VerificationFailed,
)
from safefield.geometry import ConvexCell
from safefield.measurement import (
    GridSpec,
    UncertaintyBounds,
    build_expectation_kernel,
)
from safefield.planning import PlanEntry
from safefield.controller import CellController, CellProblem, GainBasis
from safefield.synthesis import (
    LpColumns,
    assemble_robust_lp,
    synthesize_cell_controller,
)
from safefield.verification import (
    VerificationReport,
    adversarial_pmf,
    inner_maxima,
    verify_controller,
    worst_case_row_values,
)

pytestmark = pytest.mark.filterwarnings("ignore:bounds")

SPEC = GridSpec((10, 10), (10.0, 10.0))
BOUNDS = UncertaintyBounds(0.125, 0.5)


def square_controller():
    verts = np.array([[-2.0, -2.0], [2.0, -2.0], [2.0, 2.0], [-2.0, 2.0]])
    cell = ConvexCell(0, verts, [0])
    entry = transit_entry_for(cell, 0)
    dyn = LinearDynamics.single_integrator(2)
    asm = assemble_robust_lp(CellProblem(
        cell, entry, [np.zeros(2)], dyn, 1.0, 100.0, BOUNDS, SPEC,
        GainBasis()))
    return synthesize_cell_controller(asm)


def test_vacuous_bounds_reduce_to_simplex_max():
    rng = np.random.default_rng(3)
    loose = UncertaintyBounds(100.0, 1000.0)
    for _ in range(10):
        c_p = rng.standard_normal(SPEC.n_points)
        res = adversarial_pmf(c_p, rng.uniform(-3, 3, 2), SPEC, loose,
                              np.zeros(2))
        assert abs(res.inner_value - c_p.max()) <= 1e-8
        assert res.duality_gap <= 1e-6


def test_pinned_bounds_reduce_to_snapped_delta():
    # offset exactly on a grid center with near-zero bounds: the only
    # consistent PMF is the delta there
    tight = UncertaintyBounds(1e-9, 1e-9)
    rng = np.random.default_rng(5)
    centers = SPEC.points()
    for _ in range(10):
        j = int(rng.integers(SPEC.n_points))
        x = rng.uniform(-2, 2, 2)
        landmark = x + centers[j]
        c_p = rng.standard_normal(SPEC.n_points)
        res = adversarial_pmf(c_p, x, SPEC, tight, landmark)
        assert abs(res.inner_value - c_p[j]) <= 1e-6
        assert res.worst_pmf.mass.reshape(-1)[j] >= 1.0 - 1e-6


def test_worst_pmf_is_consistent():
    rng = np.random.default_rng(7)
    U = build_expectation_kernel(SPEC)
    for _ in range(20):
        x = rng.uniform(-3, 3, 2)
        lm = rng.uniform(-1, 1, 2)
        c_p = rng.standard_normal(SPEC.n_points)
        res = adversarial_pmf(c_p, x, SPEC, BOUNDS, lm)
        P = res.worst_pmf.vector
        y = lm - x
        assert abs(P.sum() - 1.0) <= 1e-7
        assert np.all(P >= -1e-9)
        assert np.all(np.abs(U @ P - y) <= BOUNDS.epsilon + 1e-7)
        assert np.all(BOUNDS.rows(U.T, y)[:, 4:].T @ P
                      <= BOUNDS.sigma_m + 1e-7)
        # a larger consistent set can only raise the maximum
        wide = UncertaintyBounds(2 * BOUNDS.epsilon, 2 * BOUNDS.sigma_m)
        res2 = adversarial_pmf(c_p, x, SPEC, wide, lm)
        assert res2.inner_value >= res.inner_value - 1e-9


def two_landmark_law(spec, rng):
    """The CLF row of a cell that sees two landmarks, under random gains
    and bias. Returns the row, the control matrices M_l and bias the
    verifier reads, and the row's PMF coefficients and constant from the
    oracle's dense image of the flat gains, a route that shares nothing
    with the verifier's w^T M_l."""
    dyn = LinearDynamics.single_integrator(2)
    cols = LpColumns(2, 3, 2, 2, 0)
    maps = GainBasis().matrices(build_expectation_kernel(spec), spec.width)
    entry = PlanEntry(0, 0, np.array([0.0, -1.0]), np.array([0.0, -2.0]))
    row = build_clf_row(entry, dyn, 1.0)
    theta = rng.standard_normal(cols.theta.size)
    gains, bias = theta[cols.gain], theta[cols.bias]
    control = [sum(K @ R for K, R in zip(per_l, maps)) for per_l in gains]
    c_p = gain_image(row.w, [maps, maps], cols) @ theta
    const = bias_image(row.w, cols) @ theta + row.r
    return row, control, bias, c_p, const


def test_row_value_decomposes_per_landmark():
    rng = np.random.default_rng(11)
    row, control, bias, c_p, const = two_landmark_law(SPEC, rng)
    x = rng.uniform(-1, 1, 2)
    landmarks = [np.array([0.5, 0.5]), np.array([-1.0, 0.25])]
    values, stats = worst_case_row_values([row], control, bias, [(0, x)], SPEC,
                                          BOUNDS, landmarks)
    manual = float(row.c_x @ x + const)
    n_p = SPEC.n_points
    for l, lm in enumerate(landmarks):
        res = adversarial_pmf(c_p[l * n_p:(l + 1) * n_p], x, SPEC, BOUNDS, lm)
        manual += res.inner_value
    assert abs(values[0] - manual) <= 1e-9
    assert stats["instances"] == 2


@pytest.mark.parametrize("spec, bounds", [
    # the case study's grid and bounds
    (GridSpec((30, 30), (40.0, 40.0)), UncertaintyBounds(4.0, 16.0)),
    # epsilon below half the pitch: no delta PMF is in bounds off the
    # centers, so the bilinear stencil seeds every master
    (SPEC, BOUNDS),
])
def test_batched_adversary_matches_full_lp(spec, bounds):
    rng = np.random.default_rng(13)
    m = 40
    reach = spec.centers(0)[-1] + 0.8 * bounds.epsilon
    C = rng.standard_normal((m, spec.n_points)) * rng.uniform(0.1, 100.0, (m, 1))
    X = rng.uniform(-3.0, 3.0, (m, 2))
    LM = X + rng.uniform(-reach, reach, (m, 2))
    values, stats = inner_maxima(C, np.arange(m), X, LM, spec, bounds)
    assert stats["rounds"] > 1
    for i in range(m):
        ref = adversarial_pmf(C[i], X[i], spec, bounds, LM[i]).inner_value
        assert abs(values[i] - ref) <= 1e-9 * max(1.0, abs(ref))

    row, control, bias, c_p, const = two_landmark_law(spec, rng)
    landmarks = [np.array([0.5, 0.5]), np.array([-1.0, 0.25])]
    n_p = spec.n_points
    pairs = [(0, x) for x in X[:8]]
    values, stats = worst_case_row_values([row], control, bias, pairs, spec,
                                          bounds, landmarks)
    assert stats["instances"] == 2 * len(pairs)
    for value, (_, x) in zip(values, pairs):
        ref = float(row.c_x @ x + const)
        for l, lm in enumerate(landmarks):
            ref += adversarial_pmf(c_p[l * n_p:(l + 1) * n_p], x, spec, bounds,
                                   lm).inner_value
        assert abs(value - ref) <= 1e-9 * max(1.0, abs(ref))


def test_batch_mixes_seeded_unseeded_and_infeasible_instances():
    # at a center fraction f the bilinear stencil's MAD is 2 f (1 - f)
    # pitch, which breaks sigma 0.35 at f = 0.3, while the nearest center's
    # delta PMF is in bounds: that instance starts from the clamped weight
    bounds = UncertaintyBounds(0.35, 0.35)
    LM = np.array([
        [8.0, 0.0],      # unreachable: no consistent PMF
        [0.8, 0.5],      # feasible, stencil out of bounds
        [0.5, 0.5],      # ordinary
        [-1.4, 2.55],
        [2.6, -4.4],
    ])
    X = np.zeros_like(LM)
    C = np.random.default_rng(17).standard_normal((len(LM), SPEC.n_points))
    values, stats = inner_maxima(C, np.arange(len(LM)), X, LM, SPEC, bounds)
    assert np.isnan(values[0])
    with pytest.raises(InfeasibleMeasurementSet):
        adversarial_pmf(C[0], X[0], SPEC, bounds, LM[0])
    for i in range(1, len(LM)):
        ref = adversarial_pmf(C[i], X[i], SPEC, bounds, LM[i]).inner_value
        assert abs(values[i] - ref) <= 1e-9 * max(1.0, abs(ref))
    alone, stats = inner_maxima(C[2:], np.arange(len(LM) - 2), X[2:], LM[2:],
                                SPEC, bounds)
    assert np.allclose(alone, values[2:], rtol=1e-9, atol=1e-9)


def reachable_instances(spec, bounds, m, rng):
    """m states with landmarks whose offsets lie within 0.8 epsilon of the
    grid's hull of centers, so that every instance has a consistent PMF."""
    reach = spec.centers(0)[-1] + 0.8 * bounds.epsilon
    X = rng.uniform(-3.0, 3.0, (m, 2))
    return X, X + rng.uniform(-reach, reach, (m, 2))


@pytest.mark.parametrize("stall", [verification.STALL_PIVOTS, 0],
                         ids=["dantzig-then-bland", "bland"])
@pytest.mark.parametrize("payoff", ["integer", "constant", "one-hot"])
@pytest.mark.parametrize("spec, bounds", [
    (GridSpec((30, 30), (40.0, 40.0)), UncertaintyBounds(4.0, 16.0)),
    (SPEC, BOUNDS),
])
def test_degenerate_payoffs_match_full_lp(spec, bounds, payoff, stall,
                                          monkeypatch):
    # ties everywhere: many optimal vertices and degenerate pivots; with
    # no stall allowed, every pivot follows Bland's rule, which takes the
    # most pivots but stays under the cap of one pivot per column
    monkeypatch.setattr(verification, "STALL_PIVOTS", stall)
    rng = np.random.default_rng(19)
    m = 30
    X, LM = reachable_instances(spec, bounds, m, rng)
    if payoff == "integer":
        C = rng.integers(-1, 2, (m, spec.n_points)).astype(float)
    elif payoff == "constant":
        C = np.repeat(rng.uniform(-5.0, 5.0, (m, 1)), spec.n_points, axis=1)
    else:
        C = np.zeros((m, spec.n_points))
        C[np.arange(m), rng.integers(spec.n_points, size=m)] = 1.0
    values, stats = inner_maxima(C, np.arange(m), X, LM, spec, bounds)
    assert stats["instances"] == m
    for i in range(m):
        ref = adversarial_pmf(C[i], X[i], spec, bounds, LM[i]).inner_value
        assert abs(values[i] - ref) <= 1e-9 * max(1.0, abs(ref))


def test_pivot_cap_and_unbounded_ratio_raise_naming_the_state(monkeypatch):
    spec = GridSpec((30, 30), (40.0, 40.0))
    bounds = UncertaintyBounds(4.0, 16.0)
    rng = np.random.default_rng(29)
    m = 24
    X, LM = reachable_instances(spec, bounds, m, rng)
    C = rng.standard_normal((m, spec.n_points))
    C[:4] = 1.0  # optimal at the start: no pivot
    needed = np.array([
        inner_maxima(C[i:i + 1], np.arange(1), X[i:i + 1], LM[i:i + 1], spec,
                     bounds)[1]
        ["pivots"] for i in range(m)])
    assert 0 < np.sum(needed > 1) < m
    first = int(np.argmax(needed > 1))
    # a cap of one pivot: the first instance that needs a second one raises
    n_cols = spec.n_points + 3 * spec.dim + 1
    monkeypatch.setattr(verification, "PIVOTS_PER_COLUMN", 0.5 / n_cols)
    with pytest.raises(NumericalFailure, match="cap") as exc:
        inner_maxima(C, np.arange(m), X, LM, spec, bounds)
    assert exc.value.index == first
    assert "x=%s" % X[first].tolist() in str(exc.value)
    # the instances that need no second pivot still solve under that cap
    easy = np.flatnonzero(needed <= 1)
    values, _ = inner_maxima(C[easy], np.arange(easy.size), X[easy], LM[easy],
                             spec, bounds)
    for value, i in zip(values, easy):
        ref = adversarial_pmf(C[i], X[i], spec, bounds, LM[i]).inner_value
        assert abs(value - ref) <= 1e-9 * max(1.0, abs(ref))
    monkeypatch.undo()
    # no admissible pivot element: every ratio test is unbounded
    monkeypatch.setattr(verification, "PIVOT_TOL", np.inf)
    first = int(np.argmax(needed > 0))
    with pytest.raises(NumericalFailure, match="unbounded") as exc:
        inner_maxima(C, np.arange(m), X, LM, spec, bounds)
    assert exc.value.index == first
    assert "x=%s" % X[first].tolist() in str(exc.value)


def test_verify_names_the_cell_row_and_state_of_a_simplex_failure(
        monkeypatch):
    ctrl = square_controller()
    monkeypatch.setattr(verification, "PIVOTS_PER_COLUMN", 0)
    with pytest.raises(NumericalFailure,
                       match=r"^cell 0 row \((clf|cbf), facet \w+\): "
                             r"adversary simplex reached its cap of 0 pivots "
                             r"at x=\[\S+, \S+\]$"):
        verify_controller(ctrl, count=12, seed=2)


def linprog_refused(*args, **kwargs):
    raise AssertionError("the batched adversary called HiGHS")


@pytest.mark.parametrize("bounds, offsets", [
    # bounds below the pitch of 1 (centers at -4.5, ..., 4.5): at a center
    # fraction f the bilinear stencil's MAD is 2 f (1 - f), above sigma_m at
    # f = 0.3 and 0.7, where a PMF nearer one center is still in bounds
    (UncertaintyBounds(0.35, 0.35),
     [[0.8, 0.5], [0.6, 0.3], [0.0, 0.5], [-2.3, 1.7], [4.2, -0.1]]),
    # epsilon keeps the weight within 0.125 of f: at f = 0.2 the MAD cut
    # leaves [0.075, 1/6], a start on no center; at f = 0.3 nothing is left
    (UncertaintyBounds(0.125, 0.3),
     [[0.7, 0.5], [0.8, 0.5], [-2.3, 1.65], [3.15, 0.5], [0.35, 0.5]]),
    # past the edge centers at +-4.5 by less than epsilon, and by more
    (UncertaintyBounds(0.3, 2.0),
     [[4.7, 0.0], [-4.75, 1.5], [4.9, 4.6], [-4.5, -4.85], [5.0, 0.0]]),
    # past them by less than epsilon but more than sigma_m, and by less
    (UncertaintyBounds(0.6, 0.2),
     [[4.75, 0.5], [4.65, 0.5], [0.5, -4.95], [4.8, 4.6], [-4.6, 0.45]]),
    # epsilon = sigma_m = 0: only the delta on a center is consistent, up
    # to the rounding of landmark - x
    (UncertaintyBounds(0.0, 0.0),
     [[0.5, 0.5], [-4.5, 3.5], [4.5, -1.5], [0.5, 0.4], [1.0, 0.5]]),
], ids=["mad-below-pitch", "eps-below-pitch", "past-hull-by-less-than-eps",
        "past-hull-by-more-than-sigma", "pinned-to-centers"])
def test_consistent_start_matches_the_oracle_without_highs(monkeypatch,
                                                           bounds, offsets):
    rng = np.random.default_rng(37)
    Y = np.array(offsets)
    X = rng.uniform(-3.0, 3.0, Y.shape)
    LM = X + Y
    C = rng.standard_normal((len(Y), SPEC.n_points))
    monkeypatch.setattr(lp_core, "linprog", linprog_refused)
    values, stats = inner_maxima(C, np.arange(len(Y)), X, LM, SPEC, bounds)
    monkeypatch.undo()
    assert stats["instances"] == len(Y)
    for i in range(len(Y)):
        try:
            ref = adversarial_pmf(C[i], X[i], SPEC, bounds, LM[i]).inner_value
        except InfeasibleMeasurementSet:
            assert np.isnan(values[i]), i
            continue
        assert abs(values[i] - ref) <= 1e-9 * max(1.0, abs(ref)), i
    # every case mixes consistent and inconsistent instances
    assert 0 < np.isnan(values).sum() < len(Y)
    # a constant payoff is optimal at every consistent PMF, so each start
    # must be accepted as it is: an out-of-bound one would have no
    # certificate and raise
    monkeypatch.setattr(lp_core, "linprog", linprog_refused)
    flat, stats = inner_maxima(np.full((1, SPEC.n_points), 2.5),
                               np.zeros(len(Y), dtype=int), X, LM, SPEC, bounds)
    assert stats["pivots"] == 0
    assert np.array_equal(np.isnan(flat), np.isnan(values))
    assert np.allclose(flat[~np.isnan(flat)], 2.5, rtol=1e-12, atol=0)


def test_verify_makes_no_lp_call(monkeypatch):
    ctrl = square_controller()
    expected = verify_controller(ctrl, count=20, seed=4).to_dict()
    monkeypatch.setattr(lp_core, "linprog", linprog_refused)
    assert verify_controller(ctrl, count=20, seed=4).to_dict() == expected


def test_verify_logs_the_simplex_counts(caplog):
    ctrl = square_controller()
    with caplog.at_level("INFO", logger="safefield"):
        report = verify_controller(ctrl, count=12, seed=2)
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("verify cell 0:")]
    assert len(lines) == 1
    match = re.fullmatch(
        r"verify cell 0: (\d+) adversary instances, (\d+) simplex pivots, "
        r"(\d+) pricing rounds, (\d+) skipped", lines[0])
    assert match, lines[0]
    instances, pivots, rounds, skipped = map(int, match.groups())
    evaluated = sum(r["evaluated"] for r in report.rows)
    assert instances == evaluated + report.skipped
    assert skipped == report.skipped
    assert pivots > 0 and rounds > 1


def test_each_row_is_evaluated_at_every_sampled_state_of_its_region(
        case_setup):
    # the body test runs on the vertices only: every other sampled state
    # passed cell.contains, the body's own test, so no state is lost
    for ctrl in case_setup["controllers"].values():
        report = verify_controller(ctrl, count=50, seed=0)
        rows, regions = ctrl.problem.rows()
        points, n_vertices, _ = verification._sample_states(
            ctrl.problem.cell, regions, 50, 0)
        assert len(points) == n_vertices + 50
        inside = sum(regions[row.region].contains(x)
                     for row in rows for x in points)
        assert sum(r["evaluated"] for r in report.rows) + report.skipped == inside


def test_synthesized_controller_verifies():
    ctrl = square_controller()
    report = verify_controller(ctrl, count=30, seed=1)
    assert report.passed
    worst = report.worst()
    assert worst["worst_slack"] <= 1e-6
    d = report.to_dict()
    assert set(d) == {"cell", "pass", "seed", "samples", "skipped",
                      "tolerance", "rows"}
    assert d["pass"] is True
    # one summary per certified row
    assert len(d["rows"]) == len(ctrl.margins)


def test_tampered_controller_fails():
    # constant push out through a barrier facet, no measurement feedback
    # gains and bias are fixed at construction, so the tampered law is a
    # new controller built from the edited serialized form
    synthesized = square_controller()
    problem = synthesized.problem
    cell = problem.cell
    data = synthesized.to_dict()
    wall = problem.entry.barriers[0]
    data["K"] = [[np.zeros_like(Ki).tolist() for Ki in per_l]
                 for per_l in synthesized.gains]
    data["K_b"] = cell.body.A[wall].tolist()
    ctrl = CellController.from_dict(data, cell, problem.entry,
                                    problem.landmarks)
    with pytest.raises(VerificationFailed):
        verify_controller(ctrl, count=10, seed=1)
    report = verify_controller(ctrl, count=10, seed=1,
                               raise_on_fail=False)
    assert not report.passed
    assert report.worst()["worst_slack"] > 0


def test_unreachable_observation_raises():
    # required mean sits outside the support hull
    with pytest.raises(InfeasibleMeasurementSet):
        adversarial_pmf(np.ones(SPEC.n_points), np.zeros(2), SPEC, BOUNDS,
                        np.array([8.0, 0.0]))


def test_report_with_no_scored_rows():
    rows = [{"kind": "clf", "facet": None, "delta": 0.1,
             "worst_slack": None, "worst_x": None, "evaluated": 0}]
    report = VerificationReport(0, 0, 4, 1e-6, rows, skipped=0)
    assert report.passed
    assert report.worst() is None
