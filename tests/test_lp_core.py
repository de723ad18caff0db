import numpy as np
import pytest
import scipy.sparse as sp

from helpers import assert_highs_matches_linprog
from materialized import lp_with_rows
from safefield import lp_core
from safefield.errors import DimensionMismatch, NumericalFailure
from safefield.lp_core import FEAS_TOL, HighsResult, StandardLp, solve_lp


def random_bounded_lp(rng):
    """Feasible bounded LP: box-bounded max with random inequality rows
    through an interior point."""
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 5))
    A = rng.standard_normal((m, n))
    x0 = rng.uniform(1.0, 3.0, size=n)
    b = A @ x0 + rng.uniform(0.5, 2.0, size=m)
    c = rng.standard_normal(n)
    return StandardLp("max", c, A_ub=A, b_ub=b, lb=np.zeros(n), ub=np.full(n, 10.0))


def test_known_optimum():
    # max x1 + x2 with x1 + 2 x2 <= 4, 3 x1 + x2 <= 6, x >= 0
    lp = StandardLp("max", [1.0, 1.0], A_ub=[[1.0, 2.0], [3.0, 1.0]],
                    b_ub=[4.0, 6.0], lb=[0.0, 0.0])
    sol = solve_lp(lp)
    assert sol.status == "Optimal"
    assert np.allclose(sol.x, [1.6, 1.2], atol=1e-9)
    assert abs(sol.objective - 2.8) <= 1e-9
    # both rows active: duals solve A^T mu = c -> mu = (2/5, 1/5)
    assert np.allclose(sol.duals_ub, [0.4, 0.2], atol=1e-9)
    # max-sense dual identity: objective = b . duals_ub at zero lower bounds
    assert abs(lp.b_ub @ sol.duals_ub - sol.objective) <= 1e-9


def test_min_sense_and_bound_duals():
    lp = StandardLp("min", [2.0, 3.0], lb=[1.0, -1.0], ub=[5.0, 5.0])
    sol = solve_lp(lp)
    assert np.allclose(sol.x, [1.0, -1.0])
    assert abs(sol.objective - (-1.0)) <= 1e-12


def test_infeasible_and_unbounded():
    bad = StandardLp("min", [1.0], A_ub=[[1.0], [-1.0]], b_ub=[-1.0, -1.0])
    assert solve_lp(bad).status == "Infeasible"
    free = StandardLp("max", [1.0])
    assert solve_lp(free).status == "Unbounded"


def test_complementary_slackness_random():
    rng = np.random.default_rng(29)
    for _ in range(50):
        lp = random_bounded_lp(rng)
        sol = solve_lp(lp)
        slack = lp.b_ub - lp.A_ub @ sol.x
        assert float(np.max(np.abs(sol.duals_ub * slack))) <= 1e-6 * (
            1.0 + float(np.max(np.abs(lp.b_ub))))


def test_determinism():
    rng = np.random.default_rng(31)
    lp = random_bounded_lp(rng)
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective
    assert np.array_equal(a.duals_ub, b.duals_ub)


def tall_lp(rng, m=2000, n=6):
    """Box-bounded max over m random rows through an interior point; every
    row past the first n is a point row."""
    A = rng.standard_normal((m, n))
    x0 = rng.uniform(1.0, 3.0, size=n)
    b = A @ x0 + rng.uniform(0.5, 2.0, size=m)
    return lp_with_rows("max", rng.standard_normal(n), sp.csr_matrix(A), b,
                        np.arange(m) >= n, lb=np.zeros(n), ub=np.full(n, 10.0))


def without_mask(lp):
    return StandardLp(lp.sense, lp.c, A_ub=lp.A_ub, b_ub=lp.b_ub,
                      A_eq=lp.A_eq, b_eq=lp.b_eq, lb=lp.lb, ub=lp.ub)


def recorded_rows(monkeypatch):
    """The inequality rows that solve_lp hands HiGHS, call by call, as a
    mask over every row (the matrix rows and the point rows chosen), each
    with the status HiGHS returned. Each call must get exactly the rows of
    A_ub and b_ub in that mask, in their order."""
    calls, given = [], []
    highs, linprog = lp_core._highs, lp_core.linprog

    def record(lp, chosen):
        res = highs(lp, chosen)
        seen = np.concatenate([np.ones(lp.b_kept.size, dtype=bool), chosen])
        A, b, n_ub = given.pop()
        assert np.array_equal(A[:n_ub].toarray(), lp.A_ub[seen].toarray())
        assert np.array_equal(b[:n_ub], lp.b_ub[seen])
        calls.append((seen, res.status))
        return res

    def linprog_recorded(c, A, b, n_ub, lb, ub):
        given.append((A, b, n_ub))
        return linprog(c, A, b, n_ub, lb, ub)

    monkeypatch.setattr(lp_core, "_highs", record)
    monkeypatch.setattr(lp_core, "linprog", linprog_recorded)
    return calls


def test_lazy_rows_reach_the_full_optimum(monkeypatch):
    rng = np.random.default_rng(37)
    for _ in range(5):
        lp = tall_lp(rng)
        full = solve_lp(without_mask(lp))
        calls = recorded_rows(monkeypatch)
        sol = solve_lp(lp)
        monkeypatch.undo()
        assert sol.status == "Optimal"
        assert abs(sol.objective - full.objective) <= 1e-9 * (
            1.0 + abs(full.objective))
        scale = 1.0 + max(np.max(np.abs(lp.b_ub)), np.max(np.abs(sol.x)))
        assert np.max(lp.A_ub @ sol.x - lp.b_ub) <= FEAS_TOL * scale
        seen = calls[-1][0]
        # HiGHS saw the matrix rows and a small share of the point rows
        assert seen.sum() < lp.b_ub.size // 4
        assert np.all(sol.duals_ub[~seen] == 0.0)
        assert sol.duals_ub.shape == lp.b_ub.shape


def test_matrix_rows_come_first_then_point_rows(monkeypatch):
    # the box rows sit among the point rows of the matrix given; the LP
    # lists them first, then the point rows, each in the order given
    rng = np.random.default_rng(53)
    n, m = 4, 600
    box = np.vstack([np.eye(n), -np.eye(n)])
    A = rng.standard_normal((m, n))
    b = A @ rng.uniform(1.0, 3.0, size=n) + rng.uniform(0.5, 2.0, size=m)
    lazy = np.ones(m + 2 * n, dtype=bool)
    lazy[rng.choice(m + 2 * n, size=2 * n, replace=False)] = False
    A_given, b_given = np.empty((m + 2 * n, n)), np.empty(m + 2 * n)
    A_given[~lazy], b_given[~lazy] = box, 10.0
    A_given[lazy], b_given[lazy] = A, b
    lp = lp_with_rows("max", rng.standard_normal(n), sp.csr_matrix(A_given),
                      b_given, lazy)
    assert lp.n_ub == m + 2 * n
    assert np.array_equal(lp.A_ub.toarray(), np.vstack([box, A]))
    assert np.array_equal(lp.b_ub, np.r_[np.full(2 * n, 10.0), b])
    calls = recorded_rows(monkeypatch)
    sol = solve_lp(lp)
    seen = calls[-1][0]
    assert sol.status == "Optimal" and not seen.all()
    assert sol.duals_ub.shape == (m + 2 * n,)
    assert np.all(sol.duals_ub[~seen] == 0.0)
    # x is free, so the duals in this order price out the cost exactly:
    # A_ub^T duals_ub = c
    assert np.allclose(lp.A_ub.T @ sol.duals_ub, lp.c, atol=1e-9)


def test_infeasible_through_a_lazy_row():
    # x0 >= 11 against the box x0 <= 10: only the last point row says so
    lp = tall_lp(np.random.default_rng(41))
    A = sp.vstack([lp.A_ub, -np.eye(lp.n_vars)[:1]])
    b = np.concatenate([lp.b_ub, [-11.0]])
    lazy = np.ones(lp.n_ub + 1, dtype=bool)
    lazy[:lp.b_kept.size] = False
    bad = lp_with_rows("max", lp.c, A, b, lazy, lb=lp.lb, ub=lp.ub)
    assert solve_lp(lp).status == "Optimal"
    assert solve_lp(bad).status == "Infeasible"


def test_unbounded_seed_rows_fall_back_to_every_row(monkeypatch):
    # max x0 over free x: every row but the point row 1 (x0 <= 5) lets x0
    # grow, and no seed holds row 1, so the first subset is unbounded
    rng = np.random.default_rng(43)
    A = np.column_stack([-np.ones(500), rng.standard_normal(500)])
    A[1] = [1.0, 0.0]
    b = rng.uniform(0.5, 2.0, size=500)
    b[1] = 5.0
    lp = lp_with_rows("max", [1.0, 0.0], sp.csr_matrix(A), b,
                      np.ones(500, dtype=bool))
    calls = recorded_rows(monkeypatch)
    sol = solve_lp(lp)
    assert [status for _, status in calls] == [3, 0]
    assert calls[-1][0].all()
    assert sol.status == "Optimal"
    assert abs(sol.objective - solve_lp(without_mask(lp)).objective) <= 1e-9


def test_lazy_solves_are_deterministic():
    lp = tall_lp(np.random.default_rng(47))
    a, b = solve_lp(lp), solve_lp(lp)
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective
    assert np.array_equal(a.duals_ub, b.duals_ub)


def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        StandardLp("min", [1.0, 2.0], A_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(DimensionMismatch):
        StandardLp("mid", [1.0])
    for kwargs, message in ((dict(A_eq=[[1.0, 0.0]], b_eq=[1.0, 2.0]),
                             "equality block"),
                            (dict(A_eq=[[1.0]], b_eq=[1.0]), "equality block"),
                            (dict(lb=[0.0]), "bound length"),
                            (dict(ub=[1.0, 1.0, 1.0]), "bound length")):
        with pytest.raises(DimensionMismatch, match=message):
            StandardLp("min", [1.0, 2.0], **kwargs)


def test_an_lp_given_no_point_rows_holds_none():
    # its inequality rows are the rows given, and the point-row interface
    # solve_lp reads (right-hand sides, deficits, CSR arrays) is empty
    lp = StandardLp("max", [1.0, 1.0], A_ub=[[1.0, 2.0], [3.0, 1.0]],
                    b_ub=[4.0, 6.0], lb=[0.0, 0.0])
    assert lp.n_ub == 2 and lp.points.b.size == 0
    assert np.array_equal(lp.A_ub.toarray(), [[1.0, 2.0], [3.0, 1.0]])
    assert np.array_equal(lp.b_ub, [4.0, 6.0])
    assert lp.points.deficits(np.ones(2)).size == 0
    rows = sp.csr_matrix(lp.points.rows(np.zeros(0, dtype=int)),
                         shape=(0, lp.n_vars))
    assert rows.nnz == 0


INF = np.inf


@pytest.mark.parametrize("c, rows, b, n_ub, lb, ub, status", [
    # max x1 + x2 under two rows, as in test_known_optimum
    ([-1.0, -1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0], 2, [0.0, 0.0],
     [INF, INF], 0),
    # inequality and equality rows with free columns
    ([1.0, -2.0, 0.5], [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [0.0, 1.0, 2.0]],
     [3.0, 1.0, 2.0], 2, [0.0, -INF, -1.0], [INF, 5.0, INF], 0),
    # equalities only
    ([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], [2.0, 0.0], 0, [-INF, -INF],
     [INF, INF], 0),
    # no rows at all: bounds alone
    ([2.0, -3.0], np.zeros((0, 2)), [], 0, [1.0, -1.0], [5.0, 5.0], 0),
    # infeasible rows
    ([1.0], [[1.0], [-1.0]], [-1.0, -1.0], 2, [-INF], [INF], 2),
    # infeasible and unbounded in both directions: HiGHS proves infeasible
    ([-1.0, -1.0], [[1.0, -1.0], [-1.0, 1.0]], [-1.0, -1.0], 2, [0.0, 0.0],
     [INF, INF], 2),
    # unbounded with a row, and with none
    ([1.0], [[1.0]], [1.0], 1, [-INF], [INF], 3),
    ([-1.0, 2.0], np.zeros((0, 2)), [], 0, [0.0, -1.0], [INF, 1.0], 3),
], ids=["inequalities", "mixed", "equalities-only", "no-rows", "infeasible",
        "primal-and-dual-infeasible", "unbounded", "unbounded-no-rows"])
def test_highs_call_matches_scipy_linprog(c, rows, b, n_ub, lb, ub, status):
    # linprog hands HiGHS CSR rows; a CSC is converted, not read as rows
    c, b, lb, ub = (np.asarray(v, dtype=float) for v in (c, b, lb, ub))
    for fmt in (sp.csr_matrix, sp.csc_matrix):
        A = fmt(np.asarray(rows, dtype=float))
        assert assert_highs_matches_linprog(c, A, b, n_ub, lb, ub) == status


def test_highs_calls_of_random_lps_match_scipy_linprog(monkeypatch):
    # every HiGHS call of row generation on tall LPs, and of plain ones;
    # each solution counts its calls and their simplex iterations
    given = []
    linprog = lp_core.linprog

    def recorded(*args):
        given.append((args, linprog(*args)))
        return given[-1][1]

    monkeypatch.setattr(lp_core, "linprog", recorded)
    rng = np.random.default_rng(59)
    for _ in range(3):
        for lp in (tall_lp(rng, m=500), random_bounded_lp(rng)):
            first = len(given)
            sol = solve_lp(lp)
            assert sol.highs_calls == len(given) - first
            assert sol.iterations == sum(res.nit for _, res in given[first:])
    monkeypatch.undo()
    assert len(given) > 6
    for args, _ in given:
        assert assert_highs_matches_linprog(*args) == 0


@pytest.mark.parametrize("part", ["x", "objective", "duals_ub", "duals_eq"])
def test_a_non_finite_solution_is_refused(part):
    # the box and rows of test_known_optimum, with one equality row, at
    # its optimum: valid until one number is not finite
    lp = StandardLp("max", [1.0, 1.0], A_ub=[[1.0, 2.0], [3.0, 1.0]],
                    b_ub=[4.0, 6.0], A_eq=[[1.0, -1.0]], b_eq=[0.4],
                    lb=[0.0, 0.0])
    sol = dict(x=np.array([1.6, 1.2]), objective=2.8,
               duals_ub=np.array([0.4, 0.2]), duals_eq=np.array([0.0]))
    lp_core._validate(lp, **sol)
    sol[part] = sol[part] * np.nan
    with pytest.raises(NumericalFailure, match="non-finite"):
        lp_core._validate(lp, **sol)


def test_a_nan_point_row_is_refused():
    # point row 140 is not in the seed, and a NaN row is never violated,
    # so HiGHS never reads it; only the check against every row sees it
    rng = np.random.default_rng(67)
    A = rng.standard_normal((200, 3))
    b = A @ np.ones(3) + 1.0
    b[150] = np.nan
    lp = lp_with_rows("max", rng.standard_normal(3), sp.csr_matrix(A), b,
                      np.arange(200) >= 10, lb=np.zeros(3), ub=np.full(3, 10.0))
    with pytest.raises(NumericalFailure, match="primal feasibility residual nan"):
        solve_lp(lp)


def test_a_status_highs_cannot_settle_is_a_numerical_failure(monkeypatch):
    # what linprog returns for kUnboundedOrInfeasible, which SciPy also
    # numbers 4
    def undecided(*args):
        return HighsResult(4, "Primal infeasible or unbounded", None, None,
                           None, 3)

    monkeypatch.setattr(lp_core, "linprog", undecided)
    with pytest.raises(NumericalFailure,
                       match="status 4: Primal infeasible or unbounded"):
        solve_lp(StandardLp("max", [1.0], lb=[0.0], ub=[1.0]))


@pytest.mark.parametrize("where", ["cost", "matrix", "rhs", "bound"])
def test_a_non_finite_model_is_a_numerical_failure(where):
    # HiGHS itself refuses only the NaN bound and right-hand side
    c, A, b, lb = [1.0, 1.0], np.array([[1.0, 2.0]]), [4.0], [0.0, 0.0]
    if where == "cost":
        c = [np.nan, 1.0]
    elif where == "matrix":
        A = np.array([[np.nan, 2.0]])
    elif where == "rhs":
        b = [np.nan]
    else:
        lb = [np.nan, 0.0]
    with pytest.raises(NumericalFailure, match="status 4"):
        solve_lp(StandardLp("max", c, A_ub=A, b_ub=b, lb=lb))
