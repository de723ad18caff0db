import numpy as np
import pytest

from safefield.errors import DimensionMismatch
from safefield.lp_core import StandardLp, dualize, solve_lp


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
    # at a lower bound the reduced cost for a min problem is c_j
    assert np.allclose(sol.duals_lb, [2.0, 3.0], atol=1e-9)


def test_infeasible_and_unbounded():
    bad = StandardLp("min", [1.0], A_ub=[[1.0], [-1.0]], b_ub=[-1.0, -1.0])
    assert solve_lp(bad).status == "Infeasible"
    free = StandardLp("max", [1.0])
    assert solve_lp(free).status == "Unbounded"


def test_strong_duality_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        lp = random_bounded_lp(rng)
        sol = solve_lp(lp)
        assert sol.status == "Optimal"
        dual = dualize(lp)
        dsol = solve_lp(dual)
        assert dsol.status == "Optimal"
        scale = 1.0 + abs(sol.objective)
        assert abs(sol.objective - dsol.objective) <= 1e-6 * scale


def test_dual_of_dual_objective():
    rng = np.random.default_rng(23)
    for _ in range(10):
        lp = random_bounded_lp(rng)
        sol = solve_lp(lp)
        ddsol = solve_lp(dualize(dualize(lp)))
        assert abs(sol.objective - ddsol.objective) <= 1e-6 * (1.0 + abs(sol.objective))


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


def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        StandardLp("min", [1.0, 2.0], A_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(DimensionMismatch):
        StandardLp("mid", [1.0])
