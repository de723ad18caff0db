import numpy as np
import pytest

from helpers import random_cell, small_setup, transit_entry_for
from safefield.clfcbf import LinearDynamics, build_cbf_rows, build_clf_row
from safefield.errors import DimensionMismatch
from safefield.measurement import PmfGrid, build_expectation_kernel


def make_row_setup(rng, n=(4, 4)):
    """A random cell and plan entry under random linear dynamics, with
    random gains and bias for one landmark; control[l] = sum_i K_li R_i."""
    spec, bounds, basis, _ = small_setup(n=n)
    dynamics = LinearDynamics(rng.standard_normal((2, 2)),
                              rng.standard_normal((2, 2)))
    cell, landmark = random_cell(rng)
    entry = transit_entry_for(cell, 0)
    maps = basis.matrices(build_expectation_kernel(spec), spec.width)
    gains = rng.standard_normal((1, basis.n_k, dynamics.n_u, dynamics.d))
    bias = rng.standard_normal(dynamics.n_u)
    return spec, maps, dynamics, cell, entry, gains, bias


def control_by_hand(gains, bias, maps, P_per_landmark):
    """u = K_b + sum_l sum_i K_li (R_i P_l), feature by feature."""
    u = bias.copy()
    for l, P in enumerate(P_per_landmark):
        for i, R in enumerate(maps):
            u = u + gains[l][i] @ (R @ P)
    return u


def random_pmf(rng, spec):
    mass = rng.uniform(0.0, 1.0, size=spec.n)
    return PmfGrid(spec, mass / mass.sum()).vector


def row_value(row, x, u):
    return float(row.c_x @ x + row.w @ u + row.r)


def pmf_form(row, x, gains, bias, maps, P):
    """The row at (x, P) as the verifier reads it: c_x.x + (w^T M).P +
    w.K_b + r, with M = sum_i K_i R_i."""
    M = sum(K @ R for K, R in zip(gains[0], maps))
    return float(row.c_x @ x + (row.w @ M) @ P + row.w @ bias + row.r)


def test_clf_row_direct_substitution():
    rng = np.random.default_rng(2)
    for _ in range(10):
        spec, maps, dynamics, cell, entry, gains, bias = make_row_setup(rng)
        row = build_clf_row(entry, dynamics, 1.7)
        x = rng.uniform(-2.0, 2.0, size=2)
        P = random_pmf(rng, spec)
        u = control_by_hand(gains, bias, maps, [P])
        xdot = dynamics.A @ x + dynamics.B @ u
        v, o = np.asarray(entry.v), np.asarray(entry.o)
        direct = v @ xdot + 1.7 * (v @ (x - o))
        assert abs(row_value(row, x, u) - direct) <= 1e-10
        assert abs(pmf_form(row, x, gains, bias, maps, P) - direct) <= 1e-10
        assert row.kind == "clf" and row.facet is None


def test_cbf_rows_direct_substitution():
    rng = np.random.default_rng(3)
    for _ in range(10):
        spec, maps, dynamics, cell, entry, gains, bias = make_row_setup(rng)
        obstacle = [j for j in range(cell.body.n_rows) if j != entry.exit_face]
        A_h = -cell.body.A[obstacle]
        b_h = -cell.body.b[obstacle]
        rows = build_cbf_rows(A_h, b_h, dynamics, 50.0)
        assert len(rows) == cell.body.n_rows - 1
        x = rng.uniform(-2.0, 2.0, size=2)
        P = random_pmf(rng, spec)
        u = control_by_hand(gains, bias, maps, [P])
        xdot = dynamics.A @ x + dynamics.B @ u
        for j, row in enumerate(rows):
            h = A_h[j] @ x + b_h[j]
            hdot = A_h[j] @ xdot
            assert abs(row_value(row, x, u) - (-(hdot + 50.0 * h))) <= 1e-10
            assert abs(pmf_form(row, x, gains, bias, maps, P)
                       - (-(hdot + 50.0 * h))) <= 1e-10
            assert row.kind == "cbf" and row.facet == j


def test_zero_gain_rows_reduce_to_bias():
    # with every gain zero the PMF drops out: the row is c_x.x + w.K_b + r
    rng = np.random.default_rng(4)
    spec, maps, _, cell, entry, gains, bias = make_row_setup(rng)
    dynamics = LinearDynamics.single_integrator(2)
    row = build_clf_row(entry, dynamics, 1.0)
    gains = np.zeros_like(gains)
    x = np.zeros(2)
    P = np.full(spec.n_points, 1.0 / spec.n_points)
    u = control_by_hand(gains, bias, maps, [P])
    assert np.array_equal(u, bias)
    v, o = np.asarray(entry.v), np.asarray(entry.o)
    expect = v @ bias - 1.0 * (v @ o)
    assert abs(row_value(row, x, u) - expect) <= 1e-12
    assert abs(pmf_form(row, x, gains, bias, maps, random_pmf(rng, spec))
               - expect) <= 1e-12


def test_positive_rate_required():
    rng = np.random.default_rng(5)
    _, _, dynamics, _, entry, _, _ = make_row_setup(rng)
    with pytest.raises(DimensionMismatch):
        build_clf_row(entry, dynamics, 0.0)
    with pytest.raises(DimensionMismatch):
        build_cbf_rows(np.eye(2), np.zeros(2), dynamics, -1.0)


def test_dynamics_validation():
    with pytest.raises(DimensionMismatch):
        LinearDynamics(np.zeros((2, 3)), np.eye(2))
    with pytest.raises(DimensionMismatch):
        LinearDynamics(np.zeros((2, 2)), np.eye(3))
    dyn = LinearDynamics.single_integrator(2)
    assert dyn.d == 2 and dyn.n_u == 2
    assert np.array_equal(dyn.A, np.zeros((2, 2)))
    assert np.array_equal(dyn.B, np.eye(2))
