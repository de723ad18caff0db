import numpy as np
import pytest

from helpers import random_cell, small_setup, transit_entry_for
from safefield.clfcbf import (
    AffineInGains,
    GainLayout,
    LinearDynamics,
    build_cbf_rows,
    build_clf_row,
    evaluate_row,
)
from safefield.errors import DimensionMismatch
from safefield.measurement import PmfGrid, build_expectation_kernel


def make_row_setup(rng, n=(4, 4)):
    spec, bounds, basis, dynamics = small_setup(n=n)
    cell, landmark = random_cell(rng)
    entry = transit_entry_for(cell, 0)
    maps = [basis.matrices(build_expectation_kernel(spec), spec.width)]
    layout = GainLayout(1, basis.n_k, dynamics.n_u, dynamics.d)
    return spec, basis, dynamics, cell, landmark, entry, maps, layout


def control_by_hand(theta, layout, maps, P_per_landmark, basis):
    gains, bias = layout.unpack(theta)
    u = bias.copy()
    for l, maps_l in enumerate(maps):
        for i, R in enumerate(maps_l):
            u = u + gains[l][i] @ (R @ P_per_landmark[l])
    return u


def test_layout_counts_and_roundtrip():
    layout = GainLayout(2, 3, 2, 2)
    assert layout.n_gains == 2 * 3 * 2 * 2 + 2
    rng = np.random.default_rng(0)
    theta = rng.standard_normal(layout.n_gains)
    gains, bias = layout.unpack(theta)
    assert np.array_equal(layout.pack(gains, bias), theta)
    assert layout.bias_start() == 24
    # flat index walks (landmark, map, row, col) in row-major order
    assert layout.gain_index(0, 0, 0, 0) == 0
    assert layout.gain_index(0, 0, 0, 1) == 1
    assert layout.gain_index(0, 0, 1, 0) == 2
    assert layout.gain_index(0, 1, 0, 0) == 4
    assert layout.gain_index(1, 0, 0, 0) == 12


def test_affine_in_gains_is_affine():
    rng = np.random.default_rng(1)
    term = AffineInGains(rng.standard_normal(3), rng.standard_normal((3, 5)))
    t1 = rng.standard_normal(5)
    t2 = rng.standard_normal(5)
    # second difference of an affine map vanishes
    lhs = term.evaluate(t1 + t2) + term.evaluate(np.zeros(5))
    rhs = term.evaluate(t1) + term.evaluate(t2)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_clf_row_direct_substitution():
    rng = np.random.default_rng(2)
    for _ in range(10):
        spec, basis, dynamics, cell, landmark, entry, maps, layout = make_row_setup(rng)
        row = build_clf_row(entry, dynamics, 1.7, maps, layout)
        theta = rng.standard_normal(layout.n_gains)
        x = rng.uniform(-2.0, 2.0, size=2)
        mass = rng.uniform(0.0, 1.0, size=spec.n)
        P = PmfGrid(spec, mass / mass.sum()).vector
        u = control_by_hand(theta, layout, maps, [P], basis)
        xdot = dynamics.A @ x + dynamics.B @ u
        v, o = np.asarray(entry.v), np.asarray(entry.o)
        direct = v @ xdot + 1.7 * (v @ (x - o))
        assert abs(evaluate_row(row, theta, x, P) - direct) <= 1e-10


def test_cbf_rows_direct_substitution():
    rng = np.random.default_rng(3)
    for _ in range(10):
        spec, basis, dynamics, cell, landmark, entry, maps, layout = make_row_setup(rng)
        obstacle = [j for j in range(cell.body.n_rows) if j != entry.exit_face]
        A_h = -cell.body.A[obstacle]
        b_h = -cell.body.b[obstacle]
        rows = build_cbf_rows(A_h, b_h, dynamics, 50.0, maps, layout)
        assert len(rows) == cell.body.n_rows - 1
        theta = rng.standard_normal(layout.n_gains)
        x = rng.uniform(-2.0, 2.0, size=2)
        mass = rng.uniform(0.0, 1.0, size=spec.n)
        P = PmfGrid(spec, mass / mass.sum()).vector
        u = control_by_hand(theta, layout, maps, [P], basis)
        xdot = dynamics.A @ x + dynamics.B @ u
        for j, row in enumerate(rows):
            h = A_h[j] @ x + b_h[j]
            hdot = A_h[j] @ xdot
            assert abs(evaluate_row(row, theta, x, P) - (-(hdot + 50.0 * h))) <= 1e-10
            assert row.kind == "cbf" and row.facet == j


def test_zero_gain_rows_reduce_to_bias():
    rng = np.random.default_rng(4)
    spec, basis, dynamics, cell, landmark, entry, maps, layout = make_row_setup(rng)
    row = build_clf_row(entry, dynamics, 1.0, maps, layout)
    theta = np.zeros(layout.n_gains)
    bias = rng.standard_normal(2)
    theta[layout.bias_start():] = bias
    x = np.zeros(2)
    P = np.full(spec.n_points, 1.0 / spec.n_points)
    v, o = np.asarray(entry.v), np.asarray(entry.o)
    expect = v @ bias - 1.0 * (v @ o)
    assert abs(evaluate_row(row, theta, x, P) - expect) <= 1e-12


def test_positive_rate_required():
    rng = np.random.default_rng(5)
    spec, basis, dynamics, cell, landmark, entry, maps, layout = make_row_setup(rng)
    with pytest.raises(DimensionMismatch):
        build_clf_row(entry, dynamics, 0.0, maps, layout)
    with pytest.raises(DimensionMismatch):
        build_cbf_rows(np.eye(2), np.zeros(2), dynamics, -1.0, maps, layout)


def test_dynamics_validation():
    with pytest.raises(DimensionMismatch):
        LinearDynamics(np.zeros((2, 3)), np.eye(2))
    with pytest.raises(DimensionMismatch):
        LinearDynamics(np.zeros((2, 2)), np.eye(3))
    dyn = LinearDynamics.single_integrator(2)
    assert dyn.d == 2 and dyn.n_u == 2
    assert np.array_equal(dyn.A, np.zeros((2, 2)))
    assert np.array_equal(dyn.B, np.eye(2))
