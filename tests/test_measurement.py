import numpy as np
import pytest

from safefield.errors import DimensionMismatch, LandmarkOutOfView
from safefield.measurement import (
    GridSpec,
    PmfGrid,
    ProbabilityBlocks,
    UncertaintyBounds,
    blur_pmf,
    build_expectation_kernel,
    check_pmf_feasible,
    mad,
    make_delta_pmf,
)


def random_pmf(rng, spec):
    mass = rng.uniform(0.0, 1.0, size=spec.n)
    return PmfGrid(spec, mass / mass.sum())


def test_centers_oracle():
    spec = GridSpec((2, 2), (2.0, 2.0))
    assert np.allclose(spec.centers(0), [-0.5, 0.5])
    assert np.allclose(spec.centers(1), [-0.5, 0.5])
    assert spec.pitch == (1.0, 1.0)
    assert spec.n_points == 4
    pts = spec.points()
    assert np.allclose(pts, [[-0.5, -0.5], [-0.5, 0.5], [0.5, -0.5], [0.5, 0.5]])


def test_snap_ties_to_lower():
    spec = GridSpec((2, 2), (2.0, 2.0))
    # 0 is equidistant between centers -0.5 and 0.5
    assert spec.snap([0.0, 0.0]) == (0, 0)
    assert spec.snap([0.2, -0.2]) == (1, 0)


def test_snap_out_of_view():
    spec = GridSpec((4, 4), (2.0, 2.0))
    with pytest.raises(LandmarkOutOfView):
        spec.snap([1.5, 0.0])


def test_grid_validation():
    with pytest.raises(DimensionMismatch):
        GridSpec((1, 4), (2.0, 2.0))
    with pytest.raises(DimensionMismatch):
        GridSpec((4, 4), (2.0,))
    with pytest.raises(DimensionMismatch):
        GridSpec((4, 4), (2.0, -1.0))


def test_delta_kernel_consistency_every_index():
    spec = GridSpec((4, 3), (8.0, 6.0))
    U = build_expectation_kernel(spec)
    pts = spec.points()
    for flat in range(spec.n_points):
        mass = np.zeros(spec.n_points)
        mass[flat] = 1.0
        pmf = PmfGrid(spec, mass.reshape(spec.n))
        assert np.array_equal(U @ pmf.vector, pts[flat])


def test_delta_pmf_snaps_exactly():
    spec = GridSpec((4, 4), (8.0, 8.0))
    U = build_expectation_kernel(spec)
    y = np.array([1.3, -2.9])
    pmf = make_delta_pmf(spec, y)
    assert pmf.vector.sum() == 1.0
    snapped = U @ pmf.vector
    assert np.all(np.abs(snapped - y) <= max(spec.pitch) / 2.0 + 1e-12)


def test_mad_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        spec = GridSpec(n, (4.0, 4.0))
        U = build_expectation_kernel(spec)
        P = random_pmf(rng, spec).vector
        y = rng.uniform(-1.5, 1.5, size=2)
        direct = np.array([
            sum(abs(U[q, i] - y[q]) * P[i] for i in range(spec.n_points))
            for q in range(2)
        ])
        assert np.all(np.abs(mad(U, y, P) - direct) <= 1e-10)


def test_blur_preserves_normalization():
    rng = np.random.default_rng(11)
    spec = GridSpec((9, 9), (6.0, 6.0))
    for _ in range(25):
        pmf = random_pmf(rng, spec)
        out = blur_pmf(pmf, rng.uniform(-1.0, 1.0, size=2), rng.uniform(0.0, 2.0))
        assert abs(out.vector.sum() - 1.0) <= 1e-12
        assert np.all(out.vector >= 0.0)


def test_blur_identity_at_zero():
    spec = GridSpec((7, 7), (7.0, 7.0))
    pmf = make_delta_pmf(spec, [0.9, -1.4])
    out = blur_pmf(pmf, [0.0, 0.0], 0.0)
    assert np.array_equal(out.mass, pmf.mass)


def test_blur_shifts_by_whole_cells():
    spec = GridSpec((7, 7), (7.0, 7.0))
    pmf = make_delta_pmf(spec, [0.0, 0.0])
    i0 = np.unravel_index(np.argmax(pmf.mass), spec.n)
    out = blur_pmf(pmf, [1.0, 0.0], 0.0)  # one pitch to the right
    i1 = np.unravel_index(np.argmax(out.mass), spec.n)
    assert i1 == (i0[0] + 1, i0[1])


def test_pmf_validation():
    spec = GridSpec((2, 2), (2.0, 2.0))
    with pytest.raises(ValueError):
        PmfGrid(spec, np.array([[0.5, 0.5], [0.5, -0.5]]))
    with pytest.raises(ValueError):
        PmfGrid(spec, np.full((2, 2), 0.3))


def test_bounds_warn_below_pitch():
    spec = GridSpec((4, 4), (8.0, 8.0))  # pitch 2
    with pytest.warns(UserWarning):
        UncertaintyBounds(0.5, 8.0).warn_if_below_pitch(spec)


def test_feasibility_report():
    spec = GridSpec((6, 6), (12.0, 12.0))
    U = build_expectation_kernel(spec)
    bounds = UncertaintyBounds(2.0, 6.0)
    y = np.array([1.0, -0.5])
    rep = check_pmf_feasible(make_delta_pmf(spec, y), U, bounds, y)
    assert rep["feasible"]
    far = check_pmf_feasible(make_delta_pmf(spec, [5.0, 5.0]), U, bounds, y)
    assert not far["feasible"]


def test_probability_blocks_shapes():
    spec = GridSpec((3, 3), (6.0, 6.0))
    U = build_expectation_kernel(spec)
    bounds = UncertaintyBounds(1.0, 4.0)
    blocks = ProbabilityBlocks(U, bounds, np.array([2.0, -1.0]))
    n_p, d = spec.n_points, 2
    assert blocks.n_points == n_p
    assert blocks.U.shape == (d, n_p)
    assert blocks.A_p.shape == (2 * d, n_p)
    assert np.allclose(blocks.A_p, np.vstack([U, -U]))
