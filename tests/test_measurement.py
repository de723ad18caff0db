import numpy as np
import pytest

from safefield.errors import DimensionMismatch, LandmarkOutOfView
from safefield.measurement import (
    GridSpec,
    PmfGrid,
    UncertaintyBounds,
    blur_pmf,
    build_expectation_kernel,
    check_pmf_feasible,
    drift_shift,
    gaussian_kernel,
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


@pytest.mark.parametrize("n", [(2.7, 4), (4, float("nan")), ("3", 4),
                               (True, 4), 4],
                         ids=["fraction", "nan", "string", "bool", "scalar"])
def test_grid_counts_must_be_integral_numbers(n):
    # an integral float is a count; truncating 2.7 to 2 is not
    assert GridSpec((3.0, 4), (2.0, 2.0)).n == (3, 4)
    with pytest.raises(DimensionMismatch):
        GridSpec(n, (2.0, 2.0))


def test_drift_shift_reads_each_axis_pitch():
    # a grid whose axes differ in count, width and pitch: each axis rounds
    # its drift to its own whole cells and clamps to its own edges
    spec = GridSpec((30, 7), (40.0, 13.0))
    rng = np.random.default_rng(4)
    for _ in range(2000):
        drift = rng.uniform(-25.0, 25.0, size=2).tolist()
        lo = [int(rng.integers(0, n)) for n in spec.n]
        hi = [int(rng.integers(a, n)) for a, n in zip(lo, spec.n)]
        want = tuple(
            int(np.clip(np.floor(d / (w / n) + 0.5), -a, n - 1 - b))
            for d, w, n, a, b in zip(drift, spec.width, spec.n, lo, hi))
        assert drift_shift(spec, drift, lo, hi) == want


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


def check_bound_rows(bounds, U, y, P, mad):
    """bounds' rows at offset y hold U P, -U P and the MAD mad of P, and its
    right-hand sides are [y + eps, eps - y, sigma_m] bit for bit."""
    d, n_p = U.shape
    rows = bounds.rows(U.T, y)
    assert rows.shape == (n_p, 3 * d)
    mean = U @ P
    assert np.allclose(rows.T @ P, np.concatenate([mean, -mean, mad]),
                       rtol=0.0, atol=1e-10)
    rhs = bounds.rhs(y)
    assert rhs.shape == (3 * d,)
    assert np.array_equal(rhs, np.concatenate([
        y + bounds.epsilon, bounds.epsilon - y, np.full(d, bounds.sigma_m)]))


def test_mad_matches_brute_force():
    rng = np.random.default_rng(7)
    bounds = UncertaintyBounds(0.3, 1.7)
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
        check_bound_rows(bounds, U, y, P, direct)


def test_blur_preserves_normalization():
    rng = np.random.default_rng(11)
    spec = GridSpec((9, 9), (6.0, 6.0))
    for _ in range(25):
        pmf = random_pmf(rng, spec)
        out = blur_pmf(pmf, rng.uniform(-1.0, 1.0, size=2), rng.uniform(0.0, 2.0))
        assert abs(out.vector.sum() - 1.0) <= 1e-12
        assert np.all(out.vector >= 0.0)


def test_gaussian_kernel_is_built_once_and_read_only():
    def fresh(spec, variance):
        sigma = np.sqrt(variance)
        axes = [np.arange(-h, h + 1) * p for h, p in
                zip([int(np.ceil(3.0 * sigma / p)) for p in spec.pitch],
                    spec.pitch)]
        a, b = np.meshgrid(*axes, indexing="ij")
        k = np.exp(-(a * a + b * b) / (2.0 * sigma * sigma))
        return k / k.sum()

    spec = GridSpec((30, 20), (40.0, 30.0))
    for variance in (12.0, 0.7):
        first = gaussian_kernel(spec, variance)
        again = gaussian_kernel(GridSpec((30, 20), (40.0, 30.0)), variance)
        assert again is first
        assert np.array_equal(first, fresh(spec, variance))
        with pytest.raises(ValueError):
            first[0, 0] = 1.0
    assert gaussian_kernel(spec, 0.7).shape != gaussian_kernel(spec, 12.0).shape
    assert gaussian_kernel(spec, 12.0).shape == (17, 15)
    assert gaussian_kernel(GridSpec((15, 20), (40.0, 30.0)), 12.0).shape == (9, 15)
    assert np.array_equal(gaussian_kernel(spec, 0.0), np.ones((1, 1)))


def test_snap_matches_nearest_center():
    spec = GridSpec((8, 5), (4.0, 10.0))
    rng = np.random.default_rng(3)
    # every cell boundary is a tie and goes to the lower index
    for q, n, w in ((0, 8, 4.0), (1, 5, 10.0)):
        for j in range(1, n):
            y = np.zeros(2)
            y[q] = w * j / n - w / 2.0
            assert spec.snap(y)[q] == j - 1
    for y in rng.uniform(-2.0, 2.0, size=(200, 2)) * [1.0, 2.5]:
        d = [np.abs(spec.centers(q) - y[q]) for q in range(2)]
        assert spec.snap(y) == tuple(int(np.argmin(v)) for v in d)
    with pytest.raises(LandmarkOutOfView):
        spec.snap([0.0, 5.1])


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
    # a non-finite mass fails the sign check or the sum check
    for bad in ([[np.nan, 0.0], [0.0, 0.0]], [[np.nan, 1.0], [0.0, 0.0]],
                [[np.inf, 0.0], [0.0, 0.0]], [[-np.inf, 1.0], [0.0, 0.0]]):
        with pytest.raises(ValueError):
            PmfGrid(GridSpec((2, 2), (1.0, 1.0)), bad)


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


def test_bound_rows_and_rhs_shapes():
    spec = GridSpec((3, 3), (6.0, 6.0))
    U = build_expectation_kernel(spec)
    bounds = UncertaintyBounds(1.0, 4.0)
    y = np.array([2.0, -1.0])
    assert np.array_equal(bounds.rows(U.T, y)[:, :4], np.vstack([U, -U]).T)
    P = make_delta_pmf(spec, [0.0, 2.0]).vector
    check_bound_rows(bounds, U, y, P, np.abs(U @ P - y))
    # offsets broadcast against the points: one row block per offset
    Y = np.array([y, -y, 0.5 * y])
    assert bounds.rows(U.T, Y[:, None]).shape == (3, spec.n_points, 6)
    assert np.array_equal(bounds.rows(U.T, Y[:, None])[1],
                          bounds.rows(U.T, -y))
    assert np.array_equal(bounds.rhs(Y)[2], bounds.rhs(0.5 * y))
