"""PMF grid model: expectation kernel, the error-bound set and synthetic
PMF generators.

Measurements live on a robot-centered grid: a PMF over displacement
y = landmark - robot. The vectorized view P uses row-major (C) order, axis 0
slowest, everywhere in the package.
"""

import functools
import math
import warnings

import numpy as np

from .errors import DimensionMismatch, LandmarkOutOfView
from .geometry import integers

SNAP_TIE_TOL = 1e-9


class GridSpec:
    """Cell-centered measurement grid: axis q has n_q cells spanning
    [-w_q/2, w_q/2], cell j centered at w_q*(j+0.5)/n_q - w_q/2."""

    def __init__(self, n, width):
        try:
            self.n = tuple(integers(n))
        except (TypeError, ValueError) as exc:
            raise DimensionMismatch("cell counts must be integral numbers "
                                    "(%s)" % exc) from None
        self.width = tuple(float(v) for v in width)
        if len(self.n) != len(self.width):
            raise DimensionMismatch("n and width length differ")
        if any(v < 2 for v in self.n):
            raise DimensionMismatch("need at least 2 cells per axis")
        if not all(0 < w < math.inf for w in self.width):
            raise DimensionMismatch("grid widths must be positive and finite")
        # fixed here, as every Gaussian reading's drift_shift reads them
        self.dim = len(self.n)
        self.pitch = tuple(w / k for w, k in zip(self.width, self.n))
        # per axis, what snap reads: cell count, width, half-width and the
        # farthest offset that still snaps onto the grid
        self._snap_axes = tuple((n, w, w / 2.0, w / 2.0 + SNAP_TIE_TOL)
                                for n, w in zip(self.n, self.width))

    @property
    def n_points(self):
        return int(np.prod(self.n))

    def centers(self, axis):
        j = np.arange(self.n[axis])
        return self.width[axis] * (j + 0.5) / self.n[axis] - self.width[axis] / 2.0

    def points(self):
        """All cell centers, (n_points, dim), row-major over indices."""
        axes = [self.centers(q) for q in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel(order="C") for m in mesh], axis=1)

    def flat_index(self, multi):
        return int(np.ravel_multi_index(tuple(int(i) for i in multi), self.n, order="C"))

    def snap(self, y):
        """Grid index of the cell center nearest to y, a sequence of floats
        (one per axis), ties to the lower index."""
        # Python floats: the same IEEE double arithmetic, without a NumPy
        # call per scalar
        if isinstance(y, np.ndarray):
            y = y.tolist()
        idx = []
        for v, (n, w, half, reach) in zip(y, self._snap_axes):
            if abs(v) > reach:
                raise LandmarkOutOfView(
                    "offset %r outside grid support +-%.6g on axis %d"
                    % (y, half, len(idx)))
            # boundary coordinate: cell j spans s in [j, j+1)
            s = (v + half) * n / w
            r = round(s)
            j = r - 1 if abs(s - r) <= SNAP_TIE_TOL else math.floor(s)
            idx.append(0 if j < 0 else j if j < n else n - 1)
        return tuple(idx)

    def __eq__(self, other):
        return (isinstance(other, GridSpec) and self.n == other.n
                and all(abs(a - b) <= 1e-12
                        for a, b in zip(self.width, other.width)))


class PmfGrid:
    """Normalized non-negative mass on a GridSpec. The mass is a read-only
    copy, so one PmfGrid can be handed to any number of readers."""

    def __init__(self, spec, mass):
        self.spec = spec
        mass = np.asarray(mass, dtype=float)
        if mass.shape != spec.n:
            mass = mass.reshape(spec.n)
        # written as not (... >= / <= ...) so that a NaN fails both checks
        if not mass.min() >= -1e-15:
            raise ValueError("negative or NaN PMF mass")
        total = float(mass.sum())
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError("PMF mass sums to %.17g, expected 1" % total)
        self.mass = np.maximum(mass, 0.0)
        self.mass.setflags(write=False)

    @property
    def vector(self):
        """Row-major vectorized view P."""
        return self.mass.ravel(order="C")


def build_expectation_kernel(spec):
    """U (dim x n_points) with U @ P = E[y] for any PMF P on the grid."""
    return spec.points().T.copy()


def make_delta_pmf(spec, y):
    return delta_pmf_at(spec, spec.snap(y))


def delta_pmf_at(spec, cell):
    """All mass on the grid cell with index tuple cell."""
    mass = np.zeros(spec.n)
    mass[cell] = 1.0
    return PmfGrid(spec, mass)


def gaussian_kernel(spec, variance):
    """Discretized isotropic Gaussian truncated at 3 sigma, normalized to 1.
    Built once per (grid n, width, variance) and returned read-only."""
    return _gaussian_kernel(spec.n, spec.width, float(variance))


@functools.lru_cache(maxsize=64)
def _gaussian_kernel(n, width, variance):
    spec = GridSpec(n, width)
    if variance <= 1e-18:
        k = np.ones((1,) * spec.dim)
    else:
        sigma = float(np.sqrt(variance))
        pitch = spec.pitch
        half = [int(np.ceil(3.0 * sigma / p)) for p in pitch]
        axes = [np.arange(-h, h + 1) * p for h, p in zip(half, pitch)]
        mesh = np.meshgrid(*axes, indexing="ij")
        r2 = sum(m * m for m in mesh)
        k = np.exp(-r2 / (2.0 * sigma * sigma))
        k = k / k.sum()
    k.setflags(write=False)
    return k


def blur_pmf(pmf, drift, variance):
    """Convolve with a truncated Gaussian, shift by drift (rounded to whole
    cells, clamped so the occupied support stays on-grid), clip and
    renormalize."""
    occupied = np.nonzero(pmf.mass)
    shift = drift_shift(pmf.spec, drift, [int(o.min()) for o in occupied],
                        [int(o.max()) for o in occupied])
    centers = zip(*(o + s for o, s in zip(occupied, shift)))
    return _paste(pmf.spec, centers, pmf.mass[occupied], variance)


def blur_cell(spec, cell, variance):
    """The blur of the delta PMF on the grid cell with index tuple cell,
    with no drift: blur_pmf(delta_pmf_at(spec, cell), 0, variance) without
    the delta PMF or the scan for its support."""
    return _paste(spec, [cell], [1.0], variance)


def drift_shift(spec, drift, lo, hi):
    """drift rounded to whole cells on each axis, then clamped so that the
    index box from lo to hi (inclusive) stays on the grid when moved."""
    if spec.dim != 2:
        raise DimensionMismatch("blur implemented for 2-D grids")
    # Python floats, as in snap: the same IEEE double arithmetic
    (n0, n1), (p0, p1) = spec.n, spec.pitch
    return (min(max(math.floor(float(drift[0]) / p0 + 0.5), -lo[0]),
                n0 - 1 - hi[0]),
            min(max(math.floor(float(drift[1]) / p1 + 0.5), -lo[1]),
                n1 - 1 - hi[1]))


def _paste(spec, centers, weights, variance):
    """Sum of weight * kernel centred on each cell, clipped to the grid and
    renormalized: one slice-add per center."""
    kernel = gaussian_kernel(spec, variance)
    n, m = spec.n, kernel.shape
    half = [(m[q] - 1) // 2 for q in range(2)]
    out = np.zeros(n)
    for (i, j), weight in zip(centers, weights):
        lo = [i - half[0], j - half[1]]
        dst = tuple(slice(max(lo[q], 0), min(lo[q] + m[q], n[q])) for q in range(2))
        src = tuple(slice(d.start - lo[q], d.stop - lo[q]) for q, d in enumerate(dst))
        out[dst] += weight * kernel[src]
    return PmfGrid(spec, out / out.sum())


class UncertaintyBounds:
    """Componentwise mean-error radius and MAD cap, workspace units.

    They state the set of measurement PMFs that the certificate covers:
    P >= 0 with unit mass, read at the true offset y, whose mean is within
    epsilon of y and whose mean absolute deviation around y is at most
    sigma_m on every axis. Beside the mass rows, that is rows(U^T, y)^T P
    <= rhs(y) for the expectation kernel U: synthesis dualizes this set,
    the verifier solves over it and check_pmf_feasible tests a PMF
    against it, each through these two methods."""

    def __init__(self, epsilon, sigma_m):
        if not (0 <= epsilon < math.inf and 0 <= sigma_m < math.inf):
            raise ValueError("bounds must be non-negative and finite")
        self.epsilon = float(epsilon)
        self.sigma_m = float(sigma_m)

    @staticmethod
    def rows(u, y):
        """The 3d row coefficients [u, -u, |u - y|] of mass on grid points
        u (..., d), read at offsets y that broadcast against u."""
        u = np.asarray(u, dtype=float)
        dev = np.abs(u - y)
        u = np.broadcast_to(u, dev.shape)
        return np.concatenate([u, -u, dev], axis=-1)

    def rhs(self, y):
        """The right-hand sides [y + eps, eps - y, sigma_m] of rows at
        offsets y (..., d)."""
        y = np.asarray(y, dtype=float)
        return np.concatenate([y + self.epsilon, self.epsilon - y,
                               np.full(y.shape, self.sigma_m)], axis=-1)

    def warn_if_below_pitch(self, spec):
        pmax = max(spec.pitch)
        if self.epsilon < pmax or self.sigma_m < pmax:
            warnings.warn(
                "bounds (eps=%g, sigma_m=%g) below grid pitch %g; quantization "
                "alone can exhaust them" % (self.epsilon, self.sigma_m, pmax),
                stacklevel=2,
            )


def check_pmf_feasible(pmf, kernel, bounds, y):
    """Report whether a PMF satisfies the error bounds around truth y."""
    y = np.asarray(y, dtype=float)
    values = bounds.rows(np.asarray(kernel, dtype=float).T, y).T @ pmf.vector
    d = y.size
    return {"mean_error": values[:d] - y, "mad": values[2 * d:],
            "feasible": bool(np.all(values <= bounds.rhs(y) + 1e-12))}
