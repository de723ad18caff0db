"""PMF grid model: expectation kernel, error-bound constraint blocks and
synthetic PMF generators.

Measurements live on a robot-centered grid: a PMF over displacement
y = landmark - robot. The vectorized view P uses row-major (C) order, axis 0
slowest, everywhere in the package.
"""

import warnings

import numpy as np

from .errors import DimensionMismatch, LandmarkOutOfView

SNAP_TIE_TOL = 1e-9


class GridSpec:
    """Cell-centered measurement grid: axis q has n_q cells spanning
    [-w_q/2, w_q/2], cell j centered at w_q*(j+0.5)/n_q - w_q/2."""

    def __init__(self, n, width):
        self.n = tuple(int(v) for v in n)
        self.width = tuple(float(v) for v in width)
        if len(self.n) != len(self.width):
            raise DimensionMismatch("n and width length differ")
        if any(v < 2 for v in self.n):
            raise DimensionMismatch("need at least 2 cells per axis")
        if any(w <= 0 for w in self.width):
            raise DimensionMismatch("grid widths must be positive")

    @property
    def dim(self):
        return len(self.n)

    @property
    def n_points(self):
        return int(np.prod(self.n))

    @property
    def pitch(self):
        return tuple(w / k for w, k in zip(self.width, self.n))

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
        """Grid index of the cell center nearest to y, ties to the lower index."""
        y = np.asarray(y, dtype=float)
        idx = []
        for q in range(self.dim):
            if abs(y[q]) > self.width[q] / 2.0 + SNAP_TIE_TOL:
                raise LandmarkOutOfView(
                    "offset %r outside grid support +-%.6g on axis %d" % (y, self.width[q] / 2.0, q)
                )
            # boundary coordinate: cell j spans s in [j, j+1)
            s = (y[q] + self.width[q] / 2.0) * self.n[q] / self.width[q]
            r = round(s)
            if abs(s - r) <= SNAP_TIE_TOL:
                j = int(r) - 1
            else:
                j = int(np.floor(s))
            idx.append(min(max(j, 0), self.n[q] - 1))
        return tuple(idx)

    def same_widths(self, other):
        return len(self.width) == len(other.width) and all(
            abs(a - b) <= 1e-12 for a, b in zip(self.width, other.width)
        )

    def __eq__(self, other):
        return isinstance(other, GridSpec) and self.n == other.n and self.same_widths(other)


class PmfGrid:
    """Normalized non-negative mass on a GridSpec."""

    def __init__(self, spec, mass):
        self.spec = spec
        mass = np.asarray(mass, dtype=float)
        if mass.shape != spec.n:
            mass = mass.reshape(spec.n)
        if np.any(mass < -1e-15):
            raise ValueError("negative PMF mass")
        total = float(mass.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError("PMF mass sums to %.17g, expected 1" % total)
        self.mass = np.clip(mass, 0.0, None)

    @property
    def vector(self):
        """Row-major vectorized view P."""
        return self.mass.ravel(order="C")


def build_expectation_kernel(spec):
    """U (dim x n_points) with U @ P = E[y] for any PMF P on the grid."""
    return spec.points().T.copy()


def make_delta_pmf(spec, y):
    mass = np.zeros(spec.n)
    mass[spec.snap(y)] = 1.0
    return PmfGrid(spec, mass)


def gaussian_kernel(spec, variance):
    """Discretized isotropic Gaussian truncated at 3 sigma, normalized to 1."""
    if variance <= 1e-18:
        return np.ones((1,) * spec.dim)
    sigma = float(np.sqrt(variance))
    pitch = spec.pitch
    half = [int(np.ceil(3.0 * sigma / p)) for p in pitch]
    axes = [np.arange(-h, h + 1) * p for h, p in zip(half, pitch)]
    mesh = np.meshgrid(*axes, indexing="ij")
    r2 = sum(m * m for m in mesh)
    k = np.exp(-r2 / (2.0 * sigma * sigma))
    return k / k.sum()


def blur_pmf(pmf, drift, variance):
    """Convolve with a truncated Gaussian, shift by drift (rounded to whole
    cells, clamped so the occupied support stays on-grid), clip and
    renormalize."""
    spec = pmf.spec
    if spec.dim != 2:
        raise DimensionMismatch("blur implemented for 2-D grids")
    drift = np.asarray(drift, dtype=float)
    pitch = spec.pitch
    shift = [int(np.floor(drift[q] / pitch[q] + 0.5)) for q in range(2)]
    occupied = np.nonzero(pmf.mass)
    for q in range(2):
        lo, hi = int(occupied[q].min()), int(occupied[q].max())
        shift[q] = min(max(shift[q], -lo), spec.n[q] - 1 - hi)
    kernel = gaussian_kernel(spec, variance)
    n, m = spec.n, kernel.shape
    half = [(m[q] - 1) // 2 for q in range(2)]
    out = np.zeros(n)
    # one slice-add per occupied cell: a delta PMF costs one paste
    for i, j in zip(*occupied):
        lo = [i + shift[0] - half[0], j + shift[1] - half[1]]
        dst = tuple(slice(max(lo[q], 0), min(lo[q] + m[q], n[q])) for q in range(2))
        src = tuple(slice(d.start - lo[q], d.stop - lo[q]) for q, d in enumerate(dst))
        out[dst] += pmf.mass[i, j] * kernel[src]
    total = out.sum()
    return PmfGrid(spec, out / total)


class UncertaintyBounds:
    """Componentwise mean-error radius and MAD cap, workspace units."""

    def __init__(self, epsilon, sigma_m):
        if epsilon < 0 or sigma_m < 0:
            raise ValueError("bounds must be non-negative")
        self.epsilon = float(epsilon)
        self.sigma_m = float(sigma_m)

    def warn_if_below_pitch(self, spec):
        pmax = max(spec.pitch)
        if self.epsilon < pmax or self.sigma_m < pmax:
            warnings.warn(
                "bounds (eps=%g, sigma_m=%g) below grid pitch %g; quantization "
                "alone can exhaust them" % (self.epsilon, self.sigma_m, pmax),
                stacklevel=2,
            )


def mad(U, y, P):
    """Per-axis mean absolute deviation around y."""
    y = np.asarray(y, dtype=float)
    return np.sum(np.abs(U - y[:, None]) * np.asarray(P, dtype=float), axis=1)


def check_pmf_feasible(pmf, kernel, bounds, y):
    """Report whether a PMF satisfies the error bounds around truth y."""
    P = pmf.vector
    mean_error = kernel @ P - np.asarray(y, dtype=float)
    dev = mad(kernel, y, P)
    feasible = bool(
        np.all(np.abs(mean_error) <= bounds.epsilon + 1e-12)
        and np.all(dev <= bounds.sigma_m + 1e-12)
    )
    return {"mean_error": mean_error, "mad": dev, "feasible": feasible}


class ProbabilityBlocks:
    """Affine blocks of the feasible-measurement set at unknown state x.

    Mean rows: A_x x + A_p P + b_p <= 0 (2d rows).
    MAD rows, per axis q: z_q^T P <= sigma_m with the couplings
    U_q - (l - x)_q 1 <= z_q and -(U_q - (l - x)_q 1) <= z_q.
    """

    def __init__(self, kernel, bounds, landmark):
        self.U = np.asarray(kernel, dtype=float)
        d, n_p = self.U.shape
        self.landmark = np.asarray(landmark, dtype=float)
        if self.landmark.shape != (d,):
            raise DimensionMismatch("landmark dimension mismatch")
        self.bounds = bounds
        l, eps = self.landmark, bounds.epsilon
        self.A_p = np.vstack([self.U, -self.U])
        self.A_x = np.vstack([np.eye(d), -np.eye(d)])
        self.b_p = np.concatenate([-l - eps, l - eps])

    @property
    def dim(self):
        return self.U.shape[0]

    @property
    def n_points(self):
        return self.U.shape[1]
