"""Dense numeric kernels, numba-compiled with a pure-numpy fallback.

Set the environment variable SAFE_FIELD_PURE_NUMPY=1 to force the numpy path
(useful on machines without a working numba install and for benchmarking).
"""

import os

import numpy as np

_FORCED_NUMPY = os.environ.get("SAFE_FIELD_PURE_NUMPY", "0") not in ("", "0")

try:
    if _FORCED_NUMPY:
        raise ImportError
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        # identity decorator so the jit'd names still exist
        def wrap(fn):
            return fn

        if len(args) == 1 and callable(args[0]):
            return args[0]
        return wrap

USING_NUMBA = HAVE_NUMBA


@njit(cache=True)
def _scatter_blur_2d_jit(mass, kernel, s1, s2):
    n1, n2 = mass.shape
    m1, m2 = kernel.shape
    k1 = (m1 - 1) // 2
    k2 = (m2 - 1) // 2
    out = np.zeros((n1, n2))
    for i in range(n1):
        for j in range(n2):
            w = mass[i, j]
            if w == 0.0:
                continue
            for a in range(m1):
                ii = i + s1 + a - k1
                if ii < 0 or ii >= n1:
                    continue
                for b in range(m2):
                    jj = j + s2 + b - k2
                    if jj < 0 or jj >= n2:
                        continue
                    out[ii, jj] += w * kernel[a, b]
    return out


def _scatter_blur_2d_np(mass, kernel, s1, s2):
    n1, n2 = mass.shape
    m1, m2 = kernel.shape
    k1 = (m1 - 1) // 2
    k2 = (m2 - 1) // 2
    out = np.zeros((n1, n2))
    for a in range(m1):
        for b in range(m2):
            w = kernel[a, b]
            if w == 0.0:
                continue
            o1 = s1 + a - k1
            o2 = s2 + b - k2
            src1 = slice(max(0, -o1), min(n1, n1 - o1))
            dst1 = slice(max(0, o1), min(n1, n1 + o1))
            src2 = slice(max(0, -o2), min(n2, n2 - o2))
            dst2 = slice(max(0, o2), min(n2, n2 + o2))
            if src1.start >= src1.stop or src2.start >= src2.stop:
                continue
            out[dst1, dst2] += w * mass[src1, src2]
    return out


def scatter_blur_2d(mass, kernel, shift):
    """Convolve a 2-D mass array with a kernel, then shift by whole cells.

    Mass pushed past the array edge is dropped; the caller renormalizes.
    """
    mass = np.ascontiguousarray(mass, dtype=np.float64)
    kernel = np.ascontiguousarray(kernel, dtype=np.float64)
    s1, s2 = int(shift[0]), int(shift[1])
    if HAVE_NUMBA:
        return _scatter_blur_2d_jit(mass, kernel, s1, s2)
    return _scatter_blur_2d_np(mass, kernel, s1, s2)
