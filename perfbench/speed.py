"""Machine-speed sampling for the untraced timings.

The machine this benchmark was built on is a share of a busy host: how fast
it runs the same code changes by up to 1.6x, from one tenth of a second to
the next and over minutes. A stage's raw wall time moves with it, so medians
of raw walls taken minutes apart disagree by more than any useful bound.

While a run measures, a timer interrupts the program every TICK_S seconds
and runs a fixed calibration kernel of about 9 ms. The kernel does the
program's kinds of work: a sparse HiGHS solve, a Python loop over small
NumPy arrays, and shifted-slice sums like the blur. It uses only NumPy and
SciPy, so a change to safefield cannot change it. The time the kernel takes
is taken out of every measured interval (clock() excludes it). A stage's
wall time is then scaled by REFERENCE_S over the mean kernel time sampled
during the stage. The result reads as the stage's time at the reference
speed, the speed at which the kernel takes REFERENCE_S.

The timer is SIGALRM, so a run must measure from the main thread. Python
runs the handler between bytecodes, so a tick that falls inside a long
native call (a HiGHS solve) is taken when that call returns.
"""

import signal
import time

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

# median kernel time on the reference box (2 CPUs, see README.md); it fixes
# the scale of the reported times, nothing else
REFERENCE_S = 0.014
TICK_S = 0.2  # wall time between the end of one kernel and the next
MIN_SAMPLES = 5  # an interval with fewer uses the nearest samples


class Speed:
    """Samples the calibration kernel on a timer; clock() is wall time
    without the kernel's share, and factor(start, end) scales an interval of
    that clock to reference speed."""

    def __init__(self, seed=12345):
        rng = np.random.default_rng(seed)
        m, n = 120, 200
        self._a = sparse.random(m, n, density=0.05, random_state=rng,
                                format="csr")
        self._a.data = 2.0 * self._a.data - 1.0
        self._b = rng.uniform(1.0, 2.0, m)
        self._c = -rng.uniform(0.0, 1.0, n)
        self._mass = rng.uniform(0.0, 1.0, (30, 30))
        self._taps = rng.uniform(0.0, 1.0, (9, 9))
        self._expected = self._kernel()  # also pays HiGHS's lazy set-up
        self._paused = 0.0
        self._times = []  # clock() at each sample
        self._values = []  # kernel seconds of each sample
        self._previous = None
        self._running = False

    def _kernel(self):
        """One kernel run; returns the LP optimum, which is checked so that
        the kernel can never silently do less work."""
        res = linprog(self._c, A_ub=self._a, b_ub=self._b, bounds=(0, 1),
                      method="highs")
        step = np.array([0.5, 0.25])
        x = np.zeros(2)
        for _ in range(1600):
            x = x + step * 1e-6
            float(x @ x)
        out = np.zeros((38, 38))
        for _ in range(8):
            for i in range(9):
                for j in range(9):
                    out[i:i + 30, j:j + 30] += self._taps[i, j] * self._mass
        return res.fun

    def _tick(self, signum, frame):
        if not self._running:  # a tick already due when __exit__ began
            return
        t0 = time.perf_counter()
        fun = self._kernel()
        t1 = time.perf_counter()
        if fun != self._expected:
            raise RuntimeError("calibration LP changed: %r != %r"
                               % (fun, self._expected))
        self._times.append(t0 - self._paused)
        self._values.append(t1 - t0)
        signal.setitimer(signal.ITIMER_REAL, TICK_S)
        self._paused += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        self._tick(signal.SIGALRM, None)
        return self

    def __exit__(self, *exc):
        # stop re-arming first: a tick that re-armed the timer after it was
        # cleared would raise SIGALRM under the default handler, which
        # ends the process
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def clock(self):
        """Wall seconds without the time spent in the kernel."""
        return time.perf_counter() - self._paused

    @property
    def samples(self):
        return list(self._values)

    def factor(self, start, end):
        """REFERENCE_S over the mean kernel time sampled in [start, end] of
        clock(); an interval with fewer than MIN_SAMPLES samples uses the
        MIN_SAMPLES nearest to its middle."""
        times = np.asarray(self._times)
        values = np.asarray(self._values)
        inside = (times >= start) & (times <= end)
        if np.count_nonzero(inside) >= MIN_SAMPLES:
            return REFERENCE_S / float(values[inside].mean())
        nearest = np.argsort(np.abs(times - 0.5 * (start + end)))
        return REFERENCE_S / float(values[nearest[:MIN_SAMPLES]].mean())
