"""Host-speed correction of measured times.

The benchmark's reference host (2 vCPUs shared with other tenants) runs
the same code up to ~1.6x slower for stretches of a second to tens of
seconds, with no steal time reported, so the time of one run depends on
what the neighbours do.  While requests run, `SpeedLog` interrupts the
process every SAMPLE_EVERY_S of CPU time (SIGPROF) and times a small fixed
kernel that does not touch tmmcavity (Python arithmetic, 2x2 numpy
products, dict inserts).  A request's corrected time is its wall time,
less the sampling it contained, multiplied by NOMINAL_KERNEL_S over the
mean kernel time of the samples taken within WINDOW_S of it: on an
unloaded host the factor is ~1, and a change to tmmcavity moves corrected
and wall times alike.  Wall times are reported alongside.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

NOMINAL_KERNEL_S = 6.0e-4   # kernel time on an unloaded reference host
SAMPLE_EVERY_S = 0.25       # CPU time between samples
REPEATS = 3                 # a sample is the fastest of this many kernel runs
WINDOW_S = 1.0              # samples this close to a request describe its host speed
MIN_SAMPLES = 3             # ... or at least this many nearest ones

_M = np.array([[1.0 + 0.5j, 0.25j], [-0.25j, 1.0 - 0.5j]])


def kernel() -> float:
    """Seconds taken by one run of the fixed calibration kernel."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i
    x = _M
    for _ in range(200):
        x = x @ _M
    table = {}
    for i in range(500):
        table[i] = (i, str(i))
    return time.perf_counter() - t0


def probe() -> float:
    return min(kernel() for _ in range(REPEATS))


class SpeedLog:
    """Kernel samples taken on a CPU-time timer while it is entered."""

    def __init__(self):
        self.times: list[float] = []     # midpoint of each sample
        self.kernel_s: list[float] = []
        self.spans: list[tuple[float, float]] = []  # wall interval of each sample
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old)
        self.sample()

    def _tick(self, signum, frame):
        if not self._busy:
            self.sample()

    def sample(self):
        self._busy = True
        try:
            t0 = time.perf_counter()
            k = probe()
            t1 = time.perf_counter()
        finally:
            self._busy = False
        self.times.append((t0 + t1) / 2)
        self.kernel_s.append(k)
        self.spans.append((t0, t1))

    def spent(self, t0: float, t1: float) -> float:
        """Wall time spent sampling inside [t0, t1]."""
        return sum(max(0.0, min(b, t1) - max(a, t0)) for a, b in self.spans)

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_KERNEL_S over the mean kernel time of samples near [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            near = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - mid))
            picked = [self.kernel_s[i] for i in near[:MIN_SAMPLES]]
        else:
            picked = self.kernel_s[lo:hi]
        return NOMINAL_KERNEL_S / statistics.fmean(picked)

    def corrected(self, intervals: list[tuple[float, float]]) -> tuple[list, list]:
        """(wall times less sampling, the same corrected) of request intervals."""
        wall = [t1 - t0 - self.spent(t0, t1) for t0, t1 in intervals]
        return wall, [w * self.factor(t0, t1) for w, (t0, t1) in zip(wall, intervals)]
