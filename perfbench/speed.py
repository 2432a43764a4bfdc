"""Scaling of wall time to a reference machine speed.

The benchmark runs on shared hosts whose speed drifts: on a shared
2-core virtual machine (Intel Xeon, Python 3.11) the same pipeline call
took from 1.3 s to 2.3 s within four minutes, CPU time drifted with wall time, and the speed changed within
single calls of a second or two.  A fixed pure-Python kernel drifts with
it, so the benchmark samples the kernel's time throughout the run and
reports wall time scaled by REFERENCE_KERNEL_S over the kernel's time
around each request.  Scaled time reads as seconds on a host where the
kernel takes REFERENCE_KERNEL_S; the unscaled wall times are printed too.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_KERNEL_S = 0.0012

_VALUES = [Fraction(k, k + 1) for k in range(1, 60)]


def kernel() -> Fraction:
    """Fixed work of the pipeline's kind: Fraction arithmetic on small
    numbers (about a millisecond).  The garbage collector is off while it
    runs, so its time tracks the processor, not the size of the heap the
    measured program has built."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        acc = Fraction(0)
        for i in range(12):
            w = _VALUES[i * 7 % 59]
            for x in _VALUES[:20]:
                acc += x * w - Fraction(i, 7)
        return acc
    finally:
        if enabled:
            gc.enable()


def kernel_seconds(times: int = 9) -> float:
    """Median wall time of `times` kernel runs, after one warm-up run."""
    kernel()
    samples = []
    for _ in range(times):
        t0 = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class Sampler:
    """Times the kernel every INTERVAL_S from a SIGALRM handler while
    active, so that speed is known inside long requests too.

    The handler runs in the main thread between bytecodes, so a sample
    taken during a request adds its own time to that request's wall time;
    ``scaled`` subtracts it again.
    """

    INTERVAL_S = 0.05
    WINDOW_S = 0.1  # also use samples this close to a short request

    def __init__(self):
        self.stamps = []
        self.costs = []
        kernel_seconds(3)
        self._sample(None, None)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.stamps.append(t0)
        self.costs.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, start: float, end: float) -> float:
        """Scaled seconds of a request that ran from start to end."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_left(self.stamps, end)
        own = sum(self.costs[lo:hi])
        a = bisect.bisect_left(self.stamps, start - self.WINDOW_S)
        b = bisect.bisect_left(self.stamps, end + self.WINDOW_S)
        if b - a < 2:  # too few samples nearby: take the nearest ones
            a, b = max(0, lo - 2), min(len(self.costs), hi + 2)
        speed = statistics.median(self.costs[a:b])
        return (end - start - own) * REFERENCE_KERNEL_S / speed

    @property
    def kernel_median(self) -> float:
        return statistics.median(self.costs)
