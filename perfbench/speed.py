"""How fast the machine runs right now, from a fixed reference kernel.

On a shared host the same code runs up to twice as slowly for stretches of
seconds to minutes, and CPU time slows with wall time, so the program cannot
see the slowdown in its own clock. The benchmark therefore times this
kernel next to the code it measures and reports times at reference speed:
a measured time is scaled by ``REFERENCE_S / kernel time``. The kernel is
fixed code of the benchmark's own, so a change to the program under test
changes the program's times and not the kernel's.

The kernel mixes the three kinds of work the closed loop does: interpreter
work, numpy calls on small arrays, and a rank-one update of a 700 x 700
matrix (3.9 MB, about the size of a planner's basis inverse). Its time is the
geometric mean of the three parts' times.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# kernel time that defines reference speed: about the fastest kernel time
# seen on the 2-core Xeon VM that perfbench/README.md calls the reference
# machine, where the kernel usually takes two to three times as long
REFERENCE_S = 200e-6
# wall time between the kernel samples a running Sampler takes on its own
INTERVAL_S = 0.1

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((100, 100))
_SMALL_V = _rng.standard_normal(100)
_MASKED = _rng.standard_normal(400)
_LARGE = _rng.standard_normal((700, 700))
_LARGE_V = _rng.standard_normal(700)


def _interpreter() -> int:
    total, seen = 0, {}
    for i in range(400):
        total += i & 3
        seen[i & 31] = total
    return total


def _small_arrays() -> float:
    inv = _SMALL.copy()
    for r in range(6):
        inv -= np.outer(1e-3 * (inv @ _SMALL_V), inv[r])
    for _ in range(6):
        kept = np.where(_MASKED > 0, _MASKED, 0.0)
        big = np.flatnonzero(kept > 0.5)
        kept[big] = np.minimum(kept[big], 1.0)
    return float(inv[0, 0])


def _large_array() -> float:
    inv = _LARGE.copy()
    inv -= np.outer(1e-9 * (inv @ _LARGE_V), inv[0])
    return float(inv[0, 0])


PARTS = (_interpreter, _small_arrays, _large_array)


def kernel_s() -> float:
    """Seconds the reference kernel takes now (geometric mean of its parts)."""
    logs = 0.0
    for part in PARTS:
        start = time.perf_counter()
        part()
        logs += math.log(time.perf_counter() - start)
    return math.exp(logs / len(PARTS))


def factor(kernel_seconds: float) -> float:
    """Multiplier that turns a time measured at this kernel time into reference speed."""
    return REFERENCE_S / kernel_seconds


class Sampler:
    """Kernel samples along a stretch of wall time.

    ``take`` samples on demand. While ``running``, a SIGALRM timer also
    samples every INTERVAL_S, between two bytecodes of whatever Python code
    is running, so a long computation is sampled while it runs. Each sample
    is ``(start, spent, kernel)``: when it began, the wall time it took, and
    the kernel time.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._busy = False

    def take(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            kernel = kernel_s()
            self.samples.append((start, time.perf_counter() - start, kernel))
        finally:
            self._busy = False

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, lambda *_: self.take())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def spent_s(self, start: float, end: float) -> float:
        """Wall time of the samples that began in [start, end)."""
        return sum(spent for at, spent, _ in self.samples if start <= at < end)

    def factor(self, start: float, end: float) -> float:
        """Multiplier to reference speed over [start, end).

        It takes the median kernel time of the samples that began inside the
        interval and of the nearest sample before it and after it; the
        median, because a sample that an interrupt slowed is an outlier.
        """
        before = [k for at, _, k in self.samples if at < start][-1:]
        inside = [k for at, _, k in self.samples if start <= at < end]
        after = [k for at, _, k in self.samples if at >= end][:1]
        return factor(statistics.median(before + inside + after))
