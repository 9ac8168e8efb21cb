"""Core-speed probe: request times corrected for a shared core's speed.

On a shared host another tenant's load can slow this process's core by up
to about 1.9x, in stretches of a fraction of a second to minutes, with no
steal time recorded and no hardware counters to read.  Raw wall times of
identical work then spread by more than any useful bound.

While a ``SpeedProbe`` is active, a timer signal interrupts the main thread
every ``PERIOD_S`` and times ``probe_work``: a fixed piece of pure-Python
exact arithmetic from the standard library, not the code under test.  The
probes sample the core's speed at the moments the program runs.
``corrected(start, end)`` gives the time an interval would have taken on an
uncontended core: the interval minus the probes that ran inside it, scaled
by ``REFERENCE_S`` over the mean probe time within ``WINDOW_S`` of it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from fractions import Fraction as Q
from time import perf_counter

PERIOD_S = 0.025
# probes this close to an interval describe the core's speed during it
WINDOW_S = 0.1
# probe_work on an uncontended core of the reference machine (Intel Xeon,
# 2 shared vCPUs, Python 3.11); other machines scale every time alike
REFERENCE_S = 0.00044


def probe_work() -> None:
    x = Q(0)
    for i in range(1, 101):
        x += Q(1, i % 97 + 1) * Q(i % 13, 7)


class SpeedProbe:
    """Context manager sampling the core's speed with ``probe_work``."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.starts: list[float] = []
        self.times: list[float] = []
        self._previous = None

    def _probe(self, _signum, _frame) -> None:
        collecting = gc.isenabled()
        gc.disable()        # a collection would time the program's heap
        start = perf_counter()
        probe_work()
        self.times.append(perf_counter() - start)
        self.starts.append(start)
        if collecting:
            gc.enable()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrected(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` without the probes inside,
        at the speed of an uncontended core."""
        at = self.starts
        inside = self.times[bisect.bisect_left(at, start):
                            bisect.bisect_left(at, end)]
        near = self.times[bisect.bisect_left(at, start - WINDOW_S):
                          bisect.bisect_left(at, end + WINDOW_S)]
        if not near:
            raise ValueError("no speed probe near the interval")
        return (end - start - sum(inside)) * REFERENCE_S \
            / statistics.fmean(near)

    def fast(self) -> float:
        """The fastest tenth's upper edge of the probe times: the
        uncontended probe time, where a run had uncontended stretches."""
        return statistics.quantiles(self.times, n=10)[0]

    def slowdown(self) -> float:
        """Mean probe time over the reference: the run's mean slowdown."""
        return statistics.fmean(self.times) / REFERENCE_S
