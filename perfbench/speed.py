"""How fast the machine runs at each moment of a run.

The machine the benchmark was tuned on (2 vCPU Xeon, Python 3.11.7) is
shared.  For spells of milliseconds to minutes all code on it runs up to
1.8x slower, wall and CPU time alike, and the share of slow time drifts
over minutes: identical runs of corpus_cli differed by 1.8x within three
minutes.  So untraced runs sample a fixed piece of stdlib work, independent
of quadalg, every ``INTERVAL_S`` from a timer signal, also while a case
runs.  A case's slowdown is the mean time of the samples around it over the
sample's time on the idle machine; run.py divides the case's time by it.
On 45 corpus_cli cycles this took the quartile spread of cycle time from
0.24 to 0.04.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
# samples this far before and after a case also count for it, so that a
# short case has several
WINDOW_S = 0.25
# seconds of one probe() on the tuned machine when nothing else runs on it;
# a constant, so that times keep their scale
IDLE_S = 0.0005


def probe() -> float:
    """Seconds of fixed work like an exact elimination: Fraction arithmetic
    and dict updates.  The garbage collector is held off meanwhile: a
    collection that the program's own allocations made due would otherwise
    fall into the probe and time the program's heap, not the machine."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    row: dict = {}
    acc = Fraction(0)
    for i in range(1, 100):
        f = Fraction(i % 7 - 3, i % 11 + 1)
        acc += f * f
        key = (i % 13, i % 5)
        row[key] = row.get(key, 0) + f
    took = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return took


def slowdown(repeat: int = 10) -> float:
    """How many times slower than idle the machine runs right now."""
    return sum(probe() for _ in range(repeat)) / repeat / IDLE_S


class Meter:
    """Samples probe() from a SIGALRM handler while active.  ``spent`` is
    the time the samples took, to be taken out of the cases they fell in."""

    def __init__(self):
        self.stamps: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        self.times.append(probe())
        self.stamps.append(t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> Meter:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown of the samples from WINDOW_S before start to
        WINDOW_S after end, or of the nearest sample if none fell there."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        window = self.times[lo:hi] or self.times[max(0, lo - 1):lo + 1]
        return sum(window) / len(window) / IDLE_S
