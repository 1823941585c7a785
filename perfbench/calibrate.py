"""Calibrated time: timings corrected for the speed the CPU ran at.

On a shared host the same Python code runs up to twice as fast at one moment
as a few seconds later, because the host's other tenants load the physical
core. That swing is larger than any bound a benchmark can hold. So every
timing this benchmark reports is stated in calibrated seconds:

    calibrated = measured * PROBE_NOMINAL_S / probe time measured around it

The probe is a fixed piece of pure-Python work of the kind the package does
(rational arithmetic, tuple keys, dict updates, a sort), and it never calls
the package. While items run, a ``SIGALRM`` timer runs the probe every
``PERIOD_S`` seconds, so a speed reading exists for every moment of a pass,
inside long items too. The time spent in the probe is taken out of the
item's time. Raw wall times stay in the details line of every run.

``PROBE_NOMINAL_S`` is a constant: the probe's median time on the
2-vCPU Intel Xeon (2.1 GHz) KVM guest the benchmark was tuned on. Any
constant would do; this one keeps calibrated seconds close to that
machine's wall seconds.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PROBE_NOMINAL_S = 0.00028
# One probe every PERIOD_S seconds of wall time: about 4 % of the run.
PERIOD_S = 0.008
# A speed reading is the median of at least this many probes.
MIN_PROBES = 15


def probe() -> Fraction:
    """The fixed unit of work whose time measures the CPU's speed."""
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 60):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        key = (i % 13, i % 11)
        table[key] = table.get(key, 0) + i
    sorted(table.items())
    return acc


class Speedometer:
    """Runs the probe on a timer and answers how fast the CPU ran when.

    ``start`` it before the timed work and ``stop`` it after. ``spent`` is
    the total time spent inside probes, to subtract from any interval
    measured while the timer runs.
    """

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        probe()
        t1 = perf_counter()
        self.stamps.append(t1)
        self.times.append(t1 - t0)
        self.spent += perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Calibrated seconds per measured second over ``[start, end]``.

        Uses the probes that ended inside the interval, widened on both
        sides until at least ``MIN_PROBES`` are in it.
        """
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.stamps)):
            lo = max(0, lo - 1)
            hi = min(len(self.stamps), hi + 1)
        return PROBE_NOMINAL_S / statistics.median(self.times[lo:hi])
