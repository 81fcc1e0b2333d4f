"""Host-speed normalisation: times in seconds at a fixed reference speed.

The machine the benchmark runs on (a few vCPUs of a shared host) changes
speed by up to 1.9x within a minute, for minutes at a time, and the CPU time
of a process changes with it.  A round therefore samples the host's speed
while it runs: every INTERVAL_S of wall time a SIGALRM handler runs a fixed
piece of pure-Python work, the reference unit, and records how long it
took.  Each timed interval (set-up, or one command) is then reported as

    normalised = raw * REF_UNIT_S / (median unit time in and near it)

where raw leaves out the handler's own time, so that a host running at half
speed doubles both and the ratio stays.  The unit resembles flagchern's own
work (exact Fraction arithmetic, small int tuples as dict keys); it is
benchmark code, so no change to flagchern changes it.  REF_UNIT_S is a fixed
constant, the unit's median time on the machine the benchmark was set on, so
normalised times read close to that machine's seconds.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

REF_UNIT_S = 0.0012
INTERVAL_S = 0.05
# samples this close to an interval also count, so that a command shorter
# than INTERVAL_S still has some
WINDOW_S = 0.5


def unit() -> int:
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 300):
        acc += Fraction(i % 13 - 6, i % 7 + 1)
        key = (i % 17, i % 5, i % 3)
        table[key] = table.get(key, 0) + i * (i + 1)
    return acc.numerator + len(table)


class Sampler:
    """Runs the reference unit every INTERVAL_S seconds between start and stop.

    Python runs the handler in the main thread between bytecodes, so the
    unit interrupts whatever the round is doing and takes the same share of
    every command.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def _handler(self, signum, frame) -> None:
        # a collection the unit's allocations set off would sweep the
        # round's whole heap and charge it to the unit
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        unit()
        self.samples.append((t0, perf_counter() - t0))
        if collecting:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalise(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw, normalised) seconds of the interval from t0 to t1."""
        raw = t1 - t0 - sum(d for s, d in self.samples if t0 <= s < t1)
        near = [d for s, d in self.samples
                if t0 - WINDOW_S <= s < t1 + WINDOW_S]
        if not near:
            raise RuntimeError("no speed sample near a timed interval")
        return raw, raw * REF_UNIT_S / statistics.median(near)

    def unit_times(self) -> list[float]:
        return [d for _, d in self.samples]
