"""Timing at a fixed reference speed.

A shared 2-vCPU VM changes speed by up to 1.7x for stretches of seconds
to minutes, longer than a run lasts.  So besides each timed call the
clock measures, every ``BURST_EVERY`` seconds, a short fixed pure-Python
burst that shares no code with toricvol.  A call's time is rescaled by ``REFERENCE_S`` over the median
burst time around it: the figures read as if the machine had run at the
speed it had when ``REFERENCE_S`` was taken.  A change to toricvol moves
its calls and not the bursts, so it shows in full; a change of machine
speed moves both and cancels.  The raw times are kept as well.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

# Median burst time on a 2-vCPU x86-64 VM, Python 3.11.7, in its fast phases.
REFERENCE_S = 0.00033
BURST_EVERY = 0.05
BURST_TERMS = 60


def burst() -> int:
    """Small-fraction arithmetic of a fixed amount, like the program's own."""
    count = 0
    for i in range(BURST_TERMS):
        a = Fraction(i % 13 + 1, i % 7 + 2) + Fraction(i % 5 + 1, i % 11 + 3)
        if a * 3 > Fraction(i % 4 + 2, 1):
            count += 1
    return count


class Clock:
    """Times calls and keeps the burst timeline used to rescale them."""

    def __init__(self):
        self.burst_mid: list[float] = []
        self.burst_s: list[float] = []
        self._last = float("-inf")

    def _burst(self) -> None:
        start = perf_counter()
        burst()
        end = perf_counter()
        self.burst_mid.append((start + end) / 2)
        self.burst_s.append(end - start)
        self._last = end

    def call(self, fn, *args):
        """Run fn(*args); returns (result, start, end).  Exceptions propagate."""
        if perf_counter() - self._last >= BURST_EVERY:
            self._burst()
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            end = perf_counter()
            if end - start >= BURST_EVERY:
                self._burst()
        return result, start, end

    def scaled(self, start: float, end: float) -> float:
        """The interval's length at the reference speed.

        The speed is the median of the two bursts before the interval and
        the two after it (fewer at the ends of the run).
        """
        lo = bisect.bisect_left(self.burst_mid, start)
        hi = bisect.bisect_right(self.burst_mid, end)
        nearby = self.burst_s[max(0, lo - 2) : lo] + self.burst_s[hi : hi + 2]
        return (end - start) * REFERENCE_S / statistics.median(nearby)
