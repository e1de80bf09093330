"""Machine speed, measured by a fixed loop timed next to the workload.

On a shared machine the same code runs 20 % or more slower or faster from
one stretch of seconds to the next, and a 20-second run cannot average that
out.  So the benchmark times a fixed pure-Python loop, much like the bit
scans of ``relfrob.rel``, between operations, at most every INTERVAL_S, and
reports each operation's time scaled by NOMINAL_S over the loop's time
around it: the time the operation takes when the loop takes NOMINAL_S.
``run.py`` prints the raw times next to the scaled ones, and ``repeat.py``
records the spreads of both across seeds in the history file, so the gain
from scaling can be read there.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

NOMINAL_S = 0.003  # the loop's time on an idle 2-vCPU Xeon VM is 2.5 to 3.5 ms
INTERVAL_S = 0.1
NEIGHBOURS = 2  # samples taken on each side of an operation

_ROWS = tuple((i * 2654435761 * 0x9E3779B97F4A7C15) & ((1 << 96) - 1) for i in range(64))


def reference_loop() -> int:
    acc = 0
    for _ in range(8):
        for row in _ROWS:
            while row:
                low = row & -row
                acc ^= low.bit_length()
                row ^= low
    return acc


class Speed:
    """Timed samples of the reference loop over one run."""

    def __init__(self):
        self.times: list[float] = []
        self.loop_s: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        reference_loop()
        self.times.append(t0)
        self.loop_s.append(perf_counter() - t0)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the nominal loop time."""
        i = bisect.bisect(self.times, start)
        near = self.loop_s[max(0, i - NEIGHBOURS):i + NEIGHBOURS]
        return seconds * NOMINAL_S / statistics.median(near)

    def describe(self) -> str:
        return (f"reference loop {statistics.median(self.loop_s) * 1e3:.3f} ms median over "
                f"{len(self.loop_s)} samples; times are scaled to {NOMINAL_S * 1e3:g} ms")

    def factor(self) -> float:
        """Nominal over median measured loop time."""
        return NOMINAL_S / statistics.median(self.loop_s)
