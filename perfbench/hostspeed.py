"""Host-speed calibration: converts measured host seconds into
reference-host seconds.

The hosts this benchmark runs on are shared: the same simulation job,
run back to back, takes anywhere from 0.12 s to 0.28 s as neighbours
load the machine, and CPU time swings with wall time, so the slowdown
is in the processor, not in scheduling.  The swings last seconds, long
enough to move a whole 20-second sweep.

A fixed pure-Python probe (:func:`probe`) is therefore run every
:data:`INTERVAL_S` seconds while a pass runs.  The probe is benchmark
code that no change to ``src/repro`` touches, so its duration tracks
only the host's speed at that moment.  A measured interval is scaled by
``REFERENCE_S / probe duration`` nearby (:meth:`Calibration.scaled`),
and the probe's own run time is excluded.  A slower program still
reads slower; a slower host does not.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List, Sequence, Tuple

#: Probe iterations: about 5 ms on the reference host.
PROBE_ITERATIONS = 10_000

#: The probe's median duration on the reference host (2-CPU x86-64 VM,
#: CPython 3.11.7).  Scaled seconds are seconds at that speed.
REFERENCE_S = 0.005

#: Gap between probes while a pass runs.
INTERVAL_S = 0.1


def probe(n: int = PROBE_ITERATIONS) -> Tuple[float, float]:
    """Run the fixed probe; return its ``(start, end)`` perf-counter
    stamps.  An LCG drives a small direct-mapped tag dict and a
    histogram: integer arithmetic, dict and list traffic in the same mix
    as the simulator's miss path."""
    x = 12345
    tags = {}
    hist = [0] * 64
    hits = 0
    start = time.perf_counter()
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        b = (x >> 7) & 4095
        s = b & 511
        if tags.get(s) == b:
            hits += 1
        else:
            tags[s] = b
        hist[b & 63] += 1
    return start, time.perf_counter()


class Probes:
    """Collects probe windows during one pass (child side).

    While running, an interval timer fires every :data:`INTERVAL_S`
    seconds and its signal handler runs one probe, so probes land inside
    long simulation calls too.  The handler runs between bytecodes of
    the main thread and touches no program state.
    """

    def __init__(self) -> None:
        self.windows: List[Tuple[float, float]] = []

    def take(self, *_signal) -> None:
        self.windows.append(probe())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Calibration:
    """Scales intervals of one pass by the host speed around them."""

    def __init__(self, windows: Sequence[Sequence[float]]) -> None:
        if not windows:
            raise ValueError("a pass must record at least one probe")
        self.windows = sorted((float(a), float(b)) for a, b in windows)
        self.starts = [a for a, _ in self.windows]
        self.factors = [REFERENCE_S / (b - a) for a, b in self.windows]

    def _factor_between(self, i: int) -> float:
        """Speed factor for the gap after window ``i`` (mean of the two
        probes that bracket it; the edge probe alone at either end)."""
        if i < 0:
            return self.factors[0]
        if i + 1 >= len(self.factors):
            return self.factors[-1]
        return (self.factors[i] + self.factors[i + 1]) / 2

    def scaled(self, a: float, b: float) -> float:
        """Reference-host seconds of the work done in ``[a, b]``,
        probe windows excluded."""
        if b <= a:
            return 0.0
        total = 0.0
        i = bisect.bisect_right(self.starts, a) - 1
        while True:
            gap_start = self.windows[i][1] if i >= 0 else float("-inf")
            gap_end = self.windows[i + 1][0] if i + 1 < len(self.windows) else float("inf")
            lo, hi = max(a, gap_start), min(b, gap_end)
            if hi > lo:
                total += (hi - lo) * self._factor_between(i)
            if gap_end >= b:
                return total
            i += 1
