"""Host speed tracking, so that host times do not follow the host's state.

The benchmark was calibrated on a shared virtual machine with 2 Xeon vCPUs
at 2.1 GHz.  That machine switches every one to twenty seconds between a
fast and a slow state: the same interpreted code runs about 1.7x slower in
the slow state (HiGHS about 1.4x), and the share of time in each state
drifts over minutes.  Averaging longer does not remove that: ten 20-second
runs of swim-day-delay spread by 22% (IQR over median) in raw wall time.

:class:`HostSpeed` samples a fixed pure-Python probe (benchmark code, not
program code) between the program's steps, at most every
:data:`PROBE_EVERY_S`, and cuts the run into segments between samples.
Each segment's raw time is divided by the segment's slowness, the mean of
its two bracketing samples over :data:`PROBE_REF_S`.  The result is host
time at the reference speed, in seconds.  Over ten seeds on that machine
the wall-time spread fell from 35% to 4% on swim-day-delay and from 12% to
2% on serve-day.  A long C-level call (block-1000's 2-3 s HiGHS solves) is
bracketed only by the samples around it, and the LP slows less than the
probe, so block-1000 keeps much of its spread (8-25% over ten seeds), which
is why BENCHMARK.json does not list it.
"""

from __future__ import annotations

import gc
import time
from typing import List, Tuple

#: probe duration at the reference speed (the fast state of the machine
#: described above); normalised times are seconds at this speed
PROBE_REF_S = 100e-6
#: minimum host time between two probe samples
PROBE_EVERY_S = 0.1
#: probe kernel repeats per sample (the fastest is kept)
PROBE_REPEATS = 3

_clock = time.perf_counter


def _kernel() -> dict:
    table: dict = {}
    for i in range(1200):
        table[i & 127] = table.get(i & 127, 0) + i
    return table


def probe() -> float:
    """Seconds the probe kernel takes now (fastest of a few, GC paused)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            t0 = _clock()
            _kernel()
            best = min(best, _clock() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


class HostSpeed:
    """Segments of host time, each with the host's slowness during it.

    Create it right before the timed region (it samples once), call
    :meth:`maybe_mark` between steps and :meth:`mark` at the end.  Probe
    time is excluded from every segment.
    """

    def __init__(self) -> None:
        #: (raw seconds, slowness) per closed segment
        self.segments: List[Tuple[float, float]] = []
        self._slowness = probe() / PROBE_REF_S
        self._start = _clock()

    @property
    def segment(self) -> int:
        """Index of the segment now open."""
        return len(self.segments)

    def mark(self) -> None:
        """Close the open segment with a fresh sample."""
        end = _clock()
        slowness = probe() / PROBE_REF_S
        self.segments.append((end - self._start, (self._slowness + slowness) / 2))
        self._slowness = slowness
        self._start = _clock()

    def maybe_mark(self) -> None:
        """Close the open segment if it has lasted :data:`PROBE_EVERY_S`."""
        if _clock() - self._start >= PROBE_EVERY_S:
            self.mark()

    @property
    def raw_s(self) -> float:
        """Host seconds in closed segments."""
        return sum(raw for raw, _ in self.segments)

    @property
    def normalized_s(self) -> float:
        """Host seconds in closed segments, at the reference speed."""
        return sum(raw / slow for raw, slow in self.segments)

    def normalize(self, seconds: float, segment: int) -> float:
        """``seconds`` measured inside ``segment``, at the reference speed."""
        return seconds / self.segments[segment][1]
