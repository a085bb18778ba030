"""Machine-speed calibration of the timed figures.

The 2-vCPU virtual machines this benchmark was built on share their physical
cores with other tenants, and their speed drifts over seconds to minutes: a
fixed Python loop ran 33-49 ms (median per 5-second window) within 100
seconds, and whole 25-second tagging runs of identical code differed by 28%
in words per second. A median over rounds inside one run cannot remove a drift
that lasts longer than the run.

So each timed block runs under a Timer: every SLICE_EVERY_S a SIGALRM handler
runs a fixed slice of a reference loop, which runs no memtag code, and times
it. The block's own time is its wall time minus the slices, and the figure
reported is that time scaled by REFERENCE_SLICE_S / (mean slice time):
seconds at the reference speed. The slices sample the machine's speed evenly
over the block, while it runs, so a slow stretch stretches both alike. A
change to memtag moves the scaled figure as it moves the wall time. The raw
times are reported beside the scaled ones.
"""

from __future__ import annotations

import signal
import time

SLICE_EVERY_S = 0.025
SLICE_LOOP = 10_000
REFERENCE_SLICE_S = 0.0016  # median slice time on the reference machine (README)


def _loop(n: int) -> dict[int, int]:
    table: dict[int, int] = {}
    for i in range(n):
        key = i & 4095
        table[key] = table.get(key, 0) + i
    return table


class Timer:
    """Times a `with` block; afterwards `raw_s` is its wall time without the
    calibration slices and `scaled_s` that time at the reference speed.
    Entered again, a Timer adds the new block to what it holds, so blocks
    shorter than one slice interval can be timed as one sum."""

    def __init__(self) -> None:
        self._slices = 0
        self._slice_s = 0.0
        self.raw_s = 0.0

    def __enter__(self) -> "Timer":
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, SLICE_EVERY_S, SLICE_EVERY_S)
        self._entry_slice_s = self._slice_s
        self._t0 = time.perf_counter()
        return self

    def _slice(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _loop(SLICE_LOOP)
        self._slice_s += time.perf_counter() - t0
        self._slices += 1

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        wall = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.raw_s += wall - (self._slice_s - self._entry_slice_s)

    @property
    def scaled_s(self) -> float:
        if not self._slices:  # blocks shorter than one interval
            self._slice()
        return self.raw_s * self._slices * REFERENCE_SLICE_S / self._slice_s
