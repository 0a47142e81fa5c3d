"""Host speed, measured by a fixed reference kernel timed during the run.

The measured host is shared: other tenants' load changes the speed of the
whole machine by up to 1.7x, for seconds to minutes at a time, and CPU time
tracks wall time, so the slowdown is not scheduling that a CPU clock could
leave out.  A median over a run's repeats cannot absorb a slow spell that
covers the run.

So while a run measures, an interval timer interrupts the main thread every
``INTERVAL_S`` and times one pass of a fixed pure-Python kernel (in the
signal handler: still one thread, one caller).  Each op's time is then
rescaled to the reference speed: measured seconds, less the kernels that ran
inside them, x ``REF_SECONDS`` / (median kernel time within ``WINDOW_S`` of
the op).  The kernel is the benchmark's own code, so a change to vislab
moves the op times and never the kernel.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Kernel time at the reference speed: about its median on a 2-vCPU Intel
# Xeon (CPython 3.11) under light load, so rescaled figures read close to
# that host's own seconds.
REF_SECONDS = 0.0004
INTERVAL_S = 0.02  # one kernel per this much wall time
WINDOW_S = 0.5  # kernels this close to an op rescale it

_SIDE = 6
_N = _SIDE * _SIDE


def _grid_masks(side: int) -> list:
    masks = []
    for v in range(side * side):
        r, c = divmod(v, side)
        m = 0
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            if 0 <= r + dr < side and 0 <= c + dc < side:
                m |= 1 << ((r + dr) * side + c + dc)
        masks.append(m)
    return masks


_ADJ = _grid_masks(_SIDE)
_BLOCKED = tuple(sum(1 << ((7 * i + k) % _N) for i in range(5)) for k in range(2))


def kernel() -> int:
    """Bitmask breadth-first searches on a 6x6 grid: the interpreter work of
    vislab's hot loop (big-int bit tricks, list indexing).  It allocates no
    container, so it never triggers the cyclic garbage collector."""
    adj = _ADJ
    total = 0
    for blocked in _BLOCKED:
        for src in range(_N):
            visited = frontier = 1 << src
            depth = 0
            while frontier:
                m = frontier & ~blocked
                nxt = 0
                while m:
                    low = m & -m
                    nxt |= adj[low.bit_length() - 1]
                    m ^= low
                nxt &= ~visited
                if not nxt:
                    break
                depth += 1
                visited |= nxt
                frontier = nxt
            total += depth + visited.bit_count()
    return total


class HostSpeed:
    """Kernel timings of one run, in time order; use as a context manager."""

    def __init__(self):
        self.starts = []
        self.seconds = []
        self._cumulative = [0.0]
        self._last = (None, 1.0)
        self._previous = None
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a late tick inside a kernel: skip it, keep order
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - t0
        self.seconds.append(seconds)
        self._cumulative.append(self._cumulative[-1] + seconds)
        self.starts.append(t0)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_s(self, start: float, end: float) -> float:
        """Kernel time inside [start, end], an interval in the past."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return self._cumulative[hi] - self._cumulative[lo]

    def slowness(self, start: float, end: float) -> float:
        """Median kernel time within ``WINDOW_S`` of [start, end] over
        ``REF_SECONDS``: above 1 when the host ran slower than reference."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo >= hi:
            raise ValueError("no reference kernel near the measured interval")
        if self._last[0] != (lo, hi):  # consecutive short ops share a window
            self._last = ((lo, hi), statistics.median(self.seconds[lo:hi]) / REF_SECONDS)
        return self._last[1]

    def rescaled(self, start: float, end: float) -> float:
        """[start, end] less its kernels, at the reference speed."""
        return (end - start - self.kernel_s(start, end)) / self.slowness(start, end)

    def median_s(self) -> float:
        return statistics.median(self.seconds)
