"""Host-speed probe: how much slower than when quiet the machine runs, moment by moment.

On a shared machine the same call can take 1.3 to 2.4 times as long for
seconds or minutes at a time, because other tenants compete for the
core.  Such a phase can cover a whole run, so no statistic over the
run's own op times can see past it.  The probe measures the machine
instead: an interval timer interrupts the benchmark every `INTERVAL`
seconds, and the signal handler times a fixed pure-Python kernel.  The
kernel's time at a moment over `QUIET_KERNEL_S`, its time on a quiet
host, is the slowdown at that moment.  An op's time divided by the
slowdown measured while it ran is its time on a quiet host.

`QUIET_KERNEL_S` is a constant rather than the fastest kernel time of
the run: that fastest time moved by +-5% from process to process, and
the metrics with it.  On another machine the constant is off by a fixed
factor, which scales every metric alike and cancels out of comparisons
made there.

The handler's own time is kept in `spent`, so callers subtract it from
the interval they time.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL = 0.01
# Short ops take the slowdown of every sample within this many seconds of them.
WINDOW = 0.02
# The kernel's time on a quiet host: its fastest call in a 30 s run on a
# 2-core Xeon with Python 3.11.7 ranged from 63 to 71 us over 12 runs.
QUIET_KERNEL_S = 65e-6


def _ring(n: int) -> list[set]:
    """A fixed graph on n vertices: each joined to three others."""
    ring = [set() for _ in range(n)]
    for v in range(n):
        for u in (v * 7 + 3, v * 13 + 5, v + 1):
            u %= n
            if u != v:
                ring[v].add(u)
                ring[u].add(v)
    return ring


_RING = _ring(40)


def _kernel() -> int:
    """Breadth-first search over a fixed 40-vertex graph of sets, from five
    sources: the dict and set work most of widthlab's own code does."""
    total = 0
    for s in range(0, 40, 8):
        dist, frontier = {s: 0}, [s]
        while frontier:
            step = []
            for v in frontier:
                for u in _RING[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        step.append(u)
            frontier = step
        total += sum(dist.values())
    return total


class SpeedProbe:
    """Kernel samples of one run: when each began and how long it took."""

    def __init__(self):
        self.stamps: list[float] = []
        self.costs: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.stamps.append(t0)
        self.costs.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time over the quiet time, from the samples within
        WINDOW of [start, end], or the nearest ones if there are none."""
        window = WINDOW
        while True:
            lo = bisect.bisect_left(self.stamps, start - window)
            hi = bisect.bisect_right(self.stamps, end + window)
            if lo < hi:
                return sum(self.costs[lo:hi]) / (hi - lo) / QUIET_KERNEL_S
            if not self.stamps:
                raise ValueError("the host-speed probe took no sample")
            window *= 2
