"""A clock for the timed part that takes host-speed swings out.

On a shared host the speed of a vCPU swings by a third, within seconds
and over minutes, and CPU time swings with it.  Raw wall times of the
same work then spread by 10-30% between runs, and longer runs do not
average that away.  HostClock samples the host's speed while the work
runs: every PERIOD_S a SIGALRM handler times a fixed reference loop.
Time spent in the handler is left out of every interval read off the
clock, and the mean time of the reference loop over an interval gives
the factor that rescales that interval to a host on which the loop
takes REF_S.  A call shorter than the sampling period borrows the
samples within WINDOW_S of it.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.02
WINDOW_S = 0.5
# Time of reference_loop on a 2-vCPU Intel Xeon VM with Python 3.11; it
# only sets the scale on which rescaled times are read.
REF_S = 0.0004


def reference_loop() -> float:
    """Seconds taken by fixed work of the kind the searches do: big-int
    arithmetic, int.to_bytes over the result, and dict stores."""
    t0 = time.perf_counter()
    table = {}
    s = 0x1F3A5C7E9B2D4F6081
    for i in range(300):
        s = (s * 0x9E3779B1 + i) & ((1 << 160) - 1)
        table[s & 0xFFFFF] = i
        for byte in s.to_bytes(20, "little")[:4]:
            s ^= byte << (i % 64)
    return time.perf_counter() - t0


class HostClock:
    """perf_counter minus the time spent sampling, while in a with block."""

    def __init__(self) -> None:
        self.times: list[float] = []  # clock reading at each sample
        self.samples: list[float] = []  # reference_loop seconds
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.times.append(t0 - self.spent)
        self.samples.append(reference_loop())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> HostClock:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> float:
        """Seconds not spent sampling; retried if a sample lands inside."""
        while True:
            spent = self.spent
            t = time.perf_counter()
            if spent == self.spent:
                return t - spent

    def scale(self, t0: float = float("-inf"), t1: float = float("inf")) -> float:
        """Factor from the host's speed between clock readings t0 and t1
        (widened by WINDOW_S; the whole block by default) to REF_S."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        window = self.samples[lo:hi] or self.samples
        return REF_S / statistics.fmean(window) if window else 1.0
