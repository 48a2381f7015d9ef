"""Host-speed probe, so that times can be stated at one reference speed.

The benchmark runs on a virtual machine whose host flips between a fast
and a slow state, about 1.8 times apart, every few seconds and sometimes
for minutes, longer than a run.  Wall time alone then measures the host
as much as the program.  While a pass runs, a SIGALRM handler times a
small fixed kernel every INTERVAL_S in the same thread, between bytecodes
of whatever job is running, so the kernel sees the same host state as the
job.  A stretch of time is converted to the reference speed by the mean
of REFERENCE_S / (kernel time) over the samples taken in it: the mean of
the speed, not of the kernel time, because time spent at each speed
adds up.  The handler's own time is left out of every timed interval.

The kernel is benchmark code only, so no change to virlog can make it
faster or slower.  It allocates nothing the collector tracks, so it
neither moves the program's collections nor waits for one.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
# the kernel's time in the fast state of the reference machine, a 2-CPU
# Intel Xeon virtual machine running Python 3.11.7
REFERENCE_S = 0.00032

_TABLE = {k: k * 2654435761 % 4294967291 for k in range(256)}


def kernel() -> int:
    """Big-integer arithmetic and dict lookups in an interpreted loop.  It
    makes no object the collector tracks, so it leaves the program's
    collection schedule as it was."""
    acc = 0
    x = 12345678901234567890123
    i = 0
    while i < 1000:
        x = (x * 6364136223846793005 + _TABLE[i & 255]) % 340282366920938463463374607431768211297
        acc ^= x & 0xFFFF
        i += 1
    return acc


class SpeedProbe:
    """Times kernel() every INTERVAL_S while entered as a context manager,
    or on demand with sample().  `samples` holds the kernel times in the
    order taken; `spent` is the seconds all of it took, to be left out of
    any interval it ran inside."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self._previous = None

    def sample(self, count: int = 1) -> None:
        clock = time.perf_counter
        start = clock()
        for _ in range(count):
            t = clock()
            kernel()
            self.samples.append(clock() - t)
        self.spent += clock() - start

    def _tick(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedProbe":
        self.sample()  # so that every stretch from here on has a sample before it
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, first: int = 0, stop: int | None = None) -> float:
        """Mean host speed against the reference over samples[first:stop],
        widened by the sample before and the one after, so that a stretch
        shorter than the interval still gets its neighbours."""
        stop = len(self.samples) if stop is None else stop + 1
        window = self.samples[max(first - 1, 0):stop]
        return statistics.fmean(REFERENCE_S / d for d in window)
