"""Run time counted in reference loops timed during the run.

The benchmark's host runs at two speeds about 1.6 times apart, switching
every few seconds to minutes as other tenants load it (NOTES.md).  Wall
and CPU time follow the host, so ``RefClock`` also times a fixed loop of
pure Python (``reference``, which uses no localfloer code) every
``INTERVAL_S`` seconds from a SIGALRM handler in the measured process.
Each stretch of the program's run between two samples is divided by the
loop time measured next to it, and the sum is the run's length in
reference loops: the number of reference loops that would have run in
its place at the speeds the host had at the time.  The handler's own
time is taken out of the program's time.
"""
from __future__ import annotations

import signal
import statistics
import time
from array import array
from typing import List, Sequence, Tuple

INTERVAL_S = 0.01
# samples kept: 5 minutes at INTERVAL_S, beyond the 170 s a child may run
MAX_SAMPLES = 1 << 15
REFERENCE_ITERATIONS = 1500
# each sample's loop time is the median of this many neighbouring samples,
# so that an interrupt landing in one loop does not count as a slow host
SMOOTH = 5


def reference() -> int:
    s = 0
    for i in range(REFERENCE_ITERATIONS):
        s += i * i
    return s


def ref_units(t0: float, t1: float, samples: Sequence[Tuple[float, float]]) -> float:
    """Length of the program's time in [t0, t1] in reference loops.

    ``samples`` are (start, duration) of the reference loops run inside
    the interval; their own time is not the program's.  A stretch is
    divided by the smoothed loop time of the sample that ends it; the
    stretch after the last sample by that of the last sample.
    """
    if not samples:
        raise ValueError("no reference sample in the interval")
    durs = [d for _, d in samples]
    half = SMOOTH // 2
    units = 0.0
    prev = t0
    for i, (start, dur) in enumerate(samples):
        ref = statistics.median(durs[max(0, i - half): i + half + 1])
        units += (start - prev) / ref
        prev = start + dur
    return units + (t1 - prev) / ref


class RefClock:
    """Samples ``reference`` every ``INTERVAL_S`` s between start and stop.

    The handler writes into a buffer allocated up front and creates no
    object the garbage collector tracks, so that sampling does not move
    the program's collections and with them its peak RSS.
    """

    def __init__(self, capacity: int = MAX_SAMPLES):
        self._buf = array("d", [0.0]) * (2 * capacity)  # (start, duration) pairs
        self._cap = capacity
        self._n = 0
        self._old = None

    def _handler(self, signum, frame):
        n = self._n
        if n < self._cap:
            t = time.perf_counter()
            reference()
            self._buf[2 * n + 1] = time.perf_counter() - t
            self._buf[2 * n] = t
            self._n = n + 1

    def start(self) -> None:
        self._n = 0
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        if not self._n:  # a run shorter than one interval
            self._handler(None, None)

    @property
    def samples(self) -> List[Tuple[float, float]]:
        """(start, duration) of every reference loop run."""
        b = self._buf
        return [(b[2 * i], b[2 * i + 1]) for i in range(self._n)]

    @property
    def spent(self) -> float:
        """Time spent in the reference loops."""
        return sum(self._buf[1: 2 * self._n: 2])

    @property
    def median_loop(self) -> float:
        return statistics.median(self._buf[1: 2 * self._n: 2])
