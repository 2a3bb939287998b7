"""Machine-speed gauge: a fixed piece of work timed next to the commands.

Other tenants of the benchmark machine slow its cores by up to 1.6x, in
stretches that last from seconds to minutes (README.md, "Machine
noise").  That slowdown is common to everything that runs meanwhile, so
the benchmark times a fixed canary of its own, a pure-Python loop plus
small numpy operations, between commands.  A latency is scaled by
``NOMINAL_S`` over the median canary time within ``WINDOW_S`` of it.
That turns it into seconds at the machine's quiet speed.  The canary is
benchmark code, so it is identical on every commit that is compared.
"""
import bisect
import statistics
import time

import numpy as np

# Canary time on the quiet machine: the 10th percentile of 300 canaries on
# 2 cores of an Intel Xeon, Python 3.11.7, numpy 2.4.6.
NOMINAL_S = 0.0116
# A canary runs before a command once this long has passed since the last.
EVERY_S = 0.25
# Canaries this close to a command's start or end scale its latency.
WINDOW_S = 1.0

_MATRIX = np.random.default_rng(0).random((200, 200))


def canary() -> float:
    """Time a fixed mix of interpreter and small-array numpy work."""
    start = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    for _ in range(100):
        b = np.exp(_MATRIX)
        b /= b.sum(axis=1)[:, None]
    return time.perf_counter() - start


class Gauge:
    """Canary times along the run, and the speed factor they imply."""

    def __init__(self):
        self.times = []
        self.values = []

    def sample(self) -> None:
        self.times.append(time.perf_counter())
        self.values.append(canary())

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the median canary within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return NOMINAL_S / statistics.median(self.values[lo:hi])
