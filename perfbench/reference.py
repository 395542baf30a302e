"""The reference loop: the unit of the benchmark's gated latency metrics.

The machine this benchmark was built on drifts in speed by up to 2x over
seconds, with other tenants' load.  Timing a fixed loop between ops and
dividing each op's latency by the median loop time of the WINDOW samples
around its end gives the op's cost in reference units, which drifts far
less; see README.md.
"""

import bisect
import gc
import math
import statistics
import time


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def reference_loop():
    """Fixed pure-Python work in the library's style (small slotted objects,
    tuples, dict updates, modular arithmetic), independent of nil2q.  It
    frees all it allocates and runs with the cyclic collector paused, so
    the garbage an op leaves cannot change its time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen = {}
        for i in range(4000):
            p = _Point(i % 97, (i * 31) % 89)
            key = tuple((x * 7 + 3) % 101 for x in (p.a, p.b, i & 63))
            seen[key] = seen.get(key, 0) + 1
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Reference:
    """Reference times, each stamped with the perf_counter it ended at."""

    EVERY_S = 0.25
    WINDOW = 6

    def __init__(self, loop=reference_loop):
        self.loop = loop
        self.times = []
        self.values = []
        self._last = -math.inf

    def add(self, value):
        self._last = time.perf_counter()
        self.times.append(self._last)
        self.values.append(value)

    def sample(self, force=False):
        """Time the loop here, unless it ran less than EVERY_S ago."""
        if force or time.perf_counter() - self._last >= self.EVERY_S:
            self.add(self.loop())

    def around(self, t):
        i = bisect.bisect_left(self.times, t)
        half = self.WINDOW // 2
        lo = max(0, min(i - half, len(self.values) - self.WINDOW))
        return statistics.median(self.values[lo:lo + self.WINDOW])
