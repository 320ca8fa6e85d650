"""Host-speed probe: samples how fast the host runs Python while a pass runs.

A shared host's speed shifts by a quarter or more within seconds as
neighbours come and go, so raw times of identical passes spread too
widely to compare two commits. While a `SpeedProbe` is active, a timer
signal runs a fixed loop every INTERVAL_S seconds of wall time; the
loop does what the simulator's hot paths do (dataclass instances,
Gaussian draws, float maths, a keyed sort). A pass's times are then
scaled by its median loop time over REFERENCE_S, raised to ELASTICITY,
which turns host seconds into seconds at the reference speed. The loop
is benchmark code and does not change with the simulator.

The probe's own time is taken out of every timed region: time regions
with `SpeedProbe.clock`, which stands still while the loop runs.
"""

from __future__ import annotations

import gc
import math
import random
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

INTERVAL_S = 0.025
LOOP_N = 256
# median loop time on the reference host (2-core x86-64 VM, CPython 3.11)
REFERENCE_S = 0.0004
# The simulator's speed moves about three quarters as far as the loop's,
# in log terms: fitted over 53 passes each of dense_broadcast and
# unicast_harq in one 6-minute process on the reference host. With this
# exponent the spread of scaled pass rates was 0.058-0.062 (standard
# deviation / mean), against 0.075-0.080 with 1 and 0.16 unscaled.
ELASTICITY = 0.75


@dataclass
class _Item:
    index: int
    level: float


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._rng = random.Random(1)
        self._previous = None
        self._busy = False

    def _loop(self, signum, frame):
        if self._busy:  # a signal that lands inside the loop itself is dropped
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # a collection of the simulator's heap is not the loop's time
        rng = self._rng
        items = []
        t0 = perf_counter()
        for i in range(LOOP_N):
            item = _Item(i, rng.gauss(0.0, 2.0))
            item.level += math.hypot(item.level, 3.0)
            items.append(item)
        items.sort(key=lambda it: it.level)
        dt = perf_counter() - t0
        if collecting:
            gc.enable()
        self.samples.append(dt)
        self.spent += dt
        self._busy = False

    def clock(self) -> float:
        """Wall seconds minus the probe's own."""
        return perf_counter() - self.spent

    def slowdown(self) -> float:
        """How much slower than the reference the simulator ran since the last call."""
        # a pass lasts far longer than INTERVAL_S; the fallback only guards
        # a pass that somehow ended before the first sample
        loop = statistics.median(self.samples) if self.samples else REFERENCE_S
        self.samples = []
        return (loop / REFERENCE_S) ** ELASTICITY

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._loop)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
