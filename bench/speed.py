"""Times normalized by the speed of the machine at the moment of measuring.

On a shared machine the speed of one core drifts by 10-20% over minutes,
and process CPU time drifts with it, so it is the core that runs slower, not
the process that waits.  A run of a few tens of seconds samples one such
stretch.  So the machine's speed is sampled before, during and after every
operation with ``reference()``, a fixed piece of plain-Python quaternion
arithmetic that shares no code with the program, and the operation's time
is scaled by REF_S over the median duration of those samples: a normalized
second is a second on a machine that runs ``reference()`` in REF_S.  Over
20-second windows the normalized times of one classify varied by 2%
(coefficient of variation) where the raw times varied by 11%, on a 2-core
machine shared with other workloads.  Scaling each operation by its own
samples steadied the pass time of catalog-sweep 4x (coefficient of variation
2% against 9% raw), twice as well as scaling the whole run by the median of
all its samples.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

REF_S = 0.012            # nominal duration of one reference() call
REF_ITERATIONS = 6000
SAMPLE_EVERY_S = 0.25    # reference() calls during an operation


class _Q:
    __slots__ = ("t", "x", "y", "z")

    def __init__(self, t, x, y, z):
        self.t, self.x, self.y, self.z = float(t), float(x), float(y), float(z)

    def __mul__(self, o):
        return _Q(self.t * o.t - self.x * o.x - self.y * o.y - self.z * o.z,
                  self.t * o.x + self.x * o.t + self.y * o.z - self.z * o.y,
                  self.t * o.y - self.x * o.z + self.y * o.t + self.z * o.x,
                  self.t * o.z + self.x * o.y - self.y * o.x + self.z * o.t)

    def __add__(self, o):
        return _Q(self.t + o.t, self.x + o.x, self.y + o.y, self.z + o.z)

    def __abs__(self):
        return math.sqrt(self.t * self.t + self.x * self.x + self.y * self.y + self.z * self.z)


def reference():
    """Fixed work of the same kind as the program's: small objects, Hamilton
    products, math calls and dict stores."""
    s = math.sin(0.01)
    acc, step, seen = _Q(1, 0, 0, 0), _Q(math.cos(0.01), 0.5 * s, 0.5 * s, 0.7071 * s), {}
    for k in range(REF_ITERATIONS):
        acc = acc * step + _Q(math.sin(k * 1e-3) * 1e-3, 0, 0, 0)
        seen[k % 7] = abs(acc)
    return seen


class SpeedClock:
    """Times calls and samples the machine's speed around them.

    reference() runs once before and once after each timed call, and every
    SAMPLE_EVERY_S during it from a SIGALRM timer, so that a long call is
    normalized by the speed the machine had while it ran.  The time spent in
    the samples taken during a call is taken out of the call's time.
    """

    def __init__(self):
        self.samples = []   # durations of reference()
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, *_):
        t0 = perf_counter()
        reference()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def time(self, fn):
        """(raw seconds, normalized seconds, fn())."""
        first = len(self.samples)
        self._sample()
        spent = self.spent
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = perf_counter()
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - t0
        raw = elapsed - (self.spent - spent)
        self._sample()
        return raw, raw * REF_S / statistics.median(self.samples[first:]), value
