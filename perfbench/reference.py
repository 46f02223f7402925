"""A fixed pure-Python reference pass that measures the host's current speed.

On a shared host the speed of a core can drift by a third or more over tens
of seconds, so wall time alone does not compare two runs taken minutes
apart.  The benchmark times this pass right before and right after
each operation (and around each set-up probe) and reports every end-to-end
time scaled to the speed at which one pass takes REFERENCE_S seconds:

    scaled = wall * REFERENCE_S / mean(pass before, pass after)

The pass mixes what the interpreter does most in matfor: small-int and float
arithmetic with dict stores and loads, and allocation of objects keyed by
tuples.  It runs with the collector paused, since everything it allocates is
freed by reference counting, so its time does not depend on the heap an
operation left behind.  It never imports matfor and must not change: a new
pass would make every earlier scaled time incomparable.
"""

from __future__ import annotations

import gc
import time

REFERENCE_S = 0.05


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _pass():
    d = {}
    s = 0.0
    for i in range(150000):
        d[i & 1023] = i * 0.5
        s += d[i & 1023]
    memo = {}
    objs = [_Pair(i, float(i)) for i in range(2000)]
    for rep in range(30):
        for o in objs:
            key = (o.a % 499, rep & 1)
            memo[key] = memo.get(key, 0.0) + o.b * 0.5
        s += sum(memo.values())
    return s


def measure():
    """Wall seconds of one reference pass."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _pass()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(wall_s, before_s, after_s):
    """`wall_s` at the reference speed, given the passes around it."""
    return wall_s * REFERENCE_S * 2.0 / (before_s + after_s)
