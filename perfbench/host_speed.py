"""Reference computation that measures the host's current speed.

The shared host this benchmark was built on changes speed by 20-50% for
minutes at a time (other tenants; the process is not descheduled, its CPU
time grows with its wall time), so raw timings of one commit drift far
beyond any useful bound.  Timing :func:`reference` next to each repetition
and dividing by it removes that drift: over an 8-minute window with a
regime change, the per-30-s median of raw repetition times spread 23%, the
median of normalized ones 6%.

The reference is fixed work shaped like the pipeline (small numpy arrays,
record tuples, float formatting and parsing).  It does not touch coopguide,
and it runs with the garbage collector off, so objects that the code under
test keeps alive do not slow its collections.  Process-wide settings the
code under test may change (numpy error or thread settings, interpreter
flags) can still move it; the raw host times stay in the samples as a
cross-check.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

#: Reported times are seconds at the speed at which reference() takes this
#: long (about its time on the development host in a quiet period).
REFERENCE_S = 0.030


def reference(n: int = 3000) -> int:
    rows = []
    p = np.zeros(3)
    for i in range(n):
        v = np.array([math.sin(i * 0.01), math.cos(i * 0.01), 0.5])
        p = p + 0.02 * v
        rows.append(("VIO", i * 0.02, float(p[0]), float(p[1]), float(p[2]),
                     math.atan2(v[1], v[0])))
    text = "\n".join(" ".join(x if isinstance(x, str) else repr(x) for x in r) for r in rows)
    return len([tuple(map(float, line.split()[1:])) for line in text.splitlines()])


def timed_reference() -> float:
    """Seconds one :func:`reference` call takes now, garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def to_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between reference timings ``before`` and ``after``,
    rescaled to the speed at which the reference takes REFERENCE_S."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
