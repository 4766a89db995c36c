"""Host speed: how much slower than a quiet host this one is right now.

On a shared host, neighbours slow every core by up to 2x for seconds to
minutes, far more than the changes the benchmark must resolve.  So the
process doing the work times a fixed pure-Python loop right before each
op (outside the op's latency); the loop's time over ``REFERENCE_LOOP_S``
is the host's slowdown at that moment.  The benchmark reports times at
quiet-host speed: each op's latency, and the stretch of wall time from
its start to the next op's, divided by the slowdown around it.  Raw
figures are printed beside them.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: The loop's time on a quiet 2-core host.
REFERENCE_LOOP_S = 0.0025

#: Loops (one per op) whose median gives the slowdown around an op.
WINDOW = 8


def loop_seconds() -> float:
    """Seconds the fixed loop takes right now."""
    t0 = perf_counter()
    x = 0
    for i in range(40000):
        x += i * i
    return perf_counter() - t0


def slowdown(loops: list[float]) -> float:
    """The slowdown over a whole run."""
    return statistics.median(loops) / REFERENCE_LOOP_S


def slowdowns(loops: list[float]) -> list[float]:
    """The slowdown around each op (its loops in time order)."""
    half = WINDOW // 2
    return [slowdown(loops[max(0, i - half):i + half + 1]) for i in range(len(loops))]
