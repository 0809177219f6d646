"""A fixed piece of interpreted Python that measures how fast the machine runs right now.

On a shared host the same op can take 50% longer for seconds or minutes at a
time, because other tenants contend for the cores and caches.  A worker runs
the probe right after each timed op, and the benchmark divides the op's time
by the probe's time in the same moment, so that a run on a slow stretch of
the host and a run on a fast one report closer program speeds.  The probe
tracks the host only in part: on a 2-vCPU VM it about halved the spread of
median op times between runs, and a probe that added dense LU solves and
memory-bound gathers tracked the ops worse.  A change to ``lue`` cannot move
the probe.
"""

from __future__ import annotations

import statistics
import time

# About the probe's median time on a 2-vCPU Intel Xeon VM, so that scaled
# times read close to measured ones there.  It is the unit of the scaled
# times: changing it rescales every result.
REFERENCE_S = 0.009


def probe() -> float:
    """Seconds taken by one pass of the reference loop."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(40_000):
        total += i * i
        table[i & 1023] = (total, i)
    return time.perf_counter() - start


def probe_for(seconds: float) -> list[float]:
    """Probe times, repeated until they add up to ``seconds`` and number at least 3."""
    times: list[float] = []
    while len(times) < 3 or sum(times) < seconds:
        times.append(probe())
    return times


def scaled(seconds: float, probe_times) -> float:
    """``seconds`` at the speed at which one probe pass takes REFERENCE_S."""
    return seconds * REFERENCE_S / statistics.median(probe_times)
