"""A gauge of the machine's speed while an operation runs.

On a shared host the same computation takes up to 2x more CPU time in
spells that last from seconds to minutes, because other tenants contend
for the core, its caches and memory.  The worker therefore times a fixed
probe computation of the benchmark's own (`probe`, ~0.5-1 ms, never touching
pqkanto) around every operation and, through a SIGALRM interval timer,
every PROBE_PERIOD_S inside it.  An operation's cost is its
CPU time, less the probes inside it, divided by the mean probe time around
and inside it; multiplied by REF_PROBE_S it reads as CPU seconds at the
speed of the machine the benchmark was built on (see README, "How the
bounds were set").
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction
from typing import List

# The probe's typical time on the machine the reference figures in the
# README come from (Xeon at 2.0 GHz, 2 vCPUs, Python 3.11.7, numpy 2.4.6).
REF_PROBE_S = 0.0009
PROBE_PERIOD_S = 0.02
BRACKET_PROBES = 3
# the slowest fifth of the probes is dropped: a probe that was preempted
# says nothing about the speed of the core
KEEP_FASTEST = 0.8

_ARRAYS = None


def probe() -> float:
    """CPU seconds of a fixed mix of the kinds of work the operations do:
    interpreter loops, exact Fraction arithmetic, small-array numpy work and
    a pass over every cache line of a 4 MB array, more than the core's L2
    cache holds."""
    global _ARRAYS
    import numpy as np
    if _ARRAYS is None:
        _ARRAYS = np.linspace(0.0, 1.0, 4096), np.linspace(0.0, 1.0, 1 << 19)
    small, large = _ARRAYS
    t0 = time.process_time()
    acc, table = 0.0, {}
    for i in range(600):
        acc += math.sin(i * 1e-3) * 0.5
        table[i % 97] = table.get(i % 97, 0) + i
    exact = Fraction(0)
    for k in range(1, 25):
        exact += Fraction(9, 10) ** k / k
    for _ in range(2):
        acc += float(np.dot(np.sin(np.cumprod(1.0 + 1e-4 * small)), small))
    acc += float(large[::8].sum())  # one value per 64-byte cache line
    return time.process_time() - t0


def bracket() -> List[float]:
    return [probe() for _ in range(BRACKET_PROBES)]


class InsideProbes:
    """Probes taken every PROBE_PERIOD_S of wall time while armed.  A wall
    clock timer, because an armed CPU-time timer (ITIMER_PROF) makes the
    kernel report process CPU time in whole scheduler ticks."""

    def __init__(self):
        self.samples: List[float] = []
        signal.signal(signal.SIGALRM, self._on_signal)

    def _on_signal(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return False


def mean_speed(samples: List[float]) -> float:
    """Mean probe time over the fastest KEEP_FASTEST of the samples."""
    kept = sorted(samples)[:max(1, int(len(samples) * KEEP_FASTEST))]
    return statistics.fmean(kept)


def op_seconds(rounds) -> List[float]:
    """Each operation's cost in reference CPU seconds: the median over the
    rounds of its CPU time over the mean probe time, times REF_PROBE_S."""
    return [REF_PROBE_S * statistics.median(r["ops"][i]["cpu"] / r["ops"][i]["probe_s"]
                                            for r in rounds)
            for i in range(len(rounds[0]["ops"]))]
