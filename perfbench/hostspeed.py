"""Host-speed correction: a fixed reference kernel and the smoothing rule.

The machines this benchmark runs on change speed by up to ~1.5x over tens
of seconds, and CPU time drifts with wall time, so neither removes the
drift.  Instead the benchmark samples a fixed pure-Python kernel between
timed operations and reports every CPU-bound interval ``t`` as::

    t * K_NOMINAL_MS / K_local

where ``K_local`` is the median of the kernel samples nearest to the
interval (:meth:`HostSpeed.factor_at`).  A host running 20% slow makes
both the operation and the kernel 20% slower, so the ratio cancels.

The kernel imports nothing from the program under test and runs with the
garbage collector disabled: a collection landing inside a sample would
charge the program's heap to the host.  Single samples are noisy, so the
correction always uses the median of several neighbours, never one.

This module has no dependency on ``repro`` and is tested on its own
(``test_hostspeed.py``).
"""

from __future__ import annotations

import bisect
import gc
import math
import os
import statistics
import time
from typing import Callable, List, Optional, Sequence, Tuple

#: the kernel's duration on the reference host, in milliseconds.  It only
#: fixes the scale of corrected values; changing it rescales every
#: corrected metric, so it is a constant of the benchmark definition.
K_NOMINAL_MS = 4.0

#: neighbouring samples whose median gives ``K_local``
WINDOW = 3


def reference_kernel(rounds: int = 400) -> int:
    """A fixed slice of interpreter work: calls, dicts, tuples, strings.

    The mix resembles what the compiler does per node (attribute-free
    dict/tuple churn, small-int arithmetic, short string building) so
    that host slowdowns hit kernel and workload alike.
    """
    acc = 0
    table = {}
    for i in range(rounds):
        key = ("n", i & 63)
        table[key] = table.get(key, 0) + i
        parts = [str(j) for j in range(i & 7)]
        acc += len("-".join(parts))
        acc ^= _mix(i, acc)
        items = sorted(table.items(), key=_second)[:4]
        acc += len(items)
    return acc


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


def _second(item: Tuple[object, int]) -> int:
    return item[1]


def time_kernel(clock: Callable[[], float] = time.perf_counter) -> float:
    """One kernel sample in milliseconds, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        reference_kernel()
        return (clock() - start) * 1000.0
    finally:
        if enabled:
            gc.enable()


def time_kernel_per_cpu() -> float:
    """Mean of one kernel sample on each CPU this process may use.

    For work spread over several processes (a daemon and its pool
    workers), which run wherever the scheduler puts them: each CPU of a
    shared host slows down on its own.  Pins only the calling thread,
    and restores its affinity.
    """
    cpus = sorted(os.sched_getaffinity(0))
    try:
        samples = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            samples.append(time_kernel())
    finally:
        os.sched_setaffinity(0, set(cpus))
    return statistics.mean(samples)


class HostSpeed:
    """Kernel samples stamped with the time they were taken.

    ``sample()`` is called at quiet points of a workload: between timed
    operations, or between request rounds when nothing is in flight.
    ``correct(t, at)`` rescales an interval taken around time ``at`` by
    the median of the :data:`WINDOW` samples nearest to ``at``.
    ``kernel`` and ``clock`` are replaceable so tests can feed readings.
    """

    def __init__(
        self,
        kernel: Callable[[], float] = time_kernel,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self._kernel = kernel
        self._clock = clock
        self.stamps: List[float] = []
        self.samples_ms: List[float] = []

    def sample(self) -> float:
        value = self._kernel()
        self.stamps.append(self._clock())
        self.samples_ms.append(value)
        return value

    def local_ms(self, at: float) -> float:
        """Median of the :data:`WINDOW` samples taken nearest to time ``at``."""
        if not self.samples_ms:
            raise ValueError("no kernel samples taken")
        n = len(self.samples_ms)
        k = min(WINDOW, n)
        centre = bisect.bisect_left(self.stamps, at)
        lo = max(0, min(centre - k // 2, n - k))
        return statistics.median(self.samples_ms[lo : lo + k])

    def factor_at(self, at: float) -> float:
        """``K_nominal / K_local`` around time ``at``."""
        return K_NOMINAL_MS / self.local_ms(at)

    def correct(self, seconds: float, at: float) -> float:
        return seconds * self.factor_at(at)

    def summary(self) -> Tuple[float, float]:
        """(median kernel ms, inter-quartile spread as a share of it)."""
        return median_and_spread(self.samples_ms)


def median_and_spread(values: Sequence[float]) -> Tuple[float, float]:
    if not values:
        return 0.0, 0.0
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-quantile (0..1) by nearest rank, or ``None`` when fewer
    than ten samples lie beyond it (too few to report that percentile)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    if q > 0.5 and len(ordered) - 1 - rank < 10:
        return None
    return ordered[rank]
