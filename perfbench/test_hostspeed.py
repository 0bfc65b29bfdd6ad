"""Tests for the host-speed correction (no dependency on the package).

    python3 -m pytest perfbench/test_hostspeed.py -q
"""

import itertools

import pytest

from common import OpLog
from hostspeed import (
    K_NOMINAL_MS,
    WINDOW,
    HostSpeed,
    median_and_spread,
    percentile,
    time_kernel,
)


def _host(kernel_ms):
    """A HostSpeed fed from a list of kernel readings, one per tick."""
    readings = iter(kernel_ms)
    ticks = itertools.count()
    return HostSpeed(kernel=lambda: next(readings), clock=lambda: float(next(ticks)))


@pytest.mark.parametrize("factor", [0.5, 1.0, 1.47, 3.0])
def test_scaling_kernel_and_operation_together_leaves_corrected_value(factor):
    base = [4.0, 4.2, 3.9, 4.1, 4.0, 4.3, 3.8, 4.0, 4.1]
    reference = _host(base)
    scaled = _host([k * factor for k in base])
    for host in (reference, scaled):
        for _ in base:
            host.sample()
    t = 0.250
    assert scaled.correct(t * factor, 4.0) == pytest.approx(reference.correct(t, 4.0))


def test_fixed_wait_in_a_raw_metric_passes_through_unscaled():
    wait = 0.044  # a timer-driven stall: the same on a fast or a slow host
    fast = OpLog(host=_host([2.0] * 9))
    slow = OpLog(host=_host([8.0] * 9))
    for log in (fast, slow):
        for _ in range(9):
            log.host.sample()
        log.record("hit", wait, 4.0 + wait / 2)
    assert fast.p50(["hit"], corrected=False) == pytest.approx(wait * 1000.0)
    assert slow.p50(["hit"], corrected=False) == pytest.approx(wait * 1000.0)
    # the same interval marked corrected would be rescaled by the host
    assert fast.p50(["hit"]) == pytest.approx(wait * 1000.0 * K_NOMINAL_MS / 2.0)
    assert slow.p50(["hit"]) == pytest.approx(wait * 1000.0 * K_NOMINAL_MS / 8.0)


def test_local_speed_is_the_median_of_the_nearest_window():
    # one outlier sample in the middle of the window does not move K_local
    readings = [4.0] * 4 + [40.0] + [4.0] * 4 + [8.0] * 9
    host = _host(readings)
    for _ in readings:
        host.sample()
    assert host.local_ms(4.0) == 4.0
    # far from the outlier the window follows the slow stretch
    assert host.local_ms(17.0) == 8.0


def test_window_is_clamped_at_the_ends_of_the_run():
    assert WINDOW == 3
    host = _host([1.0, 2.0, 3.0, 4.0, 5.0])
    for _ in range(5):
        host.sample()
    assert host.local_ms(-10.0) == 2.0  # samples 0..2
    assert host.local_ms(99.0) == 4.0  # samples 2..4


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        _host([]).local_ms(0.0)


def test_p90_needs_ten_samples_beyond_it():
    assert percentile(list(range(99)), 0.9) is None
    assert percentile(list(range(100)), 0.9) == 89
    assert percentile(list(range(100)), 0.5) == 49


def test_spread_is_interquartile_over_median():
    med, spread = median_and_spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert med == 3.0
    assert spread == pytest.approx((4.5 - 1.5) / 3.0)


def test_kernel_runs_with_the_collector_off_and_restores_it():
    import gc

    assert gc.isenabled()
    assert time_kernel() > 0
    assert gc.isenabled()
