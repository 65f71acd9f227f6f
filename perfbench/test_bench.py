"""Tests of the benchmark's own arithmetic (not part of the package's suite).

    python3 -m pytest perfbench/test_bench.py
"""

import math
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import child  # noqa: E402
from run import import_times  # noqa: E402
from stats import median, percentile, spread, tail, worsening  # noqa: E402
from tracing import Layers, Tracer, install, per_layer_metrics  # noqa: E402

import gpspectra  # noqa: E402
import gpspectra.cli  # noqa: E402


def test_median_only_below_forty_samples():
    assert tail([float(i) for i in range(1, 40)]) is None
    # 40 samples leave exactly ten beyond the 75th percentile
    assert tail([float(i) for i in range(1, 41)]) == (75.0, 30.0)


def test_tail_picks_highest_percentile_with_ten_samples_beyond():
    values = [float(i) for i in range(1, 1001)]
    p, value = tail(values)
    assert p == 99.0  # 1000 * 1% = 10 samples beyond; 99.9% would leave 1
    assert value == 990.0
    p, _ = tail(values[:500])
    assert p == 98.0  # 500 * 2% = 10
    p, _ = tail(values[:100])
    assert p == 90.0


def test_failures_sort_last_in_percentiles():
    values = [1.0, 2.0, math.inf, 3.0]
    assert percentile(values, 100) == math.inf
    assert percentile(values, 50) == 2.0
    assert median([1.0, 2.0, 3.0, math.inf, math.inf]) == 3.0


def test_spread_is_quartile_distance_over_median():
    values = [float(v) for v in range(1, 11)]
    # statistics.quantiles (exclusive method): q1 = 2.75, q3 = 8.25, median 5.5
    assert spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_worsening_respects_direction():
    assert worsening([10.0, 10.0], [11.0, 11.0], "lower") == pytest.approx(0.1)
    assert worsening([10.0, 10.0], [11.0, 11.0], "higher") == pytest.approx(-0.1)


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_direct_children_only():
    # op [0, 100] > solve [10, 90] > laplace [20, 30], laplace [40, 60]
    tracer = Tracer(clock=FakeClock(0, 10, 20, 30, 40, 60, 90, 100))
    with tracer.span("op", 1):
        with tracer.span("solve.solve_mode"):
            with tracer.span("kernels.laplace", 3):
                pass
            with tracer.span("kernels.laplace", 5):
                pass
    assert tracer.durations() == [100, 80, 10, 20]
    assert tracer.self_times() == [20, 50, 10, 20]
    assert tracer.roots() == [0, 0, 0, 0]
    assert list(tracer.parent) == [-1, 0, 1, 1]


def test_wrapped_function_records_value_and_survives_errors():
    tracer = Tracer(clock=FakeClock(0, 5, 10, 12))

    def boom(kernel, points):
        raise ValueError("no")

    traced = tracer.wrap("kernels.laplace", lambda kernel, points: len(points), lambda a, r: r)
    assert traced(None, [1, 2, 3]) == 3
    with pytest.raises(ValueError):
        tracer.wrap("kernels.laplace", boom, lambda a, r: 1)(None, [1])
    assert list(tracer.value) == [3, 0]
    assert tracer._stack == []


def test_layers_per_mode_divides_by_unit_modes():
    ticks = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]
    tracer = Tracer(clock=FakeClock(*ticks))
    with tracer.span("op", 2):
        for points in (1, 1, 4):
            with tracer.span("kernels.laplace", points):
                pass
    with tracer.span("op", 1):
        with tracer.span("kernels.laplace", 1):
            pass
    with tracer.span("cli.parse_config"):  # not a unit: no modes
        pass
    layers = Layers(tracer, {"op"})
    assert layers.per_mode("kernels.laplace", "calls") == [1.5, 1.0]
    assert layers.per_mode("kernels.laplace", "value") == [3.0, 1.0]
    assert layers.per_mode("real_branches.branch_roots", "calls") == []
    metrics = per_layer_metrics(layers)
    assert metrics["kernels.laplace_calls"] == (1.25, "count")
    assert metrics["real_branches.branch_roots_ms"] == (0.0, "ms")


def test_install_wraps_every_module_holding_the_function():
    original = gpspectra.real_branches.branch_roots
    tracer = Tracer()
    restore = install(tracer)
    try:
        wrapped = gpspectra.real_branches.branch_roots
        assert wrapped is not original
        assert gpspectra.solve.branch_roots is wrapped
        assert gpspectra.branch_roots is wrapped
        assert gpspectra.cli.solve_mode is gpspectra.solve.solve_mode
        with tracer.paused():
            assert gpspectra.solve.branch_roots is original
        assert gpspectra.solve.branch_roots is wrapped
    finally:
        restore()
    assert gpspectra.solve.branch_roots is original
    assert gpspectra.real_branches.branch_roots is original


def test_install_refuses_a_missing_function():
    with pytest.raises(LookupError):
        install(Tracer(), traced=(("gpspectra.kernels", "no_such_function", "kernels.x", None),))


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |     numpy._core
import time:       200 |       1000 |   numpy
import time:        50 |         50 |       scipy._lib
import time:        60 |        300 |     scipy.linalg
import time:        70 |        400 |   scipy.optimize
import time:        30 |         30 |   mpmath
import time:        10 |       1500 | gpspectra
"""


def test_import_times_take_outermost_lines_per_module():
    times = import_times(IMPORTTIME)
    assert times == {
        "package.import_s": 1500e-6,
        "package.import_scipy_s": 400e-6,
        "package.import_mpmath_s": 30e-6,
        "package.import_numpy_s": 1000e-6,
    }


def test_child_run_passes_output_through_and_kills_on_timeout():
    proc = child.run(
        [sys.executable, "-c", "import sys; print('out'); sys.exit(3)"], 60,
        stdout=subprocess.PIPE, text=True,
    )
    assert (proc.returncode, proc.stdout) == (3, "out\n")
    with pytest.raises(subprocess.TimeoutExpired):
        child.run([sys.executable, "-c", "import time; time.sleep(60)"], 0.5)
