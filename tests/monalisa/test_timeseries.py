"""Unit tests for the monitoring time series."""

import numpy as np
import pytest

from repro.monalisa.timeseries import TimeSeries


def as_arrays(series):
    """The full series as (times, values) numpy arrays (copies)."""
    times, values = series.window(float("-inf"), float("inf"))
    return np.asarray(times, dtype=float), np.asarray(values, dtype=float)


@pytest.fixture
def series():
    ts = TimeSeries()
    for t, v in [(0.0, 1.0), (10.0, 2.0), (20.0, 3.0), (30.0, 2.5)]:
        ts.append(t, v)
    return ts


class TestAppend:
    def test_length(self, series):
        assert len(series) == 4

    def test_out_of_order_rejected(self, series):
        with pytest.raises(ValueError):
            series.append(25.0, 1.0)

    def test_equal_time_allowed(self, series):
        series.append(30.0, 9.0)
        assert series.latest() == (30.0, 9.0)


class TestPointQueries:
    def test_latest(self, series):
        assert series.latest() == (30.0, 2.5)

    def test_latest_empty_raises(self):
        with pytest.raises(ValueError):
            TimeSeries().latest()

    def test_value_at_exact_sample(self, series):
        assert series.value_at(10.0) == 2.0

    def test_value_at_between_samples_steps(self, series):
        assert series.value_at(15.0) == 2.0

    def test_value_at_after_last(self, series):
        assert series.value_at(100.0) == 2.5

    def test_value_at_before_first_raises(self, series):
        with pytest.raises(ValueError):
            series.value_at(-1.0)


class TestWindowQueries:
    def test_window_inclusive(self, series):
        times, values = series.window(10.0, 20.0)
        assert list(times) == [10.0, 20.0]
        assert list(values) == [2.0, 3.0]

    def test_window_empty(self, series):
        times, values = series.window(11.0, 19.0)
        assert len(times) == 0

    @pytest.mark.parametrize(
        "t0, t1", [(float("nan"), 3.0), (1.0, float("nan")), (float("nan"), float("nan"))]
    )
    def test_a_nan_bound_raises(self, series, t0, t1):
        # NaN compares false with every sample: it would select them all.
        with pytest.raises(ValueError, match="NaN"):
            series.window(t0, t1)
        with pytest.raises(ValueError, match="NaN"):
            series.mean(t0, t1)

    def test_infinite_bounds_leave_the_window_open(self, series):
        times, _ = series.window(float("-inf"), 10.0)
        assert list(times) == [0.0, 10.0]
        times, _ = series.window(15.0, float("inf"))
        assert list(times) == [20.0, 30.0]
        assert series.window(float("-inf"), float("inf"))[0] == [t for t, _ in series.samples()]

    def test_window_backwards_raises(self, series):
        with pytest.raises(ValueError):
            series.window(20.0, 10.0)

    def test_mean_whole_series(self, series):
        assert series.mean() == 2.125 == np.mean([1.0, 2.0, 3.0, 2.5])

    def test_mean_window(self, series):
        assert series.mean(10.0, 20.0) == pytest.approx(2.5)

    def test_mean_empty_window_raises(self, series):
        with pytest.raises(ValueError):
            series.mean(11.0, 19.0)

    def test_max(self, series):
        assert series.max() == 3.0

    def test_windows_and_samples_are_copies(self, series):
        times, values = series.window(float("-inf"), float("inf"))
        times[0] = values[0] = -999.0
        series.samples()[0] = (-999.0, -999.0)
        assert series.latest() == (30.0, 2.5)
        assert series.samples()[0] == (0.0, 1.0)
