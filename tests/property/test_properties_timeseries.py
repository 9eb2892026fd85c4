"""Property-based tests: time-series query invariants."""

from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.monalisa.timeseries import TimeSeries
from tests.monalisa.test_timeseries import as_arrays

samples = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    ),
    min_size=1,
    max_size=50,
)


def build(sample_list):
    ts = TimeSeries()
    for t, v in sorted(sample_list, key=lambda p: p[0]):
        ts.append(t, v)
    return ts


class TestTimeSeriesProperties:
    @given(samples)
    def test_window_covers_everything(self, pts):
        ts = build(pts)
        times, values = as_arrays(ts)
        wt, wv = ts.window(float(times.min()), float(times.max()))
        assert len(wt) == len(times)

    @given(samples, st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_value_at_is_last_at_or_before(self, pts, query):
        ts = build(pts)
        times, values = as_arrays(ts)
        eligible = [(t, v) for t, v in zip(times, values) if t <= query]
        if not eligible:
            try:
                ts.value_at(query)
                assert False
            except ValueError:
                return
        assert ts.value_at(query) == eligible[-1][1]

    @given(samples)
    def test_mean_matches_numpy(self, pts):
        ts = build(pts)
        _, values = as_arrays(ts)
        assert abs(ts.mean() - float(np.mean(values))) < 1e-9 * max(
            1.0, abs(float(np.mean(values)))
        )

    @given(samples)
    def test_mean_is_the_exact_mean_rounded(self, pts):
        # fsum rounds the sum once and the division once: within an ulp.
        ts = build(pts)
        exact = sum(Fraction(v) for _, v in pts) / len(pts)
        assert abs(ts.mean() - float(exact)) <= 2.0**-52 * abs(float(exact))

    @given(samples)
    def test_latest_is_max_time(self, pts):
        ts = build(pts)
        t, _ = ts.latest()
        times, _ = as_arrays(ts)
        assert t == float(times.max())

    @given(samples, samples)
    def test_windows_partition(self, a, b):
        ts = build(a + b)
        times, _ = as_arrays(ts)
        lo, hi = float(times.min()), float(times.max())
        if lo == hi:
            return  # degenerate: no strictly-after-mid window exists
        mid = (lo + hi) / 2
        left, _ = ts.window(lo, mid)
        right, _ = ts.window(np.nextafter(mid, hi), hi)
        assert len(left) + len(right) == len(times)
