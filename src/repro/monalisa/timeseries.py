"""Append-only time series with window queries.

The repository stores one :class:`TimeSeries` per (farm, metric) pair.
Timestamps must be non-decreasing — monitoring data arrives in clock order
from the simulator — which lets every query run on a sorted list with
binary search.
"""

from __future__ import annotations

import bisect
import math
from typing import List, Optional, Sequence, Tuple


class TimeSeries:
    """A non-decreasing sequence of ``(time, value)`` samples."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._values: List[float] = []

    def __len__(self) -> int:
        return len(self._times)

    def append(self, time: float, value: float) -> None:
        """Add a sample; *time* must not precede the last sample."""
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"out-of-order sample at t={time:.6g} (last was {self._times[-1]:.6g})"
            )
        self._times.append(float(time))
        self._values.append(float(value))

    # ------------------------------------------------------------------
    # point queries
    # ------------------------------------------------------------------
    def latest(self) -> Tuple[float, float]:
        """The most recent ``(time, value)`` (ValueError when empty)."""
        if not self._times:
            raise ValueError("empty time series")
        return self._times[-1], self._values[-1]

    def value_at(self, time: float) -> float:
        """Last value at or before *time* (step interpolation).

        Raises ValueError if *time* precedes every sample.
        """
        i = bisect.bisect_right(self._times, time) - 1
        if i < 0:
            raise ValueError(f"no sample at or before t={time:.6g}")
        return self._values[i]

    # ------------------------------------------------------------------
    # window queries
    # ------------------------------------------------------------------
    def window(self, t0: float, t1: float) -> Tuple[List[float], List[float]]:
        """Samples with ``t0 <= time <= t1`` as (times, values) lists (copies).

        ``-inf`` / ``inf`` leave that end open.  A NaN bound is a
        ValueError: it compares false with every sample, so it would select
        the whole series.
        """
        if math.isnan(t0) or math.isnan(t1):
            raise ValueError(f"window bound is NaN ({t0}, {t1})")
        if t1 < t0:
            raise ValueError(f"t1 < t0 ({t1} < {t0})")
        lo = bisect.bisect_left(self._times, t0)
        hi = bisect.bisect_right(self._times, t1)
        return self._times[lo:hi], self._values[lo:hi]

    def mean(self, t0: Optional[float] = None, t1: Optional[float] = None) -> float:
        """Mean value over a window (whole series by default)."""
        if t0 is None and t1 is None:
            values: Sequence[float] = self._values
        else:
            t0 = self._times[0] if t0 is None else t0
            t1 = self._times[-1] if t1 is None else t1
            _, values = self.window(t0, t1)
        if len(values) == 0:
            raise ValueError("window contains no samples")
        return math.fsum(values) / len(values)

    def max(self) -> float:
        """Largest value seen (ValueError when empty)."""
        if not self._values:
            raise ValueError("empty time series")
        return max(self._values)

    def samples(self) -> List[Tuple[float, float]]:
        """The full series as plain ``(time, value)`` pairs (copies)."""
        return list(zip(self._times, self._values))

    @classmethod
    def from_samples(cls, samples: Sequence[Tuple[float, float]]) -> "TimeSeries":
        """Rebuild a series from :meth:`samples` output."""
        ts = cls()
        for time, value in samples:
            ts.append(time, value)
        return ts
