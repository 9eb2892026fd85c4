"""The noise filter: identical units of work, a low order statistic per unit.

On a shared VM interference only ever *adds* time.  So every timing is
taken from identical units of work repeated R times: a cycle position is
replayed once per cycle, ``q_i`` is the **second-smallest** of its
samples (the smallest could be a clock glitch; the second needs two
quiet moments in the run), and a cycle's time is the sum of its ``q_i``.
All samples are wall-clock seconds as ``time.perf_counter`` read them;
nothing is scaled.

The filter also removes the program's own periodic stalls (a gen-2
garbage collection lands in perhaps one sample in ten of a position), so
the unfiltered view of the same samples is reported beside it
(``raw_metrics``).
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Sequence


def second_smallest(samples: Sequence[float]) -> float:
    """The second-smallest sample (the only one, if there is just one)."""
    if not samples:
        raise ValueError("no samples")
    return sorted(samples)[min(1, len(samples) - 1)]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of *values*."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def position_estimates(samples_by_position: Sequence[Sequence[float]]) -> List[float]:
    """``q_i``: the second-smallest sample of each cycle position."""
    return [second_smallest(samples) for samples in samples_by_position]


def filtered_metrics(
    samples_by_position: Sequence[Sequence[float]], calls_per_op: int
) -> Dict[str, float]:
    """``calls_per_s``, ``p50_ms`` and ``p99_ms`` from per-position samples."""
    q = position_estimates(samples_by_position)
    return {
        "calls_per_s": len(q) * calls_per_op / sum(q),
        "p50_ms": percentile(q, 50.0) * 1000.0,
        "p99_ms": percentile(q, 99.0) * 1000.0,
    }


def raw_metrics(
    samples_by_position: Sequence[Sequence[float]], calls_per_op: int
) -> Dict[str, float]:
    """The unfiltered view of the same run: the rate over the time spent
    in operations and pooled percentiles of every sample."""
    pooled: List[float] = [x for samples in samples_by_position for x in samples]
    return {
        "raw.calls_per_s": len(pooled) * calls_per_op / sum(pooled),
        "raw.p50_ms": percentile(pooled, 50.0) * 1000.0,
        "raw.p99_ms": percentile(pooled, 99.0) * 1000.0,
    }


def unit_minima(builds: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Each set-up phase is a unit: its minimum over the builds.
    ``setup_s`` is the sum of these."""
    return {unit: min(build[unit] for build in builds) for unit in builds[0]}


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (the driver's measure)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ----------------------------------------------------------------------
# the VM's state, for the record (never part of a gated number)
# ----------------------------------------------------------------------
_KERNEL_ITEMS = list(range(8000))


def kernel_us(repeats: int = 15) -> List[float]:
    """Wall time in microseconds of a fixed pure-Python loop, *repeats*
    times.  Run between cycles, with no call in flight, it records how
    fast the core was; the program shares no code with it."""
    readings = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for item in _KERNEL_ITEMS:
            total += item
        readings.append((time.perf_counter() - start) * 1e6)
    return readings
