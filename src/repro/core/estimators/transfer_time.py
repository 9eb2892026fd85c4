"""The File Transfer Time Estimator (§6.3).

"For transfer time estimation, we first determine the bandwidth between the
client and the Clarens server using iperf, and then using this bandwidth
and the file size, we calculate the transfer time."

The estimator probes the (simulated) network with an
:class:`~repro.gridsim.network.IperfProbe` and predicts
``size / measured_bandwidth``.  Repeated probes can be smoothed to damp
measurement noise; the prediction can be compared with the network model's
ground-truth transfer time in tests and benchmarks.

Probing is the expensive part — a real iperf run ties up the path for
seconds — so measured bandwidths can be **memoized per (src, dst) pair
with TTL invalidation**: pass ``cache_ttl_s`` (and a ``clock``) and
repeated estimates inside the TTL reuse the cached bandwidth instead of
re-probing.  The steering optimizer compares many candidate files/sites per
decision, so this takes the probe count per decision from O(files) to
O(distinct pairs).

>>> from repro.gridsim.network import IperfProbe, Link, Network
>>> net = Network()
>>> net.add_link(Link("client", "server", capacity_mbps=800.0))
>>> probe = IperfProbe(net, noise_sigma=0.0)
>>> est = TransferTimeEstimator(probe)
>>> est.estimate("client", "server", 100.0).transfer_time_s  # 100 MB at 800 Mbps
1.0

With memoization, the second estimate reuses the first probe's bandwidth:

>>> ticks = iter(range(100))
>>> cached = TransferTimeEstimator(probe, cache_ttl_s=60.0,
...                                clock=lambda: float(next(ticks)))
>>> _ = cached.estimate("client", "server", 100.0)
>>> _ = cached.estimate("client", "server", 200.0)
>>> (cached.cache_stats.hits, cached.cache_stats.misses)
(1, 1)
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.declare import encode
from repro.gridsim.network import IperfProbe
from repro.gridsim.storage import ReplicaCatalog


@dataclass(frozen=True)
class TransferEstimate:
    """A transfer-time prediction plus the bandwidth that produced it."""

    src: str
    dst: str
    size_mb: float
    bandwidth_mbps: float
    transfer_time_s: float


@dataclass
class BandwidthCacheStats:
    """Hit/miss/eviction counters for the memoized bandwidth cache."""

    hits: int = 0
    misses: int = 0
    expirations: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return encode(self)


class TransferTimeEstimator:
    """iperf-probe-based file transfer prediction."""

    def __init__(
        self,
        probe: IperfProbe,
        smoothing_window: int = 1,
        cache_ttl_s: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
        cache_max_pairs: int = 1024,
    ) -> None:
        """``smoothing_window`` > 1 averages that many probe measurements
        per estimate (more probe traffic, steadier predictions).

        ``cache_ttl_s`` enables per-pair bandwidth memoization: a pair
        probed less than that many seconds ago (by ``clock``, default
        ``time.monotonic`` — pass the simulation clock when estimating
        under simulated time) is answered from cache.  ``None`` (default)
        probes on every estimate, the original behaviour.

        ``cache_max_pairs`` bounds the memo: beyond that many (src, dst)
        pairs the least-recently-used entry is evicted (counted in
        ``cache_stats.evictions``), so a grid with many sites cannot grow
        the memo without bound.
        """
        if smoothing_window < 1:
            raise ValueError(f"smoothing_window must be >= 1, got {smoothing_window}")
        if cache_ttl_s is not None and cache_ttl_s <= 0:
            raise ValueError(f"cache_ttl_s must be positive, got {cache_ttl_s}")
        if cache_max_pairs < 1:
            raise ValueError(f"cache_max_pairs must be positive, got {cache_max_pairs}")
        self.probe = probe
        self.smoothing_window = smoothing_window
        self.cache_ttl_s = cache_ttl_s
        self.cache_max_pairs = cache_max_pairs
        self.clock = clock
        self.cache_stats = BandwidthCacheStats()
        self._bandwidth_cache: "OrderedDict[Tuple[str, str], Tuple[float, float]]" = (
            OrderedDict()
        )

    def _now(self) -> float:
        return float(self.clock()) if self.clock is not None else time.monotonic()

    def _probe_bandwidth(self, src: str, dst: str) -> float:
        if self.smoothing_window == 1:
            return self.probe.measure(src, dst).measured_mbps
        return self.probe.smoothed_mbps(src, dst, window=self.smoothing_window)

    def measure_bandwidth(self, src: str, dst: str) -> float:
        """The (possibly smoothed, possibly memoized) bandwidth in Mbit/s."""
        if self.cache_ttl_s is None:
            return self._probe_bandwidth(src, dst)
        key = (src, dst)
        now = self._now()
        cached = self._bandwidth_cache.get(key)
        if cached is not None:
            bandwidth, measured_at = cached
            if now - measured_at < self.cache_ttl_s:
                self.cache_stats.hits += 1
                self._bandwidth_cache.move_to_end(key)
                return bandwidth
            self.cache_stats.expirations += 1
        self.cache_stats.misses += 1
        bandwidth = self._probe_bandwidth(src, dst)
        self._bandwidth_cache[key] = (bandwidth, now)
        self._bandwidth_cache.move_to_end(key)
        while len(self._bandwidth_cache) > self.cache_max_pairs:
            self._bandwidth_cache.popitem(last=False)
            self.cache_stats.evictions += 1
        return bandwidth

    def export_cache_state(self) -> Dict[str, object]:
        """The memo and its counters, JSON-serializable, for checkpointing.

        A restored estimator must answer ``system.observability`` (which
        exposes the counters as metrics) and re-probe exactly as the
        original would have — so both the entries (with their insertion
        order and timestamps) and the statistics travel.
        """
        return {
            "entries": [
                [src, dst, bandwidth, measured_at]
                for (src, dst), (bandwidth, measured_at)
                in self._bandwidth_cache.items()
            ],
            "stats": self.cache_stats.as_dict(),
        }

    def import_cache_state(self, state: Dict[str, object]) -> None:
        """Restore the memo written by :meth:`export_cache_state`."""
        self._bandwidth_cache.clear()
        for src, dst, bandwidth, measured_at in state["entries"]:  # type: ignore[union-attr]
            self._bandwidth_cache[(src, dst)] = (float(bandwidth), float(measured_at))
        stats = state["stats"]  # type: ignore[index]
        self.cache_stats = BandwidthCacheStats(**{
            key: int(stats[key]) for key in ("hits", "misses", "expirations", "evictions")
        })

    def invalidate(self, src: Optional[str] = None, dst: Optional[str] = None) -> int:
        """Drop cached bandwidths (all, or those touching the named sites).

        Returns the number of entries dropped.  Call after a known network
        event (link change, weather step) to force fresh probes early.
        """
        if src is None and dst is None:
            dropped = len(self._bandwidth_cache)
            self._bandwidth_cache.clear()
            return dropped
        doomed = [
            key for key in self._bandwidth_cache
            if (src is not None and src in key) or (dst is not None and dst in key)
        ]
        for key in doomed:
            del self._bandwidth_cache[key]
        return len(doomed)

    def estimate(self, src: str, dst: str, size_mb: float) -> TransferEstimate:
        """Predict the transfer time of *size_mb* megabytes src → dst."""
        if size_mb < 0:
            raise ValueError(f"size must be non-negative, got {size_mb}")
        if src == dst or size_mb == 0.0:
            return TransferEstimate(
                src=src, dst=dst, size_mb=size_mb, bandwidth_mbps=float("inf"),
                transfer_time_s=0.0,
            )
        bw = self.measure_bandwidth(src, dst)
        seconds = 0.0 if bw == float("inf") else (size_mb * 8.0) / bw
        return TransferEstimate(
            src=src, dst=dst, size_mb=size_mb, bandwidth_mbps=bw, transfer_time_s=seconds
        )

    def estimate_stage_in(
        self, catalog: ReplicaCatalog, file_names: List[str], to_site: str
    ) -> float:
        """Predicted total time to pull the named files to *to_site*.

        Each file is fetched from its closest replica; local replicas are
        free.  Files with no replica anywhere (not-yet-produced DAG
        intermediates) contribute nothing.  This is the "file transfer
        time" term of the optimizer's expected execution time (§4.2.2).
        """
        from repro.gridsim.storage import StorageError

        total = 0.0
        for name in file_names:
            try:
                src = catalog.closest_replica(name, to_site)
            except StorageError:
                continue
            if src == to_site:
                continue
            total += self.estimate(src, to_site, catalog.lookup(name).size_mb).transfer_time_s
        return total
