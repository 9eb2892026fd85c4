"""Unit tests for the telemetry sinks: trace ids, percentiles, the stats view."""

import sys
import threading

import pytest

from repro.clarens.telemetry import CallStats
from repro.observability.metrics import MetricsRegistry, percentile
from repro.observability.tracing import new_trace_id


class TestTraceIds:
    def test_unique_and_nonempty(self):
        ids = {new_trace_id() for _ in range(1000)}
        assert len(ids) == 1000
        assert all(ids)

    def test_no_bang_so_it_fits_the_wire_token(self):
        assert "!" not in new_trace_id()


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_single_sample(self):
        assert percentile([3.0], 0) == 3.0
        assert percentile([3.0], 50) == 3.0
        assert percentile([3.0], 100) == 3.0

    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        assert percentile(samples, 50) == 50
        assert percentile(samples, 95) == 95
        assert percentile(samples, 99) == 99

    def test_unsorted_input(self):
        assert percentile([5.0, 1.0, 3.0], 100) == 5.0


class TestCallStats:
    """The ``system.stats`` view: every number it shows is in the registry."""

    def test_counters_keep_historical_meaning(self):
        stats = CallStats(MetricsRegistry())
        stats.record("a.b", "ok", 1.0)
        stats.record("a.b", "fault", 2.0)
        snap = stats.snapshot()
        assert snap["calls"] == 2
        assert snap["faults"] == 1
        assert snap["per_method"] == {"a.b": 2}

    def test_duration_optional(self):
        stats = CallStats(MetricsRegistry())
        stats.record("a.b")
        assert stats.snapshot()["latency_ms"]["a.b"] == {"count": 1, "faults": 0}

    def test_snapshot_shape(self):
        stats = CallStats(MetricsRegistry())
        for i in range(20):
            stats.record("a.b", "ok", float(i + 1), transport="inproc")
        stats.record("a.b", served_from="cache", transport="inproc")
        snap = stats.snapshot()
        assert set(snap) == {
            "calls", "faults", "per_method", "per_transport", "latency_ms", "served",
        }
        assert snap["calls"] == 21 and isinstance(snap["calls"], int)
        assert snap["per_transport"] == {"inproc": 21}
        assert snap["served"] == {"a.b": {"cache": 1}}
        summary = snap["latency_ms"]["a.b"]
        assert set(summary) == {
            "count", "faults", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms",
        }
        assert summary["count"] == 20 and isinstance(summary["count"], int)
        assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]
        assert summary["max_ms"] == pytest.approx(20.0)
        assert summary["mean_ms"] == pytest.approx(10.5)

    def test_reservoir_caps_memory_but_keeps_counting(self):
        metrics = MetricsRegistry()
        stats = CallStats(metrics)
        for _ in range(2000):
            stats.record("a.b", "ok", 1.0)
        assert stats.snapshot()["latency_ms"]["a.b"]["count"] == 2000
        state = metrics.get("gae_rpc_latency_ms").export_state()
        ((_, series),) = state["series"]
        assert series["count"] == 2000
        assert len(series["samples"]) == state["cap"] == 512

    def test_methods_listing(self):
        stats = CallStats(MetricsRegistry())
        stats.record("b.x", "ok", 1.0)
        stats.record("a.y", "ok", 1.0)
        snap = stats.snapshot()
        assert sorted(snap["per_method"]) == sorted(snap["latency_ms"]) == ["a.y", "b.x"]

    def test_record_is_thread_safe(self):
        """8 threads hammer one view; no update may be lost."""
        metrics = MetricsRegistry()
        stats = CallStats(metrics)
        n_threads, per_thread = 8, 500

        def hammer():
            for _ in range(per_thread):
                stats.record("hot.path", "ok", 0.1)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force interleaving inside record()
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        snap = stats.snapshot()
        assert snap["calls"] == n_threads * per_thread
        assert snap["per_method"]["hot.path"] == n_threads * per_thread
        assert snap["latency_ms"]["hot.path"]["count"] == n_threads * per_thread
        assert metrics.get("gae_rpc_calls_total").total() == n_threads * per_thread
        assert metrics.get("gae_rpc_latency_ms").total_count() == n_threads * per_thread

