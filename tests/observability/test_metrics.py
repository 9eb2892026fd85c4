"""Unit tests for the unified metrics registry."""

import pytest

from repro.observability.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_inc_and_labelled_series(self):
        c = Counter("gae_x_total")
        c.inc()
        c.inc(2.0, site="a")
        c.inc(site="a")
        assert c.value() == 1.0
        assert c.value(site="a") == 3.0
        assert c.total() == 4.0

    def test_counters_only_go_up(self):
        with pytest.raises(ValueError):
            Counter("gae_x_total").inc(-1.0)

    def test_prometheus_lines(self):
        c = Counter("gae_x_total", "things")
        c.inc(site="a", state="run")
        lines = c.prometheus_lines()
        assert "# TYPE gae_x_total counter" in lines
        assert 'gae_x_total{site="a",state="run"} 1' in lines


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("gae_up")
        g.set(1.0, site="a")
        g.inc(site="a")
        g.dec(0.5, site="a")
        assert g.value(site="a") == 1.5

    def test_callable_backed(self):
        backing = {"n": 7}
        g = Gauge("gae_n", fn=lambda: backing["n"])
        assert g.value() == 7.0
        backing["n"] = 9
        assert g.snapshot()["values"][""] == 9.0

    def test_prometheus_lines(self):
        g = Gauge("gae_up")
        g.set(0.0, site="b")
        assert 'gae_up{site="b"} 0' in g.prometheus_lines()

    def test_bound_handle_is_the_same_series(self):
        g = Gauge("gae_depth")
        depth, high = g.bind(pool="p"), Gauge("gae_depth_max").bind(pool="p")
        for _ in range(3):
            high.set_max(depth.inc())
        assert depth.dec() == 2.0
        high.set_max(1.0)  # a high-water mark never falls
        assert (g.value(pool="p"), depth.value(), high.value()) == (2.0, 2.0, 3.0)


class TestHistogram:
    def test_summary_counts_and_percentiles(self):
        h = Histogram("gae_wait_seconds")
        for v in range(1, 101):
            h.observe(float(v), site="a")
        s = h.summary(site="a")
        assert s["count"] == 100.0
        assert s["sum"] == pytest.approx(5050.0)
        assert s["max"] == 100.0
        assert s["p50"] == pytest.approx(50.0, abs=2.0)
        assert s["p99"] == pytest.approx(99.0, abs=2.0)

    def test_reservoir_is_sliding(self):
        h = Histogram("gae_wait_seconds", reservoir_cap=4)
        for v in (1.0, 1.0, 1.0, 100.0, 100.0, 100.0, 100.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 7.0        # counts are exact
        assert s["p50"] == 100.0        # percentiles see the recent window

    def test_unknown_labelset_is_empty(self):
        assert Histogram("gae_x").summary(site="ghost") == {}

    def test_prometheus_summary_lines(self):
        h = Histogram("gae_wait_seconds")
        h.observe(3.0, site="a")
        text = "\n".join(h.prometheus_lines())
        assert "# TYPE gae_wait_seconds summary" in text
        assert 'gae_wait_seconds{quantile="0.5",site="a"} 3' in text
        assert 'gae_wait_seconds_count{site="a"} 1' in text


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        m = MetricsRegistry()
        assert m.counter("gae_a_total") is m.counter("gae_a_total")

    def test_kind_mismatch_raises(self):
        m = MetricsRegistry()
        m.counter("gae_a_total")
        with pytest.raises(ValueError):
            m.gauge("gae_a_total")

    def test_snapshot_and_names(self):
        m = MetricsRegistry()
        m.counter("gae_b_total").inc()
        m.gauge("gae_a").set(2.0)
        assert m.names() == ["gae_a", "gae_b_total"]
        snap = m.snapshot()
        assert snap["gae_b_total"]["kind"] == "counter"
        assert snap["gae_a"]["values"][""] == 2.0

    def test_prometheus_lines_cover_all_instruments(self):
        m = MetricsRegistry()
        m.counter("gae_b_total", "b").inc()
        m.histogram("gae_h", "h").observe(1.0)
        text = "\n".join(m.prometheus_lines())
        assert "gae_b_total 1" in text
        assert "gae_h_sum 1" in text

    def test_get_unknown_is_none(self):
        assert MetricsRegistry().get("nope") is None

    def test_discard_drops_every_series_carrying_the_labels(self):
        m = MetricsRegistry()
        for pool in ("a", "b"):
            m.counter("gae_c_total").inc(pool=pool)
            m.gauge("gae_g").set(1.0, pool=pool, stage="x")
            m.histogram("gae_h").observe(1.0, pool=pool)
        m.counter("gae_other_total").inc(site="a")
        m.discard(pool="a")
        text = "\n".join(m.prometheus_lines())
        assert 'pool="a"' not in text and 'pool="b"' in text
        assert m.counter("gae_other_total").value(site="a") == 1.0
        assert m.names() == ["gae_c_total", "gae_g", "gae_h", "gae_other_total"]
