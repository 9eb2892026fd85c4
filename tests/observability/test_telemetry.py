"""Unit tests for the windowed telemetry pipeline."""

import json

import pytest

from repro.gridsim.clock import Simulator
from repro.observability.export import validate_export_file
from repro.events.journal import EventJournal, EventType
from repro.observability.health import HealthEngine
from repro.observability.metrics import MetricsRegistry
from repro.observability.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    TelemetryPipeline,
    WindowSeries,
    reduce_values,
)

from tests.property.test_properties_telemetry import (
    derive_window_series,
    windows_from_events,
)

SCHEMA = "docs/schemas/telemetry_export.schema.json"


def make_pipeline(window_s=10.0, retain=64, start=0.0):
    """A pipeline closing its windows into a health engine, as the
    instrumentation builds it; with no rules, the engine stays silent."""
    sim = Simulator(start=start)
    metrics = MetricsRegistry()
    journal = EventJournal(lambda: sim.now)
    pipe = TelemetryPipeline(sim, metrics, window_s=window_s, retain=retain)
    HealthEngine(pipe, journal, rules=())
    journal.sink = pipe.count
    return sim, metrics, journal, pipe


class TestReducers:
    def test_each_reducer(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0]
        assert reduce_values(values, "last") == 5.0
        assert reduce_values(values, "sum") == 14.0
        assert reduce_values(values, "mean") == pytest.approx(2.8)
        assert reduce_values(values, "min") == 1.0
        assert reduce_values(values, "max") == 5.0
        assert reduce_values(values, "delta") == 2.0
        assert reduce_values(values, "p50") == 3.0

    def test_empty_is_none(self):
        assert reduce_values([], "sum") is None

    def test_unknown_reducer_raises(self):
        with pytest.raises(ValueError, match="unknown reducer"):
            reduce_values([1.0], "median")


class TestWindowSeries:
    def test_rejects_out_of_order(self):
        s = WindowSeries("x", "journal", 10.0, 4)
        s.append(10.0, 1.0)
        with pytest.raises(ValueError, match="out-of-order"):
            s.append(5.0, 2.0)

    def test_ring_bounded(self):
        s = WindowSeries("x", "journal", 10.0, 3)
        for i in range(10):
            s.append(10.0 * i, float(i))
        assert len(s) == 3
        assert s.samples() == [(70.0, 7.0), (80.0, 8.0), (90.0, 9.0)]


class TestJournalWindows:
    def test_count_rate_total_per_window(self):
        sim, _, journal, pipe = make_pipeline(window_s=10.0)
        pipe.start()
        journal.record(EventType.SUBMITTED, "t1", time=1.0)
        journal.record(EventType.SUBMITTED, "t2", time=2.0)
        sim.at(14.0, lambda: journal.record(EventType.COMPLETED, "t1"))
        sim.run_until(30.0)
        assert pipe.windows_closed == 3
        assert pipe.series("journal.submitted.count").samples() == [
            (10.0, 2.0), (20.0, 0.0), (30.0, 0.0),
        ]
        assert pipe.series("journal.submitted.rate").samples()[0] == (10.0, 0.2)
        assert pipe.series("journal.submitted.total").samples() == [
            (10.0, 2.0), (20.0, 2.0), (30.0, 2.0),
        ]
        # completed first appears in window 2: its series starts there.
        assert pipe.series("journal.completed.count").samples() == [
            (20.0, 1.0), (30.0, 0.0),
        ]

    def test_boundary_event_lands_in_next_window(self):
        sim, _, journal, pipe = make_pipeline(window_s=10.0)
        pipe.start()
        journal.record(EventType.SUBMITTED, "t1", time=10.0)  # exactly at t=10
        sim.run_until(20.0)
        assert pipe.series("journal.submitted.count").samples() == [(20.0, 1.0)]

    def test_offline_recompute_matches(self):
        sim, _, journal, pipe = make_pipeline(window_s=5.0)
        pipe.start()
        for t in (0.5, 1.0, 6.0, 6.5, 12.0):
            sim.at(t, lambda: journal.record(EventType.SUBMITTED, "t"))
        sim.run_until(15.0)
        recomputed = windows_from_events(
            journal.events(), pipe.boundaries(), pipe.origin
        )
        assert recomputed["submitted"] == [(5.0, 2), (10.0, 2), (15.0, 1)]
        assert pipe.series("journal.submitted.count").samples() == [
            (t, float(v)) for t, v in recomputed["submitted"]
        ]


class TestMetricWindows:
    def test_counter_total_and_rate(self):
        sim, metrics, _, pipe = make_pipeline(window_s=10.0)
        c = metrics.counter("calls")
        pipe.start()
        sim.at(3.0, lambda: c.inc(4))
        sim.at(13.0, lambda: c.inc(6))
        sim.run_until(20.0)
        assert pipe.series("metric.calls.total").samples() == [
            (0.0, 0.0), (10.0, 4.0), (20.0, 10.0),
        ]
        assert pipe.series("metric.calls.rate").samples() == [
            (10.0, 0.4), (20.0, 0.6),
        ]

    def test_gauge_value_and_delta(self):
        sim, metrics, _, pipe = make_pipeline(window_s=10.0)
        g = metrics.gauge("depth")
        g.set(5.0)
        pipe.start()
        sim.at(4.0, lambda: g.set(8.0))
        sim.run_until(20.0)
        assert pipe.series("metric.depth.value").samples() == [
            (0.0, 5.0), (10.0, 8.0), (20.0, 8.0),
        ]
        assert pipe.series("metric.depth.delta").samples() == [
            (10.0, 3.0), (20.0, 0.0),
        ]

    def test_histogram_percentiles(self):
        sim, metrics, _, pipe = make_pipeline(window_s=10.0)
        h = metrics.histogram("lat")
        pipe.start()
        sim.at(2.0, lambda: [h.observe(v) for v in (1.0, 2.0, 3.0)])
        sim.run_until(10.0)
        assert pipe.series("metric.lat.count").samples()[-1] == (10.0, 3.0)
        assert pipe.series("metric.lat.p50").samples()[-1][1] == 2.0

    def test_streamed_matches_derive_window_series(self):
        sim, metrics, _, pipe = make_pipeline(window_s=10.0)
        c = metrics.counter("calls")
        pipe.start()
        for t, n in ((1.0, 2), (11.0, 5), (21.0, 1)):
            sim.at(t, lambda n=n: c.inc(n))
        sim.run_until(40.0)
        raw = pipe.series("metric.calls.total").samples()
        assert pipe.series("metric.calls.rate").samples() == (
            derive_window_series(raw, "counter", 10.0)
        )


class TestLifecycle:
    def test_start_idempotent(self):
        sim, _, _, pipe = make_pipeline(window_s=10.0)
        pipe.start()
        pipe.start()
        sim.run_until(10.0)
        assert pipe.windows_closed == 1

    def test_restart_keeps_boundary_alignment(self):
        sim, _, _, pipe = make_pipeline(window_s=10.0)
        pipe.start()
        sim.run_until(10.0)
        pipe.stop()
        sim.run_until(14.0)
        pipe.start()  # re-arms for the t=20 boundary, not t=24
        sim.run_until(30.0)
        assert pipe.boundaries() == [10.0, 20.0, 30.0]

    def test_value_reducer_window(self):
        sim, _, journal, pipe = make_pipeline(window_s=10.0)
        pipe.start()
        for t in (1.0, 11.0, 12.0, 21.0):
            sim.at(t, lambda: journal.record(EventType.SUBMITTED, "t"))
        sim.run_until(30.0)
        assert pipe.value("journal.submitted.count", "sum", 2) == 3.0
        assert pipe.value("journal.submitted.count", "max", None) == 2.0
        assert pipe.value("journal.nope.count", "sum", 1) is None


class TestExport:
    def test_jsonl_schema_valid(self, tmp_path):
        sim, metrics, journal, pipe = make_pipeline(window_s=10.0)
        metrics.counter("calls").inc(3)
        pipe.start()
        journal.record(EventType.SUBMITTED, "t1", time=1.0)
        sim.run_until(20.0)
        out = tmp_path / "telemetry.jsonl"
        rows = pipe.export_jsonl(out)
        lines = out.read_text().splitlines()
        assert rows == len(lines)
        meta = json.loads(lines[0])
        assert meta["schema"] == TELEMETRY_SCHEMA_VERSION
        validate_export_file(out, SCHEMA)


class TestStateRoundTrip:
    def drive(self, pipe, sim, journal, until):
        t = 1.0
        while t < until:
            if t > sim.now:
                sim.run_until(t)
            journal.record(EventType.SUBMITTED, "t", time=t)
            t += 7.0
        sim.run_until(until)

    def test_resume_is_gap_free(self):
        # Uninterrupted run ...
        sim_a, _, journal_a, pipe_a = make_pipeline(window_s=10.0)
        pipe_a.start()
        self.drive(pipe_a, sim_a, journal_a, 100.0)

        # ... versus export at t=35 and resume on a fresh pipeline.
        sim_b, _, journal_b, pipe_b = make_pipeline(window_s=10.0)
        pipe_b.start()
        self.drive(pipe_b, sim_b, journal_b, 35.0)
        state = pipe_b.export_state()

        sim_c, metrics_c, journal_c, pipe_c = make_pipeline(
            window_s=10.0, start=35.0
        )
        pipe_c.import_state(state)
        pipe_c.start()
        t = 36.0  # continue the same cadence (1, 8, 15, ... 29, 36, ...)
        while t < 100.0:
            if t > sim_c.now:
                sim_c.run_until(t)
            journal_c.record(EventType.SUBMITTED, "t", time=t)
            t += 7.0
        sim_c.run_until(100.0)

        assert pipe_c.windows_closed == pipe_a.windows_closed
        assert pipe_c.boundaries() == pipe_a.boundaries()
        for name in pipe_a.names():
            if not name.startswith("journal."):
                continue
            assert pipe_c.series(name).samples() == (
                pipe_a.series(name).samples()
            ), name

    def test_barrier_ahead_of_a_boundary_tick_keeps_that_window(self):
        # A barrier scheduled before start() runs ahead of the t=20 tick:
        # the window ending at 20 is still open when the state is taken.
        sim_a, _, _, pipe_a = make_pipeline(window_s=10.0)
        pipe_a.start()
        sim_a.run_until(40.0)

        sim_b, _, _, pipe_b = make_pipeline(window_s=10.0)
        taken = []
        sim_b.at(20.0, lambda: taken.append(pipe_b.export_state()))
        pipe_b.start()
        sim_b.run_until(20.0)
        assert pipe_b.boundaries() == [10.0, 20.0]  # the tick ran after it
        sim_c, _, _, pipe_c = make_pipeline(window_s=10.0, start=20.0)
        pipe_c.import_state(taken[0])
        pipe_c.start()
        sim_c.run_until(40.0)

        assert pipe_a.boundaries() == [10.0, 20.0, 30.0, 40.0]
        assert pipe_c.boundaries() == pipe_a.boundaries()
        assert pipe_c.windows_closed == pipe_a.windows_closed


class TestCheckpointResume:
    def test_restored_gae_resumes_windows_without_gaps(self, tmp_path):
        from repro.cli import checkpoint_demo_workload
        from repro.store import restore_gae
        from repro.store.checkpoint import Checkpointer

        path = tmp_path / "ckpt.sqlite"
        gae, _ = checkpoint_demo_workload(seed=11, tasks=6)
        Checkpointer(gae).checkpoint_at(205.0, path)
        gae.sim.run_until(205.0)
        restored = restore_gae(path)

        gae.sim.run_until(500.0)
        restored.sim.run_until(500.0)
        a, b = gae.observability.telemetry, restored.observability.telemetry
        assert b.windows_closed == a.windows_closed
        assert b.boundaries() == a.boundaries()
        assert b.names() == a.names()

        def fn_backed(series_name):
            # fn-backed gauges observe live objects (probe cache,
            # monitoring DB); their state is not checkpointed, so their
            # post-restore windows legitimately diverge.
            if not series_name.startswith("metric."):
                return False
            inst = gae.observability.metrics.get(
                series_name.split(".", 1)[1].rsplit(".", 1)[0]
            )
            return getattr(inst, "_fn", None) is not None

        mismatches = [
            name for name in a.names()
            if not fn_backed(name)
            and b.series(name).samples() != a.series(name).samples()
        ]
        assert mismatches == []
        gae.stop()
        restored.stop()
