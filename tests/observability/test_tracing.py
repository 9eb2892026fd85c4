"""Unit tests for spans, the tracer, and the ASCII tree renderer."""

import re

import pytest

from repro.observability.tracing import (
    Span,
    Tracer,
    new_trace_id,
    render_span_tree,
    seeded_id_prefix,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock)


class TestSpan:
    def test_finish_is_idempotent(self):
        span = Span("s", trace_id="t-1", span_id="s-1", parent_id=None, start=1.0)
        span.finish(5.0, "ok")
        span.finish(9.0, "error")  # second finish must not overwrite
        assert span.end == 5.0
        assert span.status == "ok"
        assert span.duration_s == 4.0

    def test_to_wire_shape(self):
        span = Span("rpc:x", trace_id="t-1", span_id="s-1", parent_id="s-0",
                    start=0.0, attributes={"method": "x"})
        wire = span.to_wire()
        assert wire["name"] == "rpc:x"
        assert wire["parent_id"] == "s-0"
        assert wire["status"] == "open"
        assert wire["end"] is None
        assert wire["attributes"] == {"method": "x"}


class TestTracer:
    def test_sim_clock_timestamps(self, tracer, clock):
        span = tracer.start_span("a")
        clock.now = 42.0
        tracer.end_span(span)
        assert span.start == 0.0
        assert span.end == 42.0
        assert span.status == "ok"

    def test_ambient_parenting_same_trace(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id

    def test_explicit_trace_id_breaks_ambient_parenting(self, tracer):
        with tracer.span("outer"):
            other = tracer.start_span("other", trace_id="different-1", activate=False)
        assert other.parent_id is None
        assert other.trace_id == "different-1"

    def test_context_manager_marks_errors(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        (span,) = tracer.spans()
        assert span.status == "error"

    def test_bounded_store_evicts_oldest(self, clock):
        tracer = Tracer(clock, capacity=3)
        for i in range(5):
            tracer.instant(f"s{i}", trace_id="t-1")
        assert len(tracer) == 3
        assert [s.name for s in tracer.spans()] == ["s2", "s3", "s4"]

    def test_capacity_must_be_positive(self, clock):
        with pytest.raises(ValueError):
            Tracer(clock, capacity=0)

    def test_instant_is_finished_and_not_activated(self, tracer, clock):
        clock.now = 7.0
        span = tracer.instant("flash", trace_id="t-1")
        assert span.end == span.start == 7.0
        assert tracer.current_span() is None

    def test_adopt_current_trace_rehomes_open_spans(self, tracer):
        span = tracer.start_span("rpc:steering.move", trace_id="call-1")
        replaced = tracer.adopt_current_trace("job-trace-9")
        assert replaced == ["call-1"]
        assert span.trace_id == "job-trace-9"
        assert span.attributes["adopted_from"] == "call-1"
        # Adopting again is a no-op.
        assert tracer.adopt_current_trace("job-trace-9") == []
        tracer.end_span(span)

    def test_spans_filtered_by_trace(self, tracer):
        tracer.instant("a", trace_id="t-1")
        tracer.instant("b", trace_id="t-2")
        assert [s.name for s in tracer.spans("t-2")] == ["b"]


class TestSpansById:
    """The ring is keyed by span id: :meth:`Tracer.update` reaches exactly
    the spans it holds, and a span it has dropped is gone."""

    def test_update_ends_and_annotates_a_held_span(self, tracer, clock):
        span = tracer.start_span("run@siteA", trace_id="t-1", activate=False)
        clock.now = 4.0
        tracer.update(span.span_id, to="siteB")
        assert span.attributes == {"to": "siteB"} and span.end is None
        tracer.update(span.span_id, status="killed")
        assert (span.end, span.status) == (4.0, "killed")

    def test_an_evicted_id_is_a_no_op(self, clock):
        tracer = Tracer(clock, capacity=3)
        spans = [tracer.start_span(f"s{i}", trace_id="t-1", activate=False) for i in range(5)]
        assert [s.span_id for s in tracer.spans()] == [s.span_id for s in spans[2:]]
        for evicted in spans[:2]:
            tracer.update(evicted.span_id, status="error", to="siteB")
            assert (evicted.end, evicted.status, evicted.attributes) == (None, "open", {})
        assert [s.span_id for s in tracer.spans()] == [s.span_id for s in spans[2:]]
        for held in spans[2:]:
            tracer.update(held.span_id, status="ok")
        assert all(s.status == "ok" for s in tracer.spans())

    def test_load_from_keys_the_restored_ring(self, clock):
        from repro.store import MemoryStore

        source = Tracer(clock, capacity=4)
        for i in range(6):
            source.start_span(f"s{i}", trace_id="t-1", activate=False)
        store = MemoryStore()
        source.save_to(store)
        restored = Tracer(clock, capacity=4)
        assert restored.load_from(store) == 4
        assert [s.to_wire() for s in restored.spans()] == [s.to_wire() for s in source.spans()]
        clock.now = 2.0
        for span in restored.spans():
            restored.update(span.span_id, status="ok")
        assert {(s.end, s.status) for s in restored.spans()} == {(2.0, "ok")}
        # The restored spans are the restored tracer's own, not the source's.
        assert {s.status for s in source.spans()} == {"open"}

    def test_concurrent_starts_keep_the_ring_keyed(self, clock):
        self.start_concurrently(Tracer(clock, capacity=500))

    def test_concurrent_starts_keep_a_prefixed_ring_keyed(self, clock):
        self.start_concurrently(Tracer(clock, capacity=500, id_prefix="g00001"))

    @staticmethod
    def start_concurrently(tracer):
        import sys
        import threading

        started = {n: [] for n in range(4)}

        def start(n):
            for _ in range(1_000):
                span = tracer.start_span(f"w{n}", trace_id=f"t-{n}", activate=False)
                started[n].append(span.span_id)

        workers = [threading.Thread(target=start, args=(n,)) for n in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert all(len(ids) == 1_000 for ids in started.values())
        ring = tracer.spans()
        assert len(tracer) == len(ring) == tracer.capacity
        assert len({s.span_id for s in ring}) == tracer.capacity
        for n, ids in started.items():
            # Each thread's survivors are its newest spans, in order.
            kept = [s.span_id for s in ring if s.trace_id == f"t-{n}"]
            assert kept == ids[len(ids) - len(kept):]
        for span in ring:
            tracer.update(span.span_id, status="ok")
        assert all(s.status == "ok" for s in ring)


class TestSeededIds:
    """A tracer given an ``id_prefix`` counts its own ids; one given none
    keeps the module's random-prefixed ones."""

    def test_a_prefixed_tracer_counts_its_own_ids(self, clock):
        tracer = Tracer(clock, id_prefix="gabcde")
        first = tracer.start_span("a")
        second = tracer.start_span("b")  # a child: same trace, no new id
        third = tracer.start_span("c", trace_id=tracer.new_trace_id(), activate=False)
        assert [(s.trace_id, s.span_id) for s in (first, second, third)] == [
            ("gabcde-1", "gabcde-s1"), ("gabcde-1", "gabcde-s2"), ("gabcde-2", "gabcde-s3"),
        ]
        assert tracer.id_counters == [3, 4]
        tracer.id_counters = [0x20, 0x30]  # as a restore sets them
        assert tracer.start_span("d", activate=False).span_id == "gabcde-s30"
        assert tracer.new_trace_id() == "gabcde-20"

    def test_a_bare_tracer_keeps_random_prefixed_ids(self, tracer):
        span = tracer.start_span("a")
        assert re.fullmatch(r"[0-9a-f]{8}-[0-9a-f]+", span.trace_id)
        assert re.fullmatch(r"[0-9a-f]{6}-s[0-9a-f]+", span.span_id)
        assert re.fullmatch(r"[0-9a-f]{8}-[0-9a-f]+", tracer.new_trace_id())
        assert tracer.id_counters == [1, 1]

    def test_a_seeded_prefix_is_never_a_random_one_and_never_longer(self):
        prefixes = [seeded_id_prefix(seed) for seed in range(1_000)]
        assert prefixes == [seeded_id_prefix(seed) for seed in range(1_000)]
        assert len(set(prefixes)) == 1_000
        for prefix in prefixes:
            assert re.fullmatch(r"g[0-9a-f]{5}", prefix)
        random_prefix = new_trace_id().split("-")[0]
        assert len(f"{prefixes[0]}-1") < len(f"{random_prefix}-1")


class TestRenderSpanTree:
    def test_empty(self):
        assert render_span_tree([]) == "(no spans)"

    def test_tree_structure_and_timing(self, tracer, clock):
        root = tracer.start_span("task:t1", trace_id="t-1", activate=False)
        clock.now = 1.0
        child = tracer.start_span(
            "run@siteA", trace_id="t-1", parent=root.context,
            attributes={"site": "siteA"}, activate=False,
        )
        clock.now = 5.0
        tracer.end_span(child)
        tracer.end_span(root)
        text = tracer.render("t-1")
        assert "task:t1  [t=0.0s +5.0s] ok" in text
        assert "`- run@siteA  [t=1.0s +4.0s] ok site=siteA" in text

    def test_orphans_promoted_to_roots(self):
        spans = [{
            "name": "child", "trace_id": "t", "span_id": "s9",
            "parent_id": "evicted", "start": 3.0, "end": None,
            "status": "open", "attributes": {},
        }]
        text = render_span_tree(spans)
        assert text == "child  [t=3.0s .. open] open"

    def test_children_sorted_by_start(self, tracer, clock):
        root = tracer.start_span("root", trace_id="t-1", activate=False)
        tracer.instant("late", trace_id="t-1", parent=root.context, start=9.0)
        tracer.instant("early", trace_id="t-1", parent=root.context, start=1.0)
        lines = tracer.render("t-1").splitlines()
        assert lines[1].lstrip("|`- ").startswith("early")
        assert lines[2].lstrip("|`- ").startswith("late")
