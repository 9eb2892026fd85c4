"""Property-based tests: the tracer's column ring against a ring of spans.

The tracer keeps no :class:`Span` objects: one column per field, span ids
as counter values, attributes as a values tuple over a shared keys tuple,
and every write lands in the span's slot.  ``RingOfSpans`` below is the
obvious tracer — an ``OrderedDict`` of ``Span`` objects keyed by span id,
each with its own attribute dict — kept here as the oracle.  Random runs
of ``start_span``, ``instant``, ``update`` (on held, dropped and unknown
ids), ``end_span``, ``adopt_current_trace``, a steering verb's re-parenting
and ``save_to`` → ``load_from`` into smaller and larger rings drive both,
at capacities 1, 3 and 8, and after every step every reader must answer the
same: ``spans()`` / ``spans(trace_id)`` byte for byte (attribute key order,
an ``int`` start stays an ``int``), ``len``, ``render``, the
``system.recent_calls`` rows and the saved rows.

A bare tracer mints span ids from the process counter it shares with every
other bare tracer, so the two tracers' ids differ; the oracle's ids are
mapped onto the tracer's in creation order before comparing.
"""

from collections import OrderedDict

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clarens.server import _call_row
from repro.observability import tracing
from repro.observability.tracing import Span, SpanContext, Tracer, render_span_tree
from repro.store.base import encode_value
from repro.store.base import StateStore
from repro.store.registry import OBSERVABILITY_TRACING, namespace_record


def finish(span, end, status):
    """The first finish wins."""
    if span.end is None:
        span.end, span.status = end, status


class RingOfSpans:
    """The tracer as it was: an ``OrderedDict`` of ``Span`` keyed by id."""

    def __init__(self, clock, capacity, id_prefix):
        self._clock = clock
        self._spans = OrderedDict()
        self.capacity = capacity
        self._id_prefix = id_prefix
        self.id_counters = [1, 1]
        self.stack = []

    def new_trace_id(self):
        if self._id_prefix is None:
            return tracing.new_trace_id()
        n = self.id_counters[0]
        self.id_counters[0] = n + 1
        return f"{self._id_prefix}-{n:x}"

    def _new_span_id(self):
        if self._id_prefix is None:
            return f"{tracing._SPAN_PREFIX}-s{next(tracing._SPAN_COUNTER):x}"
        n = self.id_counters[1]
        self.id_counters[1] = n + 1
        return f"{self._id_prefix}-s{n:x}"

    def _append(self, span):
        self._spans[span.span_id] = span
        if len(self._spans) > self.capacity:
            self._spans.popitem(last=False)

    def start_span(self, name, *, trace_id=None, parent=None, attributes=None,
                   start=None, activate=True):
        if parent is None:
            current = self.current_span()
            if current is not None and (trace_id is None or current.trace_id == trace_id):
                parent = current
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else self.new_trace_id()
        parent_id = parent.span_id if parent is not None and parent.trace_id == trace_id else None
        span = Span(name, trace_id, self._new_span_id(), parent_id,
                    self._clock() if start is None else start, attributes)
        self._append(span)
        if activate:
            self.stack.append(span)
        return span

    def end_span(self, span, status="ok", end=None, attributes=None):
        span.attributes.update(attributes or {})
        finish(span, self._clock() if end is None else end, status)
        if span in self.stack:
            while self.stack and self.stack[-1] is not span:
                self.stack.pop()
            if self.stack:
                self.stack.pop()

    def update(self, span_id, *, status=None, **attributes):
        span = self._spans.get(span_id)
        if span is None:
            return
        span.attributes.update(attributes)
        if status is not None:
            finish(span, self._clock(), status)

    def instant(self, name, *, trace_id, parent=None, attributes=None, start=None,
                end=None, status="ok"):
        span = self.start_span(name, trace_id=trace_id, parent=parent,
                               attributes=attributes, start=start, activate=False)
        finish(span, span.start if end is None else end, status)
        return span

    def current_span(self):
        return self.stack[-1] if self.stack else None

    def adopt_current_trace(self, trace_id):
        replaced = []
        for span in self.stack:
            if span.trace_id != trace_id:
                if span.trace_id not in replaced:
                    replaced.append(span.trace_id)
                span.attributes.setdefault("adopted_from", span.trace_id)
                span.trace_id = trace_id
        return replaced

    def spans(self, trace_id=None):
        return [s for s in self._spans.values() if trace_id is None or s.trace_id == trace_id]

    def __len__(self):
        return len(self._spans)

    def save_to(self, store):
        store.register_namespace(namespace_record(OBSERVABILITY_TRACING))
        store.clear(OBSERVABILITY_TRACING)
        return store.put_many(
            OBSERVABILITY_TRACING,
            ((f"{i:012d}", s.to_wire()) for i, s in enumerate(self.spans())),
        )

    def load_from(self, store):
        self._spans.clear()
        for _, row in store.items(OBSERVABILITY_TRACING):
            span = Span(row["name"], row["trace_id"], row["span_id"], row["parent_id"],
                        row["start"], row["attributes"])
            span.end = row["end"]
            span.status = row["status"]
            self._append(span)
        return len(self._spans)


#: An ``rpc:`` span the recorder finished: what ``_call_row`` needs.
RECORDED = {"method": "svc.m", "transport": "loop", "principal": "u",
            "duration_ms": 0.5, "outcome": "ok"}

names = st.sampled_from(["rpc:svc.m", "steer:pause", "queue@a", "job:1"])
attributes = st.one_of(
    st.none(),
    st.dictionaries(
        st.sampled_from(["method", "transport", "site", "to", "served_from"]),
        st.one_of(st.integers(-2, 2), st.text(max_size=2)),
        max_size=3,
    ),
)
# None reads the clock; an int start must come back an int.
times = st.one_of(st.none(), st.integers(0, 9), st.floats(0.0, 9.0))
picks = st.integers(0, 30)  # a span created so far (mod their number)
traces = st.integers(0, 30)  # a trace seen so far (mod their number)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("start"), names, st.one_of(st.none(), traces),
                  st.one_of(st.none(), picks), attributes, times, st.booleans()),
        st.tuples(st.just("instant"), names, traces, st.one_of(st.none(), picks),
                  attributes, times, times, st.sampled_from(["ok", "error"])),
        st.tuples(st.just("update"), st.one_of(st.none(), picks),
                  st.sampled_from([None, "ok", "killed"]), attributes),
        st.tuples(st.just("end"), picks, st.sampled_from(["ok", "error"]),
                  st.sampled_from([None, RECORDED])),
        st.tuples(st.just("adopt"), traces),
        st.tuples(st.just("reparent"), picks),
        st.tuples(st.just("tick"), st.floats(0.0, 9.0)),
        # Save, then load into a ring of this capacity, keeping the id
        # prefix (and the counters, as a restore does) or taking another;
        # None loads back into the same tracer, whose open refs stay held.
        st.tuples(st.just("reload"), st.sampled_from([None, 1, 3, 8, 20]), st.booleans()),
    ),
    max_size=40,
)


class Clock:
    now = 0.0

    def __call__(self):
        return self.now


def encoded(wires):
    return [encode_value(w) for w in wires]


def agree(tracer, oracle, alias, trace_ids):
    """Every reader of *tracer* answers what the ring of spans holds, once
    the oracle's ids are written as the tracer's (*alias*)."""

    def mapped(span):
        wire = span.to_wire()
        for key in ("trace_id", "span_id", "parent_id"):
            wire[key] = alias.get(wire[key], wire[key])
        if "adopted_from" in wire["attributes"]:
            adopted = wire["attributes"]["adopted_from"]
            wire["attributes"]["adopted_from"] = alias.get(adopted, adopted)
        return wire

    want = [mapped(s) for s in oracle.spans()]
    assert encoded(s.to_wire() for s in tracer.spans()) == encoded(want)
    assert len(tracer) == len(oracle) == len(want)
    assert encoded(map(_call_row, tracer.spans(name_prefix="rpc:"))) == encoded(
        _call_row(_span(w)) for w in want if w["name"].startswith("rpc:")
    )
    for trace_id, oracle_trace in trace_ids:
        wires = [mapped(s) for s in oracle.spans(oracle_trace)]
        assert encoded(s.to_wire() for s in tracer.spans(trace_id)) == encoded(wires)
        assert tracer.render(trace_id) == render_span_tree(wires)
    saved, expected = StateStore(), StateStore()
    tracer.save_to(saved)
    oracle.save_to(expected)
    assert [(key, encode_value(row)) for key, row in saved.items(OBSERVABILITY_TRACING)] == [
        (key, encode_value(mapped(_span(row)))) for key, row in expected.items(OBSERVABILITY_TRACING)
    ]


def _span(row):
    span = Span(row["name"], row["trace_id"], row["span_id"], row["parent_id"],
                row["start"], row["attributes"])
    span.end, span.status = row["end"], row["status"]
    return span


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 3, 8]), st.sampled_from(["g00001", None]), steps)
@example(  # a ref opened before a load into its own tracer ends nothing after it
    3, "g00001", [("start", "queue@a", 0, None, None, None, False), ("reload", None, False),
                  ("end", 0, "ok", None)],
)
@example(  # two foreign loads never hand the tracer back a prefix it minted before
    3, "g00001", [("reload", 3, True), ("start", "rpc:svc.m", None, None, None, None, False),
                  ("reload", 3, True), ("reload", 3, True),
                  ("start", "rpc:svc.m", None, None, None, None, False)],
)
def test_the_column_ring_answers_like_a_ring_of_spans(capacity, prefix, steps):
    clock = Clock()
    tracer = Tracer(clock, capacity=capacity, id_prefix=prefix)
    oracle = RingOfSpans(clock, capacity, prefix)
    alias = {}  # oracle id -> tracer id, for span and trace ids alike
    trace_ids = [("t-1", "t-1"), ("t-2", "t-2")]  # (tracer's, oracle's)
    created = []  # (tracer's ref, oracle's span): refs die with their tracer
    contexts = []  # (tracer's, oracle's) context of every span at its creation

    def made(ref, span):
        alias[span.span_id] = ref.span_id
        if span.trace_id not in alias:
            alias[span.trace_id] = ref.trace_id
            trace_ids.append((ref.trace_id, span.trace_id))
        created.append((ref, span))
        contexts.append((ref.context, SpanContext(span.trace_id, span.span_id, span.parent_id)))

    def parents(pick):
        return (None, None) if pick is None or not contexts else contexts[pick % len(contexts)]

    for step, *args in steps:
        if step == "start":
            name, trace, pick, attrs, start, activate = args
            new_trace, old_trace = (None, None) if trace is None else trace_ids[trace % len(trace_ids)]
            new_parent, old_parent = parents(pick)
            span = oracle.start_span(name, trace_id=old_trace, parent=old_parent,
                                     attributes=attrs, start=start, activate=activate)
            ref = tracer.start_span(name, trace_id=new_trace, parent=new_parent,
                                    attributes=attrs, start=start, activate=activate)
            made(ref, span)
        elif step == "instant":
            name, trace, pick, attrs, start, end, status = args
            new_trace, old_trace = trace_ids[trace % len(trace_ids)]
            new_parent, old_parent = parents(pick)
            span = oracle.instant(name, trace_id=old_trace, parent=old_parent, attributes=attrs,
                                  start=start, end=end, status=status)
            ref = tracer.instant(name, trace_id=new_trace, parent=new_parent, attributes=attrs,
                                 start=start, end=end, status=status)
            made(ref, span)
        elif step == "update":
            pick, status, attrs = args
            if pick is None or not contexts:
                new_id = old_id = "nope-s1"
            else:
                new, old = contexts[pick % len(contexts)]
                new_id, old_id = new.span_id, old.span_id
            oracle.update(old_id, status=status, **(attrs or {}))
            tracer.update(new_id, status=status, **(attrs or {}))
        elif step == "end" and created:
            pick, status, fields = args
            ref, span = created[pick % len(created)]
            oracle.end_span(span, status, attributes=dict(fields) if fields else None)
            tracer.end_span(ref, status, attributes=dict(fields) if fields else None)
        elif step == "adopt":
            new_trace, old_trace = trace_ids[args[0] % len(trace_ids)]
            replaced = oracle.adopt_current_trace(old_trace)
            assert tracer.adopt_current_trace(new_trace) == [alias.get(t, t) for t in replaced]
        elif step == "reparent" and contexts:
            # What a steering verb does to the adopted RPC span it runs under.
            span, ref = oracle.current_span(), tracer.current_span()
            if span is not None and span.parent_id is None:
                new, old = contexts[args[0] % len(contexts)]
                span.parent_id = old.span_id
                tracer.set_parent(ref, new.span_id)
        elif step == "tick":
            clock.now += args[0]
        elif step == "reload":
            capacity, foreign = args
            saved, expected = StateStore(), StateStore()
            tracer.save_to(saved)
            oracle.save_to(expected)
            if capacity is None:  # a ref opened before the load writes nothing after it
                assert tracer.load_from(saved) == oracle.load_from(expected) == len(oracle)
                agree(tracer, oracle, alias, trace_ids)
                continue
            counters = [1, 1] if foreign else list(tracer.id_counters)
            if foreign:  # the restored ids are no longer this tracer's to render, and
                # a prefix no tracer of this run had, so fresh counters mint none of them
                prefix = f"g{int(prefix[1:], 16) + 1:05x}" if prefix else "g00002"
            tracer = Tracer(clock, capacity=capacity, id_prefix=prefix)
            oracle = RingOfSpans(clock, capacity, prefix)
            tracer.id_counters, oracle.id_counters = counters, list(counters)
            assert tracer.load_from(saved) == oracle.load_from(expected) == len(oracle)
            created = []
        agree(tracer, oracle, alias, trace_ids)
        ref, span = tracer.current_span(), oracle.current_span()
        assert (ref is None) == (span is None)
        if ref is not None:
            assert ref.context == tuple(
                alias.get(i, i) for i in (span.trace_id, span.span_id, span.parent_id)
            )
