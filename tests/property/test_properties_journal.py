"""Property-based tests: the journal's row form and its column ring.

A :class:`JournalEvent` keeps its payload as a ``values`` tuple over a
``keys`` tuple that every row of the same shape shares — no dict per row.
Whatever payload a producer records, the row reads back as exactly that
payload (same keys, same order, same values) through ``attributes`` and
``to_wire()``; a saved and re-loaded journal holds equal rows; and every
row of the format-2 checkpoint fixtures, written when a row did hold a
dict, loads into the row form and re-serialises to its stored JSON byte
for byte.

The journal retains no row objects, only one column per field and an
implicit ``seq``.  ``test_the_column_ring_answers_like_a_ring_of_rows``
runs it against the obvious ring — a ``deque`` of the
:class:`JournalEvent` objects ``record`` returned, kept here — through
random records, wrap-around and ``load_from`` into rings of another
capacity, and every query must answer the same rows, byte for byte.
"""

import contextlib
import sqlite3
from collections import deque
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import checkpoint_demo_workload
from repro.events.journal import EventJournal, EventType, JournalEvent
from repro.store.base import encode_value
from repro.store.memory import MemoryStore
from repro.store.registry import OBSERVABILITY_JOURNAL
from repro.store.sqlite import read_store_file

FIXTURES = Path(__file__).resolve().parents[1] / "store" / "fixtures"

#: ``record``'s own parameters cannot be payload keys.
_RESERVED = {"self", "type", "task_id", "job_id", "site", "trace_id", "span_id", "time"}

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=8)
)
values = st.recursive(
    scalars,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
payloads = st.dictionaries(
    st.text(min_size=1, max_size=8).filter(lambda key: key not in _RESERVED), values, max_size=6
)


@settings(max_examples=150, deadline=None)
@given(st.lists(payloads, min_size=1, max_size=8), st.data())
def test_a_recorded_payload_reads_back_and_round_trips(recorded, data):
    journal = EventJournal(lambda: 1.5)
    kinds = st.sampled_from(list(EventType))
    events = [
        journal.record(data.draw(kinds), f"t{i}", site="siteA", **payload)
        for i, payload in enumerate(recorded)
    ]
    for event, payload in zip(events, recorded):
        wire = event.to_wire()["attributes"]
        assert wire == payload and list(wire) == list(payload)
        assert dict(event.attributes) == payload and list(event.attributes) == list(payload)
        assert type(event.values) is tuple and type(event.keys) is tuple
    store = MemoryStore()
    journal.save_to(store)
    restored = EventJournal(lambda: 0.0)
    assert restored.load_from(store) == len(events)
    assert restored.events() == events
    assert [e.to_wire() for e in restored.events()] == [e.to_wire() for e in events]


def test_rows_of_one_shape_share_one_keys_tuple():
    def row(seq, **payload):
        return JournalEvent(seq, 0.0, EventType.DISPATCHED, f"t{seq}", attributes=payload)

    assert row(0, priority=1, elapsed=2.0).keys is row(1, priority=3, elapsed=4.0).keys
    assert row(2).keys == () and row(2).values == ()
    assert row(3, elapsed=0.0, priority=0).keys == ("elapsed", "priority")  # order is shape


def test_every_fixture_row_reserialises_to_its_stored_json():
    checked = 0
    for path in sorted(FIXTURES.glob("format2_*.sqlite")):
        with contextlib.closing(
            sqlite3.connect(f"file:{path}?mode=ro&immutable=1", uri=True)
        ) as conn:
            stored = [
                raw for (raw,) in conn.execute(
                    "SELECT value FROM gae_store WHERE namespace = ? ORDER BY key",
                    (OBSERVABILITY_JOURNAL,),
                )
            ]
        journal = EventJournal(lambda: 0.0)
        assert journal.load_from(read_store_file(str(path))) == len(stored)
        assert [encode_value(e.to_wire()) for e in journal.events()] == stored
        checked += len(stored)
    assert checked >= 100  # format2_full's 104 rows (the bare build retained none)


def test_no_retained_row_holds_a_dict_payload():
    gae, _job = checkpoint_demo_workload()
    gae.sim.run_until(2_000.0)
    events = gae.events.journal.events()
    kinds = {e.type for e in events}
    assert {EventType.MONITORING_UPDATED, EventType.HISTORY_RECORDED, EventType.DISPATCHED} <= kinds
    for event in events:
        assert not any(isinstance(getattr(event, slot), dict) for slot in JournalEvent.__slots__)
        assert type(event.keys) is tuple and type(event.values) is tuple
    shapes = {e.keys for e in events}
    assert len({id(e.keys) for e in events}) == len(shapes)  # one tuple per shape


KINDS = [EventType.SUBMITTED, EventType.DISPATCHED, EventType.MOVED, EventType.METRIC_PUBLISHED]
TASKS = ["t0", "t1", "t2"]

records = st.tuples(
    st.sampled_from(KINDS),
    st.sampled_from(TASKS),
    # None stamps the clock; an int time must come back an int.
    st.one_of(st.none(), st.integers(0, 9), st.floats(0.0, 9.0)),
    st.dictionaries(st.sampled_from(["a", "b", "c"]), st.integers(-2, 2), max_size=2),
)
steps = st.lists(
    st.one_of(
        records.map(lambda r: ("record", r)),
        # Save, then load into a ring of this capacity (below the rows too).
        st.sampled_from([0, 1, 2, 5]).map(lambda capacity: ("reload", capacity)),
    ),
    max_size=30,
)


def encoded(events):
    return [encode_value(e.to_wire()) for e in events]


def newest(rows, limit):
    return rows if limit is None else rows[max(len(rows) - limit, 0):]


def agree(journal, reference, head):
    """Every query of *journal* answers what the ring of row objects holds."""
    rows = list(reference)
    assert journal.head_seq == head and len(journal) == len(rows)
    for kind in (None, *KINDS):
        for task in (None, *TASKS):
            want = [
                e for e in rows
                if (kind is None or e.type is kind) and (task is None or e.task_id == task)
            ]
            for limit in (None, 0, 2):
                got = journal.events(type=kind, task_id=task, limit=limit)
                assert encoded(got) == encoded(newest(want, limit))
    retained = {e.seq for e in rows}
    for since in range(-2, head + 2):
        assert encoded(journal.events_since(since)) == encoded([e for e in rows if e.seq > since])
        assert journal.covers(since) == retained.issuperset(range(since + 1, head + 1))
    for task in TASKS:
        want = sorted((e for e in rows if e.task_id == task), key=lambda e: (e.time, e.seq))
        assert encoded(journal.timeline(task)) == encoded(want)
    assert journal.task_ids() == list(dict.fromkeys(e.task_id for e in rows))
    store = MemoryStore()
    assert journal.save_to(store, since=head - 2) == len([e for e in rows if e.seq > head - 2])
    assert [(key, encode_value(row)) for key, row in store.items(OBSERVABILITY_JOURNAL)] == [
        (f"{e.seq:012d}", encode_value(e.to_wire())) for e in rows if e.seq > head - 2
    ]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([0, 1, 3]), steps)
def test_the_column_ring_answers_like_a_ring_of_rows(capacity, steps):
    clock = lambda: 0.5  # noqa: E731
    journal = EventJournal(clock, capacity=capacity)
    reference = deque(maxlen=capacity)
    head = -1
    for step, arg in steps:
        if step == "record":
            kind, task, time, payload = arg
            event = journal.record(kind, task, site="siteA", time=time, **payload)
            head += 1
            assert event.seq == head
            reference.append(event)
        else:
            store = MemoryStore()
            journal.save_to(store)
            journal = EventJournal(clock, capacity=arg)
            assert journal.load_from(store, head_seq=head) == min(len(reference), arg)
            reference = deque(reference, maxlen=arg)
        agree(journal, reference, head)
