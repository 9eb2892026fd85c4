"""Property-based tests: the journal's row form.

A :class:`JournalEvent` keeps its payload as a ``values`` tuple over a
``keys`` tuple that every row of the same shape shares — no dict per row.
Whatever payload a producer records, the row reads back as exactly that
payload (same keys, same order, same values) through ``attributes`` and
``to_wire()``; a saved and re-loaded journal holds equal rows; and every
row of the format-2 checkpoint fixtures, written when a row did hold a
dict, loads into the row form and re-serialises to its stored JSON byte
for byte.
"""

import contextlib
import sqlite3
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
