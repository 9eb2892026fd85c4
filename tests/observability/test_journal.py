"""Unit tests for the append-only lifecycle event journal."""

import sys
import threading

import pytest

from repro.events.journal import EventJournal, EventType
from repro.store.memory import MemoryStore


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def journal(clock):
    return EventJournal(clock)


class TestRecord:
    def test_stamps_clock_and_sequence(self, journal, clock):
        clock.now = 5.0
        a = journal.record(EventType.SUBMITTED, "t1")
        b = journal.record(EventType.SCHEDULED, "t1", site="siteA")
        assert a.time == b.time == 5.0
        assert b.seq == a.seq + 1
        assert b.site == "siteA"

    def test_accepts_string_event_type(self, journal):
        event = journal.record("paused", "t1")
        assert event.type is EventType.PAUSED

    def test_rejects_unknown_event_type(self, journal):
        with pytest.raises(ValueError):
            journal.record("teleported", "t1")

    def test_extra_kwargs_become_attributes(self, journal):
        event = journal.record(EventType.MOVED, "t1", old="a", new="b")
        assert event.attributes == {"old": "a", "new": "b"}

    def test_the_sink_hears_every_event(self, journal):
        seen = []
        journal.sink = seen.append
        journal.record(EventType.KILLED, "t1")
        assert [e.type for e in seen] == [EventType.KILLED]

    def test_to_wire_uses_enum_value(self, journal):
        wire = journal.record(EventType.FLOCK_FORWARDED, "t1", site="a").to_wire()
        assert wire["type"] == "flock-forwarded"
        assert wire["task_id"] == "t1"


class TestQueries:
    def test_filter_by_type_and_task(self, journal):
        journal.record(EventType.SUBMITTED, "t1")
        journal.record(EventType.SUBMITTED, "t2")
        journal.record(EventType.COMPLETED, "t1")
        assert len(journal.events(type=EventType.SUBMITTED)) == 2
        assert len(journal.events(task_id="t1")) == 2
        assert len(journal.events(type=EventType.COMPLETED, task_id="t2")) == 0

    def test_limit_returns_most_recent(self, journal):
        for i in range(5):
            journal.record(EventType.STARTED, f"t{i}")
        assert [e.task_id for e in journal.events(limit=2)] == ["t3", "t4"]

    def test_timeline_sorted_by_time_then_seq(self, journal, clock):
        clock.now = 10.0
        journal.record(EventType.COMPLETED, "t1")
        clock.now = 0.0
        journal.record(EventType.SUBMITTED, "t1", time=0.0)
        journal.record(EventType.STARTED, "t1", time=10.0)
        timeline = journal.timeline("t1")
        assert [e.type for e in timeline] == [
            EventType.SUBMITTED, EventType.COMPLETED, EventType.STARTED,
        ]  # same-time events keep recording (seq) order

    def test_task_ids_in_first_seen_order(self, journal):
        for task in ("b", "a", "b", "c"):
            journal.record(EventType.STARTED, task)
        assert journal.task_ids() == ["b", "a", "c"]

    def test_bounded_capacity(self, clock):
        journal = EventJournal(clock, capacity=3)
        for i in range(5):
            journal.record(EventType.STARTED, f"t{i}")
        assert len(journal) == 3
        assert [e.task_id for e in journal.events()] == ["t2", "t3", "t4"]

    def test_capacity_must_not_be_negative(self, clock):
        with pytest.raises(ValueError):
            EventJournal(clock, capacity=-1)


class TestRetention:
    def test_zero_capacity_sequences_and_dispatches_but_retains_nothing(self, clock):
        journal = EventJournal(clock, capacity=0)
        seen = []
        journal.sink = seen.append
        events = [journal.record(EventType.STARTED, f"t{i}") for i in range(3)]
        assert seen == events
        assert [e.seq for e in events] == [0, 1, 2]
        assert journal.head_seq == 2
        assert len(journal) == 0 and journal.events() == []

    @pytest.mark.parametrize(
        "capacity, recorded, covered, not_covered",
        [
            (100, 0, [-1, 5], []),           # nothing recorded: nothing to miss
            (100, 5, [-1, 0, 4, 9], []),     # everything retained
            (3, 5, [1, 2, 4], [-1, 0]),      # ring holds seq 2..4
            (0, 5, [4, 7], [-1, 3]),         # retains nothing: only the head on
        ],
    )
    def test_covers(self, clock, capacity, recorded, covered, not_covered):
        journal = EventJournal(clock, capacity=capacity)
        for i in range(recorded):
            journal.record(EventType.STARTED, f"t{i}")
        assert [journal.covers(seq) for seq in covered] == [True] * len(covered)
        assert [journal.covers(seq) for seq in not_covered] == [False] * len(not_covered)
        for seq in covered:  # what covers() promises: an unbroken tail
            tail = [e.seq for e in journal.events_since(seq)]
            assert tail == list(range(seq + 1, journal.head_seq + 1))

    def test_restored_journal_continues_past_a_head_it_did_not_retain(self, clock):
        source = EventJournal(clock, capacity=0)
        for i in range(4):
            source.record(EventType.STARTED, f"t{i}")
        store = MemoryStore()
        assert source.save_to(store) == 0
        target = EventJournal(clock, capacity=0)
        target.load_from(store, head_seq=source.head_seq)
        assert target.head_seq == 3
        assert target.record(EventType.STARTED, "next").seq == 4


class TestConcurrentProducers:
    """Producers on several threads (the aio workers journal steering
    verbs) still get one order: ``seq`` order is retained order is the
    order the sink hears."""

    THREADS, RECORDS = 4, 20_000

    def test_retained_and_sink_order_are_seq_order(self, clock):
        journal = EventJournal(clock, capacity=self.THREADS * self.RECORDS)
        heard = []
        journal.sink = heard.append

        def produce(n):
            for _ in range(self.RECORDS):
                journal.record(EventType.STARTED, f"t{n}")

        threads = [threading.Thread(target=produce, args=(n,)) for n in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the VM allows
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)

        expected = list(range(self.THREADS * self.RECORDS))
        assert [e.seq for e in journal.events()] == expected
        assert [e.seq for e in heard] == expected
        assert journal.head_seq == expected[-1]
        store = MemoryStore()
        journal.save_to(store)
        restored = EventJournal(clock)
        assert restored.load_from(store) == len(expected)
