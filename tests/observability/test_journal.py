"""Unit tests for the append-only lifecycle event journal."""

import sys
import threading

import pytest

from repro.events.journal import EventJournal, EventType, OutOfOrderError
from repro.store.memory import MemoryStore
from repro.store.registry import OBSERVABILITY_JOURNAL


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
        assert len(journal.events(limit=50)) == 5

    def test_a_zero_limit_returns_no_events(self, journal):
        for i in range(5):
            journal.record(EventType.STARTED, f"t{i}")
        assert journal.events(limit=0) == []
        assert journal.events(task_id="t1", limit=0) == []

    def test_a_negative_limit_is_refused(self, journal):
        for i in range(5):
            journal.record(EventType.STARTED, f"t{i}")
        with pytest.raises(ValueError, match="must not be negative"):
            journal.events(limit=-3)

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


class TestLoadRefusesABrokenRun:
    """The ring keeps no ``seq``: row *i* is ``head - len + 1 + i``.  A
    stored stream with a hole would load as rows with the wrong seqs (and
    ``covers`` would promise a tail ``events_since`` cannot give), so it is
    refused, naming the first break, and the journal is left untouched."""

    @staticmethod
    def saved(recorded):
        source = EventJournal(lambda: 0.0)
        for i in range(recorded):
            source.record(EventType.STARTED, f"t{i}")
        store = MemoryStore()
        source.save_to(store)
        return store

    @staticmethod
    def untouched(journal):
        return journal.head_seq == 0 and [e.task_id for e in journal.events()] == ["kept"]

    def test_a_missing_seq_is_refused(self):
        store = self.saved(7)
        for seq in (2, 3, 4):
            store.delete(OBSERVABILITY_JOURNAL, f"{seq:012d}")  # rows 0, 1, 5, 6
        journal = EventJournal(lambda: 0.0)
        journal.record(EventType.SUBMITTED, "kept")
        with pytest.raises(OutOfOrderError, match=r"seq 5 after 1 skips seq 2\.\.4"):
            journal.load_from(store, head_seq=6)
        assert self.untouched(journal)

    def test_rows_that_stop_short_of_the_head_are_refused(self):
        store = self.saved(3)
        journal = EventJournal(lambda: 0.0)
        journal.record(EventType.SUBMITTED, "kept")
        with pytest.raises(OutOfOrderError, match=r"stop at seq 2, short of the head 5"):
            journal.load_from(store, head_seq=5)
        assert self.untouched(journal)

    def test_an_unbroken_run_loads_from_wherever_the_ring_started(self):
        store = self.saved(6)
        for seq in (0, 1):
            store.delete(OBSERVABILITY_JOURNAL, f"{seq:012d}")  # a ring that had wrapped
        journal = EventJournal(lambda: 0.0, capacity=3)
        assert journal.load_from(store, head_seq=5) == 3
        assert [e.seq for e in journal.events()] == [3, 4, 5]
        assert journal.covers(2) and not journal.covers(1)


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

    def test_readers_never_see_a_torn_row_or_a_broken_run(self, clock):
        """The ring keeps one column per field and no ``seq``: a reader racing
        the producers must still get whole rows (each one's fields from one
        ``record``) in an unbroken run of seqs, across wrap-around."""
        journal = EventJournal(clock, capacity=500)
        done = threading.Event()
        torn = []

        def produce(n):
            for i in range(self.RECORDS // 2):
                journal.record(EventType.STARTED, f"t{n}", site=f"s{n}", job_id=f"t{n}", i=i)

        def read():
            try:
                while not done.is_set():
                    for rows in (
                        journal.events(limit=64), journal.events_since(journal.head_seq - 64)
                    ):
                        seqs = [e.seq for e in rows]
                        if seqs and seqs != list(range(seqs[0], seqs[0] + len(seqs))):
                            torn.append(seqs)
                        torn.extend(
                            e for e in rows
                            if (e.site, e.job_id) != (f"s{e.task_id[1:]}", e.task_id)
                        )
            except Exception as exc:  # a reader that dies must fail the test
                torn.append(exc)

        producers = [threading.Thread(target=produce, args=(n,)) for n in range(self.THREADS)]
        reader = threading.Thread(target=read)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader.start()
            for thread in producers:
                thread.start()
            for thread in producers:
                thread.join(timeout=120)
            done.set()
            reader.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not reader.is_alive() and not any(t.is_alive() for t in producers)
        assert torn == []
        assert journal.head_seq == self.THREADS * (self.RECORDS // 2) - 1 and len(journal) == 500
