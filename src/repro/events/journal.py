"""Append-only structured journal of job lifecycle events.

Every interesting transition in a job's life — from submission through
scheduling, dispatch, steering verbs, faults, recovery, and output
retrieval — is recorded as a typed :class:`JournalEvent` stamped with
simulation time and the job's trace context.  ``timeline(task_id)``
reconstructs the per-task story in order; the JSONL export (see
:mod:`repro.observability.export`) serialises the same rows.

The event taxonomy lives in :class:`EventType`; ``tools/check_docs.py``
verifies that ``docs/ARCHITECTURE.md`` documents every member, so the
enum and the docs cannot drift apart.
"""

from __future__ import annotations

import enum
import threading
from collections import deque
from dataclasses import dataclass
from itertools import compress, islice, repeat, starmap
from operator import eq, is_
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.store.base import StateStore
from repro.store.registry import OBSERVABILITY_JOURNAL, namespace_record

__all__ = [
    "EventJournal",
    "EventType",
    "JournalEvent",
    "JOURNAL_SCHEMA_VERSION",
    "OutOfOrderError",
]

#: Version of the journal row schema.  Version 2 adds the event-sourced
#: write path: ``estimate-recorded``, ``monitoring-updated``,
#: ``metric-published`` and ``history-recorded`` rows that downstream
#: consumers fold into their state (see :mod:`repro.events.core`).
JOURNAL_SCHEMA_VERSION = 2


class OutOfOrderError(ValueError):
    """An imported journal stream is not one unbroken run of ``seq``s."""


class EventType(str, enum.Enum):
    """Typed lifecycle events a job can emit.

    The two ``health-*`` members are not job events: the health-rule
    engine (:mod:`repro.observability.health`) records rule transitions
    in the same journal, with the rule name in ``task_id``, so chaos
    campaigns can read *when* the system degraded and recovered from the
    one event stream every other post-hoc analysis already uses.
    """

    SUBMITTED = "submitted"
    SCHEDULED = "scheduled"
    DISPATCHED = "dispatched"
    STARTED = "started"
    PAUSED = "paused"
    RESUMED = "resumed"
    PRIORITY_CHANGED = "priority-changed"
    MOVED = "moved"
    FLOCK_FORWARDED = "flock-forwarded"
    FAILED = "failed"
    RECOVERED = "recovered"
    KILLED = "killed"
    COMPLETED = "completed"
    OUTPUT_RETRIEVED = "output-retrieved"
    HEALTH_FIRING = "health-firing"
    HEALTH_RESOLVED = "health-resolved"
    # Journal-schema v2: state-change events consumed by the event-sourced
    # write path (repro.events.core).  Each carries the full
    # payload a consumer needs to fold the change into its store.
    ESTIMATE_RECORDED = "estimate-recorded"
    MONITORING_UPDATED = "monitoring-updated"
    METRIC_PUBLISHED = "metric-published"
    HISTORY_RECORDED = "history-recorded"


#: One ``keys`` tuple per payload shape, shared by every row of that shape.
#: The shapes are the producers' keyword sets (and those of the rows a
#: checkpoint restores), a few dozen at most.  An interning table: what it
#: holds changes no row's value, only which of two equal tuples a row keeps.
_KEYSETS: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

#: A row's fields after ``seq``, in :class:`JournalEvent` order: the
#: columns the journal's ring keeps.
_COLUMNS = ("time", "type", "task_id", "job_id", "site", "trace_id", "span_id", "keys", "values")
_TYPE, _TASK = _COLUMNS.index("type"), _COLUMNS.index("task_id")


def _payload(
    attributes: Optional[Mapping[str, Any]],
) -> Tuple[Tuple[str, ...], Tuple[Any, ...]]:
    """``(keys, values)`` of a payload, the keys tuple interned."""
    if not attributes:
        return (), ()
    keys = tuple(attributes)
    return _KEYSETS.setdefault(keys, keys), tuple(attributes.values())


@dataclass(frozen=True, slots=True, init=False)
class JournalEvent:
    """One immutable journal row.

    The payload is a ``values`` tuple over a ``keys`` tuple that every row
    of the same shape shares, not a dict per row; ``attributes`` reads it
    back as a mapping in the recorded key order.  The journal retains no
    row objects: it keeps the fields in columns and builds a row (equal
    to the recorded one) each time a reader asks for it.
    """

    seq: int
    time: float
    type: EventType
    task_id: str
    job_id: Optional[str]
    site: Optional[str]
    trace_id: Optional[str]
    span_id: Optional[str]
    keys: Tuple[str, ...]
    values: Tuple[Any, ...]

    def __init__(
        self,
        seq: int,
        time: float,
        type: EventType,
        task_id: str,
        job_id: Optional[str] = None,
        site: Optional[str] = None,
        trace_id: Optional[str] = None,
        span_id: Optional[str] = None,
        attributes: Optional[Mapping[str, Any]] = None,
    ) -> None:
        keys, values = _payload(attributes)
        _fill(self, seq, time, type, task_id, job_id, site, trace_id, span_id, keys, values)

    @property
    def attributes(self) -> Mapping[str, Any]:
        """The payload as a read-only mapping, keys in recorded order."""
        return MappingProxyType(dict(zip(self.keys, self.values)))

    def to_wire(self) -> Dict[str, Any]:
        return _wire(
            self.seq, self.time, self.type, self.task_id, self.job_id, self.site,
            self.trace_id, self.span_id, self.keys, self.values,
        )


def _fill(
    event: JournalEvent, seq: int, time: float, type: EventType, task_id: str,
    job_id: Optional[str], site: Optional[str], trace_id: Optional[str],
    span_id: Optional[str], keys: Tuple[str, ...], values: Tuple[Any, ...],
) -> JournalEvent:
    put = object.__setattr__
    put(event, "seq", seq)
    put(event, "time", time)
    put(event, "type", type)
    put(event, "task_id", task_id)
    put(event, "job_id", job_id)
    put(event, "site", site)
    put(event, "trace_id", trace_id)
    put(event, "span_id", span_id)
    put(event, "keys", keys)
    put(event, "values", values)
    return event


def _row(*fields: Any) -> JournalEvent:
    """The row of a ``seq`` and its column values."""
    return _fill(object.__new__(JournalEvent), *fields)


def _wire(
    seq: int, time: float, type: EventType, task_id: str, job_id: Optional[str],
    site: Optional[str], trace_id: Optional[str], span_id: Optional[str],
    keys: Tuple[str, ...], values: Tuple[Any, ...],
) -> Dict[str, Any]:
    """The JSON row of :meth:`JournalEvent.to_wire`, from the fields."""
    return {
        "seq": seq,
        "time": time,
        "type": type.value,
        "task_id": task_id,
        "job_id": job_id,
        "site": site,
        "trace_id": trace_id,
        "span_id": span_id,
        "attributes": dict(zip(keys, values)),
    }


def _no_sink(event: JournalEvent) -> None:
    pass


class EventJournal:
    """Thread-safe, bounded, append-only event store with one reader.

    ``capacity`` bounds memory like the tracer's span store (``0``:
    sequence and dispatch every event, retain none); ``seq`` is a
    monotonically increasing tie-breaker so events recorded at the same
    simulation instant keep their causal recording order.

    ``sink`` is the one reader of every recorded event: the
    :class:`~repro.events.core.EventCore` built over this journal
    installs its dispatch there.  ``record`` allocates the ``seq``,
    retains the event, moves the head and calls the sink under one
    re-entrant lock (a fold may journal in turn), so retained order,
    dispatch order and ``seq`` order are the same order whichever thread
    records.

    The ring keeps no row objects: one ``deque(maxlen=capacity)`` per
    field after ``seq`` (``_COLUMNS``), nine pointers a row.  It keeps no
    ``seq`` either — the retained rows are always one unbroken run ending
    at the head (``load_from`` refuses a stream with a gap), so ring
    index *i* holds seq ``head_seq - len + 1 + i``.  Readers copy the
    column slices they need under the lock and build rows outside it.
    """

    def __init__(self, clock: Callable[[], float], capacity: int = 100_000) -> None:
        if capacity < 0:
            raise ValueError("capacity must not be negative")
        self._clock = clock
        self._columns: Tuple[deque, ...] = tuple(deque(maxlen=capacity) for _ in _COLUMNS)
        self._appends = tuple(column.append for column in self._columns)
        self.capacity = capacity
        self.sink: Callable[[JournalEvent], None] = _no_sink
        self._lock = threading.RLock()
        self._head_seq = -1

    @property
    def head_seq(self) -> int:
        """``seq`` of the most recently recorded event, ``-1`` when empty.

        It does not depend on what is retained and is what checkpoints
        record as the high-water mark.
        """
        return self._head_seq

    def covers(self, seq: int) -> bool:
        """Whether every event recorded after *seq* is still retained —
        i.e. :meth:`events_since` can bring a fold valid at *seq* to the head."""
        with self._lock:
            return self._head_seq - seq <= len(self._columns[0])

    def record(
        self,
        type: EventType,
        task_id: str,
        *,
        job_id: Optional[str] = None,
        site: Optional[str] = None,
        trace_id: Optional[str] = None,
        span_id: Optional[str] = None,
        time: Optional[float] = None,
        **attributes: Any,
    ) -> JournalEvent:
        if type.__class__ is not EventType:
            type = EventType(type)
        keys, values = _payload(attributes)
        with self._lock:
            seq = self._head_seq + 1
            if time is None:
                time = self._clock()
            event = _fill(
                object.__new__(JournalEvent), seq, time, type, task_id, job_id, site,
                trace_id, span_id, keys, values,
            )
            if self.capacity:
                (push_time, push_type, push_task, push_job, push_site, push_trace,
                 push_span, push_keys, push_values) = self._appends
                push_time(time)
                push_type(type)
                push_task(task_id)
                push_job(job_id)
                push_site(site)
                push_trace(trace_id)
                push_span(span_id)
                push_keys(keys)
                push_values(values)
            self._head_seq = seq
            self.sink(event)
        return event

    def _window(
        self, *, since: int = -1, limit: Optional[int] = None
    ) -> Tuple[range, List[Tuple[Any, ...]]]:
        """The seqs of the retained rows past *since* (the newest *limit*
        of them), and those rows' column slices, copied under the lock."""
        with self._lock:
            retained = len(self._columns[0])
            first = self._head_seq - retained + 1  # the seq at ring index 0
            start = max(since + 1 - first, 0)
            if limit is not None:
                start = max(start, retained - limit)
            start = min(start, retained)
            return (
                range(first + start, self._head_seq + 1),
                [tuple(islice(column, start, None)) for column in self._columns],
            )

    # -- queries -------------------------------------------------------

    def events(
        self,
        *,
        type: Optional[EventType] = None,
        task_id: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[JournalEvent]:
        """The retained events, oldest first; *limit* keeps the newest that
        many (``0``: none; a negative limit is a ``ValueError``)."""
        if limit is not None and limit < 0:
            raise ValueError(f"limit must not be negative, got {limit}")
        if type is None and task_id is None:
            seqs, columns = self._window(limit=limit)
            return list(map(_row, seqs, *columns))
        seqs, columns = self._window()
        keep = []  # one mask per filter, over the type and task columns
        if type is not None:
            keep.append(map(is_, columns[_TYPE], repeat(EventType(type))))
        if task_id is not None:
            keep.append(map(eq, columns[_TASK], repeat(task_id)))
        rows = compress(zip(seqs, *columns), map(all, zip(*keep)))
        events = list(starmap(_row, rows))
        return events if limit is None else events[max(len(events) - limit, 0):]

    def timeline(self, task_id: str) -> List[JournalEvent]:
        """Every event for one task, in (time, seq) order."""
        return sorted(self.events(task_id=task_id), key=lambda e: (e.time, e.seq))

    def events_since(self, seq: int) -> List[JournalEvent]:
        """Every retained event with ``seq`` strictly greater than ``seq``.

        The tail a rebuild or restore folds on top of a snapshot to reach
        the head, and the rows a checkpoint cut against a base persists.
        """
        seqs, columns = self._window(since=seq)
        return list(map(_row, seqs, *columns))

    def task_ids(self) -> List[str]:
        """Every retained row's task id, once each, in first-seen order."""
        with self._lock:
            return list(dict.fromkeys(self._columns[_TASK]))

    def __len__(self) -> int:
        return len(self._columns[0])  # len() is atomic under the GIL

    # -- persistence (state-store backend) ------------------------------

    def save_to(self, store: StateStore, *, since: int = -1) -> int:
        """Write the retained events past *since* into ``observability.journal``.

        The default writes the whole retained window; a checkpoint that
        continues a base passes the base's ``head_seq`` and stores only
        the tail.
        """
        store.register_namespace(namespace_record(OBSERVABILITY_JOURNAL))
        store.clear(OBSERVABILITY_JOURNAL)
        seqs, columns = self._window(since=since)
        return store.put_many(
            OBSERVABILITY_JOURNAL,
            ((f"{row[0]:012d}", _wire(*row)) for row in zip(seqs, *columns)),
        )

    def load_from(self, store: StateStore, *, head_seq: int = -1) -> int:
        """Replace contents from ``observability.journal``.

        Rows are appended directly (the sink does **not** hear them — a
        restore replays state, not events) and the head moves to the last
        restored ``seq`` (or to *head_seq*, the saving journal's head, when
        it had retained nothing) so new events keep the monotonic order.
        The stored rows must be one unbroken run of ``seq``s, ending at
        *head_seq* when that is given: a stream that goes backwards, skips
        a ``seq`` or stops short of the head is rejected with
        :class:`OutOfOrderError`, naming the first break, before any row is
        applied — a corrupt or hand-spliced store must not silently produce
        a journal consumers cannot fold.
        """
        rows = [row for _, row in store.items(OBSERVABILITY_JOURNAL)]
        last_seq = rows[0]["seq"] - 1 if rows else -1
        for row in rows:
            if row["seq"] != last_seq + 1:
                raise OutOfOrderError(
                    f"journal import: seq {row['seq']} after {last_seq} "
                    + ("violates monotonic order" if row["seq"] <= last_seq
                       else f"skips seq {last_seq + 1}..{row['seq'] - 1}")
                )
            last_seq = row["seq"]
        if rows and last_seq < head_seq:
            raise OutOfOrderError(
                f"journal import: rows stop at seq {last_seq}, short of the "
                f"head {head_seq} (seq {last_seq + 1}..{head_seq} missing)"
            )
        fields = [
            (
                row["time"], EventType(row["type"]), row["task_id"], row["job_id"],
                row["site"], row["trace_id"], row["span_id"],
                *_payload(row["attributes"]),
            )
            for row in rows
        ]
        columns = list(zip(*fields)) or [()] * len(_COLUMNS)
        with self._lock:
            for column, values in zip(self._columns, columns):
                column.clear()
                column.extend(values)
            self._head_seq = max(head_seq, last_seq)
            return len(self._columns[0])
