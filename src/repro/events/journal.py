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
import itertools
import threading
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Optional

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
    """An imported journal stream violated monotonic ``seq`` order."""


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


#: Shared empty mapping for the (very common) attribute-less event, so a
#: journal at capacity does not hold one throwaway dict per row.
_NO_ATTRIBUTES: Dict[str, Any] = MappingProxyType({})  # type: ignore[assignment]


@dataclass(frozen=True, slots=True)
class JournalEvent:
    """One immutable journal row."""

    seq: int
    time: float
    type: EventType
    task_id: str
    job_id: Optional[str] = None
    site: Optional[str] = None
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    attributes: Dict[str, Any] = field(default_factory=dict)

    def to_wire(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "time": self.time,
            "type": self.type.value,
            "task_id": self.task_id,
            "job_id": self.job_id,
            "site": self.site,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "attributes": dict(self.attributes),
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
    """

    def __init__(self, clock: Callable[[], float], capacity: int = 100_000) -> None:
        if capacity < 0:
            raise ValueError("capacity must not be negative")
        self._clock = clock
        self._events: deque = deque(maxlen=capacity)
        self._seq = itertools.count()
        self.capacity = capacity
        self.sink: Callable[[JournalEvent], None] = _no_sink
        self._lock = threading.RLock()
        self._head_seq = -1

    @property
    def head_seq(self) -> int:
        """``seq`` of the most recently recorded event, ``-1`` when empty.

        Unlike ``self._events[-1].seq`` this does not depend on what is
        retained and is what checkpoints record as the high-water mark.
        """
        return self._head_seq

    def covers(self, seq: int) -> bool:
        """Whether every event recorded after *seq* is still retained —
        i.e. :meth:`events_since` can bring a fold valid at *seq* to the head."""
        if self._head_seq <= seq:
            return True
        try:
            return self._events[0].seq <= seq + 1
        except IndexError:  # nothing retained
            return False

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
        with self._lock:
            event = JournalEvent(
                seq=next(self._seq),
                time=self._clock() if time is None else time,
                type=type if type.__class__ is EventType else EventType(type),
                task_id=task_id,
                job_id=job_id,
                site=site,
                trace_id=trace_id,
                span_id=span_id,
                attributes=attributes if attributes else _NO_ATTRIBUTES,
            )
            self._events.append(event)
            self._head_seq = event.seq
            self.sink(event)
        return event

    def _snapshot(self) -> List[JournalEvent]:
        with self._lock:
            return list(self._events)

    # -- queries -------------------------------------------------------

    def events(
        self,
        *,
        type: Optional[EventType] = None,
        task_id: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[JournalEvent]:
        snapshot = self._snapshot()
        if type is not None:
            snapshot = [e for e in snapshot if e.type is EventType(type)]
        if task_id is not None:
            snapshot = [e for e in snapshot if e.task_id == task_id]
        if limit is not None:
            snapshot = snapshot[-limit:]
        return snapshot

    def timeline(self, task_id: str) -> List[JournalEvent]:
        """Every event for one task, in (time, seq) order."""
        return sorted(self.events(task_id=task_id), key=lambda e: (e.time, e.seq))

    def events_since(self, seq: int) -> List[JournalEvent]:
        """Every retained event with ``seq`` strictly greater than ``seq``.

        The tail a rebuild or restore folds on top of a snapshot to reach
        the head, and the rows a checkpoint cut against a base persists.
        """
        return [e for e in self._snapshot() if e.seq > seq]

    def task_ids(self) -> List[str]:
        snapshot = self._snapshot()
        seen: List[str] = []
        known = set()
        for e in snapshot:
            if e.task_id not in known:
                known.add(e.task_id)
                seen.append(e.task_id)
        return seen

    def __len__(self) -> int:
        return len(self._events)  # len() is atomic under the GIL

    # -- persistence (state-store backend) ------------------------------

    def save_to(self, store: StateStore, *, since: int = -1) -> int:
        """Write the retained events past *since* into ``observability.journal``.

        The default writes the whole retained window; a checkpoint that
        continues a base passes the base's ``head_seq`` and stores only
        the tail.
        """
        store.register_namespace(namespace_record(OBSERVABILITY_JOURNAL))
        store.clear(OBSERVABILITY_JOURNAL)
        return store.put_many(
            OBSERVABILITY_JOURNAL,
            ((f"{e.seq:012d}", e.to_wire()) for e in self.events_since(since)),
        )

    def load_from(self, store: StateStore, *, head_seq: int = -1) -> int:
        """Replace contents from ``observability.journal``.

        Events are appended directly (the sink does **not** hear them — a
        restore replays state, not events) and the sequence counter is
        re-seeded past the highest restored ``seq`` (or *head_seq*, the
        saving journal's head, when it had retained nothing) so new events
        keep the monotonic order.  A stream whose ``seq`` values are not
        strictly increasing is rejected with :class:`OutOfOrderError`
        before any row is applied — a corrupt or hand-spliced store must
        not silently produce a journal consumers cannot fold.
        """
        rows = [row for _, row in store.items(OBSERVABILITY_JOURNAL)]
        last_seq = -1
        for row in rows:
            if row["seq"] <= last_seq:
                raise OutOfOrderError(
                    f"journal import: seq {row['seq']} after {last_seq} "
                    "violates monotonic order"
                )
            last_seq = row["seq"]
        events = [
            JournalEvent(
                seq=row["seq"],
                time=row["time"],
                type=EventType(row["type"]),
                task_id=row["task_id"],
                job_id=row["job_id"],
                site=row["site"],
                trace_id=row["trace_id"],
                span_id=row["span_id"],
                attributes=row["attributes"] or _NO_ATTRIBUTES,
            )
            for row in rows
        ]
        max_seq = max(head_seq, last_seq)
        with self._lock:
            self._events.clear()
            self._events.extend(events)
            self._seq = itertools.count(max_seq + 1)
            self._head_seq = max_seq
            return len(self._events)
