"""The event-sourced core: the journal as the authoritative write path.

Until PR 9 the :class:`~repro.events.journal.EventJournal` merely
*observed* the system — accounting, the monitoring DB, MonALISA, and the
estimator history each mutated their own state directly.  This module
inverts that: every state change is journalled **first** and the
downstream stores are replayable *consumers* whose state is a pure fold
over the sequenced log.

Wiring (see :func:`repro.gae.build_gae`, which builds one core for every
GAE, instrumented or not):

- :class:`EventCore` owns the consumer registry and is the journal's one
  sink; dispatch hands each event to one observer (the instrumentation's
  telemetry count) and then, synchronously, to every consumer, so no consumer can
  lag the journal head.  Its ``emit_*`` methods are what the producers
  are constructed with (``EstimatorService``, ``HistoryRecorder``,
  ``DBManager``, ``MonALISARepository``) — a producer has no other way
  to write.  :meth:`EventCore.register_stores` registers the consumer
  behind each store, for ``build_gae`` and for a stand-alone producer
  alike.
- Each :class:`JournalConsumer` states one ``fold`` of the event kinds it
  cares about into its backing store and one ``save``/``load`` pair — its
  stores' checkpoint rows.  Its fingerprint *is* those rows, so it can
  **rebuild** its state in a twin over fresh stores from a baseline plus
  the journal tail; :meth:`JournalConsumer.verify` checks the rebuilt
  fingerprint is bit-identical to the live one.
- A checkpoint (:mod:`repro.store.checkpoint`) saves and loads consumer
  state through that same pair; a continuation restores a consumer as
  *base snapshot + quiet replay of the journal tail*.

The consumer table in ``docs/ARCHITECTURE.md`` is drift-gated against
:data:`CONSUMER_NAMES` by ``tools/check_docs.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.core.estimators.history import HistoryRepository, TaskRecord
from repro.core.estimators.queue_time import RuntimeEstimateDB
from repro.core.monitoring.db_manager import DBManager
from repro.core.monitoring.records import MonitoringRecord
from repro.monalisa.repository import JobStateEvent, MonALISARepository
from repro.events.journal import (
    JOURNAL_SCHEMA_VERSION,
    EventJournal,
    EventType,
    JournalEvent,
)
from repro.store.base import StateStore
from repro.store.memory import MemoryStore
from repro.store.registry import (
    ESTIMATOR_HISTORY,
    ESTIMATOR_RUNTIME,
    MONALISA_EVENTS,
    MONALISA_TIMESERIES,
    MONITORING_JOBS,
    namespace_record,
)

__all__ = [
    "CONSUMER_NAMES",
    "CONSUMER_NAMESPACES",
    "EventCore",
    "JournalConsumer",
    "EstimatorConsumer",
    "MonitoringConsumer",
    "MonALISAConsumer",
]


class JournalConsumer:
    """Base class: a store that is a pure fold over the event log.

    A subclass names the event ``kinds`` it folds and the store
    ``namespaces`` holding its materialised state, and states each thing
    once: :meth:`fold` (one event into the store), :meth:`save` /
    :meth:`load` (the store's checkpoint rows) and :meth:`twin` (the
    same consumer over fresh stores).  Fingerprint, baseline, rebuild
    and verify are derived from those here.
    """

    name: str = ""
    kinds: FrozenSet[EventType] = frozenset()
    namespaces: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.events_applied = 0
        self.baseline_seq = -1
        #: Set by :meth:`rebaseline`, first when the core registers us.
        self._baseline: Optional[MemoryStore] = None

    def fold(self, event: JournalEvent, notify: bool) -> None:
        """Fold one event of ``kinds`` into the store.

        Live dispatch passes ``notify=True`` (the store's listeners and
        subscribers hear it); a restore replaying the journal tail on
        top of a snapshot passes ``False`` — the *state* must advance,
        but nobody may observe the same event twice.
        """
        raise NotImplementedError

    def save(self, store: StateStore) -> None:
        """Write the store's checkpoint rows into ``namespaces`` of *store*."""
        raise NotImplementedError

    def load(self, store: StateStore) -> None:
        """Install the rows :meth:`save` wrote, quietly."""
        raise NotImplementedError

    def twin(self) -> "contextlib.AbstractContextManager[JournalConsumer]":
        """A consumer of this class over fresh, empty stores (a context
        manager: a scratch store may hold a connection)."""
        raise NotImplementedError

    # -- derived: fingerprint / baseline / rebuild / verify -------------
    def _saved(self) -> MemoryStore:
        """A scratch store holding exactly what :meth:`save` writes."""
        scratch = MemoryStore()
        for namespace in self.namespaces:
            scratch.register_namespace(namespace_record(namespace))
        self.save(scratch)
        return scratch

    def fingerprint(self) -> Dict[str, Any]:
        """The consumer's checkpoint rows: a JSON-safe, bit-exact digest."""
        saved = self._saved()
        return {namespace: saved.items(namespace) for namespace in self.namespaces}

    def rebaseline(self, journal: EventJournal) -> None:
        """Capture the current live state as the fold origin.

        Needed because not all state is journal-derived: pre-seeded
        history, imported traces, and checkpoint restores all install
        state that predates the retained log.  After ``rebaseline`` the
        invariant is ``fold(baseline, events_since(baseline_seq)) ==
        live state``.
        """
        self.baseline_seq = journal.head_seq
        self._baseline = self._saved()

    def rebuild(self, journal: EventJournal) -> Dict[str, Any]:
        """Fingerprint obtained by folding baseline + journal tail."""
        with self.twin() as twin:
            twin.load(self._baseline)
            for event in journal.events_since(self.baseline_seq):
                if event.type in self.kinds:
                    twin.fold(event, False)
            return twin.fingerprint()

    def verify(self, journal: EventJournal) -> Dict[str, Any]:
        """Rebuild from the journal and compare with the live state
        (``covered``: the retained log still reaches back to the baseline)."""
        return {
            "consumer": self.name,
            "identical": self.rebuild(journal) == self.fingerprint(),
            "covered": journal.covers(self.baseline_seq),
            "baseline_seq": self.baseline_seq,
            "events_applied": self.events_applied,
        }


def _never_emits(*args: Any) -> None:
    raise RuntimeError("a twin's store only folds; it is not a producer")


class EstimatorConsumer(JournalConsumer):
    """Folds at-submission estimates and task-history rows.

    Backs :class:`RuntimeEstimateDB` (``estimate-recorded``) and
    :class:`HistoryRepository` (``history-recorded``) — the two stores
    behind ``estimator.estimate_runtime`` and the §6.2 queue-time scan.
    """

    name = "estimators"
    kinds = frozenset({EventType.ESTIMATE_RECORDED, EventType.HISTORY_RECORDED})
    namespaces = (ESTIMATOR_RUNTIME, ESTIMATOR_HISTORY)

    def __init__(self, estimate_db: RuntimeEstimateDB, history: HistoryRepository) -> None:
        super().__init__()
        self.estimate_db = estimate_db
        self.history = history

    def fold(self, event: JournalEvent, notify: bool) -> None:
        if event.type is EventType.ESTIMATE_RECORDED:
            self.estimate_db.record(event.task_id, event.attributes["value"], notify)
        else:
            # The record's site rides on the event envelope.
            self.history.add(TaskRecord(site=event.site or "", **event.attributes), notify)

    def save(self, store: StateStore) -> None:
        self.history.save_to(store)
        self.estimate_db.save_to(store)

    def load(self, store: StateStore) -> None:
        # The history is append-only and this one empty: a fresh build's
        # or a twin's.
        self.history.extend(HistoryRepository.load_from(store), notify=False)
        self.estimate_db.load_from(store)

    @contextlib.contextmanager
    def twin(self) -> Iterator["EstimatorConsumer"]:
        yield EstimatorConsumer(RuntimeEstimateDB(), HistoryRepository())


class MonitoringConsumer(JournalConsumer):
    """Folds ``monitoring-updated`` events into the §5.4 DBManager.

    The event payload is the full :class:`MonitoringRecord` (wire-safe),
    so the SQL upsert + history insert the live path performs is exactly
    reproducible from the log — a twin folds through a scratch
    ``DBManager``, so AUTOINCREMENT history seqs and row order come from
    the same SQL.
    """

    name = "monitoring"
    kinds = frozenset({EventType.MONITORING_UPDATED})
    namespaces = (MONITORING_JOBS,)

    def __init__(self, db_manager: DBManager) -> None:
        super().__init__()
        self.db_manager = db_manager

    def fold(self, event: JournalEvent, notify: bool) -> None:
        record = MonitoringRecord(
            task_id=event.task_id, job_id=event.job_id, site=event.site,
            **event.attributes,
        )
        self.db_manager.apply_record(record, notify)

    def save(self, store: StateStore) -> None:
        store.put(MONITORING_JOBS, "state", self.db_manager.export_state())

    def load(self, store: StateStore) -> None:
        self.db_manager.import_state(store.get(MONITORING_JOBS, "state"))

    @contextlib.contextmanager
    def twin(self) -> Iterator["MonitoringConsumer"]:
        with DBManager(_never_emits) as scratch:
            yield MonitoringConsumer(scratch)


class MonALISAConsumer(JournalConsumer):
    """Folds metric samples and job-state events into MonALISA.

    ``metric-published`` appends one time-series sample;
    ``monitoring-updated`` derives the job-state publish the DBManager
    used to perform inline — the consumer ordering (monitoring before
    monalisa) preserves the old SQL-then-publish sequence.
    """

    name = "monalisa"
    kinds = frozenset({EventType.METRIC_PUBLISHED, EventType.MONITORING_UPDATED})
    namespaces = (MONALISA_TIMESERIES, MONALISA_EVENTS)

    def __init__(self, repository: MonALISARepository) -> None:
        super().__init__()
        self.repository = repository

    def fold(self, event: JournalEvent, notify: bool) -> None:
        a = event.attributes
        if event.type is EventType.METRIC_PUBLISHED:
            self.repository._apply_publish(
                a["farm"], a["metric"], a["sample_time"], a["value"], notify
            )
        else:
            self.repository._apply_job_state(
                JobStateEvent(
                    time=a["snapshot_time"],
                    task_id=event.task_id,
                    job_id=event.job_id,
                    site=event.site,
                    state=a["status"],
                    progress=a["progress"],
                ),
                notify,
            )

    def save(self, store: StateStore) -> None:
        self.repository.save_to(store)

    def load(self, store: StateStore) -> None:
        self.repository.load_from(store)

    @contextlib.contextmanager
    def twin(self) -> Iterator["MonALISAConsumer"]:
        yield MonALISAConsumer(MonALISARepository(_never_emits))


#: The shipped consumers in registration order (monitoring before
#: monalisa: the SQL upsert lands before the derived MonALISA publish,
#: matching the pre-event-sourced ``DBManager.update`` ordering).  Each
#: backs a store and is on every build.
_SHIPPED = (EstimatorConsumer, MonitoringConsumer, MonALISAConsumer)
CONSUMER_NAMES: Tuple[str, ...] = tuple(c.name for c in _SHIPPED)
#: The consumers' materialised state: present in a self-contained
#: checkpoint, absent from a continuation.
CONSUMER_NAMESPACES: Tuple[str, ...] = tuple(ns for c in _SHIPPED for ns in c.namespaces)


def _untraced(task_id: str) -> Tuple[Optional[str], Optional[str]]:
    return (None, None)


def _unobserved(event: JournalEvent) -> None:
    pass


class EventCore:
    """Producer seams + consumer registry + dispatcher over one journal.

    Building a core makes its dispatch the journal's sink; events are
    dispatched to consumers in registration order (deterministic — the
    ordering guarantees in each consumer's docstring depend on it).
    """

    def __init__(self, journal: EventJournal) -> None:
        self.journal = journal
        self.consumers: Dict[str, JournalConsumer] = {}
        #: ``task_id -> (trace_id, span_id)`` stamped on a task's derived
        #: events; the instrumentation points it at its lifecycle traces.
        self.trace_context = _untraced
        #: Hears every live event before any consumer folds it; the
        #: instrumentation points it at its telemetry's per-window count.
        self.observe = _unobserved
        journal.sink = self._dispatch

    def register(self, consumer: JournalConsumer) -> JournalConsumer:
        if consumer.name in self.consumers:
            raise ValueError(f"consumer {consumer.name!r} already registered")
        self.consumers[consumer.name] = consumer
        # Anchor the fold at what the store already holds (e.g. an
        # imported task history) so rebuild-from-journal is well-defined.
        consumer.rebaseline(self.journal)
        return consumer

    def register_stores(
        self,
        *,
        estimators: Optional[Tuple[RuntimeEstimateDB, HistoryRepository]] = None,
        db_manager=None,
        monalisa: Optional[MonALISARepository] = None,
    ) -> "EventCore":
        """Register the consumer behind each store given, in
        :data:`CONSUMER_NAMES` order: all three for ``build_gae``, its own
        for a stand-alone producer."""
        if estimators is not None:
            self.register(EstimatorConsumer(*estimators))
        if db_manager is not None:
            self.register(MonitoringConsumer(db_manager))
        if monalisa is not None:
            self.register(MonALISAConsumer(monalisa))
        return self

    def _dispatch(self, event: JournalEvent, notify: bool = True) -> None:
        """The observer hears a live *event*, then every consumer of its
        ``kinds`` folds it whatever an earlier one raised; the first
        exception then goes to the producer."""
        if notify:
            self.observe(event)
        failure = None
        for consumer in self.consumers.values():
            if event.type in consumer.kinds:
                consumer.events_applied += 1
                try:
                    consumer.fold(event, notify)
                except Exception as exc:
                    if failure is None:
                        failure = exc
        if failure is not None:
            raise failure

    # -- producer seams (journal-first write path) ----------------------
    def emit_estimate(self, task_id: str, value: float) -> None:
        """What ``EstimatorService.record_estimate`` calls."""
        trace_id, span_id = self.trace_context(task_id)
        self.journal.record(
            EventType.ESTIMATE_RECORDED, task_id,
            trace_id=trace_id, span_id=span_id, value=float(value),
        )

    def emit_history(self, record: TaskRecord, task_id: str) -> None:
        """What ``HistoryRecorder`` calls for each finished task.

        The record's ``site`` rides on the event envelope (not the
        attributes) — consumers rebuild the full record from both.
        """
        trace_id, span_id = self.trace_context(task_id)
        attrs = dataclasses.asdict(record)
        attrs.pop("site")
        self.journal.record(
            EventType.HISTORY_RECORDED, task_id, site=record.site or None,
            trace_id=trace_id, span_id=span_id, **attrs,
        )

    def emit_monitoring(self, record: MonitoringRecord) -> None:
        """What ``DBManager.update`` calls.

        ``task_id``/``job_id``/``site`` live on the event envelope; the
        remaining record fields are the attributes.
        """
        trace_id, span_id = self.trace_context(record.task_id)
        attrs = dataclasses.asdict(record)
        attrs.pop("task_id")
        attrs.pop("job_id")
        attrs.pop("site")
        self.journal.record(
            EventType.MONITORING_UPDATED, record.task_id,
            job_id=record.job_id, site=record.site,
            trace_id=trace_id, span_id=span_id, **attrs,
        )

    def emit_metric(self, farm: str, metric: str, time: float, value: float) -> None:
        """What ``MonALISARepository.publish`` calls."""
        self.journal.record(
            EventType.METRIC_PUBLISHED, f"{farm}/{metric}", site=farm,
            farm=farm, metric=metric, sample_time=float(time), value=float(value),
        )

    # -- restore / verification ----------------------------------------
    def replay_tail(self, events: List[JournalEvent]) -> int:
        """Quietly fold a journal tail into every consumer (restore path).

        Events must arrive in ``seq`` order; each consumer folds the
        kinds it owns, and the observer hears none of them.
        """
        for event in events:
            self._dispatch(event, notify=False)
        return len(events)

    def rebaseline_all(self) -> None:
        """Re-anchor every consumer's fold origin at the current state."""
        for consumer in self.consumers.values():
            consumer.rebaseline(self.journal)

    def verify_all(self) -> List[Dict[str, Any]]:
        return [c.verify(self.journal) for c in self.consumers.values()]

    def cursors(self) -> Dict[str, int]:
        # Dispatch is synchronous, so every consumer is at the head.  Kept
        # only because the benchmark's traced rig reads it for
        # ``eventcore.consumer_lag_max``.
        return dict.fromkeys(self.consumers, self.journal.head_seq)

    def snapshot(self) -> Dict[str, Any]:
        """Wire-safe summary for ``system.consumers``.

        Restore-invariant by design: a restored GAE answers identically
        to the live one at the barrier, so process-local diagnostics
        (``events_applied``, ``baseline_seq``) are exposed only through
        :meth:`verify_all` and the ``journal replay`` CLI.
        """
        return {
            "enabled": True,
            "journal_head_seq": self.journal.head_seq,
            "journal_schema": JOURNAL_SCHEMA_VERSION,
            "consumers": [
                {
                    "name": c.name,
                    "kinds": sorted(k.value for k in c.kinds),
                    "namespaces": list(c.namespaces),
                }
                for c in self.consumers.values()
            ],
        }
