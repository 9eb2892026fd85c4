"""The event-sourced core: the journal as the authoritative write path.

Until PR 9 the :class:`~repro.events.journal.EventJournal` merely
*observed* the system — accounting, the monitoring DB, MonALISA, and the
estimator history each mutated their own state directly.  This module
inverts that: every state change is journalled **first** and the
downstream stores are replayable *consumers* whose state is a pure fold
over the sequenced log.

Wiring (see :func:`repro.gae.build_gae`, which builds one core for every
GAE, instrumented or not):

- :class:`EventCore` owns the consumer registry and appends one dispatch
  listener to the journal; its ``emit_*`` methods are what the producers
  are constructed with (``EstimatorService``, ``HistoryRecorder``,
  ``DBManager``, ``MonALISARepository``) — a producer has no other way
  to write.  :meth:`EventCore.register_stores` registers the consumer
  behind each store, for ``build_gae`` and for a stand-alone producer
  alike.
- Each :class:`JournalConsumer` folds the event kinds it cares about into
  its backing store, tracks a monotone ``cursor`` (the highest journal
  ``seq`` it has seen), and can **rebuild** its state from a baseline plus
  the journal tail — :meth:`JournalConsumer.verify` checks the rebuilt
  fingerprint is bit-identical to the live one.
- A checkpoint continuation (:mod:`repro.store.checkpoint`) restores a
  consumer as *base snapshot + quiet replay of the journal tail*.

The consumer table in ``docs/ARCHITECTURE.md`` is drift-gated against
:data:`CONSUMER_NAMES` by ``tools/check_docs.py``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.core.estimators.history import HistoryRepository, TaskRecord
from repro.core.estimators.queue_time import RuntimeEstimateDB
from repro.core.monitoring.records import MonitoringRecord
from repro.monalisa.repository import JobStateEvent, MonALISARepository
from repro.events.journal import (
    JOURNAL_SCHEMA_VERSION,
    EventJournal,
    EventType,
    JournalEvent,
)

__all__ = [
    "CONSUMER_NAMES",
    "DERIVED_EVENT_TYPES",
    "EventCore",
    "JournalConsumer",
    "EstimatorConsumer",
    "MonitoringConsumer",
    "MonALISAConsumer",
    "AccountingConsumer",
]

#: Journal-schema-v2 event kinds that *carry* a state change (as opposed
#: to merely describing a lifecycle transition).  Kept here so tests and
#: the CLI can separate the classic lifecycle timeline from the
#: event-sourced write traffic.
DERIVED_EVENT_TYPES: FrozenSet[EventType] = frozenset(
    {
        EventType.ESTIMATE_RECORDED,
        EventType.MONITORING_UPDATED,
        EventType.METRIC_PUBLISHED,
        EventType.HISTORY_RECORDED,
    }
)

#: Registration order of the shipped consumers (monitoring before
#: monalisa: the SQL upsert lands before the derived MonALISA publish,
#: matching the pre-event-sourced ``DBManager.update`` ordering).  The
#: first three back a store and are on every build; ``accounting`` folds
#: lifecycle events, which only an instrumented build journals.
CONSUMER_NAMES: Tuple[str, ...] = (
    "estimators",
    "monitoring",
    "monalisa",
    "accounting",
)


class JournalConsumer:
    """Base class: a store that is a pure fold over the event log.

    Subclasses define ``kinds`` (the event types they fold) and
    ``namespaces`` (the store namespaces holding their materialised
    state — skipped by incremental checkpoints), and implement the live
    fold (:meth:`apply`), the quiet fold (:meth:`replay` — no
    cross-subsystem fan-out, used when restoring from snapshot + tail),
    and the rebuild/verify pair.

    The ``cursor`` advances on *every* dispatched event — not just
    interesting ones — so ``lag = journal.head_seq - cursor`` is a
    meaningful staleness measure for every consumer.
    """

    name: str = ""
    kinds: FrozenSet[EventType] = frozenset()
    namespaces: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self._cursor = -1
        self.events_applied = 0
        self.baseline_seq = -1

    @property
    def cursor(self) -> int:
        """Highest journal ``seq`` this consumer has observed."""
        return self._cursor

    def note(self, event: JournalEvent) -> None:
        """Advance the cursor past an event this consumer ignores."""
        self._cursor = event.seq

    def apply(self, event: JournalEvent) -> None:
        """Fold one event into live state (with normal fan-out)."""
        raise NotImplementedError

    def replay(self, event: JournalEvent) -> None:
        """Fold one event quietly (no listeners / cross-subsystem pubs).

        Used when an incremental restore replays the journal tail on top
        of a base snapshot: the *state* must advance, but subscribers
        must not observe the same event twice.
        """
        raise NotImplementedError

    # -- rebuild / verification ----------------------------------------
    def rebaseline(self, journal: EventJournal) -> None:
        """Capture the current live state as the fold origin.

        Needed because not all state is journal-derived: pre-seeded
        history, imported traces, and checkpoint restores all install
        state that predates the retained log.  After ``rebaseline`` the
        invariant is ``fold(baseline, events_since(baseline_seq)) ==
        live state``.
        """
        self.baseline_seq = journal.head_seq
        self._capture_baseline()

    def _capture_baseline(self) -> None:
        raise NotImplementedError

    def live_fingerprint(self) -> Any:
        """A JSON-safe, bit-exact digest of the live store."""
        raise NotImplementedError

    def rebuild(self, journal: EventJournal) -> Any:
        """Fingerprint obtained by folding baseline + journal tail."""
        events = [
            e
            for e in journal.events_since(self.baseline_seq)
            if e.type in self.kinds
        ]
        return self._fold_fingerprint(events)

    def _fold_fingerprint(self, events: List[JournalEvent]) -> Any:
        raise NotImplementedError

    def verify(self, journal: EventJournal) -> Dict[str, Any]:
        """Rebuild from the journal and compare with the live state
        (``covered``: the retained log still reaches back to the baseline)."""
        covered = journal.covers(self.baseline_seq)
        rebuilt = self.rebuild(journal)
        live = self.live_fingerprint()
        return {
            "consumer": self.name,
            "identical": rebuilt == live,
            "covered": covered,
            "baseline_seq": self.baseline_seq,
            "cursor": self._cursor,
            "events_applied": self.events_applied,
        }


def _record_row(record: TaskRecord) -> Dict[str, Any]:
    return dataclasses.asdict(record)


def _task_record(event: JournalEvent) -> TaskRecord:
    """Rebuild the TaskRecord a ``history-recorded`` event carries."""
    return TaskRecord(site=event.site or "", **event.attributes)


def _monitoring_record(event: JournalEvent) -> MonitoringRecord:
    """Rebuild the MonitoringRecord a ``monitoring-updated`` event carries."""
    return MonitoringRecord(
        task_id=event.task_id,
        job_id=event.job_id,
        site=event.site,
        **event.attributes,
    )


def _never_emits(record: MonitoringRecord) -> None:
    raise RuntimeError("a scratch DBManager only folds; it is not a producer")


class EstimatorConsumer(JournalConsumer):
    """Folds at-submission estimates and task-history rows.

    Backs :class:`RuntimeEstimateDB` (``estimate-recorded``) and
    :class:`HistoryRepository` (``history-recorded``) — the two stores
    behind ``estimator.estimate_runtime`` and the §6.2 queue-time scan.
    """

    name = "estimators"
    kinds = frozenset({EventType.ESTIMATE_RECORDED, EventType.HISTORY_RECORDED})
    namespaces = ("estimator.runtime", "estimator.history")

    def __init__(self, estimate_db: RuntimeEstimateDB, history: HistoryRepository) -> None:
        super().__init__()
        self.estimate_db = estimate_db
        self.history = history
        self._base_estimates: Dict[str, float] = {}
        self._base_records: List[Dict[str, Any]] = []

    def apply(self, event: JournalEvent) -> None:
        self.events_applied += 1
        if event.type is EventType.ESTIMATE_RECORDED:
            self.estimate_db.record(event.task_id, event.attributes["value"])
        else:
            self.history.add(_task_record(event))

    def replay(self, event: JournalEvent) -> None:
        self.events_applied += 1
        if event.type is EventType.ESTIMATE_RECORDED:
            self.estimate_db.record(
                event.task_id, event.attributes["value"], notify=False
            )
        else:
            self.history.add(_task_record(event), notify=False)

    def _capture_baseline(self) -> None:
        self._base_estimates = self.estimate_db.as_dict()
        self._base_records = [_record_row(r) for r in self.history.records()]

    def live_fingerprint(self) -> Any:
        return {
            "estimates": self.estimate_db.as_dict(),
            "records": [_record_row(r) for r in self.history.records()],
        }

    def _fold_fingerprint(self, events: List[JournalEvent]) -> Any:
        estimates = dict(self._base_estimates)
        records = list(self._base_records)
        for event in events:
            if event.type is EventType.ESTIMATE_RECORDED:
                estimates[event.task_id] = float(event.attributes["value"])
            else:
                records.append(_record_row(_task_record(event)))
        return {"estimates": estimates, "records": records}


class MonitoringConsumer(JournalConsumer):
    """Folds ``monitoring-updated`` events into the §5.4 DBManager.

    The event payload is the full :class:`MonitoringRecord` (wire-safe),
    so the SQL upsert + history insert the live path performs is exactly
    reproducible from the log.
    """

    name = "monitoring"
    kinds = frozenset({EventType.MONITORING_UPDATED})
    namespaces = ("monitoring.jobs",)

    def __init__(self, db_manager) -> None:
        super().__init__()
        self.db_manager = db_manager
        self._base_state: Dict[str, Any] = {"monitoring": [], "history": []}

    def apply(self, event: JournalEvent) -> None:
        self.events_applied += 1
        self.db_manager.apply_record(_monitoring_record(event))

    def replay(self, event: JournalEvent) -> None:
        self.events_applied += 1
        self.db_manager.apply_record(_monitoring_record(event), notify=False)

    def _capture_baseline(self) -> None:
        self._base_state = self.db_manager.export_state()

    def live_fingerprint(self) -> Any:
        return self.db_manager.export_state()

    def _fold_fingerprint(self, events: List[JournalEvent]) -> Any:
        # Fold through a scratch DBManager so AUTOINCREMENT history seqs
        # and row order are produced by the same SQL the live path runs.
        from repro.core.monitoring.db_manager import DBManager

        with DBManager(_never_emits) as scratch:
            scratch.import_state(self._base_state)
            for event in events:
                scratch.apply_record(_monitoring_record(event), notify=False)
            return scratch.export_state()


def _series_key(farm: str, metric: str) -> str:
    return f"{farm}\x1f{metric}"


class MonALISAConsumer(JournalConsumer):
    """Folds metric samples and job-state events into MonALISA.

    ``metric-published`` appends one time-series sample;
    ``monitoring-updated`` derives the job-state publish the DBManager
    used to perform inline — the consumer ordering (monitoring before
    monalisa) preserves the old SQL-then-publish sequence.
    """

    name = "monalisa"
    kinds = frozenset({EventType.METRIC_PUBLISHED, EventType.MONITORING_UPDATED})
    namespaces = ("monalisa.timeseries", "monalisa.events")

    def __init__(self, repository: MonALISARepository) -> None:
        super().__init__()
        self.repository = repository
        self._base_series: Dict[str, List[List[float]]] = {}
        self._base_events: List[Dict[str, Any]] = []

    @staticmethod
    def _job_event(event: JournalEvent) -> JobStateEvent:
        a = event.attributes
        return JobStateEvent(
            time=a["snapshot_time"],
            task_id=event.task_id,
            job_id=event.job_id,
            site=event.site,
            state=a["status"],
            progress=a["progress"],
        )

    def apply(self, event: JournalEvent) -> None:
        self.events_applied += 1
        if event.type is EventType.METRIC_PUBLISHED:
            a = event.attributes
            self.repository._apply_publish(
                a["farm"], a["metric"], a["sample_time"], a["value"]
            )
        else:
            self.repository.publish_job_state(self._job_event(event))

    def replay(self, event: JournalEvent) -> None:
        self.events_applied += 1
        if event.type is EventType.METRIC_PUBLISHED:
            a = event.attributes
            self.repository._apply_publish(
                a["farm"], a["metric"], a["sample_time"], a["value"], notify=False
            )
        else:
            self.repository._apply_job_state(self._job_event(event), notify=False)

    @staticmethod
    def _event_row(e: JobStateEvent) -> Dict[str, Any]:
        return {
            "time": e.time,
            "task_id": e.task_id,
            "job_id": e.job_id,
            "site": e.site,
            "state": e.state,
            "progress": e.progress,
        }

    def _snapshot_series(self) -> Dict[str, List[List[float]]]:
        out: Dict[str, List[List[float]]] = {}
        for (farm, metric), ts in self.repository._series.items():
            out[_series_key(farm, metric)] = [[t, v] for t, v in ts.samples()]
        return out

    def _capture_baseline(self) -> None:
        self._base_series = self._snapshot_series()
        self._base_events = [
            self._event_row(e) for e in self.repository.job_events()
        ]

    def live_fingerprint(self) -> Any:
        return {
            "series": self._snapshot_series(),
            "events": [self._event_row(e) for e in self.repository.job_events()],
        }

    def _fold_fingerprint(self, events: List[JournalEvent]) -> Any:
        series = {key: [list(s) for s in samples] for key, samples in self._base_series.items()}
        rows = list(self._base_events)
        for event in events:
            if event.type is EventType.METRIC_PUBLISHED:
                a = event.attributes
                series.setdefault(_series_key(a["farm"], a["metric"]), []).append(
                    [float(a["sample_time"]), float(a["value"])]
                )
            else:
                rows.append(self._event_row(self._job_event(event)))
        return {"series": series, "events": rows}


class AccountingConsumer(JournalConsumer):
    """Shadow fold of the per-site queue accounting books (§6.2).

    The live :class:`~repro.core.estimators.queue_time.QueueAccounting`
    instances hear raw pool callbacks; this consumer folds the *journal's*
    view of the same transitions (``dispatched`` events carry the frozen
    priority/elapsed payload) into shadow books mirroring the live
    ``_upsert``/``_discard`` insertion order, so the shadow's per-band
    contribution maps — and hence the :func:`math.fsum` band totals —
    are bit-identical for every journal-covered (scheduler-planned)
    workload.  Tasks submitted around the scheduler never journal a
    ``dispatched`` event and are deliberately absent from the shadow.

    ``replay`` is a no-op: a checkpoint restore rebuilds the live books
    wholesale from the rehydrated pools (``QueueAccounting.reseed``), and
    :meth:`rebaseline` then syncs the shadow from them.
    """

    name = "accounting"
    kinds = frozenset(
        {
            EventType.DISPATCHED,
            EventType.ESTIMATE_RECORDED,
            EventType.PRIORITY_CHANGED,
            EventType.STARTED,
            EventType.RESUMED,
            EventType.PAUSED,
            EventType.MOVED,
            EventType.KILLED,
            EventType.FAILED,
            EventType.COMPLETED,
            EventType.FLOCK_FORWARDED,
        }
    )
    namespaces = ()

    _DISCARD_KINDS = frozenset(
        {
            EventType.STARTED,
            EventType.RESUMED,
            EventType.PAUSED,
            EventType.MOVED,
            EventType.KILLED,
            EventType.FAILED,
            EventType.COMPLETED,
            EventType.FLOCK_FORWARDED,
        }
    )

    def __init__(self, services: Dict[str, Any], estimate_db: RuntimeEstimateDB) -> None:
        """``services`` maps site name -> ExecutionService (each carrying
        a ``queue_accounting`` attached by the estimator service)."""
        super().__init__()
        self.services = services
        self.estimate_db = estimate_db
        self._state = self._empty_state()
        self._base: Dict[str, Any] = self._empty_state()

    # -- shadow-book state ---------------------------------------------
    @staticmethod
    def _empty_state() -> Dict[str, Any]:
        return {
            "estimates": {},   # task -> at-submission estimate
            "elapsed": {},     # task -> elapsed frozen at dispatch
            "site_of": {},     # task -> site currently queued at
            "band_of": {},     # task -> priority band
            "books": {},       # site -> band -> {task: contribution}
            "missing": {},     # site -> band -> set of tasks w/o estimate
        }

    def _fallback_for(self, site: Optional[str]) -> Optional[float]:
        service = self.services.get(site or "")
        acct = getattr(service, "queue_accounting", None)
        return getattr(acct, "fallback_runtime_s", None)

    @staticmethod
    def _discard(state: Dict[str, Any], task_id: str) -> None:
        site = state["site_of"].pop(task_id, None)
        band = state["band_of"].pop(task_id, None)
        state["elapsed"].pop(task_id, None)
        if site is None or band is None:
            return
        bands = state["books"].get(site, {})
        entries = bands.get(band)
        if entries is None:
            return
        entries.pop(task_id, None)
        state["missing"].get(site, {}).get(band, set()).discard(task_id)
        if not entries:
            # Mirror QueueAccounting._discard: an emptied band vanishes.
            bands.pop(band, None)
            state["missing"].get(site, {}).pop(band, None)

    def _upsert(
        self, state: Dict[str, Any], site: str, task_id: str, band: int, elapsed: float
    ) -> None:
        self._discard(state, task_id)
        entries = state["books"].setdefault(site, {}).setdefault(band, {})
        if task_id in state["estimates"]:
            estimated: Optional[float] = state["estimates"][task_id]
        else:
            estimated = self._fallback_for(site)
        if estimated is None:
            entries[task_id] = 0.0
            state["missing"].setdefault(site, {}).setdefault(band, set()).add(task_id)
        else:
            entries[task_id] = max(0.0, estimated - elapsed)
        state["site_of"][task_id] = site
        state["band_of"][task_id] = band
        state["elapsed"][task_id] = elapsed

    def _fold(self, state: Dict[str, Any], event: JournalEvent) -> None:
        kind = event.type
        task_id = event.task_id
        if kind is EventType.ESTIMATE_RECORDED:
            value = float(event.attributes["value"])
            state["estimates"][task_id] = value
            site = state["site_of"].get(task_id)
            if site is not None:
                band = state["band_of"][task_id]
                elapsed = state["elapsed"].get(task_id, 0.0)
                state["books"][site][band][task_id] = max(0.0, value - elapsed)
                state["missing"].get(site, {}).get(band, set()).discard(task_id)
        elif kind is EventType.DISPATCHED:
            attrs = event.attributes
            if event.site is None or "priority" not in attrs:
                return  # pre-v2 row (no payload): not foldable
            self._upsert(
                state, event.site, task_id,
                int(attrs["priority"]), float(attrs["elapsed"]),
            )
        elif kind is EventType.PRIORITY_CHANGED:
            site = state["site_of"].get(task_id)
            if site is None:
                return  # priority changed while not queued: nothing filed
            elapsed = state["elapsed"].get(task_id, 0.0)
            self._upsert(
                state, site, task_id, int(event.attributes["new"]), elapsed
            )
        elif kind in self._DISCARD_KINDS:
            self._discard(state, task_id)

    # -- consumer protocol ---------------------------------------------
    def apply(self, event: JournalEvent) -> None:
        self.events_applied += 1
        self._fold(self._state, event)

    def replay(self, event: JournalEvent) -> None:  # see class docstring
        self.events_applied += 1

    @staticmethod
    def _fingerprint_of(state: Dict[str, Any]) -> Any:
        books = {}
        for site in sorted(state["books"]):
            bands = state["books"][site]
            missing = state["missing"].get(site, {})
            if not bands and not any(missing.values()):
                # A site whose books emptied out reads the same as one
                # never filed to; the fold only materialises the latter.
                continue
            books[site] = {
                "bands": {
                    str(band): [[task, value] for task, value in entries.items()]
                    for band, entries in bands.items()
                },
                "missing": {
                    str(band): sorted(tasks)
                    for band, tasks in missing.items()
                    if tasks
                },
            }
        return books

    @staticmethod
    def _copy_state(state: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "estimates": dict(state["estimates"]),
            "elapsed": dict(state["elapsed"]),
            "site_of": dict(state["site_of"]),
            "band_of": dict(state["band_of"]),
            "books": {
                site: {band: dict(entries) for band, entries in bands.items()}
                for site, bands in state["books"].items()
            },
            "missing": {
                site: {band: set(tasks) for band, tasks in missing.items()}
                for site, missing in state["missing"].items()
            },
        }

    def _capture_baseline(self) -> None:
        # Sync the shadow from the live books (covers restores, where the
        # live side was reseeded from the rehydrated pools) and keep a
        # frozen copy as the fold origin.
        state = self._empty_state()
        state["estimates"] = self.estimate_db.as_dict()
        for site in sorted(self.services):
            acct = getattr(self.services[site], "queue_accounting", None)
            if acct is None:
                continue
            pool = acct.service.pool
            for band, entries in acct._bands.items():
                shadow = state["books"].setdefault(site, {})[band] = {}
                for task_id, value in entries.items():
                    shadow[task_id] = value
                    state["site_of"][task_id] = site
                    state["band_of"][task_id] = band
                    try:
                        state["elapsed"][task_id] = pool.ad(task_id).elapsed_runtime()
                    except Exception:
                        state["elapsed"][task_id] = 0.0
            for band, tasks in acct._missing.items():
                if tasks:
                    state["missing"].setdefault(site, {})[band] = set(tasks)
        self._state = state
        self._base = self._copy_state(state)

    def live_fingerprint(self) -> Any:
        state = self._empty_state()
        for site in sorted(self.services):
            acct = getattr(self.services[site], "queue_accounting", None)
            if acct is None:
                continue
            state["books"][site] = {
                band: dict(entries) for band, entries in acct._bands.items()
            }
            state["missing"][site] = {
                band: set(tasks) for band, tasks in acct._missing.items()
            }
        return self._fingerprint_of(state)

    def shadow_fingerprint(self) -> Any:
        """The shadow books as folded live (diagnostics / CLI)."""
        return self._fingerprint_of(self._state)

    def _fold_fingerprint(self, events: List[JournalEvent]) -> Any:
        state = self._copy_state(self._base)
        for event in events:
            self._fold(state, event)
        return self._fingerprint_of(state)


def _untraced(task_id: str) -> Tuple[Optional[str], Optional[str]]:
    return (None, None)


class EventCore:
    """Producer seams + consumer registry + dispatcher over one journal.

    Exactly one listener is appended to the journal; events are
    dispatched to consumers in registration order (deterministic — the
    ordering guarantees in each consumer's docstring depend on it).
    """

    def __init__(self, journal: EventJournal) -> None:
        self.journal = journal
        self.consumers: Dict[str, JournalConsumer] = {}
        #: ``task_id -> (trace_id, span_id)`` stamped on a task's derived
        #: events; the instrumentation points it at its lifecycle traces.
        self.trace_context = _untraced

    def register(self, consumer: JournalConsumer) -> JournalConsumer:
        if consumer.name in self.consumers:
            raise ValueError(f"consumer {consumer.name!r} already registered")
        self.consumers[consumer.name] = consumer
        return consumer

    def register_stores(
        self,
        *,
        estimators: Optional[Tuple[RuntimeEstimateDB, HistoryRepository]] = None,
        db_manager=None,
        monalisa: Optional[MonALISARepository] = None,
    ) -> "EventCore":
        """Register the consumer behind each store given, in
        :data:`CONSUMER_NAMES` order, and start dispatching to them:
        all three for ``build_gae``, its own for a stand-alone producer."""
        if estimators is not None:
            self.register(EstimatorConsumer(*estimators))
        if db_manager is not None:
            self.register(MonitoringConsumer(db_manager))
        if monalisa is not None:
            self.register(MonALISAConsumer(monalisa))
        if self._dispatch not in self.journal.listeners:
            self.journal.listeners.append(self._dispatch)
        return self

    def _dispatch(self, event: JournalEvent) -> None:
        for consumer in self.consumers.values():
            if event.type in consumer.kinds:
                consumer.apply(event)
            consumer.note(event)

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
        attrs = _record_row(record)
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
        kinds it owns and advances its cursor past everything.
        """
        for event in events:
            for consumer in self.consumers.values():
                if event.type in consumer.kinds:
                    consumer.replay(event)
                consumer.note(event)
        return len(events)

    def rebaseline_all(self) -> None:
        """Re-anchor every consumer's fold origin at the current state."""
        for consumer in self.consumers.values():
            consumer.rebaseline(self.journal)
            consumer._cursor = self.journal.head_seq

    def verify_all(self) -> List[Dict[str, Any]]:
        return [c.verify(self.journal) for c in self.consumers.values()]

    def cursors(self) -> Dict[str, int]:
        return {name: c.cursor for name, c in self.consumers.items()}

    def snapshot(self) -> Dict[str, Any]:
        """Wire-safe summary for ``system.consumers``.

        Restore-invariant by design: a restored GAE answers identically
        to the live one at the barrier, so process-local diagnostics
        (``events_applied``, ``baseline_seq``) are exposed only through
        :meth:`verify_all` and the ``journal replay`` CLI.
        """
        head = self.journal.head_seq
        return {
            "enabled": True,
            "journal_head_seq": head,
            "journal_schema": JOURNAL_SCHEMA_VERSION,
            "consumers": [
                {
                    "name": c.name,
                    "kinds": sorted(k.value for k in c.kinds),
                    "namespaces": list(c.namespaces),
                    "cursor": c.cursor,
                    "lag": max(0, head - c.cursor),
                }
                for c in self.consumers.values()
            ],
        }

    def bind_metrics(self, metrics) -> None:
        """Register per-consumer cursor/lag gauges (fn-backed)."""
        for name, consumer in self.consumers.items():
            metrics.gauge(
                f"gae_consumer_{name}_cursor",
                f"journal seq high-water mark of the {name} consumer",
                fn=lambda c=consumer: float(c.cursor),
            )
            metrics.gauge(
                f"gae_consumer_{name}_lag",
                f"events the {name} consumer is behind the journal head",
                fn=lambda c=consumer: float(max(0, self.journal.head_seq - c.cursor)),
            )
