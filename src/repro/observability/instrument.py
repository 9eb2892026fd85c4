"""Wiring that threads tracing, lifecycle events, and metrics through a GAE.

:class:`GAEInstrumentation` owns one :class:`Tracer`, one
:class:`MetricsRegistry`, one :class:`TelemetryPipeline` and one
:class:`HealthEngine` per GAE.  It is built once, over the assembled grid,
the GAE's event core (whose journal it is the only emitter of lifecycle
events into, and whose one observer is telemetry's per-window event count)
and the five services, and subscribes to every layer a job touches:

- ``scheduler.plan_listeners`` — a new job opens a ``job:<id>`` root
  span and one ``task:<id>`` span per task (all sharing a fresh trace
  id), plus *submitted*/*scheduled* journal events;
- ``scheduler.staging_listeners`` — input stage-in and checkpoint-image
  transfers become timed ``stage-in:*`` spans;
- each site pool's ``on_state_change``/``on_forwarded`` — dispatch,
  start, pause, resume, flock, move, failure and completion become
  phase spans (``queue@site``, ``run@site``, ``paused@site``) and
  journal events, including the flock forwards;
- the steering ``CommandProcessor`` — every verb runs inside a
  ``steer:<verb>`` span *on the job's trace*; if the verb arrived via a
  Clarens RPC, :meth:`Tracer.adopt_current_trace` re-homes the open RPC
  span so the call, the command, and the resulting pool events share
  one trace id end to end;
- Backup & Recovery — resubmissions become *recovered* events; salvaged
  files and archived execution states become *output-retrieved* events;
- the MonALISA repository — the first publish of each new task state
  becomes a ``monalisa:publish`` span under the task;
- execution services — ``fail``/``recover`` drive the
  ``gae_execution_service_up`` gauge.

The Clarens end of the same story needs no middleware of its own:
``build_gae`` installs this tracer as the host's (``host.tracer``), so the
host's recorder opens each call's ``rpc:<method>`` span here, under the
call's wire trace id, where a steering verb can adopt it.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro.events.journal import EventType
from repro.gridsim.job import JobState
from repro.observability.health import HealthEngine
from repro.observability.metrics import MetricsRegistry
from repro.observability.telemetry import TelemetryPipeline
from repro.observability.tracing import SpanContext, Tracer, seeded_id_prefix
from repro.store.registry import OBSERVABILITY_TELEMETRY, namespace_record

if TYPE_CHECKING:  # annotation only: the import chain leads back here
    from repro.events.core import EventCore

__all__ = ["GAEInstrumentation"]


class _TaskTrace:
    """Per-task tracing state: span ids, never spans (the ring owns those)."""

    __slots__ = (
        "trace_id",
        "job_id",
        "root_id",
        "phase_id",
        "phase_start",
        "last_state",
        "last_priority",
        "site",
        "queued_at",
        "flock_id",
        "published_states",
        "finished",
    )

    def __init__(self, trace_id: str, job_id: str, root_id: str, priority: int) -> None:
        self.trace_id = trace_id
        self.job_id = job_id
        self.root_id = root_id
        self.phase_id: Optional[str] = None
        self.phase_start = 0.0  # the open phase's, for its run time
        self.last_state: Optional[JobState] = None
        self.last_priority = priority
        self.site: Optional[str] = None
        self.queued_at: Optional[float] = None
        self.flock_id: Optional[str] = None
        #: Task states already published to MonALISA (at most one entry
        #: per :class:`JobState`, so a tuple serves as the set).
        self.published_states: Tuple[str, ...] = ()
        #: Whether this task still counts towards its job's ``unfinished``.
        self.finished = False

    def root(self) -> SpanContext:
        """The task root's context, the parent of every span under the task
        (built when a span opens, not kept: the ids are already here)."""
        return SpanContext(self.trace_id, self.root_id)


class _JobTrace:
    __slots__ = ("trace_id", "span_id", "task_ids", "unfinished")

    def __init__(self, trace_id: str, span_id: str, task_ids: Tuple[str, ...]) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        # The full membership, so closing the job span stays O(tasks in
        # this job), not O(all tasks).
        self.task_ids = task_ids
        #: How many of ``task_ids`` have a :class:`_TaskTrace` that is not
        #: yet ``finished``; which ones is read off the task records.
        self.unfinished = len(task_ids)


class GAEInstrumentation:
    """One assembled GAE's tracer, metrics, telemetry and health engine over
    its journal, subscribed to every observable seam of the grid and the
    five services at construction."""

    def __init__(
        self,
        grid,
        eventcore: EventCore,
        *,
        steering,
        monitoring,
        accounting,
        estimators,
        monalisa,
        telemetry_window_s: float = 60.0,
        health_rules=None,
    ) -> None:
        sim = self.sim = grid.sim
        self.tracer = Tracer(lambda: sim.now, id_prefix=seeded_id_prefix(grid.rngs.seed))
        self.eventcore = eventcore  # the GAE's write path, ``gae.events``
        self.journal = eventcore.journal
        eventcore.trace_context = self.trace_context_of
        self.metrics = MetricsRegistry()
        self._tasks: Dict[str, _TaskTrace] = {}
        self._jobs: Dict[str, _JobTrace] = {}
        self.telemetry = TelemetryPipeline(sim, self.metrics, window_s=telemetry_window_s)
        self.health = HealthEngine(self.telemetry, self.journal, rules=health_rules)

        m = self.metrics
        self._jobs_planned = m.counter("gae_scheduler_jobs_planned_total", "jobs planned")
        self._tasks_planned = m.counter("gae_scheduler_tasks_planned_total", "tasks planned")
        self._commands_total = m.counter(
            "gae_steering_commands_total", "steering verbs by command and outcome"
        )
        self._flocks_total = m.counter("gae_condor_flock_forwards_total", "flock forwards")
        self._recovery_total = m.counter(
            "gae_recovery_notifications_total", "backup & recovery client notifications"
        )
        self._monalisa_publish_total = m.counter(
            "gae_monalisa_job_state_publish_total", "job-state events published to MonALISA"
        )
        self._queue_wait = m.histogram(
            "gae_task_queue_wait_seconds", "sim seconds from dispatch to start"
        )
        self._run_time = m.histogram(
            "gae_task_run_seconds", "sim seconds from start to completion"
        )
        self._service_up = m.gauge(
            "gae_execution_service_up", "1 while the site's execution service answers pings"
        )
        m.gauge(
            "gae_observability_spans", "spans in the bounded store", fn=lambda: len(self.tracer)
        )
        m.gauge(
            "gae_observability_events", "events in the journal", fn=lambda: len(self.journal)
        )
        # Pre-bound label handles keep the per-event hot path allocation-free.
        self._jobs_planned_b = self._jobs_planned.bind()
        self._tasks_planned_b = self._tasks_planned.bind()
        self._monalisa_publish_b = self._monalisa_publish_total.bind()
        self._queue_wait_by_site: Dict[str, Any] = {}
        self._run_time_by_site: Dict[str, Any] = {}
        self._flocks_by_site: Dict[str, Any] = {}
        self._phase_names: Dict[str, Tuple[str, str, str]] = {}
        # The core's observer: each live event is counted once, into
        # telemetry's window for its event time.
        eventcore.observe = self.telemetry.count

        scheduler = grid.scheduler
        scheduler.plan_listeners.append(self._on_plan)
        scheduler.staging_listeners.append(self._on_staging)

        for name in sorted(grid.sites):
            site = grid.sites[name]
            self._site_handles(name)

            def on_state(ad, _site=name):
                self._on_state(_site, ad)

            def on_forwarded(ad, _site=name):
                self._on_forwarded(_site, ad)

            site.pool.on_state_change.append(on_state)
            site.pool.on_forwarded.append(on_forwarded)

        for name in sorted(grid.execution_services):
            service = grid.execution_services[name]
            self._service_up.set(1.0, site=name)
            service.lifecycle_listeners.append(
                lambda svc, up: self._service_up.set(1.0 if up else 0.0, site=svc.site.name)
            )

        processor = steering.command_processor
        processor.span_factory = self.command_span
        processor.listeners.append(self._on_command)
        recovery = steering.backup_recovery
        recovery.notification_listeners.append(self._on_recovery_note)
        recovery.salvage_listeners.append(
            lambda task_id, files: self._on_output_retrieved(task_id, "salvage", len(files))
        )
        recovery.archive_listeners.append(
            lambda task_id, state: self._on_output_retrieved(
                task_id, "archive", len(state.get("output_files", []) or [])
            )
        )
        monalisa.subscribe_job_states(self._on_monalisa_publish)
        m.gauge(
            "gae_estimator_history_records",
            "task-history rows feeding the runtime estimator",
            fn=lambda: float(estimators.history_size()),
        )
        # The iperf bandwidth memo's counters, observable like everything
        # else (one fn-backed gauge per event kind).
        transfer = estimators.transfer
        for kind in ("hits", "misses", "expirations", "evictions"):
            m.gauge(
                f"gae_transfer_probe_cache_{kind}",
                f"iperf bandwidth-memo {kind}",
                fn=lambda _kind=kind: float(getattr(transfer.cache_stats, _kind)),
            )
        m.gauge(
            "gae_monitoring_records",
            "monitoring DB rows (one per observed task)",
            fn=lambda: float(len(monitoring.db_manager)),
        )
        m.gauge(
            "gae_accounting_ledger_entries",
            "quota ledger entries (reservations committed or released)",
            fn=lambda: float(len(accounting.quotas.ledger)),
        )

    # ------------------------------------------------------------------
    # scheduler hooks
    # ------------------------------------------------------------------
    def _on_plan(self, plan, job) -> None:
        if job.job_id in self._jobs:
            return  # re-plan after a move/resubmit: the trace already exists
        trace_id = self.tracer.new_trace_id()
        job_span = self.tracer.start_span(
            f"job:{job.job_id}",
            trace_id=trace_id,
            attributes={"job_id": job.job_id, "tasks": len(job.tasks)},
            activate=False,
        )
        task_ids = tuple(t.task_id for t in job.tasks)
        self._jobs[job.job_id] = _JobTrace(trace_id, job_span.span_id, task_ids)
        self._jobs_planned_b.inc()
        for task in job.tasks:
            root = self.tracer.start_span(
                f"task:{task.task_id}",
                trace_id=trace_id,
                parent=job_span.context,
                attributes={"task_id": task.task_id, "owner": task.spec.owner},
                activate=False,
            ).context
            self._tasks[task.task_id] = _TaskTrace(
                trace_id, job.job_id, root.span_id, task.priority
            )
            self._tasks_planned_b.inc()
            site = plan.site_for(task.task_id)
            self.journal.record(
                EventType.SUBMITTED, task.task_id, job_id=job.job_id,
                trace_id=trace_id, span_id=root.span_id,
            )
            sched = self.tracer.instant(
                "schedule", trace_id=trace_id, parent=root,
                attributes={"site": site},
            )
            self.journal.record(
                EventType.SCHEDULED, task.task_id, job_id=job.job_id, site=site,
                trace_id=trace_id, span_id=sched.span_id,
            )

    def _on_staging(self, task, site: str, delay: float, kind: str) -> None:
        tt = self._tasks.get(task.task_id)
        if tt is None:
            return
        self.tracer.instant(
            f"stage-in:{kind}",
            trace_id=tt.trace_id,
            parent=tt.root(),
            attributes={"site": site, "kind": kind, "delay_s": delay},
            end=self.sim.now + delay,
        )

    # ------------------------------------------------------------------
    # pool hooks
    # ------------------------------------------------------------------
    def _site_handles(self, site: str) -> Tuple[str, str, str]:
        """Cached per-site phase-span names and bound metric handles."""
        names = self._phase_names.get(site)
        if names is None:
            names = self._phase_names[site] = (
                f"queue@{site}", f"run@{site}", f"paused@{site}"
            )
            self._queue_wait_by_site[site] = self._queue_wait.bind(site=site)
            self._run_time_by_site[site] = self._run_time.bind(site=site)
            self._flocks_by_site[site] = self._flocks_total.bind(**{"from": site})
        return names

    def _close_phase(self, tt: _TaskTrace, status: str = "ok") -> None:
        if tt.phase_id is not None:
            self.tracer.update(tt.phase_id, status=status)
            tt.phase_id = None

    def _open_phase(self, tt: _TaskTrace, name: str, **attributes: Any) -> None:
        phase = self.tracer.start_span(
            name, trace_id=tt.trace_id, parent=tt.root(),
            attributes=attributes, activate=False,
        )
        tt.phase_id, tt.phase_start = phase.span_id, phase.start

    def _record(self, type: EventType, tt: _TaskTrace, task_id: str, site=None, **attrs) -> None:
        self.journal.record(
            type, task_id, job_id=tt.job_id, site=site, trace_id=tt.trace_id,
            span_id=tt.phase_id if tt.phase_id is not None else tt.root_id, **attrs,
        )

    def _on_state(self, site: str, ad) -> None:
        tt = self._tasks.get(ad.task_id)
        if tt is None:
            return  # submitted around the scheduler; not ours to trace
        state = ad.state
        if state is tt.last_state and site == tt.site:
            if ad.priority != tt.last_priority:
                self._record(
                    EventType.PRIORITY_CHANGED, tt, ad.task_id, site=site,
                    old=tt.last_priority, new=ad.priority,
                )
                tt.last_priority = ad.priority
            return
        queue_name, run_name, paused_name = self._site_handles(site)
        if state is JobState.QUEUED:
            self._close_phase(tt)
            self._open_phase(tt, queue_name, site=site)
            tt.queued_at = self.sim.now
            if tt.flock_id is not None:
                self.tracer.update(tt.flock_id, to=site)
                tt.flock_id = None
            # priority/elapsed ride along so the §6.2 queue books can be
            # folded from the journal alone (the eventcore property suite's
            # ``fold_queue_books`` pins that against the live books).
            self._record(
                EventType.DISPATCHED, tt, ad.task_id, site=site,
                priority=ad.priority, elapsed=ad.elapsed_runtime(),
            )
        elif state is JobState.RUNNING:
            resumed = tt.last_state is JobState.PAUSED
            if not resumed and tt.queued_at is not None:
                self._queue_wait_by_site[site].observe(self.sim.now - tt.queued_at)
                tt.queued_at = None
            self._close_phase(tt)
            self._open_phase(tt, run_name, site=site)
            self._record(
                EventType.RESUMED if resumed else EventType.STARTED,
                tt, ad.task_id, site=site,
            )
        elif state is JobState.PAUSED:
            self._close_phase(tt)
            self._open_phase(tt, paused_name, site=site)
            self._record(EventType.PAUSED, tt, ad.task_id, site=site)
        elif state is JobState.MOVED:
            self._record(EventType.MOVED, tt, ad.task_id, site=site)
            self._close_phase(tt)
        elif state is JobState.KILLED:
            self._record(EventType.KILLED, tt, ad.task_id, site=site)
            self._finish_task(tt, "killed")
        elif state is JobState.FAILED:
            self._record(EventType.FAILED, tt, ad.task_id, site=site)
            self._close_phase(tt, status="failed")
            # The root stays open: Backup & Recovery may resubmit.
        elif state is JobState.COMPLETED:
            if tt.phase_id is not None:
                self._run_time_by_site[site].observe(self.sim.now - tt.phase_start)
            self._record(EventType.COMPLETED, tt, ad.task_id, site=site)
            self._finish_task(tt, "ok")
        tt.last_state = state
        tt.last_priority = ad.priority
        if state in (JobState.QUEUED, JobState.RUNNING, JobState.PAUSED):
            tt.site = site

    def _finish_task(self, tt: _TaskTrace, status: str) -> None:
        """End the task's phase and root with ``status`` (``ok``/``killed``).

        Its job's span ends with the job's last task and takes that task's
        outcome alone, so a job with a killed task that finishes on a
        completed one ends ``ok``.
        """
        self._close_phase(tt, status=status)
        self.tracer.update(tt.root_id, status=status)
        jt = self._jobs.get(tt.job_id)
        if jt is None:
            return
        if not tt.finished:
            tt.finished = True
            jt.unfinished -= 1
        if not jt.unfinished:
            self.tracer.update(jt.span_id, status="ok" if status == "ok" else "error")

    def _on_forwarded(self, site: str, ad) -> None:
        tt = self._tasks.get(ad.task_id)
        if tt is None:
            return
        self._close_phase(tt)
        tt.flock_id = self.tracer.instant(
            "flock", trace_id=tt.trace_id, parent=tt.root(),
            attributes={"from": site},
        ).span_id
        self._record(EventType.FLOCK_FORWARDED, tt, ad.task_id, site=site)
        self._site_handles(site)
        self._flocks_by_site[site].inc()
        # Force the follow-up QUEUED at the target pool to register as a
        # fresh dispatch even though the ad state never left QUEUED.
        tt.last_state = None

    # ------------------------------------------------------------------
    # steering hooks
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def command_span(self, command: str, task_id: str) -> Iterator[None]:
        """Span factory installed on the steering ``CommandProcessor``.

        Re-homes any open RPC spans onto the task's job trace (the join
        between a Clarens call trace and the job lifecycle trace), then
        runs the verb inside a ``steer:<verb>`` span.
        """
        tt = self._tasks.get(task_id)
        if tt is None:
            with self.tracer.span(
                f"steer:{command}", attributes={"command": command, "task_id": task_id}
            ):
                yield
            return
        self.tracer.adopt_current_trace(tt.trace_id)
        current = self.tracer.current_span()
        if current is not None and current.trace_id == tt.trace_id:
            if current.parent_id is None and current.span_id != tt.root_id:
                # An adopted RPC span: hang it under the task so the
                # rendered tree shows rpc -> steer -> pool events.
                current.parent_id = tt.root_id
            parent = current.context
        else:
            parent = tt.root()
        with self.tracer.span(
            f"steer:{command}",
            trace_id=tt.trace_id,
            parent=parent,
            attributes={"command": command, "task_id": task_id},
        ):
            yield

    def _on_command(self, result) -> None:
        self._commands_total.inc(
            command=result.command, outcome="ok" if result.ok else "error"
        )
        if (
            result.ok
            and result.command == "kill"
            and "staging" in result.detail
        ):
            # Killed while staging in: no pool event ever fires, so the
            # journal would otherwise miss the terminal transition.
            tt = self._tasks.get(result.task_id)
            if tt is not None and tt.last_state is not JobState.KILLED:
                self._record(EventType.KILLED, tt, result.task_id, detail=result.detail)
                self._finish_task(tt, "killed")
                tt.last_state = JobState.KILLED

    # ------------------------------------------------------------------
    # backup & recovery / monalisa hooks
    # ------------------------------------------------------------------
    def _on_recovery_note(self, note) -> None:
        self._recovery_total.inc(kind=note.kind)
        if note.kind == "resubmission" and "resubmitted to" in note.detail:
            tt = self._tasks.get(note.task_id)
            if tt is None:
                return
            self._record(
                EventType.RECOVERED, tt, note.task_id, site=note.site,
                detail=note.detail,
            )

    def _on_output_retrieved(self, task_id: str, source: str, file_count: int) -> None:
        tt = self._tasks.get(task_id)
        if tt is None:
            return
        self._record(
            EventType.OUTPUT_RETRIEVED, tt, task_id, site=tt.site,
            source=source, files=file_count,
        )

    def _on_monalisa_publish(self, event) -> None:
        self._monalisa_publish_b.inc()
        tt = self._tasks.get(event.task_id)
        if tt is None:
            return
        if event.state in tt.published_states:
            return  # one span per new state keeps the store bounded
        tt.published_states += (event.state,)
        self.tracer.instant(
            "monalisa:publish",
            trace_id=tt.trace_id,
            parent=tt.root(),
            attributes={"farm": event.site, "state": event.state},
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def trace_id_of(self, task_id: str) -> Optional[str]:
        tt = self._tasks.get(task_id)
        return tt.trace_id if tt is not None else None

    def trace_context_of(self, task_id: str) -> Tuple[Optional[str], Optional[str]]:
        """(trace_id, root span_id) for a tracked task, else (None, None).

        The event core stamps journal-schema-v2 events with this, so a
        task's derived events share its lifecycle trace.
        """
        tt = self._tasks.get(task_id)
        if tt is None:
            return (None, None)
        return (tt.trace_id, tt.root_id)

    def render_trace(self, task_id: str) -> Optional[str]:
        """ASCII span tree for the trace the task belongs to."""
        trace_id = self.trace_id_of(task_id)
        if trace_id is None:
            return None
        return self.tracer.render(trace_id)

    def timeline_wire(self, task_id: str) -> List[Dict[str, Any]]:
        return [e.to_wire() for e in self.journal.timeline(task_id)]

    def snapshot(self) -> Dict[str, Any]:
        """Wire-safe summary for the ``system.observability`` method."""
        return {
            "enabled": True,
            "spans": len(self.tracer),
            "span_capacity": self.tracer.capacity,
            "events": len(self.journal),
            "event_capacity": self.journal.capacity,
            "tasks_traced": len(self._tasks),
            "jobs_traced": len(self._jobs),
            "metrics": self.metrics.snapshot(),
            "telemetry": self.telemetry_summary(),
            "consumers": self.eventcore.snapshot(),
        }

    def telemetry_summary(self) -> Dict[str, Any]:
        """Small wire-safe summary of the windowed pipeline (never the data)."""
        return {
            "enabled": True,
            "window_s": self.telemetry.window_s,
            "windows_closed": self.telemetry.windows_closed,
            "series": len(self.telemetry.names()),
            "health_rules": len(self.health.rules),
            "health_firing": self.health.firing(),
        }

    def health_snapshot(self) -> Dict[str, Any]:
        """Wire-safe health state for ``system.health`` / CLI / webui."""
        return self.health.snapshot()

    def start_telemetry(self) -> None:
        """Arm the window tick."""
        self.telemetry.start()

    def stop_telemetry(self) -> None:
        self.telemetry.stop()

    # ------------------------------------------------------------------
    # persistence (checkpoint/restore)
    # ------------------------------------------------------------------
    def save_to(self, store) -> None:
        """Persist spans, metric values, and telemetry windows (the
        journal is the checkpointer's to save)."""
        self.tracer.save_to(store)
        self.metrics.save_to(store)
        store.register_namespace(namespace_record(OBSERVABILITY_TELEMETRY))
        store.clear(OBSERVABILITY_TELEMETRY)
        store.put_many(OBSERVABILITY_TELEMETRY, [
            ("pipeline", self.telemetry.export_state()),
            ("health", self.health.export_state()),
        ])

    def export_tracking(self) -> Dict[str, Any]:
        """Serializable live task/job trace-tracking state and the tracer's
        id counters.

        Spans are referenced by id, exactly as the live records hold them.
        """
        tasks = []
        for task_id, tt in self._tasks.items():
            tasks.append([task_id, {
                "trace_id": tt.trace_id,
                "job_id": tt.job_id,
                "root": tt.root_id,
                "phase": tt.phase_id,
                "phase_start": tt.phase_start,
                "last_state": tt.last_state.value if tt.last_state is not None else None,
                "last_priority": tt.last_priority,
                "site": tt.site,
                "queued_at": tt.queued_at,
                "flock_span": tt.flock_id,
                "published_states": sorted(tt.published_states),
            }])
        jobs = []
        for job_id, jt in self._jobs.items():
            jobs.append([job_id, {
                "trace_id": jt.trace_id,
                "span": jt.span_id,
                "pending": sorted(
                    tid for tid in jt.task_ids if not self._tasks[tid].finished
                ),
                "task_ids": sorted(jt.task_ids),
            }])
        return {"tasks": tasks, "jobs": jobs, "id_counters": list(self.tracer.id_counters)}

    def import_tracking(self, state: Dict[str, Any]) -> None:
        """Rebuild ``_tasks``/``_jobs`` from :meth:`export_tracking` output.

        A row older than ``phase_start`` takes its phase's start from the
        restored ring, or ``0.0`` if the ring had dropped the span.  A
        state that records no ``id_counters`` restarts them at 1: its ids
        carry random prefixes, which no seeded id equals.
        """
        self.tracer.id_counters = list(state.get("id_counters", (1, 1)))
        ring_starts = {span.span_id: span.start for span in self.tracer.spans()}
        self._tasks = {}
        for task_id, w in state["tasks"]:
            tt = _TaskTrace(w["trace_id"], w["job_id"], w["root"], w["last_priority"])
            tt.phase_id = w["phase"]
            tt.phase_start = w.get("phase_start", ring_starts.get(tt.phase_id, 0.0))
            tt.last_state = (
                JobState(w["last_state"]) if w["last_state"] is not None else None
            )
            tt.site = w["site"]
            tt.queued_at = w["queued_at"]
            tt.flock_id = w["flock_span"]
            tt.published_states = tuple(w["published_states"])
            self._tasks[task_id] = tt
        self._jobs = {}
        for job_id, w in state["jobs"]:
            jt = _JobTrace(w["trace_id"], w["span"], tuple(w["task_ids"]))
            pending = set(w["pending"])
            for tid in jt.task_ids:
                self._tasks[tid].finished = tid not in pending
            jt.unfinished = len(pending)
            self._jobs[job_id] = jt

    def load_from(self, store, tracking: Optional[Dict[str, Any]] = None) -> None:
        """Restore spans, metric values, telemetry windows, health state
        and (optionally) tracking."""
        self.tracer.load_from(store)
        self.metrics.load_from(store)
        rows = dict(store.items(OBSERVABILITY_TELEMETRY))
        self.telemetry.import_state(rows["pipeline"])
        self.health.import_state(rows["health"])
        if tracking is not None:
            self.import_tracking(tracking)
