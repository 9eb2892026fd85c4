"""The Job Monitoring Service facade (Clarens-registrable).

Assembles collector + DBManager + JMManager/JMExecutable (Figure 3) and
exposes the §5 API as wire-friendly methods.  This is the object the
Figure 6 benchmark hosts on a real XML-RPC server and hammers with parallel
clients.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.clarens.readcache import ReadPolicy
from repro.clarens.registry import clarens_method
from repro.core.monitoring.collector import JobInformationCollector
from repro.core.monitoring.db_manager import DBManager
from repro.core.monitoring.manager import JMExecutable, JMManager
from repro.core.monitoring.records import MonitoringRecord
from repro.gridsim.clock import Simulator
from repro.gridsim.execution import ExecutionService
from repro.store.base import StateStore


class MonitoringError(RuntimeError):
    """Raised for queries about tasks nobody has ever seen."""


#: Every jobmon read mixes live pool state, the monitoring DB, the
#: at-submission estimates, scheduler queue placement, and elapsed time
#: (a function of the simulation clock) — so they all depend on the
#: union of those epochs.  Over-declaring only costs hit rate.
_READS = ReadPolicy(depends_on=(
    "clock", "scheduler", "pool:*", "monitoring", "estimates"
))


def _record_to_wire(record: MonitoringRecord) -> Dict[str, object]:
    return {
        "task_id": record.task_id,
        "job_id": record.job_id,
        "site": record.site,
        "status": record.status,
        "elapsed_time_s": record.elapsed_time_s,
        "estimated_run_time_s": record.estimated_run_time_s,
        "remaining_time_s": record.remaining_time_s,
        "progress": record.progress,
        "queue_position": record.queue_position,
        "priority": record.priority,
        "submission_time": record.submission_time,
        "execution_time": record.execution_time,
        "completion_time": record.completion_time,
        "cpu_time_used_s": record.cpu_time_used_s,
        "input_io_mb": record.input_io_mb,
        "output_io_mb": record.output_io_mb,
        "owner": record.owner,
        "environment": dict(record.environment),
        "snapshot_time": record.snapshot_time,
    }


class JobMonitoringService:
    """The §5 Job Monitoring Service."""

    def __init__(
        self,
        sim: Simulator,
        emit: Callable[[MonitoringRecord], None],
        estimate_lookup: Optional[Callable[[str], float]] = None,
        db_path: str = ":memory:",
        store: Optional["StateStore"] = None,
    ) -> None:
        self.sim = sim
        self.db_manager = DBManager(emit, path=db_path, store=store)
        self.collector = JobInformationCollector(
            sim, self.db_manager, estimate_lookup=estimate_lookup
        )
        self.manager = JMManager(self.db_manager, self.collector)
        self.executable = JMExecutable(self.manager)
        self._snapshot_handle = None
        #: Set by a checkpoint restore to the next snapshot's original fire
        #: time so the periodic cadence survives a restart phase-faithfully.
        self.resume_at: Optional[float] = None

    def attach(self, service: ExecutionService) -> None:
        """Start monitoring a site's execution service."""
        self.collector.attach(service)

    # ------------------------------------------------------------------
    # continuous monitoring (§5: "continuously monitors the jobs")
    # ------------------------------------------------------------------
    def snapshot_running(self) -> int:
        """Store a snapshot of every running task; returns how many."""
        records = self.collector.collect_running()
        for record in records:
            self.db_manager.update(record)
        return len(records)

    def start_periodic_snapshots(self, period_s: float = 30.0) -> None:
        """Snapshot running tasks every *period_s* simulated seconds.

        Fills the DB's append-only history — the raw data behind
        progress-vs-time charts like Figure 7.
        """
        if self._snapshot_handle is not None:
            raise RuntimeError("periodic snapshots already started")
        self._snapshot_handle = self.sim.every(
            period_s,
            self.snapshot_running,
            label="jobmon.snapshots",
            first_at=self.resume_at,
        )
        self.resume_at = None

    @property
    def next_fire_time(self) -> Optional[float]:
        """Fire time of the pending snapshot (``None`` when not running)."""
        if self._snapshot_handle is None:
            return None
        return self._snapshot_handle.next_time

    def stop_periodic_snapshots(self) -> None:
        """Cancel the periodic snapshotting."""
        if self._snapshot_handle is not None:
            self._snapshot_handle.cancel()
            self._snapshot_handle = None

    # ------------------------------------------------------------------
    # internal (in-process) accessors used by the steering service
    # ------------------------------------------------------------------
    def record_for(self, task_id: str) -> MonitoringRecord:
        """Freshest record; raises :class:`MonitoringError` when unknown."""
        record = self.executable.get_info(task_id)
        if record is None:
            raise MonitoringError(f"no monitoring information for task {task_id!r}")
        return record

    # ------------------------------------------------------------------
    # Clarens-exposed API (§5's field list)
    # ------------------------------------------------------------------
    @clarens_method(cache=_READS)
    def job_info(self, task_id: str) -> Dict[str, object]:
        """Every monitoring field for one task as a wire struct."""
        return _record_to_wire(self.record_for(task_id))

    @clarens_method(cache=_READS)
    def job_status(self, task_id: str) -> str:
        """Just the status string (the cheapest, most-polled call)."""
        return self.record_for(task_id).status

    @clarens_method(cache=_READS)
    def elapsed_time(self, task_id: str) -> float:
        """Condor accumulated wall-clock seconds."""
        return self.record_for(task_id).elapsed_time_s

    @clarens_method(cache=_READS)
    def remaining_time(self, task_id: str) -> float:
        """Estimated seconds of work left (0 when no estimate exists)."""
        return self.record_for(task_id).remaining_time_s

    @clarens_method(cache=_READS)
    def estimated_run_time(self, task_id: str) -> float:
        """The at-submission runtime estimate."""
        return self.record_for(task_id).estimated_run_time_s

    @clarens_method(cache=_READS)
    def queue_position(self, task_id: str) -> int:
        """0-based idle-queue position; -1 when not queued."""
        return self.record_for(task_id).queue_position

    @clarens_method(cache=_READS)
    def progress(self, task_id: str) -> float:
        """Completed fraction in [0, 1]."""
        return self.record_for(task_id).progress

    @clarens_method(cache=_READS)
    def job_tasks(self, job_id: str) -> List[Dict[str, object]]:
        """Monitoring structs for every known task of a job."""
        return [_record_to_wire(r) for r in self.executable.get_job_info(job_id)]

    @clarens_method(cache=_READS)
    def owner_tasks(self, owner: str) -> List[Dict[str, object]]:
        """Monitoring structs for every stored task of an owner."""
        return [_record_to_wire(r) for r in self.db_manager.for_owner(owner)]

    @clarens_method(cache=_READS)
    def running_tasks(self) -> List[Dict[str, object]]:
        """Live snapshots of everything currently running."""
        return [_record_to_wire(r) for r in self.collector.collect_running()]

    @clarens_method(cache=_READS)
    def progress_history(self, task_id: str) -> List[Dict[str, object]]:
        """Every stored snapshot of a task, oldest first.

        Requires periodic snapshots (or terminal transitions) to have fed
        the DB; this is how a client charts Figure 7-style progress curves
        without polling.
        """
        return [
            {
                "snapshot_time": t,
                "status": status,
                "progress": progress,
                "elapsed_time_s": elapsed,
                "site": site,
            }
            for t, status, progress, elapsed, site in self.db_manager.progress_history(
                task_id
            )
        ]
