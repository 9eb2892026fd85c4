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
from repro.declare import encode
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


class JobMonitoringService:
    """The §5 Job Monitoring Service."""

    def __init__(
        self,
        sim: Simulator,
        emit: Callable[[MonitoringRecord], None],
        estimate_lookup: Optional[Callable[[str], float]] = None,
        store: Optional["StateStore"] = None,
    ) -> None:
        self.sim = sim
        self.db_manager = DBManager(emit, store=store)
        self.collector = JobInformationCollector(
            sim, self.db_manager, estimate_lookup=estimate_lookup
        )
        self.manager = JMManager(self.db_manager, self.collector)
        self.executable = JMExecutable(self.manager)

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
        """Snapshot running tasks every *period_s* simulated seconds, as
        the simulator's ``monitor_snapshots`` cadence (raises if armed).

        Fills the DB's append-only history — the raw data behind
        progress-vs-time charts like Figure 7.
        """
        self.sim.every(period_s, self.snapshot_running, name="monitor_snapshots")

    def stop_periodic_snapshots(self) -> None:
        """Cancel the periodic snapshotting."""
        self.sim.cancel("monitor_snapshots")

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
        return encode(self.record_for(task_id))

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
        return [encode(r) for r in self.executable.get_job_info(job_id)]

    @clarens_method(cache=_READS)
    def owner_tasks(self, owner: str) -> List[Dict[str, object]]:
        """Monitoring structs for every stored task of an owner."""
        return [encode(r) for r in self.db_manager.for_owner(owner)]

    @clarens_method(cache=_READS)
    def running_tasks(self) -> List[Dict[str, object]]:
        """Live snapshots of everything currently running."""
        return [encode(r) for r in self.collector.collect_running()]

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
