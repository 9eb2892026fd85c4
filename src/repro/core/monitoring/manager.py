"""The JMManager and JMExecutable (§5.3).

"The JMManager handles the flow of information within the Job Monitoring
Service. … It first queries the DBManager and if the information is not
found in its repository, the request is forwarded to the Job Information
Collector.  The information is then sent to the Steering Service via the
JMExecutable."  Live tasks are collected first (:meth:`JMManager.get_info`).

The split looks redundant in-process but is kept for architectural
fidelity: the JMExecutable is the component the Steering Service holds a
reference to, and the only one it may talk to.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.monitoring.collector import JobInformationCollector
from repro.core.monitoring.db_manager import DBManager
from repro.core.monitoring.records import MonitoringRecord
from repro.gridsim.job import ACTIVE_STATES

#: A record's ``status`` while its task is queued, running or paused.
ACTIVE_STATUSES = tuple(state.value for state in ACTIVE_STATES)


class JMManager:
    """Live tasks from the collector, settled ones from the DB."""

    def __init__(self, db_manager: DBManager, collector: JobInformationCollector) -> None:
        self.db_manager = db_manager
        self.collector = collector

    def get_info(self, task_id: str) -> Optional[MonitoringRecord]:
        """The freshest record available for a task.

        A task queued, running or paused at some site is collected there,
        even when the DB holds the terminal row an earlier incarnation
        left; the DB answers for terminal tasks and for tasks the
        collector can no longer reach."""
        collected = self.collector.collect(task_id)
        if collected is not None and collected.status in ACTIVE_STATUSES:
            return collected
        stored = self.db_manager.get(task_id)
        if stored is not None and (collected is None or stored.is_terminal):
            return stored
        return collected

    def get_job_info(self, job_id: str) -> List[MonitoringRecord]:
        """Freshest records for every task of a job seen so far."""
        records = {r.task_id: r for r in self.db_manager.for_job(job_id)}
        for task_id in list(records):
            fresh = self.get_info(task_id)
            if fresh is not None:
                records[task_id] = fresh
        # Tasks not yet in the DB may still be live-collectable.
        for rec in self.collector.collect_running(job_id):
            records[rec.task_id] = rec
        return [records[k] for k in sorted(records)]


class JMExecutable:
    """Forwards Steering Service requests to the JMManager (§5.3)."""

    def __init__(self, manager: JMManager) -> None:
        self.manager = manager

    def get_info(self, task_id: str) -> Optional[MonitoringRecord]:
        """Forwarded :meth:`JMManager.get_info`."""
        return self.manager.get_info(task_id)

    def get_job_info(self, job_id: str) -> List[MonitoringRecord]:
        """Forwarded :meth:`JMManager.get_job_info`."""
        return self.manager.get_job_info(job_id)
