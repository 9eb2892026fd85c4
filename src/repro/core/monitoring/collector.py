"""The Job Information Collector (§5.2).

"The role of the Job Information Collector module is to monitor the jobs
that have been scheduled. … It functions in two ways:

- It monitors the job execution and whenever the job is completed or
  terminated due to an error, it sends an update request to the DBManager
  for that job.
- It provides the monitoring information of the running jobs to the
  JMManager when requested."

The collector attaches to any number of execution services.  Terminal
transitions are pushed to the DBManager via pool callbacks; live queries
walk the attached services and snapshot the job ad on demand.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.monitoring.db_manager import DBManager
from repro.core.monitoring.records import MonitoringRecord
from repro.gridsim.clock import Simulator
from repro.gridsim.condor import CondorJobAd
from repro.gridsim.execution import ExecutionService, ExecutionServiceDown
from repro.gridsim.job import JobState


class JobInformationCollector:
    """Watches execution services, feeds the DBManager, serves live queries.

    Parameters
    ----------
    sim:
        Clock source for snapshot timestamps.
    db_manager:
        Where terminal updates are pushed.
    estimate_lookup:
        Optional ``task_id -> float`` giving the at-submission runtime
        estimate (the estimator service's database), used to fill the
        record's estimated/remaining-time fields.
    """

    def __init__(
        self,
        sim: Simulator,
        db_manager: DBManager,
        estimate_lookup: Optional[Callable[[str], float]] = None,
    ) -> None:
        self.sim = sim
        self.db_manager = db_manager
        self.estimate_lookup = estimate_lookup
        self._services: Dict[str, ExecutionService] = {}

    # ------------------------------------------------------------------
    def attach(self, service: ExecutionService) -> None:
        """Start collecting from a site's execution service."""
        site_name = service.site.name
        if site_name in self._services:
            raise ValueError(f"already attached to site {site_name!r}")
        # Kept in site-name order, the order live queries walk.
        self._services = dict(sorted([*self._services.items(), (site_name, service)]))

        def on_terminal(ad: CondorJobAd) -> None:
            self.db_manager.update(self._snapshot(ad, site_name))

        # Completed or terminated-by-error both trigger a DB update (§5.2);
        # killed/moved transitions arrive through the state-change hook.
        service.pool.on_complete.append(on_terminal)
        service.pool.on_failed.append(on_terminal)

        def on_state_change(ad: CondorJobAd) -> None:
            if ad.state in (JobState.KILLED, JobState.MOVED):
                self.db_manager.update(self._snapshot(ad, site_name))

        service.pool.on_state_change.append(on_state_change)

    def attached_sites(self) -> List[str]:
        """Names of sites being collected from, sorted."""
        return list(self._services)

    # ------------------------------------------------------------------
    def _estimate_for(self, task_id: str) -> float:
        if self.estimate_lookup is None:
            return 0.0
        try:
            return float(self.estimate_lookup(task_id))
        except Exception:
            return 0.0

    def _snapshot(self, ad: CondorJobAd, site_name: str) -> MonitoringRecord:
        service = self._services[site_name]
        try:
            position = service.queue_position(ad.task_id)
        except ExecutionServiceDown:
            position = -1
        return MonitoringRecord.from_ad(
            ad,
            site=site_name,
            estimated_run_time_s=self._estimate_for(ad.task_id),
            queue_position=position,
            snapshot_time=self.sim.now,
        )

    def collect(self, task_id: str) -> Optional[MonitoringRecord]:
        """Live monitoring info for a task, or None when no attached,
        reachable service knows it (the JMManager fallback path, §5.3)."""
        for site_name, service in self._services.items():
            try:
                if service.has_task(task_id):
                    ad = service.job_status(task_id)
                    return self._snapshot(ad, site_name)
            except ExecutionServiceDown:
                continue
        return None

    def collect_running(self) -> List[MonitoringRecord]:
        """Snapshots of every currently running task across sites."""
        out: List[MonitoringRecord] = []
        for site_name, service in self._services.items():
            try:
                for ad in service.running_info():
                    out.append(self._snapshot(ad, site_name))
            except ExecutionServiceDown:
                continue
        return out
