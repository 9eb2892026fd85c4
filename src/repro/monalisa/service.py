"""A Clarens-registrable query facade over the MonALISA repository.

§1 motivates the whole GAE with users wanting "more information about Grid
weather"; this service is how they get it: current per-site load, load
history windows, and the job-state event stream, all over the same
Clarens/XML-RPC protocol as the rest of the GAE.
"""

from __future__ import annotations

from typing import Dict, List

from repro.clarens.readcache import ReadPolicy
from repro.clarens.registry import clarens_method
from repro.monalisa.repository import MonALISARepository

#: Every answer here is a pure function of the repository, which only
#: changes via publish()/publish_job_state() — the "monalisa" epoch.
_READS = ReadPolicy(depends_on=("monalisa",))


class MonALISAQueryService:
    """Read-only monitoring queries for clients and dashboards."""

    def __init__(self, repository: MonALISARepository) -> None:
        self.repository = repository

    @clarens_method(cache=_READS)
    def farms(self) -> List[str]:
        """Every site (farm) that has published monitoring data."""
        return self.repository.farms()

    @clarens_method(cache=_READS)
    def metrics_of(self, farm: str) -> List[str]:
        """Metric names a farm has published."""
        return self.repository.metrics_of(farm)

    @clarens_method(cache=_READS)
    def site_load(self, farm: str) -> float:
        """Latest published load for a site (0 when never published)."""
        return self.repository.site_load(farm, default=0.0)

    @clarens_method(cache=_READS)
    def grid_weather(self) -> Dict[str, float]:
        """Latest load for every farm that publishes one — 'Grid weather'."""
        return {farm: self.repository.site_load(farm, default=0.0)
                for farm in self.repository.farms()
                if self.repository.has_series(farm, "load")}

    @clarens_method(cache=_READS)
    def latest(self, farm: str, metric: str) -> float:
        """Most recent value of one metric (fault when never published)."""
        return self.repository.latest(farm, metric)

    @clarens_method(cache=_READS)
    def series_window(
        self, farm: str, metric: str, t0: float, t1: float
    ) -> Dict[str, List[float]]:
        """Samples of one metric within [t0, t1] as parallel arrays."""
        times, values = self.repository.series(farm, metric).window(t0, t1)
        return {"times": [float(t) for t in times], "values": [float(v) for v in values]}

    @clarens_method(cache=_READS)
    def job_events(
        self, task_id: str = "", job_id: str = ""
    ) -> List[Dict[str, object]]:
        """Job-state transitions, optionally filtered by task and/or job."""
        events = self.repository.job_events(
            task_id=task_id or None, job_id=job_id or None
        )
        return [
            {
                "time": e.time,
                "task_id": e.task_id,
                "job_id": e.job_id,
                "site": e.site,
                "state": e.state,
                "progress": e.progress,
            }
            for e in events
        ]
