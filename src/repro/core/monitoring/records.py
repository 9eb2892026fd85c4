"""The monitoring record: every field §5 promises from the API.

"… job status, remaining time, elapsed time, estimated run time, queue
position, priority, submission time, execution time, completion time, CPU
time used, amount of input IO and output IO, owner name and environment
variables."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.gridsim.condor import CondorJobAd


@dataclass(frozen=True)
class MonitoringRecord:
    """A point-in-time snapshot of one task's monitoring information."""

    task_id: str
    job_id: str
    site: str
    status: str
    elapsed_time_s: float          # Condor accumulated wall-clock time
    estimated_run_time_s: float    # at-submission estimate (0 when unknown)
    remaining_time_s: float        # estimate - elapsed, floored at 0
    progress: float                # elapsed / true work, in [0, 1]
    queue_position: int            # 0-based; -1 when not queued
    priority: int
    submission_time: float
    execution_time: Optional[float]   # when the task first started running
    completion_time: Optional[float]  # when it reached a terminal state
    cpu_time_used_s: float
    input_io_mb: float
    output_io_mb: float
    owner: str
    environment: Dict[str, str] = field(default_factory=dict)
    snapshot_time: float = 0.0

    @classmethod
    def from_ad(
        cls,
        ad: CondorJobAd,
        site: str,
        estimated_run_time_s: float = 0.0,
        queue_position: int = -1,
        snapshot_time: float = 0.0,
    ) -> "MonitoringRecord":
        """Build a record from a live Condor job ad.

        ``remaining_time_s`` uses the at-submission estimate when one is
        known; with no estimate it reports 0 (the API returns "unknown"
        rather than inventing a number).
        """
        elapsed = ad.elapsed_runtime()
        remaining = max(0.0, estimated_run_time_s - elapsed)
        return cls(
            task_id=ad.task_id,
            job_id=ad.task.job_id or "",
            site=site,
            status=ad.state.value,
            elapsed_time_s=elapsed,
            estimated_run_time_s=estimated_run_time_s,
            remaining_time_s=remaining if estimated_run_time_s > 0 else 0.0,
            progress=ad.progress,
            queue_position=queue_position,
            priority=ad.priority,
            submission_time=ad.submit_time,
            execution_time=ad.start_time,
            completion_time=ad.end_time,
            cpu_time_used_s=ad.accrued_work,
            input_io_mb=ad.input_io_mb,
            output_io_mb=ad.output_io_mb,
            owner=ad.task.spec.owner,
            environment=dict(ad.task.spec.environment),
            snapshot_time=snapshot_time,
        )

    @property
    def is_terminal(self) -> bool:
        """Whether the snapshot shows a finished task."""
        return self.status in ("completed", "failed", "killed", "moved")
