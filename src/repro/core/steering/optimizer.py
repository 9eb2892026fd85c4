"""The Optimizer (§4.2.2).

"The optimizer contacts the Quota and Accounting Service … to find the
cheapest site for job execution, and interacts with the Estimators to
determine the site that can execute the task faster.  Based on the
information gathered, the job is redirected to the 'Best Site'.  The
meaning of 'Best Site' depends on the optimization preference chosen
(cheap or fast execution).  The expected execution time, calculated using
the Estimator Service, includes the run time, queue time, and file
transfer time estimates for job execution on a particular site."

Detection follows §7: the steering service watches a running task's
*progress rate* — accrued Condor wall-clock per wall second, 1.0 on a free
CPU — and evaluates a move once the rate falls below a threshold.  A move
is recommended only when the best alternative site's expected completion
beats the projected remaining time here by a safety factor ("All of these
factors must be taken into account when deciding whether a job should be
transferred or allowed to run to completion").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.accounting.service import QuotaAccountingService
from repro.core.estimators.service import EstimatorService
from repro.core.monitoring.manager import JMExecutable
from repro.gridsim.clock import Simulator
from repro.gridsim.job import PlanTable


@dataclass(frozen=True)
class SteeringPolicy:
    """Tunable knobs of the autonomous steering loop.

    The Figure 7 ablation sweeps ``poll_interval_s`` and
    ``slow_rate_threshold`` to reproduce the paper's observation that "the
    quicker the decision is taken, the better the chance that it will
    complete quicker."
    """

    preference: str = "fast"            # "fast" | "cheap"
    poll_interval_s: float = 30.0       # how often running tasks are checked
    min_elapsed_wall_s: float = 60.0    # grace period before judging a task
    slow_rate_threshold: float = 0.8    # progress rate below this is "slow"
    min_improvement_factor: float = 1.3 # alternative must beat stay-put by this
    auto_move: bool = True              # let the optimizer move jobs itself

    def __post_init__(self) -> None:
        if self.preference not in ("fast", "cheap"):
            raise ValueError(f"policy.preference: unknown preference {self.preference!r}")
        if self.poll_interval_s <= 0:
            raise ValueError("policy.poll_interval_s: must be positive")
        if not 0.0 < self.slow_rate_threshold <= 1.0:
            raise ValueError("policy.slow_rate_threshold: must be in (0, 1]")
        if self.min_improvement_factor < 1.0:
            raise ValueError("policy.min_improvement_factor: must be >= 1")


@dataclass(frozen=True)
class MoveDecision:
    """The optimizer's verdict for one task at one instant."""

    task_id: str
    should_move: bool
    reason: str
    current_site: str = ""
    target_site: Optional[str] = None
    progress_rate: float = 1.0
    remaining_here_s: float = 0.0
    best_alternative_s: float = 0.0
    candidates: Dict[str, float] = field(default_factory=dict)


class Optimizer:
    """Slow-task detection and best-site selection."""

    def __init__(
        self,
        sim: Simulator,
        policy: SteeringPolicy,
        plans: PlanTable,
        monitoring: JMExecutable,
        estimators: EstimatorService,
        accounting: Optional[QuotaAccountingService] = None,
    ) -> None:
        if policy.preference == "cheap" and accounting is None:
            raise ValueError("the 'cheap' preference needs an accounting service")
        self.sim = sim
        self.policy = policy
        self.plans = plans
        self.monitoring = monitoring
        self.estimators = estimators
        self.accounting = accounting

    # ------------------------------------------------------------------
    def evaluate(self, task_id: str) -> MoveDecision:
        """Assess one task: is it slow, and is there a better site?"""
        record = self.monitoring.get_info(task_id)
        if record is None:
            return MoveDecision(task_id=task_id, should_move=False, reason="no monitoring data")
        if record.status != "running":
            return MoveDecision(
                task_id=task_id, should_move=False,
                reason=f"not running (status={record.status})", current_site=record.site,
            )
        if record.execution_time is None:
            return MoveDecision(
                task_id=task_id, should_move=False, reason="never started",
                current_site=record.site,
            )
        wall = self.sim.now - record.execution_time
        if wall < self.policy.min_elapsed_wall_s:
            return MoveDecision(
                task_id=task_id, should_move=False,
                reason=f"grace period ({wall:.0f}s < {self.policy.min_elapsed_wall_s:.0f}s)",
                current_site=record.site,
            )
        rate = record.elapsed_time_s / wall if wall > 0 else 1.0
        if rate >= self.policy.slow_rate_threshold:
            return MoveDecision(
                task_id=task_id, should_move=False,
                reason=f"progress rate {rate:.2f} is healthy", current_site=record.site,
                progress_rate=rate,
            )

        # The task is slow.  Project how long staying put would take.
        task = self.plans.tasks[task_id]
        estimated_total = record.estimated_run_time_s
        if estimated_total <= 0:
            # No estimate: fall back to the user's request.
            estimated_total = task.spec.requested_cpu_hours * 3600.0
        remaining_work = max(0.0, estimated_total - record.elapsed_time_s)
        remaining_here = remaining_work / max(rate, 1e-9)

        candidates = self._candidate_completions(
            task_id, record.site, remaining_work, estimated_total
        )
        if not candidates:
            return MoveDecision(
                task_id=task_id, should_move=False, reason="no alternative site",
                current_site=record.site, progress_rate=rate,
                remaining_here_s=remaining_here,
            )
        target, best = self._pick_target(task.spec.owner, candidates, remaining_here)
        if target is None:
            return MoveDecision(
                task_id=task_id, should_move=False,
                reason=(
                    f"staying: best alternative {best:.0f}s does not beat "
                    f"remaining {remaining_here:.0f}s by {self.policy.min_improvement_factor}x"
                ),
                current_site=record.site, progress_rate=rate,
                remaining_here_s=remaining_here, best_alternative_s=best,
                candidates=candidates,
            )
        return MoveDecision(
            task_id=task_id, should_move=True,
            reason=(
                f"slow (rate {rate:.2f}); {target} finishes in ~{candidates[target]:.0f}s "
                f"vs ~{remaining_here:.0f}s here"
            ),
            current_site=record.site, target_site=target, progress_rate=rate,
            remaining_here_s=remaining_here, best_alternative_s=candidates[target],
            candidates=candidates,
        )

    # ------------------------------------------------------------------
    def _candidate_completions(
        self, task_id: str, current_site: str, remaining_work: float, estimated_total: float
    ) -> Dict[str, float]:
        """Expected completion time at every alternative site.

        A checkpointable task only re-runs its remaining work at the new
        site; a plain task restarts from zero.
        """
        task = self.plans.tasks[task_id]
        by_site = self.estimators.completion_by_site(
            task.spec, priority=task.priority, exclude=[current_site]
        )
        out: Dict[str, float] = {}
        for site, parts in by_site.items():
            total = parts["total_s"]
            if task.checkpointable and estimated_total > 0:
                # Replace the full-runtime term with the remaining work.
                total = total - parts["runtime_s"] + min(parts["runtime_s"], remaining_work)
            out[site] = total
        return out

    def _pick_target(
        self, owner: str, candidates: Dict[str, float], remaining_here: float
    ) -> tuple:
        """Choose the Best Site under the configured preference.

        Only sites that beat staying put by the improvement factor are
        eligible; among those, *fast* picks the minimum expected completion
        and *cheap* asks the accounting service for the lowest cost.
        Returns ``(site or None, best_time_among_all)``.
        """
        best_time = min(candidates.values())
        eligible = {
            site: t
            for site, t in candidates.items()
            if t * self.policy.min_improvement_factor < remaining_here
        }
        if not eligible:
            return None, best_time
        if self.policy.preference == "fast":
            target = min(eligible, key=lambda s: (eligible[s], s))
        else:  # cheap
            assert self.accounting is not None
            answer = self.accounting.cheapest_site({s: t for s, t in eligible.items()})
            target = str(answer["site"])
        return target, best_time
