"""An adaptive steering agent that learns from advanced users (§1).

The paper's introduction motivates interactive steering partly as training
data: giving experts manual control "would also facilitate the development
of more intelligent agents that could observe and learn from the actions of
advanced users, and work out improved optimization strategies for automated
resource management activities."

:class:`AdaptiveSteeringAgent` is that agent.  It watches *manual* move
commands issued through the steering service, recording the state of the
job at the moment its owner decided to move it — most importantly the
progress rate (accrued work per wall second) the user considered
intolerable, and how long the user waited before acting.  From a batch of
observations it derives a recommended :class:`SteeringPolicy`:

- ``slow_rate_threshold`` — a high quantile of the rates users moved at
  (if experts move jobs running at 0.55 of the free-CPU rate, the
  autonomous loop should consider 0.55 slow too), clamped to (0, 1);
- ``poll_interval_s`` and ``min_elapsed_wall_s`` — scaled from the users'
  observed reaction times, so the loop reacts about as fast as the humans
  it learned from.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from typing import List, Optional

from repro.core.monitoring.records import MonitoringRecord
from repro.core.steering.optimizer import SteeringPolicy


@dataclass(frozen=True)
class MoveObservation:
    """One manual move, as the agent saw it."""

    time: float                # when the user issued the move
    task_id: str
    owner: str
    progress_rate: float       # accrued work / wall time at that moment
    reaction_time_s: float     # wall time from task start to the move
    progress: float            # completed fraction when moved


class AdaptiveSteeringAgent:
    """Learns steering-policy parameters from observed manual moves.

    Parameters
    ----------
    base_policy:
        The policy recommendations start from; learned fields override it.
    min_observations:
        Below this many observations :meth:`recommended_policy` returns the
        base policy unchanged (no learning from anecdotes).
    rate_quantile:
        Which quantile of observed move-time rates becomes the slow-rate
        threshold.
    """

    def __init__(
        self,
        base_policy: Optional[SteeringPolicy] = None,
        min_observations: int = 3,
        rate_quantile: float = 0.9,
        safety_margin: float = 1.05,
    ) -> None:
        if min_observations < 1:
            raise ValueError("min_observations must be >= 1")
        if not 0.0 < rate_quantile <= 1.0:
            raise ValueError("rate_quantile must be in (0, 1]")
        self.base_policy = base_policy if base_policy is not None else SteeringPolicy()
        self.min_observations = min_observations
        self.rate_quantile = rate_quantile
        self.safety_margin = safety_margin
        self.observations: List[MoveObservation] = []

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def observe_manual_move(self, now: float, record: MonitoringRecord) -> None:
        """Record the state of a task whose owner just moved it manually.

        Called by the steering service from its ``move`` API, *before* the
        move executes, with the task's freshest monitoring record.
        """
        if record.execution_time is None:
            return  # never started; nothing to learn about rates
        wall = now - record.execution_time
        if wall <= 0:
            return
        rate = record.elapsed_time_s / wall
        self.observations.append(
            MoveObservation(
                time=now,
                task_id=record.task_id,
                owner=record.owner,
                progress_rate=min(1.0, rate),
                reaction_time_s=wall,
                progress=record.progress,
            )
        )

    @property
    def n_observations(self) -> int:
        """How many manual moves have been observed."""
        return len(self.observations)

    # ------------------------------------------------------------------
    # learning
    # ------------------------------------------------------------------
    def _quantile(self, values: List[float], q: float) -> float:
        ordered = sorted(values)
        if len(ordered) == 1:
            return ordered[0]
        idx = q * (len(ordered) - 1)
        lo = int(idx)
        hi = min(lo + 1, len(ordered) - 1)
        frac = idx - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    def recommended_threshold(self) -> float:
        """The slow-rate threshold implied by the observed moves."""
        rates = [o.progress_rate for o in self.observations]
        if not rates:
            return self.base_policy.slow_rate_threshold
        learned = self._quantile(rates, self.rate_quantile) * self.safety_margin
        # Must stay a valid (0, 1] threshold and never fall below base
        # caution entirely: clamp into [0.05, 0.99].
        return float(min(0.99, max(0.05, learned)))

    def recommended_reaction_s(self) -> float:
        """Median wall time users waited before moving."""
        reactions = [o.reaction_time_s for o in self.observations]
        if not reactions:
            return self.base_policy.min_elapsed_wall_s
        return float(statistics.median(reactions))

    def recommended_policy(self) -> SteeringPolicy:
        """The learned policy (base policy until enough observations)."""
        if len(self.observations) < self.min_observations:
            return self.base_policy
        reaction = self.recommended_reaction_s()
        return replace(
            self.base_policy,
            slow_rate_threshold=self.recommended_threshold(),
            # React about as fast as the humans: poll at half their median
            # reaction time, and stop granting grace beyond it.
            poll_interval_s=max(5.0, reaction / 2.0),
            min_elapsed_wall_s=max(10.0, reaction / 2.0),
        )

    def summary(self) -> str:
        """One-line human-readable report of what was learned."""
        if not self.observations:
            return "adaptive agent: no manual moves observed yet"
        policy = self.recommended_policy()
        return (
            f"adaptive agent: {len(self.observations)} manual moves observed; "
            f"recommend slow_rate_threshold={policy.slow_rate_threshold:.2f}, "
            f"poll_interval={policy.poll_interval_s:.0f}s, "
            f"grace={policy.min_elapsed_wall_s:.0f}s"
        )
