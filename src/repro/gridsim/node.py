"""Compute nodes with time-varying background CPU load.

The Figure 7 experiment hinges on one mechanism: a job on a node with
"significant CPU load" accrues Condor wall-clock time *slower* than real
time.  We model a node's background load as a piecewise-constant function of
simulated time; a task running on the node receives CPU at rate

    rate(t) = 1 / (1 + load(t))

i.e. it fair-shares one CPU with ``load`` competing load units.  With
``load = 0`` the task progresses in real time (the paper's "free CPU"
assumption: the 283 s prime job always takes ~283 s on a free CPU); with
``load = 1`` it takes twice as long, and so on.

Piecewise-constant profiles let the Condor pool compute task finish times
*analytically* between change points — no time-stepping, so the simulator
stays exact and fast.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # annotation only: numpy loads with the first random walk
    import numpy as np


class LoadProfile:
    """Piecewise-constant background load as a function of simulated time.

    Segments are ``(start_time, load)`` pairs; the profile holds each load
    value from its start time until the next segment's start time, and the
    last value forever after.  Loads are non-negative floats ("competing
    load units"; 0 = free CPU).
    """

    def __init__(self, segments: Sequence[Tuple[float, float]] = ((0.0, 0.0),)) -> None:
        segs = sorted((float(t), float(v)) for t, v in segments)
        if not segs:
            raise ValueError("a load profile needs at least one segment")
        if segs[0][0] > 0.0:
            # Anything before the first explicit segment is a free CPU.
            segs.insert(0, (0.0, 0.0))
        for _, load in segs:
            if load < 0:
                raise ValueError(f"load must be non-negative, got {load}")
        self._times = [t for t, _ in segs]
        self._loads = [v for _, v in segs]

    @classmethod
    def constant(cls, load: float) -> "LoadProfile":
        """A profile that holds one load value forever."""
        return cls([(0.0, load)])

    @classmethod
    def free(cls) -> "LoadProfile":
        """An always-idle CPU."""
        return cls.constant(0.0)

    @classmethod
    def steps(cls, pairs: Sequence[Tuple[float, float]]) -> "LoadProfile":
        """A profile from explicit ``(start_time, load)`` steps."""
        return cls(pairs)

    @classmethod
    def combine_max(cls, profiles: Sequence["LoadProfile"]) -> "LoadProfile":
        """The pointwise-maximum profile over several profiles.

        A gang (multi-node) task progresses at the rate of its *slowest*
        node — SPMD steps barrier-synchronise — which is the rate under the
        maximum background load.  The result is piecewise-constant on the
        union of all breakpoints, so the analytic accrual machinery keeps
        working unchanged.
        """
        if not profiles:
            raise ValueError("combine_max needs at least one profile")
        if len(profiles) == 1:
            return profiles[0]
        times = sorted({t for p in profiles for t in p._times})
        return cls([(t, max(p.load_at(t) for p in profiles)) for t in times])

    @classmethod
    def random_walk(
        cls,
        rng: np.random.Generator,
        horizon: float,
        step: float = 300.0,
        mean_load: float = 1.0,
        volatility: float = 0.5,
    ) -> "LoadProfile":
        """A mean-reverting random-walk load out to *horizon* seconds.

        Used by workload scenarios to emulate the "volatile nature of a Grid
        environment" (§1) without hand-placing steps.
        """
        if horizon <= 0 or step <= 0:
            raise ValueError("horizon and step must be positive")
        import numpy as np

        times = np.arange(0.0, horizon, step)
        load = max(0.0, mean_load)
        pairs: List[Tuple[float, float]] = []
        for t in times:
            pairs.append((float(t), load))
            # Ornstein-Uhlenbeck-style pull toward the mean plus noise.
            load += 0.3 * (mean_load - load) + rng.normal(0.0, volatility)
            load = max(0.0, load)
        return cls(pairs)

    # ------------------------------------------------------------------
    def segments(self) -> List[Tuple[float, float]]:
        """The ``(start_time, load)`` steps defining this profile.

        The exact constructor input: ``LoadProfile(p.segments())`` is an
        identical profile — the serialization used by grid-spec capture
        and checkpointing.
        """
        return list(zip(self._times, self._loads))

    def load_at(self, t: float) -> float:
        """Background load at simulated time *t*."""
        i = bisect.bisect_right(self._times, t) - 1
        if i < 0:
            return self._loads[0]
        return self._loads[i]

    def rate_at(self, t: float) -> float:
        """CPU share a single task receives at time *t* (in (0, 1])."""
        return 1.0 / (1.0 + self.load_at(t))

    def next_change_after(self, t: float) -> Optional[float]:
        """First segment boundary strictly after *t*, or None."""
        i = bisect.bisect_right(self._times, t)
        if i >= len(self._times):
            return None
        return self._times[i]

    def work_between(self, t0: float, t1: float) -> float:
        """CPU-seconds a task accrues between *t0* and *t1* (exact integral)."""
        if t1 < t0:
            raise ValueError(f"t1 < t0 ({t1} < {t0})")
        total = 0.0
        t = t0
        while t < t1:
            nxt = self.next_change_after(t)
            seg_end = t1 if nxt is None or nxt > t1 else nxt
            total += (seg_end - t) * self.rate_at(t)
            t = seg_end
        return total

    def time_to_accrue(self, t0: float, work: float) -> float:
        """Wall time from *t0* needed to accrue *work* CPU-seconds.

        Returns ``inf`` only if work is infinite; any finite work completes
        because rates are always positive.
        """
        if work < 0:
            raise ValueError(f"work must be non-negative, got {work}")
        remaining = work
        t = t0
        while remaining > 0:
            rate = self.rate_at(t)
            nxt = self.next_change_after(t)
            if nxt is None:
                return (t - t0) + remaining / rate
            capacity = (nxt - t) * rate
            if capacity >= remaining:
                return (t - t0) + remaining / rate
            remaining -= capacity
            t = nxt
        return t - t0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        pairs = list(zip(self._times, self._loads))
        return f"LoadProfile({pairs[:4]}{'...' if len(pairs) > 4 else ''})"


@dataclass
class Node:
    """A worker node in an execution site's pool.

    ``cpu_count`` independent slots share the node's background-load profile;
    the Condor pool places at most one task per slot.
    """

    name: str
    cpu_count: int = 1
    load_profile: LoadProfile = field(default_factory=LoadProfile.free)
    running_task_ids: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.cpu_count < 1:
            raise ValueError(f"cpu_count must be >= 1, got {self.cpu_count}")

    @property
    def free_slots(self) -> int:
        """Slots not currently occupied by a task."""
        return self.cpu_count - len(self.running_task_ids)

    def occupy(self, task_id: str, slots: int = 1) -> None:
        """Claim *slots* slots for *task_id* (a gang member may take
        several on one node)."""
        if slots < 1:
            raise RuntimeError(f"slots must be >= 1, got {slots}")
        if self.free_slots < slots:
            raise RuntimeError(
                f"node {self.name} has {self.free_slots} free slots, need {slots}"
            )
        if task_id in self.running_task_ids:
            raise RuntimeError(f"task {task_id} already on node {self.name}")
        self.running_task_ids.extend([task_id] * slots)

    def release(self, task_id: str) -> int:
        """Free every slot held by *task_id*; returns how many that was."""
        held = len(self.running_task_ids)
        if task_id not in self.running_task_ids:
            raise ValueError(f"task {task_id} not on node {self.name}")
        self.running_task_ids = [t for t in self.running_task_ids if t != task_id]
        return held - len(self.running_task_ids)

    def load_at(self, t: float) -> float:
        """Background load at time *t* (delegates to the profile)."""
        return self.load_profile.load_at(t)
