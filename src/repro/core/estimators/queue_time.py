"""The Queue Time Estimator (§6.2).

The paper's algorithm, step for step:

a. the task's Condor id is the input; the estimator contacts the execution
   service and retrieves, from the queue, the Condor ids and elapsed
   runtimes of every task ahead of the input task (higher priority, plus
   everything already running);
b. it retrieves, from a separate database, the *estimated run time* of each
   of those tasks — "the run time of each task is estimated at the time of
   task submission and is stored in a separate database";
c. elapsed runtime is subtracted from estimated runtime, giving the
   estimated *remaining* runtime of each task ahead;
d. the sum of those remainders is the estimated queue time.

:class:`RuntimeEstimateDB` is that separate at-submission database.  The
plain sum matches the paper's single-CPU framing; ``per_slot=True`` divides
by the pool's slot count for multi-slot sites (an extension the ablation
bench evaluates).

The optimizer calls :meth:`QueueTimeEstimator.estimate_for_new` once per
candidate site per steering decision, so that path is the hot one.  A
:class:`QueueAccounting` (attached per execution service, see
:meth:`QueueTimeEstimator.attach`) subscribes to the pool's state-change /
flock-forward events and to :meth:`RuntimeEstimateDB.record` notifications,
and maintains the queued tasks' estimated-remaining runtimes grouped into
per-priority bands.  Band totals are exact (:func:`math.fsum` over the
band's contributions, recomputed lazily only when the band changed), which
makes the incremental answer **bit-identical** to the §6.2 sum written out
over the queue — `fsum` is correctly rounded, so the grouping order cannot
leak into the result.  Cost per call drops from O(queue) to O(bands + running).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.gridsim.condor import CondorJobAd
from repro.gridsim.execution import ExecutionService
from repro.gridsim.job import JobState
from repro.store.base import StateStore
from repro.store.registry import ESTIMATOR_RUNTIME, namespace_record


class QueueEstimationError(RuntimeError):
    """Raised for unknown tasks or missing submission-time estimates."""


class RuntimeEstimateDB:
    """The at-submission runtime-estimate store (§6.2 step c).

    Keyed by task id; written by the estimator service every time the
    scheduler submits a task, read back by the queue-time estimator.
    Subscribers (see :meth:`subscribe`) hear about every write — the
    incremental queue accounting uses that to refresh the contribution of
    a task whose estimate lands *after* it was queued (the scheduler
    notifies its submission listeners after the pool submit).
    """

    def __init__(self) -> None:
        self._estimates: Dict[str, float] = {}
        self._listeners: List[Callable[[str, float], None]] = []

    def subscribe(self, listener: Callable[[str, float], None]) -> None:
        """Call *listener(task_id, value)* after every :meth:`record`."""
        self._listeners.append(listener)

    def record(
        self, task_id: str, estimated_runtime_s: float, notify: bool = True
    ) -> None:
        """Store the estimate made at submission time.

        ``notify=False`` is the quiet fold used when an event-sourced
        restore replays the journal tail: the estimate lands, but
        subscribers (who already saw the original event) stay silent.
        """
        if estimated_runtime_s < 0:
            raise ValueError(
                f"estimated runtime must be non-negative, got {estimated_runtime_s}"
            )
        self._estimates[task_id] = float(estimated_runtime_s)
        if notify:
            for listener in list(self._listeners):
                listener(task_id, self._estimates[task_id])

    def lookup(self, task_id: str) -> float:
        """The stored estimate (QueueEstimationError when absent)."""
        try:
            return self._estimates[task_id]
        except KeyError:
            raise QueueEstimationError(
                f"no submission-time estimate stored for task {task_id!r}"
            ) from None

    def has(self, task_id: str) -> bool:
        """Whether an estimate was recorded for this task."""
        return task_id in self._estimates

    def as_dict(self) -> Dict[str, float]:
        """All stored estimates (copy) — consumer fingerprints use this."""
        return dict(self._estimates)

    def __len__(self) -> int:
        return len(self._estimates)

    # -- persistence (state-store backend) ------------------------------
    def save_to(self, store: "StateStore") -> int:
        """Write every estimate into the ``estimator.runtime`` namespace."""
        store.register_namespace(namespace_record(ESTIMATOR_RUNTIME))
        store.clear(ESTIMATOR_RUNTIME)
        return store.put_many(ESTIMATOR_RUNTIME, list(self._estimates.items()))

    def load_from(self, store: "StateStore") -> int:
        """Replace contents from the ``estimator.runtime`` namespace.

        Loads *directly* — listeners are deliberately not notified, so a
        restore cannot double-count contributions in attached
        :class:`QueueAccounting` instances (they re-seed afterwards, see
        :meth:`QueueAccounting.reseed`).
        """
        items = store.items(ESTIMATOR_RUNTIME)
        self._estimates = {task_id: float(value) for task_id, value in items}
        return len(self._estimates)


@dataclass(frozen=True)
class QueueTimeBreakdown:
    """A queue-time estimate plus its per-task ingredients."""

    queue_time_s: float
    ahead: Tuple[Tuple[str, float], ...]  # (task_id, estimated remaining s)


class QueueAccounting:
    """Incremental per-priority-band accounting of one site's idle queue.

    Tracks, for every *queued* task of the attached execution service, its
    estimated-remaining runtime ``max(0, estimate - elapsed)`` — the exact
    quantity the §6.2 scan computes.  A queued task's elapsed runtime is
    frozen (accrual only advances while running), so the contribution
    computed at event time equals the one a scan of the queue would compute
    at query time.

    Event sources:

    - ``pool.on_state_change`` — enqueue on QUEUED (also re-files a task
      whose priority changed), drop on RUNNING / any terminal state;
    - ``pool.on_forwarded`` — drop a job that flocked to another pool;
    - ``estimate_db.subscribe`` — refresh a queued task's contribution
      when its at-submission estimate is recorded late.

    Band totals are cached :func:`math.fsum` results, recomputed only for
    bands dirtied since the last query; :meth:`band_totals` is therefore
    O(bands) on a quiet queue.
    """

    def __init__(
        self,
        service: ExecutionService,
        estimate_db: RuntimeEstimateDB,
        fallback_runtime_s: Optional[float] = None,
    ) -> None:
        self.service = service
        self.estimate_db = estimate_db
        self.fallback_runtime_s = fallback_runtime_s
        self._band_of: Dict[str, int] = {}
        self._bands: Dict[int, Dict[str, float]] = {}    # band -> task -> contribution
        self._missing: Dict[int, Set[str]] = {}          # band -> tasks w/o estimate
        self._totals: Dict[int, float] = {}
        self._dirty: Set[int] = set()
        pool = service.pool
        pool.on_state_change.append(self._on_state_change)
        pool.on_forwarded.append(self._on_forwarded)
        estimate_db.subscribe(self._on_estimate_recorded)
        for ad in pool.queue_snapshot():
            self._upsert(ad)

    # -- event handlers -------------------------------------------------
    def _on_state_change(self, ad: CondorJobAd) -> None:
        if ad.state is JobState.QUEUED:
            self._upsert(ad)
        else:
            self._discard(ad.task_id)

    def _on_forwarded(self, ad: CondorJobAd) -> None:
        self._discard(ad.task_id)

    def _on_estimate_recorded(self, task_id: str, value: float) -> None:
        band = self._band_of.get(task_id)
        if band is None:
            return
        elapsed = self.service.pool.ad(task_id).elapsed_runtime()
        self._bands[band][task_id] = max(0.0, value - elapsed)
        self._missing.get(band, set()).discard(task_id)
        self._dirty.add(band)

    # -- bookkeeping ----------------------------------------------------
    def _upsert(self, ad: CondorJobAd) -> None:
        self._discard(ad.task_id)
        band = ad.priority
        entries = self._bands.setdefault(band, {})
        if self.estimate_db.has(ad.task_id):
            estimated: Optional[float] = self.estimate_db.lookup(ad.task_id)
        elif self.fallback_runtime_s is not None:
            estimated = self.fallback_runtime_s
        else:
            estimated = None
        if estimated is None:
            entries[ad.task_id] = 0.0
            self._missing.setdefault(band, set()).add(ad.task_id)
        else:
            entries[ad.task_id] = max(0.0, estimated - ad.elapsed_runtime())
        self._band_of[ad.task_id] = band
        self._dirty.add(band)

    def _discard(self, task_id: str) -> None:
        band = self._band_of.pop(task_id, None)
        if band is None:
            return
        entries = self._bands[band]
        entries.pop(task_id, None)
        self._missing.get(band, set()).discard(task_id)
        self._dirty.add(band)
        if not entries:
            self._bands.pop(band, None)
            self._missing.pop(band, None)
            self._totals.pop(band, None)
            self._dirty.discard(band)

    def reseed(self) -> None:
        """Rebuild the accounting from the pool's current queue.

        Used after a checkpoint restore: pool state is rehydrated without
        firing state-change callbacks, so the event-sourced books are
        reloaded wholesale.  Contributions are recomputed from the same
        (estimate, elapsed) inputs the original events saw — elapsed
        runtime is frozen while queued — so the rebuilt totals are
        bit-identical to the pre-snapshot ones.
        """
        self._band_of.clear()
        self._bands.clear()
        self._missing.clear()
        self._totals.clear()
        self._dirty.clear()
        for ad in self.service.pool.queue_snapshot():
            self._upsert(ad)

    # -- queries --------------------------------------------------------
    def queued_depth(self) -> int:
        """Number of queued tasks currently accounted."""
        return len(self._band_of)

    def band_totals(self, min_priority: int = 0) -> List[float]:
        """Exact remaining-runtime total of every band >= *min_priority*.

        Raises :class:`QueueEstimationError` when a relevant band holds a
        task without a stored estimate and no fallback was configured —
        the same strictness as the scan an un-attached service takes.
        """
        out: List[float] = []
        for band in self._bands:
            if band < min_priority:
                continue
            missing = self._missing.get(band)
            if missing:
                task_id = next(iter(missing))
                raise QueueEstimationError(
                    f"task {task_id!r} ahead in queue has no stored estimate"
                )
            if band in self._dirty:
                self._totals[band] = math.fsum(self._bands[band].values())
                self._dirty.discard(band)
            out.append(self._totals[band])
        return out


class QueueTimeEstimator:
    """Estimates how long a queued task will wait before starting."""

    def __init__(
        self,
        estimate_db: RuntimeEstimateDB,
        fallback_runtime_s: Optional[float] = None,
    ) -> None:
        """``fallback_runtime_s`` substitutes for tasks ahead that have no
        stored estimate (None makes that an error, the strict paper
        behaviour)."""
        self.estimate_db = estimate_db
        self.fallback_runtime_s = fallback_runtime_s

    def attach(self, service: ExecutionService) -> QueueAccounting:
        """Enable incremental queue accounting at *service* (idempotent).

        Once attached, :meth:`estimate_for_new` answers from the per-band
        running sums instead of scanning the queue.  Returns the (possibly
        pre-existing) :class:`QueueAccounting`.
        """
        acct = getattr(service, "queue_accounting", None)
        if (
            isinstance(acct, QueueAccounting)
            and acct.estimate_db is self.estimate_db
            and acct.fallback_runtime_s == self.fallback_runtime_s
        ):
            return acct
        acct = QueueAccounting(
            service, self.estimate_db, fallback_runtime_s=self.fallback_runtime_s
        )
        service.queue_accounting = acct
        return acct

    def _accounting(self, service: ExecutionService) -> Optional[QueueAccounting]:
        """The service's accounting, if compatible with this estimator."""
        acct = getattr(service, "queue_accounting", None)
        if (
            isinstance(acct, QueueAccounting)
            and acct.estimate_db is self.estimate_db
            and acct.fallback_runtime_s == self.fallback_runtime_s
        ):
            return acct
        return None

    def _remaining(self, ad: CondorJobAd) -> float:
        if self.estimate_db.has(ad.task_id):
            estimated = self.estimate_db.lookup(ad.task_id)
        elif self.fallback_runtime_s is not None:
            estimated = self.fallback_runtime_s
        else:
            raise QueueEstimationError(
                f"task {ad.task_id!r} ahead in queue has no stored estimate"
            )
        return max(0.0, estimated - ad.elapsed_runtime())

    def breakdown(
        self, service: ExecutionService, task_id: str, per_slot: bool = False
    ) -> QueueTimeBreakdown:
        """Full estimate with per-task remainders.

        ``per_slot`` divides the sum by the pool's total slots — the
        natural generalisation when a site drains its queue with many CPUs.
        """
        ahead = service.tasks_ahead_of(task_id)
        parts = tuple((ad.task_id, self._remaining(ad)) for ad in ahead)
        total = sum(p[1] for p in parts)
        if per_slot:
            total /= max(1, service.pool.total_slots)
        return QueueTimeBreakdown(queue_time_s=total, ahead=parts)

    def estimate(
        self, service: ExecutionService, task_id: str, per_slot: bool = False
    ) -> float:
        """The estimated queue wait in seconds (§6.2 step d)."""
        return self.breakdown(service, task_id, per_slot=per_slot).queue_time_s

    def estimate_for_new(
        self,
        service: ExecutionService,
        priority: int = 0,
        per_slot: bool = False,
    ) -> float:
        """Queue wait a *hypothetical* new task of *priority* would see.

        Used by the optimizer when comparing candidate sites before the
        task exists in any queue: everything running, plus every queued
        task that would sort ahead of a new FIFO arrival at this priority.

        When the service has incremental accounting (:meth:`attach`), the
        queued part comes from the per-priority-band running sums —
        O(bands) instead of O(queue); an un-attached service is scanned.
        Both combine the same contributions with the same
        correctly-rounded :func:`math.fsum`, so attaching never changes
        the answer.
        """
        running_parts = [self._remaining(ad) for ad in service.running_info()]
        acct = self._accounting(service)
        if acct is not None:
            band_totals = acct.band_totals(priority)
        else:
            by_band: Dict[int, List[float]] = {}
            for ad in service.queue_info():
                if ad.priority >= priority:
                    by_band.setdefault(ad.priority, []).append(self._remaining(ad))
            band_totals = [math.fsum(parts) for parts in by_band.values()]
        total = math.fsum(running_parts + band_totals)
        if per_slot:
            total /= max(1, service.pool.total_slots)
        return total
