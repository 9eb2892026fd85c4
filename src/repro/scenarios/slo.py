"""SLO assertions scored from the observability journal.

Every metric is **simulation-domain and deterministic**: values are
derived purely from :class:`~repro.events.journal.JournalEvent`
times and the at-submission :class:`~repro.core.estimators.queue_time.
RuntimeEstimateDB`, never from host wall clocks — which is what lets the
``SCENARIOS.json`` artifact be bit-identical across two runs with the
same seed (the scenario property test pins exactly that).

Metrics (see :data:`SLO_METRICS`):

- ``completion_ratio`` — completed tasks / submitted tasks;
- ``makespan_s`` — last completion time (horizon when nothing finished);
- ``queue_wait_s`` — percentile of dispatch→start gaps;
- ``recovery_time_s`` — percentile of failure→recovery gaps, censored at
  the horizon for tasks the Backup & Recovery service never resubmitted;
- ``steering_reaction_s`` — percentile of adversity-onset→corrective-verb
  gaps (``failed``→``recovered`` and last ``started``/``resumed``→
  ``moved``): how fast the steering loop reacts in simulation time;
- ``estimate_error_pct`` — mean absolute percentage error of the
  at-submission runtime estimate against the realised start→completion
  span (§6's estimator quality, scored in vivo);
- ``tasks_failed_total`` / ``moves_total`` — raw adversity/verb counts.

Doctest — score a tiny hand-built journal::

    >>> from repro.events.journal import EventJournal, EventType
    >>> journal = EventJournal(clock=lambda: 0.0)
    >>> for t, typ in [(0.0, EventType.DISPATCHED), (5.0, EventType.STARTED),
    ...                (9.0, EventType.FAILED), (11.0, EventType.RECOVERED),
    ...                (30.0, EventType.COMPLETED)]:
    ...     _ = journal.record(typ, "t-1", time=t)
    >>> slo = SloSpec.from_dict(
    ...     {"metric": "recovery_time_s", "op": "<=", "threshold": 5.0}, "slos[0]")
    >>> verdict = score_slos([slo], journal.events(), {}, ["t-1"], horizon_s=100.0)[0]
    >>> verdict["value"], verdict["passed"]
    (2.0, True)
    >>> score_slos([SloSpec.from_dict({"metric": "completion_ratio",
    ...                                "op": ">=", "threshold": 1.0}, "x")],
    ...            journal.events(), {}, ["t-1"], horizon_s=100.0)[0]["passed"]
    True
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.events.journal import EventType, JournalEvent
from repro.observability.metrics import percentile
from repro.scenarios.spec import SLO_METRICS, SloSpec

__all__ = ["SLO_METRICS", "SloSpec", "score_slos"]


# ----------------------------------------------------------------------
# metric extraction
# ----------------------------------------------------------------------
def _timelines(events: Sequence[JournalEvent]) -> Dict[str, List[JournalEvent]]:
    per_task: Dict[str, List[JournalEvent]] = {}
    for event in sorted(events, key=lambda e: (e.time, e.seq)):
        per_task.setdefault(event.task_id, []).append(event)
    return per_task


def _queue_waits(events: Sequence[JournalEvent]) -> List[float]:
    waits = []
    for timeline in _timelines(events).values():
        pending: Optional[float] = None
        for event in timeline:
            if event.type is EventType.DISPATCHED and pending is None:
                pending = event.time
            elif event.type is EventType.STARTED and pending is not None:
                waits.append(event.time - pending)
                pending = None
    return waits


def _recovery_times(events: Sequence[JournalEvent], horizon_s: float) -> List[float]:
    gaps = []
    for timeline in _timelines(events).values():
        failed_at: Optional[float] = None
        for event in timeline:
            if event.type is EventType.FAILED and failed_at is None:
                failed_at = event.time
            elif event.type is EventType.RECOVERED and failed_at is not None:
                gaps.append(event.time - failed_at)
                failed_at = None
        if failed_at is not None:  # never recovered: censor at the horizon
            gaps.append(max(0.0, horizon_s - failed_at))
    return gaps


def _steering_reactions(events: Sequence[JournalEvent], horizon_s: float) -> List[float]:
    gaps = list(_recovery_times(events, horizon_s))
    for timeline in _timelines(events).values():
        running_since: Optional[float] = None
        for event in timeline:
            if event.type in (EventType.STARTED, EventType.RESUMED):
                running_since = event.time
            elif event.type is EventType.MOVED and running_since is not None:
                gaps.append(event.time - running_since)
    return gaps


def _estimate_errors(
    events: Sequence[JournalEvent], estimates: Mapping[str, float]
) -> List[float]:
    errors = []
    for task_id, timeline in sorted(_timelines(events).items()):
        if task_id not in estimates:
            continue
        started = [e.time for e in timeline if e.type is EventType.STARTED]
        completed = [e.time for e in timeline if e.type is EventType.COMPLETED]
        if not started or not completed:
            continue
        actual = completed[-1] - started[0]
        if actual <= 0:
            continue
        errors.append(abs(estimates[task_id] - actual) / actual * 100.0)
    return errors


def compute_metric(
    spec: SloSpec,
    events: Sequence[JournalEvent],
    estimates: Mapping[str, float],
    submitted: Sequence[str],
    horizon_s: float,
) -> Tuple[float, int]:
    """``(value, samples)`` for one SLO over one scenario run.

    ``samples`` is how many observations backed the value; percentile
    metrics with zero samples score ``0.0`` (vacuously, e.g. recovery
    time in a benign scenario with nothing to recover).
    """
    metric = spec.metric
    if metric == "completion_ratio":
        done = {e.task_id for e in events if e.type is EventType.COMPLETED}
        total = len(submitted)
        return (len(done & set(submitted)) / total if total else 0.0, total)
    if metric == "makespan_s":
        times = [e.time for e in events if e.type is EventType.COMPLETED]
        return (max(times) if times else horizon_s, len(times))
    if metric == "tasks_failed_total":
        n = sum(1 for e in events if e.type is EventType.FAILED)
        return (float(n), n)
    if metric == "moves_total":
        n = sum(1 for e in events if e.type is EventType.MOVED)
        return (float(n), n)
    if metric == "estimate_error_pct":
        errors = _estimate_errors(events, estimates)
        mean = sum(errors) / len(errors) if errors else 0.0
        return (mean, len(errors))
    if metric == "queue_wait_s":
        samples = _queue_waits(events)
    elif metric == "recovery_time_s":
        samples = _recovery_times(events, horizon_s)
    elif metric == "steering_reaction_s":
        samples = _steering_reactions(events, horizon_s)
    else:  # pragma: no cover - SloSpec rejects unknown metrics
        raise ValueError(f"unknown metric {metric!r}")
    if not samples:
        return (0.0, 0)
    return (percentile(samples, spec.percentile), len(samples))


def score_slos(
    slos: Sequence[SloSpec],
    events: Sequence[JournalEvent],
    estimates: Mapping[str, float],
    submitted: Sequence[str],
    horizon_s: float,
) -> List[Dict[str, object]]:
    """Verdicts for every SLO: value, backing sample count, pass/fail."""
    verdicts = []
    for spec in slos:
        value, samples = compute_metric(spec, events, estimates, submitted, horizon_s)
        passed = value <= spec.threshold if spec.op == "<=" else value >= spec.threshold
        verdicts.append(
            {
                "slo": spec.label(),
                "metric": spec.metric,
                "op": spec.op,
                "threshold": spec.threshold,
                "percentile": spec.percentile if SLO_METRICS[spec.metric][1] else None,
                "value": value,
                "samples": samples,
                "passed": bool(passed),
            }
        )
    return verdicts
