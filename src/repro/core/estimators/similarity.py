"""Similarity templates for history-based runtime prediction.

"History based runtime prediction algorithms operate on the idea that tasks
with similar characteristics generally have similar runtimes" (§6.1,
citing [9]).  *Similar* is defined by a **template**: a subset of task
attributes; two tasks are similar under a template when they agree on every
attribute in it.

Two ways of choosing templates are provided:

- :func:`most_specific_match` — a fixed specificity ladder: try the fullest
  template first and peel attributes off until enough similar history
  exists.  Fast, predictable, the default in the estimator service.
- :class:`GreedyTemplateSearch` — the Smith/Taylor/Foster [25] greedy
  search: grow a template one attribute at a time, keeping each addition
  only if it lowers cross-validated prediction error on the history.  Used
  by the ablation benchmark to show the fixed ladder is competitive.

Walking the default ladder: with three history records of alice's ``reco``
runs and one unrelated job, a query for another ``reco`` run lands on the
most specific template (all seven attributes) and matches exactly the
three similar records:

>>> from repro.core.estimators.history import HistoryRepository, TaskRecord
>>> def rec(owner, executable, runtime_s):
...     return TaskRecord(owner=owner, account="cms", partition="compute",
...                       queue="standard", nodes=1, task_type="batch",
...                       executable=executable, requested_cpu_hours=1.0,
...                       runtime_s=runtime_s)
>>> history = HistoryRepository([rec("alice", "reco", 100.0),
...                              rec("alice", "reco", 110.0),
...                              rec("alice", "reco", 120.0),
...                              rec("bob", "simulate", 4000.0)])
>>> target = {"owner": "alice", "account": "cms", "partition": "compute",
...           "queue": "standard", "nodes": 1, "task_type": "batch",
...           "executable": "reco"}
>>> template, matches = most_specific_match(history, target, min_samples=3)
>>> len(template), len(matches)
(7, 3)

With too little similar history the ladder degrades gracefully — here no
rung reaches ``min_samples``, so the single same-executable record is
accepted rather than averaging over unrelated jobs:

>>> target["executable"] = "simulate"; target["owner"] = "bob"
>>> template, matches = most_specific_match(history, target, min_samples=3)
>>> [m.runtime_s for m in matches]
[4000.0]
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, isfinite
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.estimators.history import HistoryRepository, TaskRecord

#: Every attribute a template may constrain, most-identifying first.
ALL_TEMPLATE_ATTRIBUTES: Tuple[str, ...] = (
    "executable",
    "owner",
    "account",
    "queue",
    "partition",
    "task_type",
    "nodes",
)

Template = Tuple[str, ...]

#: The default specificity ladder: drop attributes from the right.
DEFAULT_LADDER: Tuple[Template, ...] = tuple(
    ALL_TEMPLATE_ATTRIBUTES[: len(ALL_TEMPLATE_ATTRIBUTES) - i]
    for i in range(len(ALL_TEMPLATE_ATTRIBUTES))
) + ((),)


def most_specific_match(
    history: HistoryRepository,
    target: Dict[str, object],
    min_samples: int = 3,
    ladder: Sequence[Template] = DEFAULT_LADDER,
) -> Tuple[Template, List[TaskRecord]]:
    """Find the most specific template with enough matching history.

    Walks *ladder* from most to least specific and returns the first
    ``(template, matches)`` with at least *min_samples* successful records.
    When no rung reaches the threshold, the most specific rung with at
    least one match is accepted — a couple of records of the *same
    application* are far better evidence than dozens of unrelated jobs —
    before finally degrading to the full successful history (global mean).
    The answer depends only on *target*'s values and the history, which is
    why the runtime estimator asks once per history version.
    """
    if min_samples < 1:
        raise ValueError(f"min_samples must be >= 1, got {min_samples}")
    # One walk: the first non-empty rung is remembered on the way down and
    # is the answer when no rung reaches the threshold.
    first_nonempty: Optional[Tuple[Template, List[TaskRecord]]] = None
    for template in ladder:
        if not template:
            continue  # the empty template is only ever the last resort
        matches = history.matching(template, target)
        if len(matches) >= min_samples:
            return template, matches
        if matches and first_nonempty is None:
            first_nonempty = (template, matches)
    if first_nonempty is not None:
        return first_nonempty
    return (), history.successful()


def _loo_mean_error(runtimes: Sequence[float]) -> float:
    """Leave-one-out mean absolute relative error of the mean predictor.

    For each sample, predict it with the mean of the others; average the
    absolute relative errors (a zero runtime has none).  This is the
    objective the greedy template search minimises.
    """
    n = len(runtimes)
    if n < 2:
        return float("inf")
    total = fsum(runtimes)
    rel = [abs(r - (total - r) / (n - 1)) / r for r in runtimes if r > 0]
    rel = [e for e in rel if isfinite(e)]
    return fsum(rel) / len(rel) if rel else float("inf")


@dataclass
class GreedySearchResult:
    """Outcome of a greedy template search."""

    template: Template
    error: float
    trace: List[Tuple[Template, float]]


class GreedyTemplateSearch:
    """Smith/Taylor/Foster-style greedy template construction.

    Starting from the empty template, repeatedly add the candidate
    attribute whose addition most reduces leave-one-out prediction error
    over the history, stopping when no addition helps (or when matches
    would fall below ``min_samples``).
    """

    def __init__(
        self,
        candidates: Sequence[str] = ALL_TEMPLATE_ATTRIBUTES,
        min_samples: int = 3,
    ) -> None:
        if min_samples < 2:
            raise ValueError("min_samples must be >= 2 for leave-one-out scoring")
        self.candidates = tuple(candidates)
        self.min_samples = min_samples

    def _score(self, history: HistoryRepository, template: Template) -> float:
        """Mean LOO error of the mean predictor across template partitions."""
        groups: Dict[Tuple, List[float]] = {}
        for r in history.successful():
            key = tuple(r.attribute(a) for a in template)
            groups.setdefault(key, []).append(r.runtime_s)
        weighted: List[float] = []
        weight = 0
        for runtimes in groups.values():
            if len(runtimes) < self.min_samples:
                continue
            err = _loo_mean_error(runtimes)
            if isfinite(err):
                weighted.append(err * len(runtimes))
                weight += len(runtimes)
        if not weight:
            return float("inf")
        return fsum(weighted) / weight

    def search(self, history: HistoryRepository) -> GreedySearchResult:
        """Run the greedy search over *history*."""
        current: Template = ()
        current_error = self._score(history, current)
        trace: List[Tuple[Template, float]] = [(current, current_error)]
        remaining = list(self.candidates)
        while remaining:
            best_attr: Optional[str] = None
            best_error = current_error
            for attr in remaining:
                candidate = current + (attr,)
                err = self._score(history, candidate)
                if err < best_error:
                    best_attr, best_error = attr, err
            if best_attr is None:
                break
            current = current + (best_attr,)
            current_error = best_error
            trace.append((current, current_error))
            remaining.remove(best_attr)
        return GreedySearchResult(template=current, error=current_error, trace=trace)

    def ladder_from(self, result: GreedySearchResult) -> Tuple[Template, ...]:
        """A specificity ladder derived from a search result (searched
        template first, then its prefixes, then the empty template)."""
        t = result.template
        return tuple(t[: len(t) - i] for i in range(len(t))) + ((),)
