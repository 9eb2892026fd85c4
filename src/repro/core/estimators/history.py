"""The task-history repository behind the runtime estimator.

"We maintain a history of tasks that have executed along with their
respective runtimes" (§6.1).  A :class:`TaskRecord` captures the
estimator-visible attributes of one completed task — deliberately the same
fields the SDSC Paragon accounting trace records — plus its actual runtime.

"A decentralized approach is used for history maintenance": each site keeps
its own :class:`HistoryRepository`; :class:`HistoryRecorder` subscribes to
a site pool's completion callbacks and journals each finished task; the
``estimators`` consumer (:mod:`repro.events.core`) appends the record.

The repository answers the similarity queries of §6.1 through a
**multi-attribute hash index**: for every template (attribute tuple) that
has ever been queried, records are bucketed by their value tuple on those
attributes.  Buckets are maintained incrementally as :meth:`add` appends
records (so a live :class:`HistoryRecorder` keeps them warm), which turns
the per-estimate work from a full history scan into a single dict lookup.
A bucket holds its records in insertion order, so a query returns exactly
what a linear scan over :meth:`HistoryRepository.successful` would (pinned
by ``tests/property/test_properties_index_accounting.py``).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.gridsim.condor import CondorJobAd
from repro.gridsim.job import TaskSpec
from repro.gridsim.site import Site
from repro.store.base import StateStore
from repro.store.registry import ESTIMATOR_HISTORY, namespace_record


@dataclass(frozen=True)
class TaskRecord:
    """One completed task, as the estimator is allowed to see it."""

    owner: str
    account: str
    partition: str
    queue: str
    nodes: int
    task_type: str
    executable: str
    requested_cpu_hours: float
    runtime_s: float
    status: str = "successful"      # "successful" | "failed" (trace field)
    submit_time: float = 0.0
    start_time: float = 0.0
    end_time: float = 0.0
    site: str = ""

    def __post_init__(self) -> None:
        if self.runtime_s < 0:
            raise ValueError(f"runtime must be non-negative, got {self.runtime_s}")

    def attribute(self, name: str) -> object:
        """Attribute lookup by name (template matching)."""
        return getattr(self, name)

    @classmethod
    def from_spec(
        cls,
        spec: TaskSpec,
        runtime_s: float,
        status: str = "successful",
        submit_time: float = 0.0,
        start_time: float = 0.0,
        end_time: float = 0.0,
        site: str = "",
    ) -> "TaskRecord":
        """Build a record from a task spec plus its observed runtime."""
        return cls(
            owner=spec.owner,
            account=spec.account,
            partition=spec.partition,
            queue=spec.queue,
            nodes=spec.nodes,
            task_type=spec.task_type,
            executable=spec.executable,
            requested_cpu_hours=spec.requested_cpu_hours,
            runtime_s=runtime_s,
            status=status,
            submit_time=submit_time,
            start_time=start_time,
            end_time=end_time,
            site=site,
        )


_CSV_FIELDS = [f.name for f in fields(TaskRecord)]
_NUMERIC_FIELDS = {
    "nodes": int,
    "requested_cpu_hours": float,
    "runtime_s": float,
    "submit_time": float,
    "start_time": float,
    "end_time": float,
}


class HistoryRepository:
    """An append-only store of :class:`TaskRecord` with attribute queries.

    *records* are the initial records (appended in order).
    :meth:`matching` is served from hash buckets keyed on the queried
    attribute tuple.  Records are only ever appended, so ``len()`` is the
    repository's version: whatever was derived from it at one length
    (:class:`~repro.core.estimators.runtime.RuntimeEstimator`'s fits)
    holds until the length moves.
    """

    def __init__(self, records: Iterable[TaskRecord] = ()) -> None:
        self._records: List[TaskRecord] = list(records)
        # Successful records, insertion order — the estimator training set.
        self._successful: List[TaskRecord] = [
            r for r in self._records if r.status == "successful"
        ]
        # template (attribute tuple) -> value tuple -> records in insertion
        # order.  Built lazily on first query of each template, then kept
        # up to date incrementally by add()/extend().
        self._indexes: Dict[Tuple[str, ...], Dict[Tuple, List[TaskRecord]]] = {}
        #: Called with each record as it is appended — the read-cache
        #: "history" epoch (and anything else watching arrivals) hangs here.
        self.listeners: List = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TaskRecord]:
        return iter(self._records)

    def add(self, record: TaskRecord, notify: bool = True) -> None:
        """Append one completed-task record (updates every live index).

        ``notify=False`` is the quiet fold used when an event-sourced
        restore replays the journal tail — the row (and every live
        index) lands without re-announcing the arrival.
        """
        self._records.append(record)
        if record.status == "successful":
            self._successful.append(record)
            for attributes, buckets in self._indexes.items():
                key = tuple(record.attribute(a) for a in attributes)
                buckets.setdefault(key, []).append(record)
        if notify:
            for listener in self.listeners:
                listener(record)

    def extend(self, records: Iterable[TaskRecord], notify: bool = True) -> None:
        """Append many records (``notify`` as for :meth:`add`)."""
        for record in records:
            self.add(record, notify)

    def records(self) -> List[TaskRecord]:
        """All records, in insertion order (copy)."""
        return list(self._records)

    def successful(self) -> List[TaskRecord]:
        """Only records of tasks that completed successfully.

        The runtime estimator trains on these — a failed task's runtime
        says nothing about how long the work actually takes.
        """
        return list(self._successful)

    def _index_for(self, attributes: Tuple[str, ...]) -> Dict[Tuple, List[TaskRecord]]:
        buckets = self._indexes.get(attributes)
        if buckets is None:
            buckets = {}
            for r in self._successful:
                key = tuple(r.attribute(a) for a in attributes)
                buckets.setdefault(key, []).append(r)
            self._indexes[attributes] = buckets
        return buckets

    def matching(
        self, attributes: Sequence[str], target: Dict[str, object]
    ) -> List[TaskRecord]:
        """Successful records equal to *target* on every named attribute.

        Returned in insertion order, so downstream statistics do not
        depend on how the history was built up.
        """
        attrs = tuple(attributes)
        try:
            key = tuple(target.get(a) for a in attrs)
            return list(self._index_for(attrs).get(key, ()))
        except TypeError:
            # Unhashable target value — no bucket key exists, so scan.
            return [
                r for r in self._successful
                if all(r.attribute(a) == target.get(a) for a in attrs)
            ]

    def index_stats(self) -> Dict[str, object]:
        """Shape of the live indexes (for benchmarks and debugging)."""
        return {
            "records": len(self._records),
            "successful": len(self._successful),
            "templates": {
                ",".join(attrs) or "<empty>": len(buckets)
                for attrs, buckets in self._indexes.items()
            },
        }

    # ------------------------------------------------------------------
    # persistence (accounting-trace style CSV)
    # ------------------------------------------------------------------
    def to_csv(self) -> str:
        """Serialise to CSV with a header row."""
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for r in self._records:
            writer.writerow({name: getattr(r, name) for name in _CSV_FIELDS})
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "HistoryRepository":
        """Parse CSV produced by :meth:`to_csv`."""
        reader = csv.DictReader(io.StringIO(text))
        records = []
        for row in reader:
            kwargs: Dict[str, object] = {}
            for name in _CSV_FIELDS:
                raw = row[name]
                conv = _NUMERIC_FIELDS.get(name)
                kwargs[name] = conv(float(raw)) if conv is int else (conv(raw) if conv else raw)
            records.append(TaskRecord(**kwargs))  # type: ignore[arg-type]
        return cls(records)

    # ------------------------------------------------------------------
    # persistence (state-store backend)
    # ------------------------------------------------------------------
    def save_to(self, store: "StateStore") -> int:
        """Write every record into the ``estimator.history`` namespace.

        Keys are zero-padded insertion indexes so iteration order is the
        repository's insertion order on any backend.
        """
        store.register_namespace(namespace_record(ESTIMATOR_HISTORY))
        store.clear(ESTIMATOR_HISTORY)
        return store.put_many(
            ESTIMATOR_HISTORY,
            (
                (f"{i:08d}", {name: getattr(r, name) for name in _CSV_FIELDS})
                for i, r in enumerate(self._records)
            ),
        )

    @classmethod
    def load_from(cls, store: "StateStore") -> "HistoryRepository":
        """Rebuild a repository from the ``estimator.history`` namespace."""
        records = [
            TaskRecord(**row)  # type: ignore[arg-type]
            for _, row in store.items(ESTIMATOR_HISTORY)
        ]
        return cls(records)


class HistoryRecorder:
    """Feeds a history repository from live pool completions.

    Attach to any number of sites; every successfully completed task (and,
    when ``record_failures`` is set, every failed one) becomes a
    :class:`TaskRecord` whose runtime is the task's accrued CPU work,
    handed to ``sink(record, task_id)`` (``EventCore.emit_history``).
    """

    def __init__(
        self, sink: Callable[[TaskRecord, str], None], record_failures: bool = False
    ) -> None:
        self.sink = sink
        self.record_failures = record_failures

    def attach(self, site: Site) -> None:
        """Subscribe to a site pool's completion/failure callbacks."""

        def on_complete(ad: CondorJobAd) -> None:
            self.sink(self._record(ad, site.name, "successful"), ad.task_id)

        def on_failed(ad: CondorJobAd) -> None:
            if self.record_failures:
                self.sink(self._record(ad, site.name, "failed"), ad.task_id)

        site.pool.on_complete.append(on_complete)
        site.pool.on_failed.append(on_failed)

    @staticmethod
    def _record(ad: CondorJobAd, site_name: str, status: str) -> TaskRecord:
        return TaskRecord.from_spec(
            ad.task.spec,
            runtime_s=ad.accrued_work,
            status=status,
            submit_time=ad.submit_time,
            start_time=ad.start_time if ad.start_time is not None else ad.submit_time,
            end_time=ad.end_time if ad.end_time is not None else ad.submit_time,
            site=site_name,
        )
