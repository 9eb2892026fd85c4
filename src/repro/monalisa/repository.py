"""The monitoring repository: numeric metrics, job-state events, pub/sub.

Two kinds of data flow in (mirroring how the paper's services use
MonALISA):

- **numeric metrics** — e.g. each site's load, published periodically by
  :class:`~repro.monalisa.publisher.SiteLoadPublisher` and queried by the
  scheduler (§6.1 step d) and the steering optimizer;
- **job-state events** — published by the Job Monitoring Service's
  DBManager "whenever the state of a job changes" (§5).

Subscribers receive every update for the keys they watch; the repository
itself is transport-neutral and can be registered on a Clarens host.

Both arrive through the event journal: the ``monalisa`` consumer of
:mod:`repro.events.core` appends each ``metric-published`` sample and
derives each job-state event from a ``monitoring-updated`` one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.declare import encode
from repro.monalisa.timeseries import TimeSeries
from repro.store.base import StateStore
from repro.store.registry import (
    MONALISA_EVENTS,
    MONALISA_TIMESERIES,
    namespace_record,
)


class UnknownMetricError(KeyError):
    """Structured "no such farm/metric" error.

    Subclasses :class:`KeyError` so existing ``except KeyError`` callers
    keep working, but carries the farm and metric names plus a
    ``to_wire()`` shape matching the webui's structured 404 bodies.
    """

    def __init__(self, farm: str, metric: str, reason: str = "never published") -> None:
        super().__init__(f"no samples for {farm}/{metric} ({reason})")
        self.farm = farm
        self.metric = metric
        self.reason = reason

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]

    def to_wire(self) -> Dict[str, object]:
        """The webui-style structured error body."""
        return {
            "error": "not-found",
            "resource": "metric",
            "id": f"{self.farm}/{self.metric}",
            "reason": self.reason,
            "status": 404,
        }


@dataclass(frozen=True)
class MetricUpdate:
    """One published sample."""

    farm: str          # site / source name (MonALISA's "farm")
    metric: str
    time: float
    value: float


@dataclass(frozen=True)
class JobStateEvent:
    """One job-state transition published by a monitoring service."""

    time: float
    task_id: str
    job_id: str
    site: str
    state: str
    progress: float


class MonALISARepository:
    """Grid-wide monitoring store with publish/subscribe; :meth:`publish`
    writes through ``emit`` (``EventCore.emit_metric``)."""

    def __init__(self, emit: Callable[[str, str, float, float], None]) -> None:
        self.emit = emit
        self._series: Dict[Tuple[str, str], TimeSeries] = {}
        self._metric_subscribers: List[Callable[[MetricUpdate], None]] = []
        self._job_events: List[JobStateEvent] = []
        self._job_subscribers: List[Callable[[JobStateEvent], None]] = []

    # ------------------------------------------------------------------
    # numeric metrics
    # ------------------------------------------------------------------
    def publish(self, farm: str, metric: str, time: float, value: float) -> None:
        """Journal one sample (``metric-published``); the consumer
        records it and fans it out to metric subscribers."""
        self.emit(farm, metric, time, value)

    def _apply_publish(
        self, farm: str, metric: str, time: float, value: float, notify: bool = True
    ) -> None:
        """Append one sample (the journal consumer's fold primitive).

        ``notify=False`` is the quiet variant used when replaying a
        journal tail during an incremental restore.
        """
        key = (farm, metric)
        if key not in self._series:
            self._series[key] = TimeSeries()
        self._series[key].append(time, value)
        if notify:
            update = MetricUpdate(farm=farm, metric=metric, time=time, value=value)
            for cb in list(self._metric_subscribers):
                cb(update)

    def series(self, farm: str, metric: str) -> TimeSeries:
        """The full series for (farm, metric).

        Raises :class:`UnknownMetricError` (a KeyError subclass) when the
        pair never published.
        """
        try:
            return self._series[(farm, metric)]
        except KeyError:
            raise UnknownMetricError(farm, metric) from None

    def has_series(self, farm: str, metric: str) -> bool:
        """Whether any sample exists for (farm, metric)."""
        return (farm, metric) in self._series

    def latest(self, farm: str, metric: str, default: Optional[float] = None) -> float:
        """Most recent value, or *default* when nothing was published."""
        key = (farm, metric)
        if key not in self._series or len(self._series[key]) == 0:
            if default is None:
                raise UnknownMetricError(farm, metric)
            return default
        return self._series[key].latest()[1]

    def farms(self) -> List[str]:
        """All farm (site) names that ever published, sorted."""
        return sorted({farm for farm, _ in self._series})

    def metrics_of(self, farm: str) -> List[str]:
        """All metric names a farm ever published, sorted."""
        return sorted({m for f, m in self._series if f == farm})

    def subscribe_metrics(self, callback: Callable[[MetricUpdate], None]) -> None:
        """Receive every future numeric sample."""
        self._metric_subscribers.append(callback)

    # ------------------------------------------------------------------
    # convenience views used by the scheduler / optimizer
    # ------------------------------------------------------------------
    def site_load(self, farm: str, default: float = 0.0) -> float:
        """Latest published load for a site (the §6.1 step-d query)."""
        return self.latest(farm, "load", default=default)

    def load_oracle(self, default: float = 0.0) -> Callable[[str], float]:
        """A ``site -> load`` callable for SphinxScheduler's load_oracle."""

        def oracle(farm: str) -> float:
            return self.site_load(farm, default=default)

        return oracle

    # ------------------------------------------------------------------
    # job-state events
    # ------------------------------------------------------------------
    def publish_job_state(self, event: JobStateEvent) -> None:
        """Record a job-state transition and fan it out."""
        self._apply_job_state(event)

    def _apply_job_state(self, event: JobStateEvent, notify: bool = True) -> None:
        """Append one job-state event; quiet when ``notify=False``."""
        self._job_events.append(event)
        if notify:
            for cb in list(self._job_subscribers):
                cb(event)

    def job_events(
        self, task_id: Optional[str] = None, job_id: Optional[str] = None
    ) -> List[JobStateEvent]:
        """Events filtered by task and/or job id (all when both None)."""
        out = self._job_events
        if task_id is not None:
            out = [e for e in out if e.task_id == task_id]
        if job_id is not None:
            out = [e for e in out if e.job_id == job_id]
        return list(out)

    def subscribe_job_states(self, callback: Callable[[JobStateEvent], None]) -> None:
        """Receive every future job-state event."""
        self._job_subscribers.append(callback)

    # ------------------------------------------------------------------
    # persistence (state-store backend)
    # ------------------------------------------------------------------
    def save_to(self, store: StateStore) -> int:
        """Write series + job events into their store namespaces.

        Series keys are ``farm\\x1fmetric`` (unit-separator joined, both
        halves may contain ``/``) in registration order; events are one
        zero-padded key per event in publish order.
        """
        store.register_namespace(namespace_record(MONALISA_TIMESERIES))
        store.register_namespace(namespace_record(MONALISA_EVENTS))
        store.clear(MONALISA_TIMESERIES)
        store.clear(MONALISA_EVENTS)
        n = store.put_many(
            MONALISA_TIMESERIES,
            (
                (f"{farm}\x1f{metric}", ts.samples())
                for (farm, metric), ts in self._series.items()
            ),
        )
        n += store.put_many(
            MONALISA_EVENTS,
            ((f"{i:08d}", encode(e)) for i, e in enumerate(self._job_events)),
        )
        return n

    def load_from(self, store: StateStore) -> int:
        """Replace contents from the store namespaces.

        Subscribers are deliberately *not* notified — a restore replays
        state, not events.
        """
        self._series = {}
        for key, samples in store.items(MONALISA_TIMESERIES):
            farm, _, metric = key.partition("\x1f")
            self._series[(farm, metric)] = TimeSeries.from_samples(samples)
        self._job_events = [
            JobStateEvent(**row) for _, row in store.items(MONALISA_EVENTS)
        ]
        return len(self._series) + len(self._job_events)
