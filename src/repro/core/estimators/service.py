"""The Estimator Service facade (Clarens-registrable).

One object bundling the three estimators of §6 behind wire-friendly
methods, plus the plumbing the rest of the GAE needs:

- :meth:`attach_to_scheduler` subscribes to scheduler submissions so every
  task's runtime estimate is recorded *at submission time* into the
  separate database the Queue Time Estimator reads (§6.2), through the
  event journal like every store write (:mod:`repro.events.core`);
- :meth:`install_site_estimator` installs the runtime estimator at an
  execution site, enabling the §6.1 scheduling protocol (sites answer the
  scheduler's estimate queries locally);
- :meth:`estimate_completion` produces the optimizer's "expected execution
  time … includ[ing] the run time, queue time, and file transfer time
  estimates for job execution on a particular site" (§4.2.2).

The service sits on the steering optimizer's per-decision hot path, so its
backing stores are indexed: the history repository buckets records by
template attributes, :meth:`install_site_estimator` attaches incremental
per-priority-band queue accounting at each site, and the transfer
estimator can memoize bandwidth probes with a TTL (``transfer_cache_ttl_s``).

A minimal session — three similar completed tasks, then a wire-format
runtime estimate for a new task that matches them:

>>> from repro.core.estimators.history import HistoryRepository, TaskRecord
>>> from repro.events import EventCore, EventJournal
>>> events = EventCore(EventJournal(clock=lambda: 0.0, capacity=0))
>>> def rec(runtime_s):
...     return TaskRecord(owner="alice", account="cms", partition="compute",
...                       queue="standard", nodes=1, task_type="batch",
...                       executable="reco", requested_cpu_hours=1.0,
...                       runtime_s=runtime_s)
>>> history = HistoryRepository([rec(100.0), rec(110.0), rec(120.0)])
>>> service = EstimatorService(history, events.emit_estimate)
>>> est = service.estimate_runtime({
...     "_type": "TaskSpec", "owner": "alice", "account": "cms",
...     "partition": "compute", "queue": "standard", "nodes": 1,
...     "task_type": "batch", "executable": "reco", "requested_cpu_hours": 1.0})
>>> round(est["value"], 1), est["n_similar"], est["method"]
(110.0, 3, 'mean')
>>> service.history_size()
3
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.clarens.readcache import ReadPolicy
from repro.clarens.registry import clarens_method
from repro.core.estimators.history import HistoryRepository
from repro.core.estimators.queue_time import QueueTimeEstimator, RuntimeEstimateDB
from repro.core.estimators.runtime import EstimationError, RuntimeEstimator
from repro.core.estimators.transfer_time import TransferTimeEstimator
from repro.gridsim.execution import ExecutionService
from repro.gridsim.job import Task, TaskSpec
from repro.gridsim.network import IperfProbe
from repro.gridsim.scheduler import SphinxScheduler
from repro.gridsim.storage import ReplicaCatalog


def spec_from_wire(data: Dict[str, object]) -> TaskSpec:
    """Rebuild a TaskSpec from its wire struct (inverse of ``to_wire``)."""
    fields = dict(data)
    fields.pop("_type", None)
    for tuple_field in ("arguments", "input_files", "output_files"):
        if tuple_field in fields and isinstance(fields[tuple_field], list):
            fields[tuple_field] = tuple(fields[tuple_field])  # type: ignore[arg-type]
    return TaskSpec(**fields)  # type: ignore[arg-type]


class EstimatorService:
    """The §6 Estimator Service, ready to register on a Clarens host."""

    def __init__(
        self,
        history: HistoryRepository,
        estimate_sink: Callable[[str, float], None],
        probe: Optional[IperfProbe] = None,
        catalog: Optional[ReplicaCatalog] = None,
        min_samples: int = 3,
        method: str = "auto",
        fallback_runtime_s: Optional[float] = 3600.0,
        transfer_cache_ttl_s: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        """``estimate_sink`` (``EventCore.emit_estimate``) is where
        :meth:`record_estimate` writes.  ``transfer_cache_ttl_s`` memoizes
        bandwidth probes for that many seconds of *clock* time (pass the
        simulation clock when estimating under simulated time); ``None``
        probes on every estimate."""
        self.history = history
        self.estimate_sink = estimate_sink
        self.runtime = RuntimeEstimator(history, min_samples=min_samples, method=method)
        self.estimate_db = RuntimeEstimateDB()
        self.queue_time = QueueTimeEstimator(
            self.estimate_db, fallback_runtime_s=fallback_runtime_s
        )
        self.transfer: Optional[TransferTimeEstimator] = (
            TransferTimeEstimator(
                probe, cache_ttl_s=transfer_cache_ttl_s, clock=clock
            )
            if probe is not None
            else None
        )
        self.catalog = catalog
        self._services: Dict[str, ExecutionService] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def register_execution_service(self, service: ExecutionService) -> None:
        """Make a site's execution service queryable by name."""
        self._services[service.site.name] = service

    def _service(self, site_name: str) -> ExecutionService:
        try:
            return self._services[site_name]
        except KeyError:
            raise KeyError(f"estimator service knows no site {site_name!r}") from None

    def install_site_estimator(self, service: ExecutionService) -> None:
        """Install the runtime estimator at a site (§6.1 step b).

        Also attaches incremental queue accounting so queue-wait estimates
        for new tasks come from per-priority-band running sums instead of
        a queue scan.
        """
        service.runtime_estimator = self.runtime
        self.queue_time.attach(service)
        self.register_execution_service(service)

    def attach_to_scheduler(self, scheduler: SphinxScheduler) -> None:
        """Record an at-submission runtime estimate for every submitted task.

        This fills the "separate database" the Queue Time Estimator reads
        (§6.2 step c).  Tasks whose spec has no similar history fall back
        to the requested CPU hours.
        """

        def on_submission(task: Task, site_name: str) -> None:
            try:
                value = self.runtime.estimate(task.spec).value
            except EstimationError:
                value = task.spec.requested_cpu_hours * 3600.0
            self.record_estimate(task.task_id, value)

        scheduler.submission_listeners.append(on_submission)

    def record_estimate(self, task_id: str, value: float) -> None:
        """Journal an at-submission estimate (``estimate-recorded``);
        the estimators consumer writes the estimate DB."""
        self.estimate_sink(task_id, value)

    # ------------------------------------------------------------------
    # Clarens-exposed estimator methods
    # ------------------------------------------------------------------
    # estimate_transfer_time and estimate_completion are deliberately NOT
    # cached: both may draw from the iperf probe's RNG stream, and serving
    # a cached answer would skip the draw — diverging the stream from an
    # uncached host and breaking bit-identity.
    @clarens_method(cache=ReadPolicy(depends_on=("history",)))
    def estimate_runtime(self, spec: Dict[str, object]) -> Dict[str, object]:
        """Runtime estimate for a task spec (wire struct in, struct out)."""
        est = self.runtime.estimate(spec_from_wire(spec))
        return {
            "value": est.value,
            "mean": est.mean,
            "regression": est.regression,
            "n_similar": est.n_similar,
            "template": list(est.template),
            "method": est.method,
        }

    @clarens_method(
        cache=ReadPolicy(depends_on=("clock", "scheduler", "pool:*", "estimates"))
    )
    def estimate_queue_time(self, site_name: str, task_id: str) -> float:
        """Queue-wait estimate for a task already queued at a site (§6.2)."""
        return self.queue_time.estimate(self._service(site_name), task_id)

    @clarens_method(
        cache=ReadPolicy(depends_on=("clock", "scheduler", "pool:*", "estimates"))
    )
    def estimate_queue_time_by_condor_id(self, site_name: str, condor_id: int) -> float:
        """Queue-wait estimate keyed by Condor id.

        §6.2 step a: "The Condor ID of the task is provided as the input to
        the Queue Time Estimator" — this is that exact entry point.
        """
        service = self._service(site_name)
        ad = service.pool.ad_by_condor_id(int(condor_id))
        return self.queue_time.estimate(service, ad.task_id)

    @clarens_method
    def estimate_transfer_time(self, src: str, dst: str, size_mb: float) -> float:
        """Transfer-time estimate between two sites (§6.3)."""
        if self.transfer is None:
            raise RuntimeError("no network probe configured")
        return self.transfer.estimate(src, dst, size_mb).transfer_time_s

    @clarens_method
    def estimate_completion(
        self, site_name: str, spec: Dict[str, object], priority: int = 0
    ) -> Dict[str, float]:
        """The optimizer's expected-execution-time breakdown at one site.

        run time + queue time + input-file transfer time (§4.2.2).
        """
        task_spec = spec_from_wire(spec)
        service = self._service(site_name)
        try:
            runtime_s = self.runtime.estimate(task_spec).value
        except EstimationError:
            runtime_s = task_spec.requested_cpu_hours * 3600.0
        queue_s = self.queue_time.estimate_for_new(service, priority=priority)
        transfer_s = 0.0
        if self.transfer is not None and self.catalog is not None and task_spec.input_files:
            transfer_s = self.transfer.estimate_stage_in(
                self.catalog, list(task_spec.input_files), site_name
            )
        return {
            "runtime_s": runtime_s,
            "queue_time_s": queue_s,
            "transfer_time_s": transfer_s,
            "total_s": runtime_s + queue_s + transfer_s,
        }

    @clarens_method(cache=ReadPolicy(depends_on=("history",)))
    def history_size(self) -> int:
        """Number of records in the task history."""
        return len(self.history)

    # ------------------------------------------------------------------
    # direct (in-process) conveniences used by the steering optimizer
    # ------------------------------------------------------------------
    def completion_by_site(
        self, spec: TaskSpec, priority: int = 0, exclude: List[str] = []
    ) -> Dict[str, Dict[str, float]]:
        """Expected-completion breakdowns for every known, live site."""
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(self._services):
            if name in exclude:
                continue
            try:
                self._services[name].ping()
            except Exception:
                continue
            out[name] = self.estimate_completion(
                name, {"_type": "TaskSpec", **_spec_to_dict(spec)}, priority=priority
            )
        return out


def _spec_to_dict(spec: TaskSpec) -> Dict[str, object]:
    return {
        "owner": spec.owner,
        "account": spec.account,
        "partition": spec.partition,
        "queue": spec.queue,
        "nodes": spec.nodes,
        "task_type": spec.task_type,
        "requested_cpu_hours": spec.requested_cpu_hours,
        "executable": spec.executable,
        "arguments": list(spec.arguments),
        "input_files": list(spec.input_files),
        "output_files": list(spec.output_files),
        "priority": spec.priority,
        "environment": dict(spec.environment),
    }
