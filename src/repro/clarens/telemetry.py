"""The RPC layer's metric views.

Every count and latency of the RPC layer lives once, in ``ClarensHost.metrics``
(wall-clock, process-local, never checkpointed).  :class:`CallStats` and
:class:`WorkerPoolStats` write and read its ``gae_rpc_*`` / ``gae_aio_worker_*``
instruments and hold no numbers of their own, so ``system.stats`` and
``/metrics`` cannot disagree.  The per-call record is not kept here: it is
the call's ``rpc:`` span on ``ClarensHost.tracer``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.observability.metrics import MetricsRegistry


def _timing_ms(summary: Dict[str, float]) -> Dict[str, float]:
    """A histogram summary as the ``mean_ms``/``p50_ms``/... keys of the views."""
    if not summary:
        return {}
    mean = summary["sum"] / summary["count"]
    return {"mean_ms": mean, **{f"{q}_ms": summary[q] for q in ("p50", "p95", "p99", "max")}}


class CallStats:
    """``system.stats`` as a view over the host registry: every finished call
    is counted by ``method``/``transport``/``served_from``/``outcome``; only
    executed ones are timed (cached answers would drag p50 toward zero)."""

    def __init__(self, metrics: MetricsRegistry) -> None:
        self._calls = metrics.counter("gae_rpc_calls_total", "calls the host dispatched")
        self._latency = metrics.histogram("gae_rpc_latency_ms", "executed-call wall time (ms)")
        self._bound: Dict[tuple, tuple] = {}  # labelset -> its bound (counter, timer)

    def record(self, method: str, outcome: str = "ok", duration_ms: Optional[float] = None,
               served_from: str = "execute", transport: str = "") -> None:
        """Record one finished call (``transport=""``: not broken down by one)."""
        key = (method, transport, served_from, outcome)
        bound = self._bound.get(key)
        if bound is None:
            labels = dict(zip(("method", "transport", "served_from", "outcome"), key))
            bound = self._calls.bind(**labels), self._latency.bind(method=method)
            self._bound[key] = bound
        bound[0].inc()
        if served_from == "execute" and duration_ms is not None:
            bound[1].observe(duration_ms)

    def snapshot(self) -> Dict[str, Any]:
        """The wire-safe ``system.stats`` struct, summed from the series."""
        # Timings first: record() counts before it times, so every method
        # timed here is also in the counter series read after it.
        timed = {labels["method"]: s for labels, s in self._latency.series()}
        faults = 0
        per_method: Dict[str, int] = {}
        per_transport: Dict[str, int] = {}
        latency: Dict[str, Dict[str, Any]] = {}  # method -> executed-call summary
        served: Dict[str, Dict[str, int]] = {}  # method -> {"cache"|"coalesced": n}
        for labels, value in self._calls.series():
            n, method, source = int(value), labels["method"], labels["served_from"]
            failed = 0 if labels["outcome"] == "ok" else n
            faults += failed
            per_method[method] = per_method.get(method, 0) + n
            if labels["transport"]:
                per_transport[labels["transport"]] = per_transport.get(labels["transport"], 0) + n
            if source == "execute":
                executed = latency.setdefault(method, {"count": 0, "faults": 0})
                executed["count"] += n
                executed["faults"] += failed
            else:
                by_source = served.setdefault(method, {})
                by_source[source] = by_source.get(source, 0) + n
        for method, executed in latency.items():
            executed.update(_timing_ms(timed.get(method, {})))
        return {
            "calls": sum(per_method.values()), "faults": faults, "per_method": per_method,
            "per_transport": per_transport, "latency_ms": latency, "served": served,
        }


#: Stages of the async server's worker bridge, in call order: all timed on
#: the worker thread but ``reply_flush`` (event loop, one sample per batch).
WORKER_STAGES = ("queue_wait", "decode", "dispatch", "encode", "reply_flush")
_POOL_SCALARS = (  # per pool: snapshot key, instrument kind, name suffix, help
    ("submitted", "counter", "submitted_total", "requests queued"),
    ("completed", "counter", "completed_total", "requests answered"),
    ("queue_depth", "gauge", "queue_depth", "requests waiting for a worker"),
    ("max_queue_depth", "gauge", "queue_depth_max", "deepest the queue has been"),
    ("batches", "counter", "batches_total", "queue drains"),
    ("max_batch", "gauge", "batch_max", "most requests one drain took"),
)


class WorkerPoolStats:
    """One serving aio worker pool's queue depth and stage timings: a view
    whose every number is a ``gae_aio_worker_*`` series labelled ``pool``."""

    def __init__(self, metrics: MetricsRegistry, pool: str) -> None:
        self.pool = pool  # the label: async:<port>

        def bound(kind: str, name: str, help: str, **labels: str) -> Any:
            return getattr(metrics, kind)(f"gae_aio_worker_{name}", help).bind(pool=pool, **labels)

        self._scalars = {key: bound(*series) for key, *series in _POOL_SCALARS}
        self._stages = {  # stage -> (timer, fault counter)
            stage: (bound("histogram", "stage_ms", "stage wall time (ms)", stage=stage),
                    bound("counter", "stage_faults_total", "faulted stage runs", stage=stage))
            for stage in WORKER_STAGES
        }

    def on_submit(self) -> None:
        """A request entered the worker queue (loop side)."""
        self._scalars["submitted"].inc()
        self._scalars["max_queue_depth"].set_max(self._scalars["queue_depth"].inc())

    def on_start(self, queue_wait_s: float) -> None:
        """A worker picked the request up after *queue_wait_s* seconds."""
        self._scalars["queue_depth"].dec()
        self._stages["queue_wait"][0].observe(queue_wait_s * 1000.0)

    def record_stage(self, stage: str, duration_s: float, ok: bool = True) -> None:
        """Time one of ``decode``/``dispatch``/``encode``/``reply_flush``."""
        timer, faults = self._stages[stage]
        timer.observe(duration_s * 1000.0)
        if not ok:
            faults.inc()

    def on_batch(self, size: int) -> None:
        """A worker answered the *size* requests of one queue drain."""
        self._scalars["batches"].inc()
        self._scalars["max_batch"].set_max(size)
        self._scalars["completed"].inc(size)

    def snapshot(self) -> Dict[str, Any]:
        """Wire-safe snapshot merged into ``system.stats``."""
        snap: Dict[str, Any] = {key: int(s.value()) for key, s in self._scalars.items()}
        snap["stages"] = stages = {}
        for stage, (timer, faults) in self._stages.items():
            summary = timer.summary()
            if summary:
                stages[stage] = {"count": int(summary["count"]), "faults": int(faults.value())}
                stages[stage].update(_timing_ms(summary))
        return snap
