"""Periodic publishers feeding the monitoring repository.

:class:`SiteLoadPublisher` samples every site's pool load on a fixed period
under the simulator clock — the stand-in for MonALISA's farm agents.
:class:`JobStatePublisher` adapts Condor pool state-change callbacks into
repository job-state events (used directly in tests; in the full GAE wiring
the Job Monitoring Service's DBManager plays this role, as in the paper).
:class:`ServiceMetricsPublisher` samples a Clarens host's call statistics
(``host.stats``) and publishes per-method latency series, so the
monitoring repository — and therefore ``monalisa.service_health`` — can
report the health of the GAE services themselves, not just the sites.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.gridsim.clock import PeriodicHandle, Simulator
from repro.gridsim.condor import CondorJobAd
from repro.gridsim.site import Site
from repro.monalisa.repository import JobStateEvent, MonALISARepository


class SiteLoadPublisher:
    """Publishes each site's load metric every *period_s* seconds."""

    def __init__(
        self,
        sim: Simulator,
        repository: MonALISARepository,
        sites: Iterable[Site],
        period_s: float = 30.0,
    ) -> None:
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.sim = sim
        self.repository = repository
        self.sites = list(sites)
        self.period_s = period_s
        self._handle: Optional[PeriodicHandle] = None
        self._stopped = False
        #: When set, the next :meth:`start` resumes the original cadence:
        #: no immediate sample, first firing at this absolute sim time.
        #: Checkpoint restore uses this so a resumed run publishes on the
        #: same schedule (and the event journal folds identically).
        self.resume_at: Optional[float] = None

    def publish_now(self) -> None:
        """Take one sample of every site immediately.

        A no-op after :meth:`stop`, so a straggling caller cannot smear
        stale samples into the repository.
        """
        if self._stopped:
            return
        for site in self.sites:
            self.repository.publish(site.name, "load", self.sim.now, site.current_load())

    def start(self) -> "SiteLoadPublisher":
        """Begin periodic publication (first sample at t=now).

        Idempotent: calling again while running is a no-op, matching the
        client/transport lifecycle convention.  After :meth:`stop` a new
        ``start`` re-arms the publisher.
        """
        if self._handle is not None:
            return self
        self._stopped = False
        if self.resume_at is None:
            self.publish_now()
        self._handle = self.sim.every(
            self.period_s,
            self.publish_now,
            label="monalisa.site_load",
            first_at=self.resume_at,
        )
        self.resume_at = None
        return self

    @property
    def next_fire_time(self) -> Optional[float]:
        """Absolute sim time of the next periodic sample (``None`` if idle)."""
        return self._handle.next_time if self._handle is not None else None

    def stop(self) -> None:
        """Cancel the periodic publication (idempotent)."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def __enter__(self) -> "SiteLoadPublisher":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


#: Latency-summary keys republished as metrics per method.
_LATENCY_KEYS = ("mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms")


class ServiceMetricsPublisher:
    """Publishes a Clarens host's per-method RPC latency every period.

    Metrics land under ``farm = host.name``:

    - ``rpc.calls`` / ``rpc.faults`` — host-wide totals;
    - ``rpc.<service.method>.calls`` — per-method call count;
    - ``rpc.<service.method>.{mean,p50,p95,p99,max}_ms`` — latency summary
      of the executed calls.

    *host* is duck-typed: anything with ``name`` and a ``stats.snapshot()``
    returning the ``system.stats`` shape works.
    """

    def __init__(
        self,
        sim: Simulator,
        repository: MonALISARepository,
        host: Any,
        period_s: float = 60.0,
    ) -> None:
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.sim = sim
        self.repository = repository
        self.host = host
        self.period_s = period_s
        self._handle: Optional[PeriodicHandle] = None
        self._stopped = False
        #: See :attr:`SiteLoadPublisher.resume_at` — phase-faithful restart.
        self.resume_at: Optional[float] = None

    def publish_now(self) -> None:
        """Take one sample of the host's call statistics immediately.

        A no-op after :meth:`stop` (publish-after-stop guard).
        """
        if self._stopped:
            return
        snapshot = self.host.stats.snapshot()
        farm, now = self.host.name, self.sim.now
        self.repository.publish(farm, "rpc.calls", now, float(snapshot["calls"]))
        self.repository.publish(farm, "rpc.faults", now, float(snapshot["faults"]))
        for method, summary in snapshot["latency_ms"].items():
            self.repository.publish(
                farm, f"rpc.{method}.calls", now, float(summary["count"])
            )
            for key in _LATENCY_KEYS:
                if key in summary:
                    self.repository.publish(
                        farm, f"rpc.{method}.{key}", now, float(summary[key])
                    )

    def start(self) -> "ServiceMetricsPublisher":
        """Begin periodic publication (first sample at t=now).

        Idempotent: calling again while running is a no-op.  After
        :meth:`stop` a new ``start`` re-arms the publisher.
        """
        if self._handle is not None:
            return self
        self._stopped = False
        if self.resume_at is None:
            self.publish_now()
        self._handle = self.sim.every(
            self.period_s,
            self.publish_now,
            label="monalisa.service_metrics",
            first_at=self.resume_at,
        )
        self.resume_at = None
        return self

    @property
    def next_fire_time(self) -> Optional[float]:
        """Absolute sim time of the next periodic sample (``None`` if idle)."""
        return self._handle.next_time if self._handle is not None else None

    def stop(self) -> None:
        """Cancel the periodic publication (idempotent)."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def __enter__(self) -> "ServiceMetricsPublisher":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


class JobStatePublisher:
    """Bridges Condor pool state changes into repository job events."""

    def __init__(self, sim: Simulator, repository: MonALISARepository) -> None:
        self.sim = sim
        self.repository = repository

    def attach(self, site: Site) -> None:
        """Subscribe to a site pool's state-change callbacks."""

        def on_change(ad: CondorJobAd) -> None:
            self.repository.publish_job_state(
                JobStateEvent(
                    time=self.sim.now,
                    task_id=ad.task_id,
                    job_id=ad.task.job_id or "",
                    site=site.name,
                    state=ad.state.value,
                    progress=ad.progress,
                )
            )

        site.pool.on_state_change.append(on_change)
