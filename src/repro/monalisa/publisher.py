"""Periodic publishers feeding the monitoring repository.

:class:`SiteLoadPublisher` samples every site's pool load on a fixed period
under the simulator clock — the stand-in for MonALISA's farm agents.
:class:`JobStatePublisher` adapts Condor pool state-change callbacks into
repository job-state events (used directly in tests; in the full GAE wiring
the Job Monitoring Service's DBManager plays this role, as in the paper).
Both publish the grid's state; nothing here publishes the service host's
own call statistics, whose one home is ``system.stats`` / ``host.metrics``.
"""

from __future__ import annotations

from typing import Iterable, Optional

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
