"""The Grid Analysis Environment: full wiring of every component.

:func:`build_gae` assembles the complete system of the paper's Figure 1
over a simulated grid:

- one :class:`~repro.events.core.EventCore` over one event journal, the
  write path of every store below, on every build (``GAE.events``),
- the :class:`~repro.gridsim.grid.Grid` substrate (sites, network, replica
  catalog, Sphinx-like scheduler),
- the MonALISA repository with periodic site-load publication,
- the Estimator Service, installed at every site (§6.1) and recording
  at-submission estimates (§6.2),
- the Job Monitoring Service attached to every execution service (§5),
- the Quota & Accounting Service (§4.2.2),
- the Steering Service with its autonomous loop and Backup & Recovery
  (§4), subscribed to the scheduler's concrete job plans, and
- a :class:`~repro.clarens.server.ClarensHost` hosting all of them, with
  the simulator as its clock.

>>> from repro.gridsim import GridBuilder
>>> from repro.gae import build_gae
>>> gae = build_gae(GridBuilder(seed=1).site("a").site("b").build())
>>> sorted(gae.host.registry.names())
['accounting', 'estimator', 'jobmon', 'monalisa', 'steering', 'system']
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.accounting.service import QuotaAccountingService
from repro.clarens.acl import AccessControlList
from repro.clarens.client import ClarensClient
from repro.clarens.readcache import wire_epochs
from repro.clarens.server import ClarensHost
from repro.clarens.transport import LoopbackTransport
from repro.core.estimators.history import HistoryRecorder, HistoryRepository
from repro.core.estimators.service import EstimatorService
from repro.core.monitoring.service import JobMonitoringService
from repro.core.steering.optimizer import SteeringPolicy
from repro.core.steering.service import SteeringService
from repro.gridsim.grid import Grid
from repro.monalisa.publisher import SiteLoadPublisher
from repro.monalisa.repository import MonALISARepository
from repro.monalisa.service import MonALISAQueryService
from repro.events.core import EventCore
from repro.events.journal import EventJournal
from repro.observability.instrument import GAEInstrumentation
from repro.store.base import StateStore
from repro.store.memory import MemoryStore


@dataclass
class GAE:
    """The assembled Grid Analysis Environment."""

    grid: Grid
    host: ClarensHost
    monalisa: MonALISARepository
    history: HistoryRepository
    estimators: EstimatorService
    monitoring: JobMonitoringService
    accounting: QuotaAccountingService
    steering: SteeringService
    load_publisher: SiteLoadPublisher
    #: The write path: the journal, what producers emit into, the consumers.
    events: EventCore
    #: End-to-end tracing/lifecycle events/metrics over ``events.journal``;
    #: None when built with ``observability=False``.
    observability: Optional[GAEInstrumentation] = None
    #: Period (simulated s) for continuous job snapshots; None disables.
    monitor_snapshot_period_s: Optional[float] = None
    #: The unified state store every persistent layer writes through.
    store: Optional[StateStore] = None
    #: The keyword arguments this GAE was built with (minus objects a
    #: checkpoint captures separately), so a restore can rebuild the same
    #: wiring via :func:`build_gae`.
    build_params: Dict[str, object] = field(default_factory=dict)

    @property
    def sim(self):
        """The discrete-event simulator driving everything."""
        return self.grid.sim

    @property
    def scheduler(self):
        """The Sphinx-like scheduler."""
        return self.grid.scheduler

    def client(self, user: str = "", password: str = "") -> ClarensClient:
        """An in-process client; logs in when credentials are given."""
        client = ClarensClient(LoopbackTransport(self.host))
        if user:
            client.login(user, password)
        return client

    def add_user(
        self, name: str, password: str, groups: Tuple[str, ...] = ("gae-users",)
    ) -> None:
        """Create a user allowed to call every GAE service."""
        self.host.users.add_user(name, password, groups=groups)

    def start(self) -> "GAE":
        """Arm the periodic activities (steering loop, B&R sweep, load
        publisher, and continuous job snapshots when configured).  Call
        before running the simulator."""
        self.steering.start()
        self.load_publisher.start()
        if self.observability is not None:
            self.observability.start_telemetry()
        if self.monitor_snapshot_period_s is not None:
            self.monitoring.start_periodic_snapshots(self.monitor_snapshot_period_s)
        return self

    def stop(self) -> None:
        """Cancel every periodic activity so the simulator can drain."""
        self.steering.stop()
        self.load_publisher.stop()
        if self.observability is not None:
            self.observability.stop_telemetry()
        self.monitoring.stop_periodic_snapshots()


def default_acl() -> AccessControlList:
    """The GAE's shipped access policy.

    ``gae-users`` may call every service; ``grid-admins`` inherit the same
    (plus the session manager recognises them as super-steerers).
    """
    acl = AccessControlList(default_allow=False)
    acl.allow("estimator.*", groups=("gae-users", "grid-admins"))
    acl.allow("jobmon.*", groups=("gae-users", "grid-admins"))
    acl.allow("steering.*", groups=("gae-users", "grid-admins"))
    acl.allow("accounting.*", groups=("gae-users", "grid-admins"))
    acl.allow("monalisa.*", groups=("gae-users", "grid-admins"))
    return acl


def build_gae(
    grid: Grid,
    policy: Optional[SteeringPolicy] = None,
    history: Optional[HistoryRepository] = None,
    load_publish_period_s: float = 30.0,
    host_name: str = "jclarens",
    monitor_snapshot_period_s: Optional[float] = None,
    observability: bool = True,
    telemetry_window_s: float = 60.0,
    health_rules=None,
    store: Optional[StateStore] = None,
    read_cache: bool = True,
) -> GAE:
    """Wire the full GAE over an assembled grid.

    Completed tasks always feed the history live, and iperf bandwidth
    probes are memoized for 300 simulated seconds (the network-weather
    period, so cached bandwidths go stale no slower than the links they
    describe).

    Parameters
    ----------
    grid:
        The substrate from :class:`~repro.gridsim.grid.GridBuilder`.
    policy:
        Steering policy (defaults per :class:`SteeringPolicy`).
    history:
        Pre-seeded task history for the runtime estimator (e.g. a Downey
        workload's completed jobs); empty when omitted.
    store:
        The :class:`~repro.store.base.StateStore` threaded through every
        persistent layer (an in-memory store when omitted).  The
        monitoring DB's relational tables live on this store's SQL
        connection, and a :class:`~repro.store.checkpoint.Checkpointer`
        snapshots the whole system through the same namespace registry.
    observability:
        When true (the default) the end-to-end tracing/journal/metrics
        layer is attached: per-job traces through scheduler, pools,
        steering and MonALISA, lifecycle events in the journal, the
        unified metrics registry and the ``system.observability`` Clarens
        method, the streaming telemetry pipeline (every metric and
        journal rate on sim-aligned windows) and the declarative
        health-rule engine evaluated on each closed window
        (``system.health``, ``health-*`` journal events; the window tick
        arms with :meth:`GAE.start`) —
        and the journal retains its rows, which only this layer
        reads back.  Its sim-clock tracer becomes the host's
        (``host.tracer``), so every call's ``rpc:*`` span lands in the
        job-trace ring (8 192 spans, checkpointed; ``system.recent_calls``
        of a restored host lists the calls that ring held) and a steering
        call joins its job's trace.  That tracer mints its ids from
        counters prefixed by the grid seed, so a seed's ids are the same
        every run.  ``False`` means no job tracer (the
        host keeps its own 256-span call ring), no lifecycle events and
        nothing retained; state is written through the journal either way.
    telemetry_window_s:
        Width (simulated s) of one aggregation window.
    health_rules:
        Health rules (:class:`~repro.observability.health.HealthRule`
        instances or their dicts); the shipped defaults when omitted.
    read_cache:
        When true (the default) the host's epoch-keyed read cache is
        enabled and every mutating subsystem is wired to bump its epoch
        (:func:`repro.clarens.readcache.wire_epochs`), so repeat reads
        whose inputs haven't changed are served without re-execution —
        bit-identical by construction.  ``False`` disables caching *and*
        multicall coalescing, restoring the always-execute pipeline (the
        benchmark baseline).
    """
    sim = grid.sim
    store = store if store is not None else MemoryStore()
    # First, the write path every producer below is constructed with;
    # rows are retained only when the instrumentation is there to read them.
    events = EventCore(
        EventJournal(lambda: sim.now, capacity=100_000 if observability else 0)
    )
    monalisa = MonALISARepository(events.emit_metric)
    history = history if history is not None else HistoryRepository()

    estimators = EstimatorService(
        history, events.emit_estimate, probe=grid.probe, catalog=grid.catalog,
        transfer_cache_ttl_s=300.0, clock=lambda: sim.now,
    )
    for name in sorted(grid.execution_services):
        estimators.install_site_estimator(grid.execution_services[name])
    estimators.attach_to_scheduler(grid.scheduler)

    # The scheduler's load queries go through MonALISA (§6.1 step d).
    grid.scheduler.load_oracle = monalisa.load_oracle(default=0.0)

    monitoring = JobMonitoringService(
        sim,
        events.emit_monitoring,
        estimate_lookup=lambda task_id: estimators.estimate_db.lookup(task_id),
        store=store,
    )
    accounting = QuotaAccountingService()
    for name in sorted(grid.sites):
        site = grid.sites[name]
        monitoring.attach(grid.execution_services[name])
        accounting.register_site(site)

    steering = SteeringService(
        sim=sim,
        scheduler=grid.scheduler,
        services=grid.execution_services,
        monitoring=monitoring,
        estimators=estimators,
        accounting=accounting,
        policy=policy,
    )
    for name in sorted(grid.sites):
        steering.attach_site(grid.sites[name])

    recorder = HistoryRecorder(events.emit_history)
    for name in sorted(grid.sites):
        recorder.attach(grid.sites[name])

    load_publisher = SiteLoadPublisher(
        sim, monalisa, [grid.sites[n] for n in sorted(grid.sites)],
        period_s=load_publish_period_s,
    )

    host = ClarensHost(
        name=host_name,
        time_source=lambda: sim.now,
        acl=default_acl(),
        read_cache_enabled=read_cache,
    )
    host.events = events
    if read_cache:
        wire_epochs(
            host.epochs,
            sim=sim,
            scheduler=grid.scheduler,
            pools={name: grid.sites[name].pool for name in grid.sites},
            db_manager=monitoring.db_manager,
            history=history,
            estimate_db=estimators.estimate_db,
            quotas=accounting.quotas,
            monalisa=monalisa,
        )
    host.register("estimator", estimators, description="runtime/queue/transfer estimates (§6)")
    host.register("jobmon", monitoring, description="job monitoring information (§5)")
    host.register("steering", steering, description="job steering and control (§4)")
    host.register("accounting", accounting, description="quota and accounting (§4.2.2)")
    host.register(
        "monalisa", MonALISAQueryService(monalisa),
        description="grid-weather and job-event queries (MonALISA, §5/§6.1)",
    )

    instrumentation: Optional[GAEInstrumentation] = None
    if observability:
        instrumentation = GAEInstrumentation(
            grid,
            events,
            steering=steering,
            monitoring=monitoring,
            accounting=accounting,
            estimators=estimators,
            monalisa=monalisa,
            telemetry_window_s=telemetry_window_s,
            health_rules=health_rules,
        )
        host.observability = instrumentation
        host.tracer = instrumentation.tracer

    # Consumers fold journalled state changes into their stores, each
    # fold anchored at what its store holds now (e.g. an imported task
    # history).
    events.register_stores(
        estimators=(estimators.estimate_db, history),
        db_manager=monitoring.db_manager,
        monalisa=monalisa,
    )

    return GAE(
        grid=grid,
        host=host,
        monalisa=monalisa,
        history=history,
        estimators=estimators,
        monitoring=monitoring,
        accounting=accounting,
        steering=steering,
        load_publisher=load_publisher,
        events=events,
        observability=instrumentation,
        monitor_snapshot_period_s=monitor_snapshot_period_s,
        store=store,
        # Everything a restore must replay through build_gae; the policy
        # and history are checkpointed separately (they evolve at runtime).
        build_params={
            "load_publish_period_s": load_publish_period_s,
            "host_name": host_name,
            "monitor_snapshot_period_s": monitor_snapshot_period_s,
            "observability": observability,
            "telemetry_window_s": telemetry_window_s,
            "read_cache": read_cache,
        },
    )
