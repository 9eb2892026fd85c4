"""A facade wiring a whole simulated grid testbed together.

A testbed is declared once, as a :class:`repro.config.GridConfig` —
sites, nodes, links, replicas, flocking.  :func:`build_grid` assembles a
declaration into a :class:`Grid`, and :class:`GridBuilder` gives examples
and tests a concise way to write one:

>>> from repro.gridsim import GridBuilder
>>> grid = (
...     GridBuilder(seed=7)
...     .site("caltech", nodes=4, background_load=0.2)
...     .site("cern", nodes=8, background_load=1.5)
...     .link("caltech", "cern", capacity_mbps=622.0, latency_s=0.08)
...     .file("hits.db", size_mb=500.0, at="cern")
...     .build()
... )
>>> sorted(grid.sites)
['caltech', 'cern']

The higher-level GAE wiring (Clarens host + the three paper services) lives
in :mod:`repro.gae`; this module is pure substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.config import FileConfig, GridConfig, LinkConfig, SiteConfig
from repro.gridsim.clock import Simulator
from repro.gridsim.execution import ExecutionService
from repro.gridsim.network import IperfProbe, Link, Network
from repro.gridsim.rng import RngStreams
from repro.gridsim.scheduler import SphinxScheduler
from repro.gridsim.site import ChargeRates, Site
from repro.gridsim.storage import GridFile, ReplicaCatalog

#: Size of the replica each declared output file of a completed task becomes.
OUTPUT_FILE_SIZE_MB = 1.0


@dataclass
class Grid:
    """An assembled simulated grid."""

    sim: Simulator
    rngs: RngStreams
    network: Network
    catalog: ReplicaCatalog
    sites: Dict[str, Site]
    execution_services: Dict[str, ExecutionService]
    scheduler: SphinxScheduler
    probe: IperfProbe
    #: The declaration this grid was built from.  A checkpoint records it
    #: with the seed, so a restore rebuilds an identical testbed before
    #: state is rehydrated into it.
    config: GridConfig

    def site(self, name: str) -> Site:
        """Look up a site by name."""
        return self.sites[name]

    def execution_service(self, site_name: str) -> ExecutionService:
        """Look up a site's execution service."""
        return self.execution_services[site_name]

    def run_until(self, t: float) -> int:
        """Advance the simulation to time *t* (delegates to the simulator)."""
        return self.sim.run_until(t)

    def run(self) -> int:
        """Run the simulation until the event queue drains."""
        return self.sim.run()


class GridBuilder:
    """Fluent writer of a :class:`~repro.config.GridConfig`; :meth:`build`
    assembles it.  Each method appends one record, and a refused value
    is the record's own :class:`~repro.config.ConfigError`."""

    def __init__(self, seed: int = 2005) -> None:
        self._seed = seed
        self._sites: List[SiteConfig] = []
        self._links: List[LinkConfig] = []
        self._files: List[FileConfig] = []
        self._flocking: List[List[str]] = []
        # Not GridConfig's 0.0: every seeded output depends on each default.
        self._probe_noise = 0.05

    def site(self, name: str, **fields: Any) -> "GridBuilder":
        """Declare a site; *fields* are :class:`~repro.config.SiteConfig`'s."""
        self._sites.append(SiteConfig(name, **fields))
        return self

    def link(self, a: str, b: str, **fields: Any) -> "GridBuilder":
        """Declare a network link between two sites; *fields* are
        :class:`~repro.config.LinkConfig`'s (``capacity_mbps`` is required)."""
        self._links.append(LinkConfig(a, b, **fields))
        return self

    def file(self, name: str, size_mb: float, at: str) -> "GridBuilder":
        """Publish a replica of a logical file at a site."""
        self._files.append(FileConfig(name, size_mb, at))
        return self

    def flock(self, src: str, dst: str) -> "GridBuilder":
        """Allow idle jobs at *src* to flock to *dst*."""
        self._flocking.append([src, dst])
        return self

    def probe_noise(self, sigma: float) -> "GridBuilder":
        """Set the iperf probe's lognormal noise sigma (0 = perfect probe)."""
        self._probe_noise = sigma
        return self

    def build(self) -> Grid:
        """Assemble the grid (a :class:`~repro.config.ConfigError` for a
        declaration the grid's rules refuse)."""
        config = GridConfig(
            sites=list(self._sites),
            links=list(self._links),
            files=list(self._files),
            flocking=list(self._flocking),
            probe_noise=self._probe_noise,
        )
        return build_grid(config, seed=self._seed)


def build_grid(config: GridConfig, seed: int = 2005, start_time: float = 0.0) -> Grid:
    """Assemble the grid *config* declares, its clock starting at *start_time*."""
    sim = Simulator(start=start_time)
    rngs = RngStreams(seed=seed)
    network = Network()
    for decl in config.sites:
        network.add_site(decl.name)
    for link in config.links:
        network.add_link(
            Link(link.a, link.b, link.capacity_mbps, link.latency_s, link.utilization)
        )
    catalog = ReplicaCatalog(network=network)

    sites: Dict[str, Site] = {}
    services: Dict[str, ExecutionService] = {}
    for decl in config.sites:
        charge_rates = ChargeRates(cpu_hour=decl.cpu_hour_rate, idle_hour=decl.idle_hour_rate)
        site = sites[decl.name] = Site.simple(
            sim, decl.name, decl.nodes, decl.cpus_per_node, decl.background_load, charge_rates
        )
        services[decl.name] = ExecutionService(site)
        catalog.register(site.storage)

    for file in config.files:
        catalog.publish(file.at, GridFile(name=file.name, size_mb=file.size_mb))
    for src, dst in config.flocking:
        sites[src].pool.enable_flocking(sites[dst].pool)

    # A completed task's declared output files become replicas at the
    # site that ran it, so downstream DAG tasks can be ranked (and
    # charged) for staging them in.
    def publish_outputs(site_name: str):
        def on_complete(ad) -> None:
            for name in ad.task.spec.output_files:
                try:
                    catalog.publish(site_name, GridFile(name=name, size_mb=OUTPUT_FILE_SIZE_MB))
                except Exception:
                    pass  # storage full: outputs simply aren't replicated

        return on_complete

    for name, site in sites.items():
        site.pool.on_complete.append(publish_outputs(name))

    probe = IperfProbe(network, rng=rngs.stream("iperf"), noise_sigma=config.probe_noise)
    scheduler = SphinxScheduler(sim, replica_catalog=catalog)
    for name in sorted(services):
        scheduler.register_site(services[name])

    return Grid(
        sim=sim,
        rngs=rngs,
        network=network,
        catalog=catalog,
        sites=sites,
        execution_services=services,
        scheduler=scheduler,
        probe=probe,
        config=config,
    )
