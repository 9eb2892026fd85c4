"""Declarative grid configuration.

Plain-dataclass declarations of a grid — sites, links, pre-placed files,
flocking — with strict dict parsing (unknown keys are rejected) and
:func:`grid_from_config`, which turns a declaration into a live
:class:`~repro.gridsim.grid.Grid`.  This is the ``grid`` section of a
scenario file; the rest of the scenario dialect (workload shapes, chaos,
SLOs) lives in :mod:`repro.scenarios.spec`.

Example (JSON)::

    {
      "sites": [
        {"name": "siteA", "nodes": 1, "background_load": 1.5},
        {"name": "siteB", "nodes": 1}
      ],
      "links": [{"a": "siteA", "b": "siteB", "capacity_mbps": 100.0}]
    }
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List

from repro.gridsim.grid import Grid, GridBuilder


class ConfigError(ValueError):
    """Raised for malformed grid configurations."""


def _build(cls, data: Dict, context: str):
    """Construct a config dataclass from a dict, rejecting unknown keys."""
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    return cls(**data)


@dataclass(frozen=True)
class SiteConfig:
    """One site declaration."""

    name: str
    nodes: int = 1
    cpus_per_node: int = 1
    background_load: float = 0.0
    cpu_hour_rate: float = 1.0
    idle_hour_rate: float = 0.1


@dataclass(frozen=True)
class LinkConfig:
    """One network link declaration."""

    a: str
    b: str
    capacity_mbps: float
    latency_s: float = 0.01
    utilization: float = 0.0


@dataclass(frozen=True)
class FileConfig:
    """One pre-placed replica declaration."""

    name: str
    size_mb: float
    at: str


@dataclass(frozen=True)
class GridConfig:
    """A whole grid declaration."""

    sites: List[SiteConfig] = field(default_factory=list)
    links: List[LinkConfig] = field(default_factory=list)
    files: List[FileConfig] = field(default_factory=list)
    flocking: List[List[str]] = field(default_factory=list)  # [src, dst] pairs
    probe_noise: float = 0.0

    @classmethod
    def from_dict(cls, data: Dict) -> "GridConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"grid: unknown keys {sorted(unknown)}")
        return cls(
            sites=[_build(SiteConfig, s, "site") for s in data.get("sites", [])],
            links=[_build(LinkConfig, l, "link") for l in data.get("links", [])],
            files=[_build(FileConfig, f, "file") for f in data.get("files", [])],
            flocking=[list(pair) for pair in data.get("flocking", [])],
            probe_noise=float(data.get("probe_noise", 0.0)),
        )


def grid_from_config(config: GridConfig, seed: int = 2005) -> Grid:
    """Build a live grid from its declaration."""
    if not config.sites:
        raise ConfigError("grid has no sites")
    builder = GridBuilder(seed=seed).probe_noise(config.probe_noise)
    for site in config.sites:
        builder.site(
            site.name,
            nodes=site.nodes,
            cpus_per_node=site.cpus_per_node,
            background_load=site.background_load,
            cpu_hour_rate=site.cpu_hour_rate,
            idle_hour_rate=site.idle_hour_rate,
        )
    for link in config.links:
        builder.link(
            link.a, link.b,
            capacity_mbps=link.capacity_mbps,
            latency_s=link.latency_s,
            utilization=link.utilization,
        )
    for file in config.files:
        builder.file(file.name, size_mb=file.size_mb, at=file.at)
    for pair in config.flocking:
        if len(pair) != 2:
            raise ConfigError(f"flocking entries are [src, dst] pairs, got {pair!r}")
        builder.flock(pair[0], pair[1])
    return builder.build()
