"""Declarative grid configuration: the grid's one declaration.

Plain frozen dataclasses declare a grid — sites, links, pre-placed files,
flocking, the probe's noise.  :func:`repro.declare.decode` reads them
from a dict (unknown keys and mistyped values are refused,
path-qualified, as :class:`ConfigError`) and each class's
``__post_init__`` states its rules once, so a declaration that exists is
a grid that builds: counts of at least one, no negative load, rate, size
or noise, a positive link capacity, one declaration per site name and
one link per site pair, no site flocking to itself, and link ends, file
``at`` and flocking pairs naming declared sites.  Everything else reads
one of these: :class:`~repro.gridsim.grid.GridBuilder` appends records
to one, :func:`~repro.gridsim.grid.build_grid` turns one into a live
grid, a checkpoint records one, and it is the ``grid`` section of a
scenario file (the rest of that dialect — workload shapes, chaos, SLOs —
lives in :mod:`repro.scenarios.spec`).

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

from dataclasses import dataclass, field
from typing import Dict, List

from repro.declare import decode


class ConfigError(ValueError):
    """Raised for malformed grid configurations (path-qualified message)."""


def _at_least(root: str, obj: object, names: str, low: float, strict: bool = False) -> None:
    """Refuse a field of *names* below *low* (at or below, if *strict*)."""
    for name in names.split():
        value = getattr(obj, name)
        if value < low or (strict and value == low):
            bound = "positive" if strict else ">= 1" if low == 1 else "non-negative"
            raise ConfigError(f"{root}.{name}: must be {bound}, got {value!r}")


@dataclass(frozen=True)
class SiteConfig:
    """One site declaration."""

    name: str
    nodes: int = 1
    cpus_per_node: int = 1
    background_load: float = 0.0
    cpu_hour_rate: float = 1.0
    idle_hour_rate: float = 0.1

    def __post_init__(self) -> None:
        _at_least("site", self, "nodes cpus_per_node", 1)
        _at_least("site", self, "background_load cpu_hour_rate idle_hour_rate", 0)


@dataclass(frozen=True)
class LinkConfig:
    """One network link declaration."""

    a: str
    b: str
    capacity_mbps: float
    latency_s: float = 0.01
    utilization: float = 0.0

    def __post_init__(self) -> None:
        _at_least("link", self, "capacity_mbps", 0, strict=True)
        _at_least("link", self, "latency_s", 0)
        if not 0.0 <= self.utilization < 1.0:
            raise ConfigError(f"link.utilization: must be in [0, 1), got {self.utilization!r}")


@dataclass(frozen=True)
class FileConfig:
    """One pre-placed replica declaration."""

    name: str
    size_mb: float
    at: str

    def __post_init__(self) -> None:
        _at_least("file", self, "size_mb", 0)


@dataclass(frozen=True)
class GridConfig:
    """A whole grid declaration."""

    sites: List[SiteConfig]
    links: List[LinkConfig] = field(default_factory=list)
    files: List[FileConfig] = field(default_factory=list)
    flocking: List[List[str]] = field(default_factory=list)  # [src, dst] pairs
    probe_noise: float = 0.0

    def __post_init__(self) -> None:
        if not self.sites:
            raise ConfigError("grid.sites: a grid needs at least one site")
        known = set()
        for i, site in enumerate(self.sites):
            if site.name in known:
                raise ConfigError(f"grid.sites[{i}].name: site {site.name!r} declared twice")
            known.add(site.name)
        refs = [
            (f"links[{i}].{end}", getattr(link, end))
            for i, link in enumerate(self.links) for end in ("a", "b")
        ]
        refs += [(f"files[{i}].at", file.at) for i, file in enumerate(self.files)]
        for i, pair in enumerate(self.flocking):
            if len(pair) != 2:
                raise ConfigError(f"grid.flocking[{i}]: expected a [src, dst] pair, got {pair!r}")
            refs += [(f"flocking[{i}][{j}]", site) for j, site in enumerate(pair)]
        for where, site in refs:
            if site not in known:
                raise ConfigError(f"grid.{where}: unknown site {site!r}")
        for i, (src, dst) in enumerate(self.flocking):
            if src == dst:
                raise ConfigError(f"grid.flocking[{i}]: site {src!r} cannot flock to itself")
        pairs = set()
        for i, link in enumerate(self.links):
            pair = frozenset((link.a, link.b))
            if pair in pairs:
                raise ConfigError(
                    f"grid.links[{i}]: a second link between {link.a!r} and {link.b!r}"
                )
            pairs.add(pair)
        _at_least("grid", self, "probe_noise", 0)

    @classmethod
    def from_dict(cls, data: Dict) -> "GridConfig":
        return decode(cls, data, "grid", ConfigError)
