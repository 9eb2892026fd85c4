"""Execution sites.

A :class:`Site` bundles the per-location resources the paper assumes at each
grid endpoint: worker nodes organised in a Condor-like pool, a storage
element, and the accounting charge rates that appear in the Paragon trace
("the rate of charge for CPU hours and idle hours").  The per-site
:class:`~repro.gridsim.execution.ExecutionService` is layered on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.gridsim.clock import Simulator
from repro.gridsim.condor import CondorPool
from repro.gridsim.node import LoadProfile, Node
from repro.gridsim.storage import StorageElement


@dataclass(frozen=True)
class ChargeRates:
    """Money charged per CPU-hour consumed and per idle-hour reserved."""

    cpu_hour: float = 1.0
    idle_hour: float = 0.1

    def __post_init__(self) -> None:
        if self.cpu_hour < 0 or self.idle_hour < 0:
            raise ValueError("charge rates must be non-negative")


class Site:
    """One grid site: a named pool of nodes plus storage and charge rates."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        nodes: List[Node],
        charge_rates: Optional[ChargeRates] = None,
        storage_capacity_mb: float = float("inf"),
    ) -> None:
        self.sim = sim
        self.name = name
        self.pool = CondorPool(sim, name, nodes)
        self.storage = StorageElement(name, capacity_mb=storage_capacity_mb)
        self.charge_rates = charge_rates if charge_rates is not None else ChargeRates()

    @classmethod
    def simple(
        cls,
        sim: Simulator,
        name: str,
        n_nodes: int = 1,
        cpus_per_node: int = 1,
        background_load: float = 0.0,
        charge_rates: Optional[ChargeRates] = None,
    ) -> "Site":
        """A site of *n_nodes* identical nodes sharing one constant
        background load: how :func:`~repro.gridsim.grid.build_grid`
        builds each declared site."""
        profile = LoadProfile.constant(background_load)
        nodes = [
            Node(name=f"{name}-node{i:02d}", cpu_count=cpus_per_node, load_profile=profile)
            for i in range(n_nodes)
        ]
        return cls(sim, name, nodes, charge_rates=charge_rates)

    @property
    def nodes(self) -> List[Node]:
        """The site's worker nodes."""
        return self.pool.nodes

    def current_load(self) -> float:
        """Pool load indicator (see :meth:`CondorPool.current_load`)."""
        return self.pool.current_load()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Site({self.name}, nodes={len(self.nodes)}, slots={self.pool.total_slots})"
