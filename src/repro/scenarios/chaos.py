"""Compile a chaos schedule onto a live GAE's simulation clock.

Each :class:`~repro.scenarios.spec.ChaosAction` becomes concrete events:

- ``outage`` / ``flapping`` → windows on one shared
  :class:`~repro.gridsim.faults.OutageScheduler` (merged half-open
  windows, the double-fire-safe boundary semantics pinned there);
- ``degrade`` → raise one link's background utilization for a window,
  restoring whatever value the link had when the window opened (weather
  may have moved it since wiring);
- ``partition`` → every link crossing the declared cut is saturated to
  99 % utilization for the window — traffic still crawls through, so
  transfer-time estimates explode exactly the way steering should react
  to, then the pre-partition utilizations are restored;
- ``weather`` → a :class:`~repro.gridsim.network.NetworkWeather`
  mean-reverting walk over its window, seeded from the scenario seed and
  the action's position (deterministic per scenario).

``wire_chaos`` must run before the simulation starts (it schedules
absolute-time events); the returned :class:`ChaosController` exposes the
fault-event log and the resolved windows for the artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gridsim.faults import FaultEvent, OutageScheduler
from repro.gridsim.network import Network, NetworkWeather
from repro.scenarios.spec import ChaosAction, ScenarioError

__all__ = ["ChaosController", "wire_chaos"]

#: Utilization a partitioned link is pinned at (must stay < 1.0).
PARTITION_UTILIZATION = 0.99


@dataclass
class ChaosController:
    """The live handles behind a wired chaos schedule."""

    outages: Optional[OutageScheduler] = None
    weathers: List[NetworkWeather] = field(default_factory=list)
    resolved: List[Dict[str, object]] = field(default_factory=list)

    @property
    def fault_events(self) -> List[FaultEvent]:
        """Failure/repair events the outage scheduler injected."""
        return list(self.outages.events) if self.outages is not None else []

    def stop(self) -> None:
        """Cancel any still-running weather walks."""
        for weather in self.weathers:
            weather.stop()


def _crossing_links(network: Network, cut: Sequence[str]) -> List[Tuple[str, str]]:
    """Endpoint pairs of every link with exactly one end inside *cut*."""
    inside = set(cut)
    return [
        (link.a, link.b)
        for link in network.links()
        if (link.a in inside) != (link.b in inside)
    ]


def wire_chaos(gae, chaos: Sequence[ChaosAction], horizon_s: float, seed: int) -> ChaosController:
    """Schedule every chaos action; returns the controller for inspection."""
    sim = gae.sim
    network = gae.grid.network
    controller = ChaosController()

    def resolve_end(action: ChaosAction) -> float:
        return action.end_s if action.end_s > 0 else horizon_s

    for index, action in enumerate(chaos):
        if action.kind in ("outage", "flapping"):
            if controller.outages is None:
                controller.outages = OutageScheduler(sim)
            try:
                service = gae.grid.execution_services[action.site]
            except KeyError:
                raise ScenarioError(f"chaos[{index}].site: unknown site {action.site!r}")
            if action.kind == "outage":
                end = action.start_s + action.duration_s
                controller.outages.add_outage(service, action.start_s, action.duration_s)
            else:
                end = resolve_end(action)
                controller.outages.add_flapping(
                    service, action.start_s, end, action.period_s, action.duty
                )
            controller.resolved.append(
                {"kind": action.kind, "site": action.site,
                 "start_s": action.start_s, "end_s": end}
            )
        elif action.kind == "degrade":
            end = resolve_end(action)
            a, b = action.link
            network.link_between(a, b)  # fail at wiring time if absent
            saved: List[float] = []

            def begin(a=a, b=b, u=action.utilization, saved=saved):
                saved.append(network.link_between(a, b).utilization)
                network.set_utilization(a, b, u)

            def finish(a=a, b=b, saved=saved):
                if saved:
                    network.set_utilization(a, b, saved.pop())

            sim.at(action.start_s, begin, label=f"chaos.degrade:{a}-{b}")
            sim.at(end, finish, label=f"chaos.degrade-end:{a}-{b}")
            controller.resolved.append(
                {"kind": "degrade", "link": [a, b],
                 "start_s": action.start_s, "end_s": end,
                 "utilization": action.utilization}
            )
        elif action.kind == "partition":
            end = action.start_s + action.duration_s
            pairs = _crossing_links(network, action.sites)
            if not pairs:
                raise ScenarioError(
                    f"chaos[{index}].sites: partition cuts no links "
                    f"({sorted(action.sites)} vs the grid topology)"
                )
            saved_by_pair: Dict[Tuple[str, str], float] = {}

            def begin_cut(pairs=pairs, saved=saved_by_pair):
                for a, b in pairs:
                    saved[(a, b)] = network.link_between(a, b).utilization
                    network.set_utilization(a, b, PARTITION_UTILIZATION)

            def end_cut(pairs=pairs, saved=saved_by_pair):
                for a, b in pairs:
                    if (a, b) in saved:
                        network.set_utilization(a, b, saved.pop((a, b)))

            sim.at(action.start_s, begin_cut, label="chaos.partition")
            sim.at(end, end_cut, label="chaos.partition-end")
            controller.resolved.append(
                {"kind": "partition", "sites": sorted(action.sites),
                 "links_cut": [list(p) for p in pairs],
                 "start_s": action.start_s, "end_s": end}
            )
        elif action.kind == "weather":
            end = resolve_end(action)
            weather = NetworkWeather(
                sim,
                network,
                rng=np.random.default_rng((seed, 101, index)),
                period_s=action.period_s,
                mean_utilization=action.mean_utilization,
                volatility=action.volatility,
            )
            controller.weathers.append(weather)
            if action.start_s > 0:
                sim.at(action.start_s, weather.start, label="chaos.weather")
            else:
                weather.start()
            if end < horizon_s:
                sim.at(end, weather.stop, label="chaos.weather-end")
            controller.resolved.append(
                {"kind": "weather", "start_s": action.start_s, "end_s": end,
                 "period_s": action.period_s,
                 "mean_utilization": action.mean_utilization,
                 "volatility": action.volatility}
            )
        else:  # pragma: no cover - ChaosAction.from_dict rejects unknown kinds
            raise ScenarioError(f"unknown chaos kind {action.kind!r}")

    if controller.outages is not None:
        controller.outages.start()
    return controller
