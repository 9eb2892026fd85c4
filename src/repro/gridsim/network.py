"""Wide-area network model and an iperf-like bandwidth probe.

The File Transfer Time Estimator (§6.3) works exactly the way the paper
describes: "we first determine the bandwidth between the client and the
Clarens server using iperf, and then using this bandwidth and the file size,
we calculate the transfer time."  Because we have no physical network, this
module substitutes a link-graph model:

- sites are vertices; :class:`Link` edges carry capacity (Mbit/s), latency
  (s) and a background-utilisation fraction;
- routing is shortest-path by latency over the link graph (Dijkstra);
- an :class:`IperfProbe` measures the bottleneck link's *available*
  bandwidth along the route, with multiplicative measurement noise, exactly
  the quantity a real iperf run would report;
- :meth:`Network.transfer_time` computes ground-truth transfer durations the
  simulator uses, so the estimator's probe-based prediction can be compared
  against an honest actual.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np


class NetworkError(RuntimeError):
    """Raised for unknown endpoints or unreachable routes."""


@dataclass
class Link:
    """A bidirectional network link between two sites.

    Attributes
    ----------
    capacity_mbps:
        Raw capacity in megabits per second.
    latency_s:
        One-way propagation delay in seconds.
    utilization:
        Fraction of capacity consumed by background traffic, in [0, 1).
    """

    a: str
    b: str
    capacity_mbps: float
    latency_s: float = 0.01
    utilization: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_mbps <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity_mbps}")
        if self.latency_s < 0:
            raise ValueError(f"latency must be non-negative, got {self.latency_s}")
        if not 0.0 <= self.utilization < 1.0:
            raise ValueError(f"utilization must be in [0, 1), got {self.utilization}")

    @property
    def available_mbps(self) -> float:
        """Capacity left over after background traffic."""
        return self.capacity_mbps * (1.0 - self.utilization)


class Network:
    """A graph of sites connected by :class:`Link` objects."""

    def __init__(self) -> None:
        #: site -> {neighbour -> link}.  Both dict levels keep registration
        #: order, which is what makes routing ties and :meth:`links`
        #: deterministic.
        self._adjacent: Dict[str, Dict[str, Link]] = {}

    def add_site(self, name: str) -> None:
        """Register a site vertex (idempotent)."""
        self._adjacent.setdefault(name, {})

    def add_link(self, link: Link) -> None:
        """Attach a link; endpoints are added implicitly."""
        self.add_site(link.a)
        self.add_site(link.b)
        self._adjacent[link.a][link.b] = link
        self._adjacent[link.b][link.a] = link

    def sites(self) -> List[str]:
        """All registered site names."""
        return sorted(self._adjacent)

    def links(self) -> List[Link]:
        """Every link once, sorted by endpoint pair.

        A pair names the earlier-registered site first.  The order is
        load-bearing: :class:`NetworkWeather` draws one random sample per
        link in this order, so it defines every seeded weather trace.
        """
        by_pair: Dict[Tuple[str, str], Link] = {}
        for site, neighbours in self._adjacent.items():
            for neighbour, link in neighbours.items():
                if (neighbour, site) not in by_pair:
                    by_pair[(site, neighbour)] = link
        return [by_pair[pair] for pair in sorted(by_pair)]

    def link_between(self, a: str, b: str) -> Link:
        """The direct link between *a* and *b* (NetworkError if absent)."""
        try:
            return self._adjacent[a][b]
        except KeyError:
            raise NetworkError(f"no direct link between {a!r} and {b!r}") from None

    def route(self, src: str, dst: str) -> List[Link]:
        """Lowest-latency route between two sites as a list of links."""
        if src == dst:
            return []
        for endpoint in (src, dst):
            if endpoint not in self._adjacent:
                raise NetworkError(f"unknown site {endpoint!r}")
        # Dijkstra by latency.  The push counter breaks equal-latency ties
        # in favour of the route discovered first, never by comparing names.
        best = {src: 0.0}
        via: Dict[str, Tuple[str, Link]] = {}
        frontier = [(0.0, 0, src)]
        pushes = 1
        while frontier:
            latency, _, site = heapq.heappop(frontier)
            if site == dst:
                break
            if latency > best[site]:
                continue  # a shorter way to this site was pushed later
            for neighbour, link in self._adjacent[site].items():
                candidate = latency + link.latency_s
                if candidate < best.get(neighbour, float("inf")):
                    best[neighbour] = candidate
                    via[neighbour] = (site, link)
                    heapq.heappush(frontier, (candidate, pushes, neighbour))
                    pushes += 1
        if dst not in via:
            raise NetworkError(f"no route between {src!r} and {dst!r}")
        route: List[Link] = []
        site = dst
        while site != src:
            site, link = via[site]
            route.append(link)
        route.reverse()
        return route

    # ------------------------------------------------------------------
    # ground truth used by the simulator
    # ------------------------------------------------------------------
    def path_bandwidth_mbps(self, src: str, dst: str) -> float:
        """Available end-to-end bandwidth = bottleneck link's available rate."""
        route = self.route(src, dst)
        if not route:
            return float("inf")
        return min(link.available_mbps for link in route)

    def path_latency_s(self, src: str, dst: str) -> float:
        """End-to-end one-way latency along the route."""
        return sum(link.latency_s for link in self.route(src, dst))

    def transfer_time(self, src: str, dst: str, size_mb: float) -> float:
        """Ground-truth seconds to move *size_mb* megabytes from src to dst.

        Local transfers are free.  The formula is the classic
        ``latency + size / bandwidth`` with megabytes converted to megabits.
        """
        if size_mb < 0:
            raise ValueError(f"size must be non-negative, got {size_mb}")
        if src == dst or size_mb == 0:
            return 0.0
        bw = self.path_bandwidth_mbps(src, dst)
        return self.path_latency_s(src, dst) + (size_mb * 8.0) / bw

    def set_utilization(self, a: str, b: str, utilization: float) -> None:
        """Change background traffic on the direct link a—b."""
        link = self.link_between(a, b)
        if not 0.0 <= utilization < 1.0:
            raise ValueError(f"utilization must be in [0, 1), got {utilization}")
        link.utilization = utilization


@dataclass
class ProbeResult:
    """One iperf-style measurement."""

    src: str
    dst: str
    measured_mbps: float
    true_mbps: float
    duration_s: float


class IperfProbe:
    """An iperf-like active bandwidth measurement over the simulated network.

    Real iperf measurements fluctuate with cross traffic; we model that with
    multiplicative lognormal noise around the true available path bandwidth.
    ``noise_sigma=0`` yields a perfect probe (useful in unit tests).
    """

    def __init__(
        self,
        network: Network,
        rng: Optional[np.random.Generator] = None,
        noise_sigma: float = 0.05,
        probe_duration_s: float = 10.0,
    ) -> None:
        if noise_sigma < 0:
            raise ValueError(f"noise_sigma must be non-negative, got {noise_sigma}")
        self.network = network
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.noise_sigma = noise_sigma
        self.probe_duration_s = probe_duration_s
        self.history: List[ProbeResult] = []

    def measure(self, src: str, dst: str) -> ProbeResult:
        """Measure available bandwidth between two sites.

        Returns a :class:`ProbeResult`; the measurement is also appended to
        :attr:`history` so estimators can smooth over repeated probes.
        """
        true_bw = self.network.path_bandwidth_mbps(src, dst)
        if true_bw == float("inf"):
            measured = float("inf")
        elif self.noise_sigma == 0.0:
            measured = true_bw
        else:
            measured = float(true_bw * self.rng.lognormal(0.0, self.noise_sigma))
        result = ProbeResult(
            src=src,
            dst=dst,
            measured_mbps=measured,
            true_mbps=true_bw,
            duration_s=self.probe_duration_s,
        )
        self.history.append(result)
        return result

    def smoothed_mbps(self, src: str, dst: str, window: int = 3) -> float:
        """Mean of the last *window* measurements for the pair (probing as
        needed to fill the window)."""
        relevant = [r for r in self.history if r.src == src and r.dst == dst]
        while len(relevant) < window:
            relevant.append(self.measure(src, dst))
        recent = relevant[-window:]
        return float(np.mean([r.measured_mbps for r in recent]))


class NetworkWeather:
    """Time-varying background traffic on every link ("network weather").

    §1 motivates the GAE with the "volatile nature of a Grid environment";
    this drives the network side of that volatility: each link's
    utilization follows a seeded mean-reverting random walk, stepped every
    *period_s* of simulated time.  Transfer-time estimates made from old
    probes go stale, exactly as they did on the 2005 WAN.
    """

    def __init__(
        self,
        sim,
        network: Network,
        rng: Optional[np.random.Generator] = None,
        period_s: float = 300.0,
        mean_utilization: float = 0.3,
        volatility: float = 0.1,
        max_utilization: float = 0.95,
    ) -> None:
        if period_s <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= mean_utilization < 1.0:
            raise ValueError("mean_utilization must be in [0, 1)")
        self.sim = sim
        self.network = network
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.period_s = period_s
        self.mean_utilization = mean_utilization
        self.volatility = volatility
        self.max_utilization = max_utilization
        self._handle = None

    def step(self) -> None:
        """Advance every link's utilization one random-walk step."""
        for link in self.network.links():
            drift = 0.3 * (self.mean_utilization - link.utilization)
            noise = float(self.rng.normal(0.0, self.volatility))
            link.utilization = float(
                min(self.max_utilization, max(0.0, link.utilization + drift + noise))
            )

    def start(self) -> "NetworkWeather":
        """Begin stepping under the simulation clock."""
        if self._handle is not None:
            raise RuntimeError("network weather already started")
        self._handle = self.sim.every(self.period_s, self.step, label="network.weather")
        return self

    def stop(self) -> None:
        """Cancel the periodic stepping."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
