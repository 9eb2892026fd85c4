"""Property-based tests: network model invariants."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.gridsim.network import Link, Network, NetworkError

capacities = st.floats(min_value=1.0, max_value=10_000.0, allow_nan=False)
latencies = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
sizes = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)


def _linked(net, a, b):
    try:
        net.link_between(a, b)
    except NetworkError:
        return False
    return True


@st.composite
def random_networks(draw):
    """A connected random network over 2..6 sites (spanning chain + extras)."""
    n = draw(st.integers(min_value=2, max_value=6))
    names = [f"s{i}" for i in range(n)]
    net = Network()
    # Chain guarantees connectivity.
    for a, b in zip(names, names[1:]):
        net.add_link(Link(a, b, capacity_mbps=draw(capacities), latency_s=draw(latencies)))
    # A few random extra links.
    extras = draw(st.integers(min_value=0, max_value=4))
    for _ in range(extras):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        if i != j and not _linked(net, names[i], names[j]):
            net.add_link(
                Link(names[i], names[j], capacity_mbps=draw(capacities),
                     latency_s=draw(latencies))
            )
    return net, names


class TestNetworkProperties:
    @given(random_networks())
    def test_routes_exist_between_all_pairs(self, net_names):
        net, names = net_names
        for a in names:
            for b in names:
                route = net.route(a, b)
                if a == b:
                    assert route == []
                else:
                    assert route  # connected by construction

    @given(random_networks())
    def test_path_bandwidth_is_bottleneck(self, net_names):
        net, names = net_names
        a, b = names[0], names[-1]
        route = net.route(a, b)
        bw = net.path_bandwidth_mbps(a, b)
        assert bw == min(link.available_mbps for link in route)
        assert all(bw <= link.available_mbps for link in route)

    @given(random_networks())
    def test_route_latency_is_symmetric(self, net_names):
        """Lowest latency is direction-independent.  (Bandwidth need not
        be: equal-latency ties may resolve to different paths per
        direction, as in real routing.)"""
        net, names = net_names
        a, b = names[0], names[-1]
        assert net.path_latency_s(a, b) == pytest.approx(net.path_latency_s(b, a))

    @given(random_networks(), sizes, sizes)
    def test_transfer_time_monotone_in_size(self, net_names, s1, s2):
        net, names = net_names
        a, b = names[0], names[-1]
        small, big = sorted((s1, s2))
        assert net.transfer_time(a, b, small) <= net.transfer_time(a, b, big) + 1e-9

    @given(random_networks(), sizes)
    def test_transfer_time_at_least_latency(self, net_names, size):
        net, names = net_names
        a, b = names[0], names[-1]
        assume(size > 0)
        assert net.transfer_time(a, b, size) >= net.path_latency_s(a, b)

    @given(random_networks())
    def test_route_latency_never_beaten_by_any_single_edge_path(self, net_names):
        """Shortest path: the chosen route's latency is minimal among the
        direct edge (when one exists)."""
        net, names = net_names
        a, b = names[0], names[-1]
        chosen = net.path_latency_s(a, b)
        if _linked(net, a, b):
            assert chosen <= net.link_between(a, b).latency_s + 1e-12


@st.composite
def oracle_networks(draw):
    """A random network that need not be connected, mirrored in networkx.

    Latencies are small multiples of 1/64 s: sums are exact in floating
    point, so equal-latency ties are common and comparable with ``==``.
    """
    nx = pytest.importorskip("networkx")
    names = draw(st.permutations([f"s{i}" for i in range(draw(st.integers(2, 7)))]))
    net, graph = Network(), nx.Graph()
    for name in names[: draw(st.integers(0, len(names)))]:
        net.add_site(name)
        graph.add_node(name)
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
    for a, b in draw(st.lists(pairs, max_size=12)):
        link = Link(a, b, capacity_mbps=draw(capacities),
                    latency_s=draw(st.integers(1, 4)) / 64.0)
        net.add_link(link)
        graph.add_edge(a, b, link=link, weight=link.latency_s)
    return net, graph, names


class TestNetworkxOracle:
    """``Network`` against the networkx graph it used to be built on."""

    @settings(max_examples=200)
    @given(oracle_networks())
    def test_route_is_a_networkx_shortest_path(self, net_graph_names):
        nx = pytest.importorskip("networkx")
        net, graph, names = net_graph_names
        for src in names:
            for dst in names:
                if src == dst:
                    continue
                try:
                    expected = nx.shortest_path(graph, src, dst, weight="weight")
                except (nx.NetworkXNoPath, nx.NodeNotFound):
                    with pytest.raises(NetworkError):
                        net.route(src, dst)
                    continue
                route = net.route(src, dst)
                hops = list(zip(expected, expected[1:]))
                assert sum(l.latency_s for l in route) == sum(
                    graph.edges[hop]["weight"] for hop in hops
                )
                # networkx breaks an equal-latency tie its own way (and may
                # change how between releases), so the bottleneck must be
                # that of *a* shortest path, and of networkx's when unique.
                site, walked = src, [src]
                for link in route:
                    assert site in (link.a, link.b)
                    site = link.a if link.b == site else link.b
                    walked.append(site)
                shortest = list(nx.all_shortest_paths(graph, src, dst, weight="weight"))
                assert walked in shortest
                if len(shortest) == 1:
                    assert net.path_bandwidth_mbps(src, dst) == min(
                        graph.edges[hop]["link"].available_mbps for hop in hops
                    )

    @given(oracle_networks())
    def test_links_reproduce_sorted_networkx_edges(self, net_graph_names):
        net, graph, names = net_graph_names
        expected = [graph.edges[e]["link"] for e in sorted(graph.edges)]
        assert [id(link) for link in net.links()] == [id(link) for link in expected]
        assert net.sites() == sorted(graph.nodes)
