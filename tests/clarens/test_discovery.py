"""Unit tests for the P2P lookup/discovery network."""

import pytest

from repro.clarens.discovery import DiscoveryNetwork
from repro.clarens.errors import ServiceNotFound
from repro.clarens.server import ClarensHost


class Dummy:
    def noop(self):
        return None


def make_network(topology, services):
    """topology: {peer: [neighbours]}, services: {peer: [service names]}"""
    net = DiscoveryNetwork()
    hosts = {}
    for name in topology:
        host = ClarensHost(name)
        for svc in services.get(name, []):
            host.register(svc, Dummy())
        hosts[name] = host
        net.add_host(host)
    for a, neighbours in topology.items():
        for b in neighbours:
            net.connect(a, b)
    return net


LINE = {"p1": ["p2"], "p2": ["p3"], "p3": []}


class TestPeering:
    def test_connect_is_bidirectional(self):
        net = make_network(LINE, {})
        assert net.peer("p2") in net.peer("p1").neighbours
        assert net.peer("p1") in net.peer("p2").neighbours

    def test_self_peering_rejected(self):
        net = make_network({"p1": []}, {})
        with pytest.raises(ValueError):
            net.peer("p1").connect(net.peer("p1"))

    def test_duplicate_host_rejected(self):
        net = DiscoveryNetwork()
        net.add_host(ClarensHost("x"))
        with pytest.raises(ValueError):
            net.add_host(ClarensHost("x"))

    def test_unknown_peer_raises(self):
        with pytest.raises(ServiceNotFound):
            DiscoveryNetwork().peer("ghost")

    def test_peers_sorted(self):
        net = make_network(LINE, {})
        assert net.peers() == ["p1", "p2", "p3"]


class TestLookup:
    def test_local_hit_at_zero_hops(self):
        net = make_network(LINE, {"p1": ["steering"]})
        results = net.find("steering", start="p1")
        assert results[0].host_name == "p1"
        assert results[0].hops == 0

    def test_neighbour_hit_at_one_hop(self):
        net = make_network(LINE, {"p2": ["steering"]})
        [r] = net.find("steering", start="p1")
        assert (r.host_name, r.hops) == ("p2", 1)

    def test_ttl_limits_reach(self):
        net = make_network(LINE, {"p3": ["steering"]})
        assert net.find("steering", start="p1", ttl=1) == []
        assert len(net.find("steering", start="p1", ttl=2)) == 1

    def test_multiple_instances_closest_first(self):
        net = make_network(LINE, {"p1": ["jobmon"], "p3": ["jobmon"]})
        results = net.find("jobmon", start="p2")
        assert [r.hops for r in results] == [1, 1]
        assert [r.host_name for r in results] == ["p1", "p3"]

    def test_cycle_does_not_loop(self):
        net = make_network({"a": ["b"], "b": ["c"], "c": ["a"]}, {"c": ["svc"]})
        results = net.find("svc", start="a", ttl=5)
        assert len(results) == 1

    def test_find_one_raises_when_unreachable(self):
        net = make_network(LINE, {})
        with pytest.raises(ServiceNotFound):
            net.find_one("missing", start="p1")

    def test_find_one_returns_closest(self):
        net = make_network(LINE, {"p2": ["svc"], "p3": ["svc"]})
        assert net.find_one("svc", start="p1").host_name == "p2"

    def test_negative_ttl_rejected(self):
        net = make_network(LINE, {})
        with pytest.raises(ValueError):
            net.find("svc", start="p1", ttl=-1)

    def test_system_service_discoverable_everywhere(self):
        net = make_network(LINE, {})
        results = net.find("system", start="p2", ttl=2)
        assert {r.host_name for r in results} == {"p1", "p2", "p3"}
