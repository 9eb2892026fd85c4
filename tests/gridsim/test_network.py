"""Unit tests for the network model and iperf probe."""

import numpy as np
import pytest

from repro.gridsim.network import IperfProbe, Link, Network, NetworkError


def make_triangle():
    net = Network()
    net.add_link(Link("a", "b", capacity_mbps=100.0, latency_s=0.01))
    net.add_link(Link("b", "c", capacity_mbps=50.0, latency_s=0.02))
    net.add_link(Link("a", "c", capacity_mbps=10.0, latency_s=0.5))
    return net


class TestLink:
    def test_validation(self):
        with pytest.raises(ValueError):
            Link("a", "b", capacity_mbps=0.0)
        with pytest.raises(ValueError):
            Link("a", "b", capacity_mbps=10.0, latency_s=-1.0)
        with pytest.raises(ValueError):
            Link("a", "b", capacity_mbps=10.0, utilization=1.0)

    def test_available_bandwidth(self):
        link = Link("a", "b", capacity_mbps=100.0, utilization=0.25)
        assert link.available_mbps == pytest.approx(75.0)


class TestRouting:
    def test_direct_route(self):
        net = make_triangle()
        route = net.route("a", "b")
        assert len(route) == 1
        assert route[0].capacity_mbps == 100.0

    def test_lowest_latency_route_wins(self):
        net = make_triangle()
        # a->c direct costs 0.5s; a->b->c costs 0.03s.
        route = net.route("a", "c")
        assert len(route) == 2

    def test_route_to_self_is_empty(self):
        assert make_triangle().route("a", "a") == []

    def test_unknown_site_raises(self):
        with pytest.raises(NetworkError):
            make_triangle().route("a", "ghost")

    def test_unreachable_raises(self):
        net = make_triangle()
        net.add_site("island")
        with pytest.raises(NetworkError):
            net.route("a", "island")

    def test_link_between_missing_raises(self):
        net = Network()
        net.add_site("a")
        net.add_site("b")
        with pytest.raises(NetworkError):
            net.link_between("a", "b")


class TestLinks:
    def test_each_link_once_sorted_by_endpoint_pair(self):
        """Pairs name the earlier-registered site first, then sort: with
        "z" registered before "a", z-a sorts as ("z", "a"), after a-m."""
        net = Network()
        net.add_site("z")
        za = Link("a", "z", capacity_mbps=1.0)
        am = Link("a", "m", capacity_mbps=2.0)
        zm = Link("m", "z", capacity_mbps=3.0)
        for link in (zm, za, am):
            net.add_link(link)
        assert net.links() == [am, za, zm]

    def test_relinking_a_pair_replaces_the_link(self):
        net = make_triangle()
        faster = Link("b", "a", capacity_mbps=1000.0)
        net.add_link(faster)
        assert len(net.links()) == 3
        assert net.link_between("a", "b") is faster
        assert net.route("a", "b") == [faster]


class TestBandwidthAndTransfer:
    def test_bottleneck_bandwidth(self):
        net = make_triangle()
        assert net.path_bandwidth_mbps("a", "c") == pytest.approx(50.0)

    def test_local_bandwidth_infinite(self):
        assert make_triangle().path_bandwidth_mbps("a", "a") == float("inf")

    def test_transfer_time_formula(self):
        net = Network()
        net.add_link(Link("x", "y", capacity_mbps=80.0, latency_s=0.1))
        # 100 MB = 800 Mbit at 80 Mbit/s = 10 s + 0.1 latency
        assert net.transfer_time("x", "y", 100.0) == pytest.approx(10.1)

    def test_local_transfer_free(self):
        assert make_triangle().transfer_time("a", "a", 1e6) == 0.0

    def test_zero_size_free(self):
        assert make_triangle().transfer_time("a", "b", 0.0) == 0.0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            make_triangle().transfer_time("a", "b", -1.0)

    def test_utilization_shrinks_bandwidth(self):
        net = Network()
        net.add_link(Link("x", "y", capacity_mbps=100.0, latency_s=0.0))
        t0 = net.transfer_time("x", "y", 100.0)
        net.set_utilization("x", "y", 0.5)
        assert net.transfer_time("x", "y", 100.0) == pytest.approx(2 * t0)

    def test_set_utilization_validation(self):
        net = make_triangle()
        with pytest.raises(ValueError):
            net.set_utilization("a", "b", 1.5)


class TestIperfProbe:
    def test_noiseless_probe_exact(self):
        net = make_triangle()
        probe = IperfProbe(net, noise_sigma=0.0)
        r = probe.measure("a", "b")
        assert r.measured_mbps == pytest.approx(100.0)
        assert r.true_mbps == pytest.approx(100.0)

    def test_noisy_probe_near_truth(self):
        net = make_triangle()
        probe = IperfProbe(net, rng=np.random.default_rng(0), noise_sigma=0.05)
        rs = [probe.measure("a", "b").measured_mbps for _ in range(200)]
        assert np.mean(rs) == pytest.approx(100.0, rel=0.05)

    def test_probe_deterministic_per_seed(self):
        net = make_triangle()
        a = IperfProbe(net, rng=np.random.default_rng(5)).measure("a", "b").measured_mbps
        b = IperfProbe(net, rng=np.random.default_rng(5)).measure("a", "b").measured_mbps
        assert a == b

    def test_history_accumulates(self):
        probe = IperfProbe(make_triangle(), noise_sigma=0.0)
        probe.measure("a", "b")
        probe.measure("a", "b")
        assert len(probe.history) == 2

    def test_smoothed_fills_window(self):
        probe = IperfProbe(make_triangle(), noise_sigma=0.0)
        assert probe.smoothed_mbps("a", "b", window=3) == pytest.approx(100.0)
        assert len(probe.history) == 3

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            IperfProbe(make_triangle(), noise_sigma=-0.1)


class TestNetworkWeather:
    def make(self, seed=0, period=100.0):
        from repro.gridsim.clock import Simulator
        from repro.gridsim.network import NetworkWeather

        sim = Simulator()
        net = make_triangle()
        weather = NetworkWeather(
            sim, net, rng=np.random.default_rng(seed), period_s=period,
            mean_utilization=0.3, volatility=0.1,
        )
        return sim, net, weather

    def test_utilizations_change_over_time(self):
        sim, net, weather = self.make()
        before = net.path_bandwidth_mbps("a", "b")
        weather.start()
        sim.run_until(1000.0)
        weather.stop()
        after = net.path_bandwidth_mbps("a", "b")
        assert after != before

    def test_utilization_stays_in_bounds(self):
        sim, net, weather = self.make(seed=7)
        weather.start()
        for t in range(100, 5000, 100):
            sim.run_until(float(t))
            for link in net.links():
                assert 0.0 <= link.utilization <= 0.95
        weather.stop()

    def test_deterministic_per_seed(self):
        def run(seed):
            sim, net, weather = self.make(seed=seed)
            weather.start()
            sim.run_until(1000.0)
            weather.stop()
            return [link.utilization for link in net.links()]

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_transfer_estimates_go_stale_under_weather(self):
        """A probe taken before the weather shifts mispredicts afterwards."""
        from repro.core.estimators.transfer_time import TransferTimeEstimator
        from repro.gridsim.network import IperfProbe

        sim, net, weather = self.make(seed=3)
        probe = IperfProbe(net, noise_sigma=0.0)
        estimator = TransferTimeEstimator(probe)
        predicted = estimator.estimate("a", "b", 500.0).transfer_time_s
        weather.start()
        sim.run_until(2000.0)
        weather.stop()
        actual = net.transfer_time("a", "b", 500.0)
        assert actual != pytest.approx(predicted)
        # A fresh probe fixes the prediction (§6.3 ignores latency, so
        # allow the 10 ms propagation term).
        fresh = estimator.estimate("a", "b", 500.0).transfer_time_s
        assert fresh == pytest.approx(actual, rel=1e-2)

    def test_validation_and_double_start(self):
        from repro.gridsim.clock import Simulator
        from repro.gridsim.network import NetworkWeather

        sim = Simulator()
        with pytest.raises(ValueError):
            NetworkWeather(sim, make_triangle(), period_s=0.0)
        with pytest.raises(ValueError):
            NetworkWeather(sim, make_triangle(), mean_utilization=1.5)
        weather = NetworkWeather(sim, make_triangle())
        weather.start()
        with pytest.raises(RuntimeError):
            weather.start()
        weather.stop()
