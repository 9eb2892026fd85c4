"""Unit tests for the MonALISA query service (grid-weather API)."""

import pytest

from repro.clarens.aio import AsyncSocketServerHandle
from repro.clarens.client import ClarensClient
from repro.clarens.errors import RemoteFault
from repro.clarens.server import ClarensHost
from repro.monalisa.repository import JobStateEvent, MonALISARepository
from repro.monalisa.service import MonALISAQueryService


@pytest.fixture
def service(events):
    repo = MonALISARepository(events.emit_metric)
    events.register_stores(monalisa=repo)
    repo.publish("siteA", "load", 0.0, 1.5)
    repo.publish("siteA", "load", 30.0, 2.0)
    repo.publish("siteB", "load", 0.0, 0.1)
    repo.publish("siteA", "cpu_temp", 10.0, 60.0)
    repo.publish_job_state(
        JobStateEvent(time=5.0, task_id="t1", job_id="j1", site="siteA",
                      state="running", progress=0.4)
    )
    return MonALISAQueryService(repo)


class TestQueries:
    def test_farms(self, service):
        assert service.farms() == ["siteA", "siteB"]

    def test_metrics_of(self, service):
        assert service.metrics_of("siteA") == ["cpu_temp", "load"]

    def test_site_load(self, service):
        assert service.site_load("siteA") == 2.0
        assert service.site_load("ghost") == 0.0

    def test_grid_weather_snapshot(self, service):
        assert service.grid_weather() == {"siteA": 2.0, "siteB": 0.1}

    def test_a_farm_without_a_load_series_is_no_weather(self, service):
        service.repository.publish("probe", "cpu_temp", 0.0, 40.0)
        assert "probe" in service.farms()
        assert set(service.grid_weather()) == {"siteA", "siteB"}

    def test_latest(self, service):
        assert service.latest("siteA", "cpu_temp") == 60.0
        with pytest.raises(KeyError):
            service.latest("siteB", "cpu_temp")

    def test_series_window(self, service):
        out = service.series_window("siteA", "load", 0.0, 30.0)
        assert out["times"] == [0.0, 30.0]
        assert out["values"] == [1.5, 2.0]

    def test_series_window_is_plain_floats(self, service):
        out = service.series_window("siteA", "load", float("-inf"), float("inf"))
        assert out == {"times": [0.0, 30.0], "values": [1.5, 2.0]}
        assert {type(v) for values in out.values() for v in values} == {float}

    def test_job_events_filters(self, service):
        assert len(service.job_events()) == 1
        assert service.job_events(task_id="t1")[0]["state"] == "running"
        assert service.job_events(task_id="ghost") == []


class TestHosting:
    def test_dispatch_through_clarens(self, service):
        host = ClarensHost()
        host.users.add_user("u", "p", groups=("g",))
        host.acl.allow("monalisa.*", groups=("g",))
        host.register("monalisa", service)
        token = host.dispatch("system.login", ["u", "p"])
        weather = host.dispatch("monalisa.grid_weather", [], token)
        assert weather["siteA"] == 2.0

    def test_a_nan_window_bound_is_a_typed_fault_over_json(self, gae):
        """The json codec decodes ``NaN``, so a client can send one; the
        host answers a fault instead of the whole series."""
        gae.add_user("alice", "pw")
        gae.load_publisher.publish_now()
        with AsyncSocketServerHandle(gae.host) as handle:
            with ClarensClient(handle.url, codec="json") as client:
                client.login("alice", "pw")
                ok = client.call("monalisa.series_window", "siteA", "load", 0.0, 1e9)
                assert len(ok["times"]) == 1
                for t0, t1 in ((float("nan"), 3.0), (1.0, float("nan"))):
                    with pytest.raises(RemoteFault, match="NaN"):
                        client.call("monalisa.series_window", "siteA", "load", t0, t1)

    def test_gae_hosts_it(self, gae):
        gae.add_user("alice", "pw")
        gae.load_publisher.publish_now()
        client = gae.client("alice", "pw")
        weather = client.service("monalisa").grid_weather()
        assert set(weather) == {"siteA", "siteB"}
        # Grid queries only: the host's own call statistics are system.stats'.
        assert sorted(gae.host.registry.service("monalisa").methods) == [
            "farms", "grid_weather", "job_events", "latest", "metrics_of",
            "series_window", "site_load",
        ]
        assert weather["siteA"] > weather["siteB"]
