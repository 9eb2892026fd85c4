"""Unit tests for the MonALISA-style repository."""

import pytest

from repro.monalisa.repository import (
    JobStateEvent,
    MonALISARepository,
    UnknownMetricError,
)


@pytest.fixture
def repo(events):
    r = MonALISARepository(events.emit_metric)
    events.register_stores(monalisa=r)
    r.publish("siteA", "load", 0.0, 1.5)
    r.publish("siteB", "load", 0.0, 0.2)
    r.publish("siteA", "load", 30.0, 1.8)
    r.publish("siteA", "cpu_temp", 30.0, 55.0)
    return r


class TestMetrics:
    def test_latest(self, repo):
        assert repo.latest("siteA", "load") == 1.8
        assert repo.latest("siteB", "load") == 0.2

    def test_latest_missing_with_default(self, repo):
        assert repo.latest("ghost", "load", default=0.0) == 0.0

    def test_latest_missing_without_default_raises(self, repo):
        with pytest.raises(KeyError):
            repo.latest("ghost", "load")

    def test_series_accessible(self, repo):
        assert len(repo.series("siteA", "load")) == 2

    def test_has_series(self, repo):
        assert repo.has_series("siteA", "cpu_temp")
        assert not repo.has_series("siteB", "cpu_temp")

    def test_farms_sorted(self, repo):
        assert repo.farms() == ["siteA", "siteB"]

    def test_metrics_of(self, repo):
        assert repo.metrics_of("siteA") == ["cpu_temp", "load"]

    def test_series_missing_raises_structured_error(self, repo):
        with pytest.raises(UnknownMetricError) as exc:
            repo.series("ghost", "load")
        assert exc.value.farm == "ghost"
        assert exc.value.metric == "load"
        assert exc.value.reason == "never published"

    def test_latest_missing_raises_structured_error(self, repo):
        with pytest.raises(UnknownMetricError):
            repo.latest("siteA", "ghost_metric")

    def test_unknown_metric_error_is_keyerror(self, repo):
        # Pre-existing ``except KeyError`` callers must keep working.
        assert issubclass(UnknownMetricError, KeyError)

    def test_unknown_metric_error_str_not_reprd(self):
        # KeyError.__str__ would wrap the message in quotes.
        err = UnknownMetricError("siteA", "load")
        assert str(err) == "no samples for siteA/load (never published)"

    def test_unknown_metric_error_to_wire(self):
        err = UnknownMetricError("siteA", "load", reason="expired")
        assert err.to_wire() == {
            "error": "not-found",
            "resource": "metric",
            "id": "siteA/load",
            "reason": "expired",
            "status": 404,
        }

    def test_metric_subscribers_fan_out(self, repo):
        seen = []
        repo.subscribe_metrics(lambda u: seen.append((u.farm, u.value)))
        repo.publish("siteB", "load", 60.0, 0.5)
        assert seen == [("siteB", 0.5)]


class TestLoadOracle:
    def test_site_load(self, repo):
        assert repo.site_load("siteA") == 1.8

    def test_site_load_default_for_unknown(self, repo):
        assert repo.site_load("ghost") == 0.0

    def test_oracle_callable(self, repo):
        oracle = repo.load_oracle(default=7.0)
        assert oracle("siteA") == 1.8
        assert oracle("ghost") == 7.0


class TestJobEvents:
    def make_event(self, task="t1", job="j1", state="running", t=1.0):
        return JobStateEvent(
            time=t, task_id=task, job_id=job, site="s", state=state, progress=0.5
        )

    def test_publish_and_filter(self, repo):
        repo.publish_job_state(self.make_event(task="t1"))
        repo.publish_job_state(self.make_event(task="t2", job="j2"))
        assert len(repo.job_events()) == 2
        assert len(repo.job_events(task_id="t1")) == 1
        assert len(repo.job_events(job_id="j2")) == 1
        assert repo.job_events(task_id="t1", job_id="j2") == []

    def test_job_subscribers_fan_out(self, repo):
        seen = []
        repo.subscribe_job_states(lambda e: seen.append(e.state))
        repo.publish_job_state(self.make_event(state="completed"))
        assert seen == ["completed"]
