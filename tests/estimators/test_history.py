"""Unit tests for the task-history repository and live recorder."""

import pytest

from repro.core.estimators.history import HistoryRecorder, HistoryRepository, TaskRecord
from repro.core.estimators.queue_time import RuntimeEstimateDB
from repro.gridsim.job import Task, TaskSpec
from repro.gridsim.site import Site
from repro.store.base import StateStore
from repro.store.registry import ESTIMATOR_HISTORY


def make_record(runtime=100.0, **kw):
    defaults = dict(
        owner="u", account="a", partition="p", queue="q", nodes=1,
        task_type="batch", executable="exe", requested_cpu_hours=1.0,
    )
    defaults.update(kw)
    return TaskRecord(runtime_s=runtime, **defaults)


class TestTaskRecord:
    def test_negative_runtime_rejected(self):
        with pytest.raises(ValueError):
            make_record(runtime=-1.0)

    @pytest.mark.parametrize("field, value, refusal", [
        ("runtime_s", float("nan"), r"^record\.runtime_s: must be finite and non-negative, got nan$"),
        ("runtime_s", float("inf"), r"^record\.runtime_s: must be finite and non-negative, got inf$"),
        ("requested_cpu_hours", float("nan"), r"^record\.requested_cpu_hours: must be finite, got nan$"),
        ("requested_cpu_hours", float("-inf"), r"^record\.requested_cpu_hours: must be finite, got -inf$"),
    ])
    def test_a_non_finite_value_is_refused(self, field, value, refusal):
        # One NaN runtime made every estimate of its template NaN; one NaN
        # request made the fit fail with an untyped LinAlgError.
        with pytest.raises(ValueError, match=refusal):
            make_record(**{"runtime" if field == "runtime_s" else field: value})

    def test_a_restored_non_finite_value_is_refused_not_repaired(self):
        store = StateStore()
        HistoryRepository([make_record(), make_record(runtime=120.0)]).save_to(store)
        (key, row), _ = store.items(ESTIMATOR_HISTORY)
        store.put(ESTIMATOR_HISTORY, key, {**row, "requested_cpu_hours": float("nan")})
        with pytest.raises(ValueError, match=r"^record\.requested_cpu_hours: must be finite"):
            HistoryRepository.load_from(store)
        text = HistoryRepository([make_record()]).to_csv().replace("100.0", "nan")
        with pytest.raises(ValueError, match=r"^record\.runtime_s: must be finite"):
            HistoryRepository.from_csv(text)

    def test_attribute_lookup(self):
        r = make_record(owner="alice")
        assert r.attribute("owner") == "alice"

    def test_from_spec_copies_fields(self):
        spec = TaskSpec(owner="bob", executable="sim", nodes=4, requested_cpu_hours=2.0)
        r = TaskRecord.from_spec(spec, runtime_s=50.0, site="s1")
        assert (r.owner, r.executable, r.nodes, r.runtime_s, r.site) == (
            "bob", "sim", 4, 50.0, "s1",
        )


class TestHistoryRepository:
    def test_add_and_len(self):
        h = HistoryRepository()
        h.add(make_record())
        assert len(h) == 1

    def test_extend_and_iter(self):
        h = HistoryRepository()
        h.extend([make_record(), make_record()])
        assert len(list(h)) == 2

    def test_successful_filters_failures(self):
        h = HistoryRepository([make_record(), make_record(status="failed")])
        assert len(h.successful()) == 1

    def test_matching_on_attributes(self):
        h = HistoryRepository([
            make_record(owner="a", executable="x"),
            make_record(owner="a", executable="y"),
            make_record(owner="b", executable="x"),
        ])
        assert len(h.matching(("owner",), {"owner": "a"})) == 2
        assert len(h.matching(("owner", "executable"), {"owner": "a", "executable": "x"})) == 1
        assert len(h.matching((), {})) == 3

    def test_matching_excludes_failed(self):
        h = HistoryRepository([make_record(owner="a", status="failed")])
        assert h.matching(("owner",), {"owner": "a"}) == []

    def test_csv_round_trip(self):
        h = HistoryRepository([make_record(runtime=123.5, nodes=8), make_record(owner="z")])
        text = h.to_csv()
        back = HistoryRepository.from_csv(text)
        assert len(back) == 2
        assert back.records()[0].runtime_s == 123.5
        assert back.records()[0].nodes == 8
        assert back.records()[1].owner == "z"


@pytest.fixture
def recorded(events):
    """An empty repository fed by the core's ``estimators`` consumer."""
    h = HistoryRepository()
    events.register_stores(estimators=(RuntimeEstimateDB(), h))
    return h


class TestHistoryRecorder:
    def test_records_completions(self, sim, events, recorded):
        h = recorded
        site = Site.simple(sim, "s")
        HistoryRecorder(events.emit_history).attach(site)
        t = Task(spec=TaskSpec(owner="alice", executable="sim"), work_seconds=50.0)
        site.pool.submit(t)
        sim.run()
        [record] = h.records()
        assert record.owner == "alice"
        assert record.runtime_s == pytest.approx(50.0)
        assert record.status == "successful"
        assert record.site == "s"

    def test_failures_skipped_by_default(self, sim, events, recorded):
        h = recorded
        site = Site.simple(sim, "s")
        HistoryRecorder(events.emit_history).attach(site)
        t = Task(spec=TaskSpec(), work_seconds=50.0)
        site.pool.submit(t)
        site.pool.fail_task(t.task_id)
        assert len(h) == 0

    def test_failures_recorded_when_enabled(self, sim, events, recorded):
        h = recorded
        site = Site.simple(sim, "s")
        HistoryRecorder(events.emit_history, record_failures=True).attach(site)
        t = Task(spec=TaskSpec(), work_seconds=50.0)
        site.pool.submit(t)
        sim.run_until(10.0)
        site.pool.fail_task(t.task_id)
        [record] = h.records()
        assert record.status == "failed"
        assert record.runtime_s == pytest.approx(10.0)

    def test_recorded_runtime_is_cpu_work_not_wall_time(self, sim, events, recorded):
        """On a loaded node the record must hold true CPU work."""
        h = recorded
        site = Site.simple(sim, "s", background_load=1.0)
        HistoryRecorder(events.emit_history).attach(site)
        t = Task(spec=TaskSpec(), work_seconds=50.0)
        site.pool.submit(t)
        sim.run()
        assert h.records()[0].runtime_s == pytest.approx(50.0)
        assert h.records()[0].end_time == pytest.approx(100.0)
