"""Unit tests for the Estimator Service facade."""

import pytest

from repro.core.estimators.history import HistoryRepository, TaskRecord
from repro.core.estimators.service import EstimatorService, spec_from_wire, _spec_to_dict
from repro.gridsim import GridBuilder, Job, Task, TaskSpec
from repro.gridsim.job import TaskSpec as Spec


def seeded_history(runtime=100.0, n=5):
    spec = Spec(executable="exe", requested_cpu_hours=1.0)
    return HistoryRepository(
        TaskRecord.from_spec(spec, runtime_s=runtime) for _ in range(n)
    )


@pytest.fixture
def grid():
    return (
        GridBuilder(seed=1)
        .site("a", background_load=0.0)
        .site("b", background_load=1.0)
        .link("a", "b", capacity_mbps=100.0, latency_s=0.0)
        .file("data.db", size_mb=100.0, at="b")
        .probe_noise(0.0)
        .build()
    )


@pytest.fixture
def service(grid, events):
    history = seeded_history()
    svc = EstimatorService(
        history, events.emit_estimate, probe=grid.probe, catalog=grid.catalog
    )
    events.register_stores(estimators=(svc.estimate_db, history))
    for es in grid.execution_services.values():
        svc.install_site_estimator(es)
    svc.attach_to_scheduler(grid.scheduler)
    return svc


class TestSpecWire:
    def test_round_trip(self):
        spec = TaskSpec(owner="u", input_files=("a", "b"), arguments=("-x",))
        back = spec_from_wire({"_type": "TaskSpec", **_spec_to_dict(spec)})
        assert back == spec


class TestEstimateRuntime:
    def test_wire_struct_in_out(self, service):
        out = service.estimate_runtime(_spec_to_dict(Spec(executable="exe")))
        assert out["value"] == pytest.approx(100.0)
        assert out["n_similar"] == 5
        assert out["method"] in ("mean", "regression")

    def test_site_estimators_installed(self, grid, service):
        es = grid.execution_services["a"]
        assert es.has_estimator
        assert es.estimate_runtime(Spec(executable="exe")) == pytest.approx(100.0)


class TestSubmissionRecording:
    def test_estimates_recorded_at_submission(self, grid, service):
        t = Task(spec=Spec(executable="exe"), work_seconds=120.0)
        grid.scheduler.submit_job(Job(tasks=[t], owner="u"))
        assert service.estimate_db.lookup(t.task_id) == pytest.approx(100.0)

    def test_unknown_spec_falls_back_to_request(self, grid, service):
        t = Task(
            spec=Spec(executable="never-seen", owner="stranger", requested_cpu_hours=2.0),
            work_seconds=1.0,
        )
        grid.scheduler.submit_job(Job(tasks=[t], owner="u"))
        # History has no record of this app+owner, but the executable-less
        # fallback still finds the global history; ensure *something* stored.
        assert service.estimate_db.has(t.task_id)


class TestQueueAndTransferMethods:
    def test_estimate_queue_time_via_site_name(self, grid, service):
        a = grid.execution_services["a"]
        t1 = Task(spec=Spec(executable="exe"), work_seconds=100.0)
        t2 = Task(spec=Spec(executable="exe"), work_seconds=100.0)
        a.submit_task(t1)
        a.submit_task(t2)
        service.estimate_db.record(t1.task_id, 100.0)
        service.estimate_db.record(t2.task_id, 100.0)
        assert service.estimate_queue_time("a", t2.task_id) == pytest.approx(100.0)

    def test_estimate_transfer_time(self, service):
        # 100 MB over 100 Mbps = 8 s
        assert service.estimate_transfer_time("b", "a", 100.0) == pytest.approx(8.0)

    def test_unknown_site_raises(self, service):
        with pytest.raises(KeyError):
            service.estimate_queue_time("ghost", "t")


class TestCompletionEstimate:
    def test_breakdown_parts(self, grid, service):
        spec = Spec(executable="exe", input_files=("data.db",))
        out = service.estimate_completion("a", _spec_to_dict(spec))
        assert out["runtime_s"] == pytest.approx(100.0)
        assert out["queue_time_s"] == 0.0
        assert out["transfer_time_s"] == pytest.approx(8.0)  # data.db is at b
        assert out["total_s"] == pytest.approx(108.0)

    def test_local_input_no_transfer(self, grid, service):
        spec = Spec(executable="exe", input_files=("data.db",))
        out = service.estimate_completion("b", _spec_to_dict(spec))
        assert out["transfer_time_s"] == 0.0

    def test_completion_by_site_excludes_and_skips_down(self, grid, service):
        grid.execution_services["b"].fail()
        by_site = service.completion_by_site(Spec(executable="exe"))
        assert set(by_site) == {"a"}

    def test_history_size_exposed(self, service):
        assert service.history_size() == 5


class TestCondorIdEntryPoint:
    def test_queue_time_by_condor_id(self, grid, service):
        a = grid.execution_services["a"]
        t1 = Task(spec=Spec(executable="exe"), work_seconds=100.0)
        t2 = Task(spec=Spec(executable="exe"), work_seconds=100.0)
        cid1 = a.submit_task(t1)
        cid2 = a.submit_task(t2)
        service.estimate_db.record(t1.task_id, 100.0)
        service.estimate_db.record(t2.task_id, 100.0)
        by_id = service.estimate_queue_time_by_condor_id("a", cid2)
        by_task = service.estimate_queue_time("a", t2.task_id)
        assert by_id == by_task == pytest.approx(100.0)

    def test_unknown_condor_id_raises(self, grid, service):
        from repro.gridsim.condor import CondorError

        with pytest.raises(CondorError):
            service.estimate_queue_time_by_condor_id("a", 999)
