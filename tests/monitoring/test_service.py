"""Unit tests for the Job Monitoring Service facade (§5)."""

import pytest

from repro.clarens.errors import RemoteFault
from repro.clarens.server import ClarensHost
from repro.core.monitoring.service import JobMonitoringService, MonitoringError
from repro.gridsim.execution import ExecutionService
from repro.gridsim.job import Job, Task, TaskSpec
from repro.gridsim.site import Site
from repro.monalisa.repository import MonALISARepository


@pytest.fixture
def env(sim, events):
    site = Site.simple(sim, "s1", background_load=1.0)
    es = ExecutionService(site)
    monalisa = MonALISARepository(events.emit_metric)
    svc = JobMonitoringService(sim, events.emit_monitoring, estimate_lookup=lambda tid: 200.0)
    events.register_stores(db_manager=svc.db_manager, monalisa=monalisa)
    svc.attach(es)
    return sim, es, svc, monalisa


def make_task(work=100.0, **kw):
    return Task(spec=TaskSpec(**kw), work_seconds=work)


class TestPaperApiFields:
    """The §5 field list, method by method."""

    def test_job_status(self, env):
        sim, es, svc, _ = env
        t = make_task()
        es.submit_task(t)
        assert svc.job_status(t.task_id) == "running"

    def test_elapsed_and_remaining(self, env):
        sim, es, svc, _ = env
        t = make_task(work=100.0)
        es.submit_task(t)
        sim.run_until(60.0)  # load 1.0 -> 30 s accrued
        assert svc.elapsed_time(t.task_id) == pytest.approx(30.0)
        assert svc.remaining_time(t.task_id) == pytest.approx(170.0)

    def test_estimated_run_time(self, env):
        sim, es, svc, _ = env
        t = make_task()
        es.submit_task(t)
        assert svc.estimated_run_time(t.task_id) == 200.0

    def test_queue_position(self, env):
        sim, es, svc, _ = env
        t1, t2 = make_task(), make_task()
        es.submit_task(t1)
        es.submit_task(t2)
        assert svc.queue_position(t2.task_id) == 0
        assert svc.queue_position(t1.task_id) == -1

    def test_progress(self, env):
        sim, es, svc, _ = env
        t = make_task(work=100.0)
        es.submit_task(t)
        sim.run_until(100.0)
        assert svc.progress(t.task_id) == pytest.approx(0.5)

    def test_job_info_struct_complete(self, env):
        sim, es, svc, _ = env
        t = make_task(owner="alice", environment={"X": "1"})
        es.submit_task(t)
        info = svc.job_info(t.task_id)
        for field in (
            "status", "elapsed_time_s", "estimated_run_time_s", "remaining_time_s",
            "queue_position", "priority", "submission_time", "execution_time",
            "completion_time", "cpu_time_used_s", "input_io_mb", "output_io_mb",
            "owner", "environment",
        ):
            assert field in info
        assert info["owner"] == "alice"
        assert info["environment"] == {"X": "1"}

    def test_unknown_task_raises(self, env):
        _, _, svc, _ = env
        with pytest.raises(MonitoringError):
            svc.job_status("ghost")


class TestAggregates:
    def test_job_tasks(self, env):
        sim, es, svc, _ = env
        tasks = [make_task(work=10.0), make_task(work=10.0)]
        job = Job(tasks=tasks, owner="u")
        for t in tasks:
            es.submit_task(t)
        sim.run()
        records = svc.job_tasks(job.job_id)
        assert len(records) == 2
        assert all(r["status"] == "completed" for r in records)

    def test_owner_tasks(self, env):
        sim, es, svc, _ = env
        t = make_task(work=10.0, owner="alice")
        es.submit_task(t)
        sim.run()
        assert [r["task_id"] for r in svc.owner_tasks("alice")] == [t.task_id]
        assert svc.owner_tasks("nobody") == []

    def test_running_tasks(self, env):
        sim, es, svc, _ = env
        t = make_task()
        es.submit_task(t)
        assert [r["task_id"] for r in svc.running_tasks()] == [t.task_id]


class TestMonalisaIntegration:
    def test_state_changes_published(self, env):
        """§5: 'sends an update to MonALISA whenever the state of a job
        changes' (terminal transitions flow through the DBManager)."""
        sim, es, svc, monalisa = env
        t = make_task(work=10.0)
        es.submit_task(t)
        sim.run()
        events = monalisa.job_events(task_id=t.task_id)
        assert [e.state for e in events] == ["completed"]


class TestClarensHosting:
    def test_dispatch_through_host(self, env):
        sim, es, svc, _ = env
        host = ClarensHost()
        host.users.add_user("u", "p", groups=("g",))
        host.acl.allow("jobmon.*", groups=("g",))
        host.register("jobmon", svc)
        t = make_task()
        es.submit_task(t)
        token = host.dispatch("system.login", ["u", "p"])
        assert host.dispatch("jobmon.job_status", [t.task_id], token) == "running"

    def test_unknown_task_becomes_remote_fault(self, env):
        sim, es, svc, _ = env
        host = ClarensHost()
        host.users.add_user("u", "p", groups=("g",))
        host.acl.allow("jobmon.*", groups=("g",))
        host.register("jobmon", svc)
        token = host.dispatch("system.login", ["u", "p"])
        with pytest.raises(RemoteFault):
            host.dispatch("jobmon.job_status", ["ghost"], token)


class TestContinuousMonitoring:
    def test_periodic_snapshots_build_progress_history(self, env):
        sim, es, svc, _ = env
        t = make_task(work=100.0)  # load 1.0 -> 200 s wall
        es.submit_task(t)
        svc.start_periodic_snapshots(period_s=50.0)
        sim.run_until(210.0)
        svc.stop_periodic_snapshots()
        history = svc.progress_history(t.task_id)
        assert len(history) >= 4
        times = [h["snapshot_time"] for h in history]
        assert times == sorted(times)
        progresses = [h["progress"] for h in history]
        assert progresses == sorted(progresses)  # monotone progress
        assert history[-1]["status"] == "completed"
        assert history[-1]["progress"] == pytest.approx(1.0)

    def test_snapshot_running_returns_count(self, env):
        sim, es, svc, monalisa = env
        assert svc.snapshot_running() == 0  # nothing running: nothing written
        assert len(svc.db_manager) == 0
        running = make_task()
        es.submit_task(running)
        es.submit_task(make_task())  # queued (1 slot)
        assert svc.snapshot_running() == 1
        assert svc.db_manager.task_ids() == [running.task_id]
        assert [e.state for e in monalisa.job_events()] == ["running"]

    def test_history_empty_without_snapshots(self, env):
        sim, es, svc, _ = env
        t = make_task(work=1e6)
        es.submit_task(t)
        sim.run_until(10.0)
        assert svc.progress_history(t.task_id) == []

    def test_double_snapshot_start_rejected(self, env):
        sim, es, svc, _ = env
        svc.start_periodic_snapshots()
        with pytest.raises(RuntimeError):
            svc.start_periodic_snapshots()
        svc.stop_periodic_snapshots()

    def test_gae_wiring_arms_snapshots(self):
        from repro.gae import build_gae
        from repro.gridsim import GridBuilder, Job as GJob

        grid = GridBuilder(seed=3).site("s").probe_noise(0.0).build()
        gae = build_gae(grid, monitor_snapshot_period_s=25.0)
        gae.add_user("u", "pw")
        t = make_task(work=100.0)
        gae.scheduler.submit_job(GJob(tasks=[t], owner="u"))
        gae.start()
        gae.grid.run_until(120.0)
        gae.stop()
        history = gae.client("u", "pw").service("jobmon").progress_history(t.task_id)
        assert len(history) >= 3
