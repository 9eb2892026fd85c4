"""Unit tests for Backup and Recovery (§4.2.4)."""

import pytest

from repro.gae import build_gae
from repro.gridsim import GridBuilder, Job, JobState, Task, TaskSpec


def make_gae(observability=False):
    grid = (
        GridBuilder(seed=5)
        .site("siteA", background_load=0.0)
        .site("siteB", background_load=0.0)
        .probe_noise(0.0)
        .build()
    )
    return build_gae(grid, observability=observability)


def submit_to(gae, site_name, work=100.0, outputs=("out.root",)):
    t = Task(
        spec=TaskSpec(owner="alice", requested_cpu_hours=work / 3600.0,
                      output_files=outputs),
        work_seconds=work,
    )
    original = gae.scheduler.select_site
    gae.scheduler.select_site = lambda task, exclude=(): site_name
    try:
        gae.scheduler.submit_job(Job(tasks=[t], owner="alice"))
    finally:
        gae.scheduler.select_site = original
    return t


class TestCompletionHandling:
    def test_client_notified_and_state_archived(self):
        gae = make_gae()
        t = submit_to(gae, "siteA", work=50.0)
        gae.sim.run_until(60.0)
        br = gae.steering.backup_recovery
        kinds = [n.kind for n in br.notifications if n.task_id == t.task_id]
        assert "completion" in kinds
        state = br.execution_states[t.task_id]
        assert state["state"] == "completed"
        assert state["output_files"] == ["out.root"]

    def test_notification_carries_owner(self):
        gae = make_gae()
        t = submit_to(gae, "siteA", work=10.0)
        gae.sim.run_until(20.0)
        note = [n for n in gae.steering.backup_recovery.notifications
                if n.kind == "completion"][0]
        assert note.owner == "alice"
        assert note.site == "siteA"


class TestTaskFailureHandling:
    def test_failure_notifies_and_salvages_files(self):
        gae = make_gae()
        t = submit_to(gae, "siteA")
        gae.sim.run_until(10.0)
        gae.grid.execution_services["siteA"].pool.fail_task(t.task_id)
        br = gae.steering.backup_recovery
        kinds = [n.kind for n in br.notifications if n.task_id == t.task_id]
        assert "failure" in kinds
        assert br.recovered_files[t.task_id] == ["out.root.partial"]

    def test_failed_task_resubmitted_elsewhere(self):
        gae = make_gae()
        t = submit_to(gae, "siteA")
        gae.sim.run_until(10.0)
        gae.grid.execution_services["siteA"].pool.fail_task(t.task_id)
        assert gae.grid.execution_services["siteB"].pool.has_task(t.task_id)
        gae.sim.run_until(200.0)
        assert t.state is JobState.COMPLETED

    def test_resubmission_notification_sent(self):
        gae = make_gae()
        t = submit_to(gae, "siteA")
        gae.grid.execution_services["siteA"].pool.fail_task(t.task_id)
        notes = [n for n in gae.steering.backup_recovery.notifications
                 if n.kind == "resubmission"]
        assert len(notes) == 1
        assert "siteB" in notes[0].detail

    def test_resubmission_can_be_disabled(self):
        gae = make_gae()
        gae.steering.backup_recovery.resubmit_failed_tasks = False
        t = submit_to(gae, "siteA")
        gae.grid.execution_services["siteA"].pool.fail_task(t.task_id)
        assert not gae.grid.execution_services["siteB"].pool.has_task(t.task_id)


class TestServiceFailureSweep:
    def test_down_service_detected_and_tasks_resubmitted(self):
        gae = make_gae()
        t = submit_to(gae, "siteA")
        gae.sim.run_until(10.0)
        gae.grid.execution_services["siteA"].fail()  # crashes pool too
        br = gae.steering.backup_recovery
        down = br.check_services()
        assert down == ["siteA"]
        assert "siteA" in br.failed_sites
        assert gae.grid.execution_services["siteB"].pool.has_task(t.task_id)
        gae.sim.run_until(300.0)
        assert t.state is JobState.COMPLETED

    def test_service_failure_notification(self):
        gae = make_gae()
        submit_to(gae, "siteA")
        gae.grid.execution_services["siteA"].fail()
        gae.steering.backup_recovery.check_services()
        kinds = {n.kind for n in gae.steering.backup_recovery.notifications}
        assert "service-failure" in kinds

    def test_sweep_does_not_double_resubmit(self):
        gae = make_gae()
        t = submit_to(gae, "siteA")
        gae.grid.execution_services["siteA"].fail()
        br = gae.steering.backup_recovery
        br.check_services()
        br.check_services()  # second sweep: site already known failed
        resubs = [n for n in br.notifications if n.kind == "resubmission"]
        assert len(resubs) == 1

    def test_a_killed_task_is_no_casualty(self):
        gae = make_gae(observability=True)  # it retains the journal rows read below
        t = submit_to(gae, "siteA")
        gae.sim.run_until(10.0)
        assert t.state is JobState.RUNNING
        assert gae.steering.command_processor.kill(t.task_id).ok
        gae.grid.execution_services["siteA"].fail()
        br = gae.steering.backup_recovery
        assert br.check_services() == ["siteA"]
        gae.sim.run_until(300.0)
        assert t.state is JobState.KILLED
        assert not gae.grid.execution_services["siteB"].pool.has_task(t.task_id)
        kinds = [n.kind for n in br.notifications if n.task_id == t.task_id]
        assert "resubmission" not in kinds
        types = [e.type.value for e in gae.events.journal.events(task_id=t.task_id)]
        assert types.count("dispatched") == 1 and "killed" in types

    def test_recovered_service_leaves_failed_set(self):
        gae = make_gae()
        submit_to(gae, "siteA")
        es = gae.grid.execution_services["siteA"]
        es.fail()
        br = gae.steering.backup_recovery
        br.check_services()
        es.recover()
        br.check_services()
        assert "siteA" not in br.failed_sites

    def test_periodic_sweep_under_simulation_clock(self):
        gae = make_gae()
        policy_interval = gae.steering.backup_recovery.ping_interval_s
        t = submit_to(gae, "siteA")
        gae.steering.backup_recovery.start()
        gae.sim.run_until(5.0)
        gae.grid.execution_services["siteA"].fail()
        gae.sim.run_until(policy_interval + 6.0)  # one sweep fired
        assert gae.grid.execution_services["siteB"].pool.has_task(t.task_id)
        gae.steering.backup_recovery.stop()

    def test_double_start_rejected(self):
        gae = make_gae()
        br = gae.steering.backup_recovery
        br.start()
        with pytest.raises(RuntimeError):
            br.start()
        br.stop()

    def test_notification_listeners_fan_out(self):
        gae = make_gae()
        seen = []
        gae.steering.backup_recovery.notification_listeners.append(
            lambda n: seen.append(n.kind)
        )
        t = submit_to(gae, "siteA", work=5.0)
        gae.sim.run_until(10.0)
        assert "completion" in seen
