"""Unit tests for simulated input-file stage-in (§7's transfer-time factor)."""

import pytest

from repro.gridsim import GridBuilder, Job, JobState, Task, TaskSpec


def make_grid(simulate=True, bandwidth=80.0):
    grid = (
        GridBuilder(seed=4)
        .site("data", background_load=0.0)
        .site("compute", background_load=0.0)
        .link("data", "compute", capacity_mbps=bandwidth, latency_s=0.0)
        .file("input.dat", size_mb=100.0, at="data")  # 10 s over 80 Mbps
        .probe_noise(0.0)
        .build()
    )
    grid.scheduler.simulate_stage_in = simulate
    for es in grid.execution_services.values():
        es.runtime_estimator = lambda spec: spec.requested_cpu_hours * 3600.0
    return grid


def data_task(work=50.0):
    return Task(
        spec=TaskSpec(requested_cpu_hours=work / 3600.0, input_files=("input.dat",)),
        work_seconds=work,
    )


def pin(grid, site):
    grid.scheduler.select_site = lambda t, exclude=(): site


class TestStageIn:
    def test_remote_input_delays_start(self):
        grid = make_grid()
        pin(grid, "compute")
        t = data_task(work=50.0)
        grid.scheduler.submit_job(Job(tasks=[t], owner="u"))
        assert t.state is JobState.PENDING  # still staging
        assert t.task_id in grid.scheduler.staging
        grid.run()
        ad = grid.sites["compute"].pool.ad(t.task_id)
        assert ad.start_time == pytest.approx(10.0)  # 100 MB / 80 Mbps
        assert ad.end_time == pytest.approx(60.0)

    def test_local_input_starts_immediately(self):
        grid = make_grid()
        pin(grid, "data")
        t = data_task(work=50.0)
        grid.scheduler.submit_job(Job(tasks=[t], owner="u"))
        assert t.state is JobState.RUNNING
        grid.run()
        assert grid.sites["data"].pool.ad(t.task_id).end_time == pytest.approx(50.0)

    def test_staging_registry_cleared_after_delivery(self):
        grid = make_grid()
        pin(grid, "compute")
        t = data_task()
        grid.scheduler.submit_job(Job(tasks=[t], owner="u"))
        grid.run()
        assert t.task_id not in grid.scheduler.staging

    def test_simulation_can_be_disabled(self):
        grid = make_grid(simulate=False)
        pin(grid, "compute")
        t = data_task(work=50.0)
        grid.scheduler.submit_job(Job(tasks=[t], owner="u"))
        grid.run()
        assert grid.sites["compute"].pool.ad(t.task_id).end_time == pytest.approx(50.0)

    def test_submission_listener_fires_after_staging(self):
        grid = make_grid()
        pin(grid, "compute")
        seen = []
        grid.scheduler.submission_listeners.append(
            lambda task, site: seen.append((grid.sim.now, site))
        )
        t = data_task()
        grid.scheduler.submit_job(Job(tasks=[t], owner="u"))
        assert seen == []  # not delivered yet
        grid.run()
        assert seen == [(10.0, "compute")]

    def test_slow_pipe_makes_stage_in_dominate(self):
        grid = make_grid(bandwidth=1.0)  # 800 s transfer
        pin(grid, "compute")
        t = data_task(work=50.0)
        grid.scheduler.submit_job(Job(tasks=[t], owner="u"))
        grid.run()
        assert grid.sites["compute"].pool.ad(t.task_id).end_time == pytest.approx(850.0)

    def test_scheduler_prefers_data_local_site_end_to_end(self):
        """With honest stage-in charging, the ranked choice avoids the
        transfer entirely."""
        grid = make_grid(bandwidth=1.0)
        t = data_task(work=50.0)
        grid.scheduler.submit_job(Job(tasks=[t], owner="u"))
        grid.run()
        assert grid.sites["data"].pool.has_task(t.task_id)
        assert grid.sites["data"].pool.ad(t.task_id).end_time == pytest.approx(50.0)


class TestCheckpointImageTransfer:
    def make_grid(self):
        grid = (
            GridBuilder(seed=6)
            .site("from", background_load=0.0)
            .site("to", background_load=0.0)
            .link("from", "to", capacity_mbps=80.0, latency_s=0.0)
            .probe_noise(0.0)
            .build()
        )
        for es in grid.execution_services.values():
            es.runtime_estimator = lambda spec: spec.requested_cpu_hours * 3600.0
        return grid

    def test_image_transfer_delays_restart(self):
        grid = self.make_grid()
        pin(grid, "from")
        t = Task(
            spec=TaskSpec(requested_cpu_hours=0.1),
            work_seconds=100.0,
            checkpointable=True,
            checkpoint_image_mb=100.0,  # 10 s over 80 Mbps
        )
        grid.scheduler.submit_job(Job(tasks=[t], owner="u"))
        grid.sim.run_until(40.0)
        ad = grid.execution_services["from"].vacate_task(t.task_id)
        grid.scheduler.redirect_task(
            t.task_id, new_site="to", carry_work=ad.accrued_work,
            image_size_mb=t.checkpoint_image_mb,
        )
        assert t.task_id in grid.scheduler.staging
        grid.run()
        new_ad = grid.sites["to"].pool.ad(t.task_id)
        assert new_ad.submit_time == pytest.approx(50.0)   # 40 + 10 transfer
        assert new_ad.accrued_work == pytest.approx(100.0)
        assert new_ad.end_time == pytest.approx(110.0)     # 60 s work left

    def test_zero_image_moves_instantly(self):
        grid = self.make_grid()
        pin(grid, "from")
        t = Task(spec=TaskSpec(requested_cpu_hours=0.1), work_seconds=100.0)
        grid.scheduler.submit_job(Job(tasks=[t], owner="u"))
        grid.sim.run_until(40.0)
        grid.execution_services["from"].vacate_task(t.task_id)
        grid.scheduler.redirect_task(t.task_id, new_site="to")
        assert grid.sites["to"].pool.ad(t.task_id).submit_time == pytest.approx(40.0)

    def test_command_processor_ships_the_image(self):
        """End to end through the steering move verb."""
        from repro.core.steering.commands import CommandProcessor

        grid = self.make_grid()
        pin(grid, "from")
        t = Task(
            spec=TaskSpec(requested_cpu_hours=0.1),
            work_seconds=100.0,
            checkpointable=True,
            checkpoint_image_mb=100.0,
        )
        grid.scheduler.submit_job(Job(tasks=[t], owner="u"))
        grid.sim.run_until(40.0)
        processor = CommandProcessor(grid.scheduler, grid.execution_services)
        result = processor.move(t.task_id, target_site="to")
        assert result.ok
        grid.run()
        new_ad = grid.sites["to"].pool.ad(t.task_id)
        assert new_ad.submit_time == pytest.approx(50.0)
        history = grid.scheduler.plans.history(t.job_id)
        assert [[(b.task_id, b.site_name) for b in p.bindings] for p in history] == [
            [(t.task_id, "from")], [(t.task_id, "to")]
        ]


class TestStagingEdgeCases:
    def test_killed_while_staging_never_delivers(self):
        grid = make_grid()
        pin(grid, "compute")
        t = data_task(work=50.0)
        grid.scheduler.submit_job(Job(tasks=[t], owner="u"))
        assert t.task_id in grid.scheduler.staging
        t.state = JobState.KILLED  # killed mid-transfer
        grid.run()
        assert not grid.sites["compute"].pool.has_task(t.task_id)
        assert t.state is JobState.KILLED

    def test_steering_kill_works_during_staging(self):
        from repro.core.steering.commands import CommandProcessor

        grid = make_grid()
        pin(grid, "compute")
        t = data_task(work=50.0)
        grid.scheduler.submit_job(Job(tasks=[t], owner="u"))
        processor = CommandProcessor(grid.scheduler, grid.execution_services)
        result = processor.kill(t.task_id)
        assert result.ok
        assert "staging" in result.detail
        grid.run()
        assert t.state is JobState.KILLED
        assert not grid.sites["compute"].pool.has_task(t.task_id)

    def test_pause_during_staging_fails_cleanly(self):
        from repro.core.steering.commands import CommandProcessor

        grid = make_grid()
        pin(grid, "compute")
        t = data_task(work=50.0)
        grid.scheduler.submit_job(Job(tasks=[t], owner="u"))
        processor = CommandProcessor(grid.scheduler, grid.execution_services)
        result = processor.pause(t.task_id)
        assert not result.ok  # no pool holds it yet; honest failure
        grid.run()
        assert t.state is JobState.COMPLETED  # staging still delivered


class TestSupersededDelivery:
    """A move whose target fails while the checkpoint image is in flight."""

    IMAGE_LANDS_AT = 100.05  # 500 MB over 100 Mbps + 0.05 s, moved at t = 60

    def build(self, recovery):
        from repro.core.steering.optimizer import SteeringPolicy
        from repro.gae import build_gae

        grid = (
            GridBuilder(seed=1)
            .site("siteA").site("siteB")
            .link("siteA", "siteB", capacity_mbps=100.0, latency_s=0.05)
            .probe_noise(0.0)
            .build()
        )
        gae = build_gae(grid, policy=SteeringPolicy(auto_move=False))
        task = Task(
            spec=TaskSpec(owner="u", requested_cpu_hours=283.0 / 3600.0),
            work_seconds=283.0, checkpointable=True, checkpoint_image_mb=500.0,
        )
        pin(grid, "siteA")
        gae.scheduler.submit_job(Job(tasks=[task], owner="u"))
        del grid.scheduler.select_site
        if recovery:
            gae.start()  # Backup & Recovery's sweep
        grid.run_until(60.0)
        assert gae.steering.command_processor.move(task.task_id, "siteB").ok
        assert grid.scheduler.staging[task.task_id] == ("siteB", self.IMAGE_LANDS_AT)
        return gae, task.task_id

    def finish(self, gae, task_id, recover_at):
        """Fail site B at t = 70 (recovering at *recover_at*) and run out."""
        es = gae.grid.execution_services["siteB"]
        gae.sim.at(70.0, es.fail)
        if recover_at is not None:
            gae.sim.at(recover_at, es.recover)
        gae.grid.run_until(5000.0)  # nothing raised out of the simulator
        assert gae.scheduler.task(task_id).state is JobState.COMPLETED
        assert task_id not in gae.scheduler.staging
        holders = [
            name for name, site in gae.grid.sites.items()
            if site.pool.has_task(task_id)
            and site.pool.ad(task_id).state is JobState.COMPLETED
        ]
        assert holders == ["siteA"]  # completed exactly once, in one pool
        assert gae.scheduler.site_of_task(task_id) == "siteA"

    def restored(self, gae, tmp_path):
        from repro.gridsim.job import reset_id_counters
        from repro.store.checkpoint import Checkpointer, restore_gae

        path = str(tmp_path / "in-flight.sqlite")
        gae.grid.run_until(65.0)  # the image is still in flight
        Checkpointer(gae).checkpoint(path)
        reset_id_counters()
        return restore_gae(path)

    def test_target_down_on_arrival_is_rerouted(self):
        gae, task_id = self.build(recovery=False)
        self.finish(gae, task_id, recover_at=None)

    def test_resubmission_supersedes_the_stale_delivery(self):
        """Site B is back before the image lands, but Backup & Recovery has
        already resubmitted the task to site A: it must not also run at B."""
        gae, task_id = self.build(recovery=True)
        self.finish(gae, task_id, recover_at=95.0)

    def test_target_down_on_arrival_across_a_restore(self, tmp_path):
        gae, task_id = self.build(recovery=False)
        self.finish(self.restored(gae, tmp_path), task_id, recover_at=None)

    def test_resubmission_supersedes_across_a_restore(self, tmp_path):
        gae, task_id = self.build(recovery=True)
        self.finish(self.restored(gae, tmp_path), task_id, recover_at=95.0)
