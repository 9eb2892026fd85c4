"""Unit tests for the GAE wiring facade itself."""

import pytest

from repro.clarens.errors import AuthenticationError, AuthorizationError
from repro.gae import build_gae, default_acl
from repro.gridsim import GridBuilder, Job, Task, TaskSpec


def small_grid(seed=71):
    return GridBuilder(seed=seed).site("a").site("b").probe_noise(0.0).build()


class TestBuildOptions:
    def test_custom_host_name(self):
        gae = build_gae(small_grid(), host_name="my-clarens")
        assert gae.host.name == "my-clarens"

    def test_record_history_on_by_default(self):
        gae = build_gae(small_grid())
        t = Task(spec=TaskSpec(owner="u"), work_seconds=10.0)
        gae.scheduler.submit_job(Job(tasks=[t], owner="u"))
        gae.grid.run_until(100.0)
        assert len(gae.history) == 1

    def test_start_stop_idempotent_cycle(self):
        gae = build_gae(small_grid())
        gae.start()
        gae.stop()
        gae.start()  # restartable after stop
        gae.stop()

    def test_sim_and_scheduler_shortcuts(self):
        gae = build_gae(small_grid())
        assert gae.sim is gae.grid.sim
        assert gae.scheduler is gae.grid.scheduler


class TestDefaultAcl:
    def test_gae_users_allowed_everywhere(self):
        from repro.clarens.auth import Principal

        acl = default_acl()
        p = Principal(user="x", groups=frozenset({"gae-users"}))
        for path in ("estimator.estimate_runtime", "jobmon.job_info",
                     "steering.kill", "accounting.quota_available",
                     "monalisa.grid_weather"):
            assert acl.check(p, path)

    def test_outsiders_denied(self):
        from repro.clarens.auth import Principal

        acl = default_acl()
        p = Principal(user="x", groups=frozenset({"randoms"}))
        assert not acl.check(p, "steering.kill")

    def test_user_outside_gae_group_rejected_at_dispatch(self):
        gae = build_gae(small_grid())
        gae.host.users.add_user("outsider", "pw", groups=("visitors",))
        client = gae.client("outsider", "pw")
        with pytest.raises(AuthorizationError):
            client.service("jobmon").running_tasks()

    def test_anonymous_rejected_at_dispatch(self):
        gae = build_gae(small_grid())
        client = gae.client()
        with pytest.raises(AuthenticationError):
            client.service("jobmon").running_tasks()


class TestLoadPublishing:
    def test_scheduler_sees_published_loads(self):
        grid = (
            GridBuilder(seed=72)
            .site("light", background_load=0.0)
            .site("heavy", background_load=5.0)
            .probe_noise(0.0)
            .build()
        )
        gae = build_gae(grid)
        gae.load_publisher.publish_now()
        t = Task(spec=TaskSpec(owner="u"), work_seconds=100.0)
        plan = gae.scheduler.submit_job(Job(tasks=[t], owner="u"))
        assert plan.site_for(t.task_id) == "light"

    def test_stale_loads_without_publish_default_to_zero(self):
        gae = build_gae(small_grid())
        # Nothing published yet: the oracle answers 0.0 for all.
        assert gae.scheduler.load_oracle("a") == 0.0
