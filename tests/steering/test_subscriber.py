"""Unit tests for the Subscriber (§4.2.1)."""

import pytest

from repro.core.steering.subscriber import Subscriber
from repro.gridsim.job import (
    ConcreteJobPlan,
    Job,
    JobState,
    PlanTable,
    Task,
    TaskBinding,
    TaskSpec,
)


def make_job(n=2, owner="u"):
    tasks = [Task(spec=TaskSpec(owner=owner), work_seconds=10.0) for _ in range(n)]
    return Job(tasks=tasks, owner=owner)


def make_plan(job, sites):
    return ConcreteJobPlan(
        job_id=job.job_id,
        bindings=tuple(
            TaskBinding(t.task_id, sites[i % len(sites)]) for i, t in enumerate(job.tasks)
        ),
    )


class TestReceivePlan:
    def test_subscription_created(self):
        sub = Subscriber(PlanTable())
        job = make_job()
        plan = make_plan(job, ["a", "b"])
        assert sub.receive_plan(plan, job) is None
        assert sub.job(job.job_id) is job
        assert sub.plans.plan(job.job_id) == plan
        assert [sub.site_of_task(t.task_id) for t in job.tasks] == ["a", "b"]
        assert sub.has_job(job.job_id)

    def test_updated_plan_replaces_and_keeps_history(self):
        sub = Subscriber(PlanTable())
        job = make_job()
        p1 = make_plan(job, ["a"])
        p2 = make_plan(job, ["b"])
        sub.receive_plan(p1, job)
        sub.receive_plan(p2, job)
        assert sub.plans.plan(job.job_id) == p2
        assert sub.plans.history(job.job_id) == [p1, p2]
        assert sub.site_of_task(job.tasks[0].task_id) == "b"

    def test_a_job_another_table_planned_is_refused(self):
        """Its tasks' bindings belong to that table (a scheduler's): a
        second table would find every later plan already applied."""
        job = make_job()
        Subscriber(PlanTable()).receive_plan(make_plan(job, ["a"]), job)
        with pytest.raises(ValueError, match="another table"):
            Subscriber(PlanTable()).receive_plan(make_plan(job, ["b"]), job)

    def test_task_index(self):
        sub = Subscriber(PlanTable())
        job = make_job()
        sub.receive_plan(make_plan(job, ["a"]), job)
        t = job.tasks[0]
        assert sub.job_of_task(t.task_id) == job.job_id
        assert sub.task(t.task_id) is t
        assert sub.site_of_task(t.task_id) == "a"

    def test_unknown_lookups_raise(self):
        sub = Subscriber(PlanTable())
        with pytest.raises(KeyError):
            sub.job_of_task("ghost")
        with pytest.raises(KeyError):
            sub.job("ghost")


class TestAggregates:
    def test_jobs_listed_in_order(self):
        sub = Subscriber(PlanTable())
        j1, j2 = make_job(), make_job()
        sub.receive_plan(make_plan(j1, ["a"]), j1)
        sub.receive_plan(make_plan(j2, ["b"]), j2)
        assert sub.jobs() == [j1, j2]

    def test_active_tasks_excludes_settled(self):
        sub = Subscriber(PlanTable())
        job = make_job(n=3)
        sub.receive_plan(make_plan(job, ["a"]), job)
        job.tasks[0].state = JobState.COMPLETED
        job.tasks[1].state = JobState.RUNNING
        active = sub.active_tasks()
        assert job.tasks[0] not in active
        assert job.tasks[1] in active
        assert job.tasks[2] in active  # pending

    def test_execution_sites_in_use_unions_plans(self):
        sub = Subscriber(PlanTable())
        j1, j2 = make_job(), make_job()
        sub.receive_plan(make_plan(j1, ["a", "b"]), j1)
        sub.receive_plan(make_plan(j2, ["c"]), j2)
        assert sub.execution_sites_in_use() == {"a", "b", "c"}
