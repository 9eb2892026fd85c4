"""Unit tests for the Subscriber (§4.2.1)."""

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


def planned(*jobs_and_sites):
    """A subscriber over a table holding each ``(job, sites)`` plan."""
    plans = PlanTable()
    for job, sites in jobs_and_sites:
        plans.restore(job, [make_plan(job, sites)])
    return Subscriber(plans)


class TestReceivePlan:
    """A plan reaches the subscriber through the scheduler's table."""

    def test_subscription_created(self):
        job = make_job()
        plan = make_plan(job, ["a", "b"])
        sub = planned((job, ["a", "b"]))
        assert sub.plans.jobs[job.job_id] is job
        assert sub.plans.plan(job.job_id) == plan
        assert [sub.plans.tasks[t.task_id].site for t in job.tasks] == ["a", "b"]
        assert sub.execution_sites_in_use() == {"a", "b"}

    def test_updated_plan_replaces_and_keeps_history(self):
        job = make_job()
        p1 = make_plan(job, ["a"])
        p2 = make_plan(job, ["b"])
        sub = planned((job, ["a"]))
        for task in job.tasks:  # the scheduler's revision, task by task
            sub.plans.rebind(task, "b")
        assert sub.plans.plan(job.job_id) == p2
        assert sub.plans.history(job.job_id) == [p1, make_plan(job, ["b", "a"]), p2]
        assert sub.plans.tasks[job.tasks[0].task_id].site == "b"
        assert sub.execution_sites_in_use() == {"b"}


class TestAggregates:
    def test_active_tasks_excludes_settled(self):
        job = make_job(n=3)
        sub = planned((job, ["a"]))
        job.tasks[0].state = JobState.COMPLETED
        job.tasks[1].state = JobState.RUNNING
        active = sub.active_tasks()
        assert job.tasks[0] not in active
        assert job.tasks[1] in active
        assert job.tasks[2] in active  # pending

    def test_execution_sites_in_use_unions_plans(self):
        j1, j2 = make_job(), make_job()
        sub = planned((j1, ["a", "b"]), (j2, ["c"]))
        assert sub.execution_sites_in_use() == {"a", "b", "c"}
