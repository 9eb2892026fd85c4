"""Unit tests for the Session Manager (§4.2.5)."""

import pytest

from repro.clarens.auth import ANONYMOUS, Principal
from repro.core.steering.session_manager import (
    OPTIMIZER_PRINCIPAL,
    SessionManager,
    SteeringAuthError,
)
from repro.gridsim.job import ConcreteJobPlan, Job, PlanTable, Task, TaskBinding, TaskSpec

ALICE = Principal(user="alice", groups=frozenset())
BOB = Principal(user="bob", groups=frozenset())
ADMIN = Principal(user="root", groups=frozenset({"grid-admins"}))


@pytest.fixture
def manager():
    plans = PlanTable()
    task = Task(spec=TaskSpec(owner="alice"), work_seconds=10.0)
    job = Job(tasks=[task], owner="alice")
    plan = ConcreteJobPlan(job_id=job.job_id, bindings=(TaskBinding(task.task_id, "a"),))
    plans.restore(job, [plan])
    return SessionManager(plans), task, job


class TestTaskAuthorization:
    def test_owner_may_steer(self, manager):
        mgr, task, _ = manager
        mgr.authorize(ALICE, task.task_id)  # no exception
        assert mgr.may_steer(ALICE, task.task_id)

    def test_other_user_denied(self, manager):
        mgr, task, _ = manager
        with pytest.raises(SteeringAuthError):
            mgr.authorize(BOB, task.task_id)

    def test_anonymous_denied(self, manager):
        mgr, task, _ = manager
        with pytest.raises(SteeringAuthError):
            mgr.authorize(ANONYMOUS, task.task_id)

    def test_admin_group_allowed(self, manager):
        mgr, task, _ = manager
        mgr.authorize(ADMIN, task.task_id)

    def test_optimizer_principal_allowed(self, manager):
        mgr, task, _ = manager
        mgr.authorize(OPTIMIZER_PRINCIPAL, task.task_id)

    def test_unknown_task_raises(self, manager):
        mgr, _, _ = manager
        with pytest.raises(SteeringAuthError):
            mgr.authorize(ALICE, "ghost")

    def test_custom_admin_groups(self):
        plans = PlanTable()
        task = Task(spec=TaskSpec(owner="alice"), work_seconds=1.0)
        job = Job(tasks=[task], owner="alice")
        plans.restore(
            job,
            [ConcreteJobPlan(job_id=job.job_id, bindings=(TaskBinding(task.task_id, "a"),))],
        )
        mgr = SessionManager(plans, admin_groups=("ops",))
        ops = Principal(user="op1", groups=frozenset({"ops"}))
        mgr.authorize(ops, task.task_id)
        with pytest.raises(SteeringAuthError):
            mgr.authorize(ADMIN, task.task_id)  # grid-admins not recognised here


class TestJobAuthorization:
    def test_owner_allowed(self, manager):
        mgr, _, job = manager
        mgr.authorize_job(ALICE, job.job_id)

    def test_stranger_denied(self, manager):
        mgr, _, job = manager
        with pytest.raises(SteeringAuthError):
            mgr.authorize_job(BOB, job.job_id)

    def test_admin_allowed(self, manager):
        mgr, _, job = manager
        mgr.authorize_job(ADMIN, job.job_id)

    def test_unknown_job_raises(self, manager):
        mgr, _, _ = manager
        with pytest.raises(SteeringAuthError):
            mgr.authorize_job(ALICE, "ghost")
