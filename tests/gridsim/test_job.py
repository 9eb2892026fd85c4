"""Unit tests for tasks, jobs, DAGs and concrete job plans."""

import copy
import json
import pickle

import pytest

from repro.gridsim.job import (
    ConcreteJobPlan,
    DependencyError,
    Job,
    JobState,
    PlanTable,
    Task,
    TaskBinding,
    TaskSpec,
    bag_of_tasks,
    job_to_wire,
    sequential_job,
    spec_from_wire,
    spec_to_wire,
)


def make_task(work=100.0, **spec_kwargs):
    return Task(spec=TaskSpec(**spec_kwargs), work_seconds=work)


class TestTaskSpec:
    def test_defaults(self):
        spec = TaskSpec()
        assert spec.nodes == 1
        assert spec.task_type == "batch"

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            TaskSpec(nodes=0)

    def test_invalid_requested_hours(self):
        with pytest.raises(ValueError):
            TaskSpec(requested_cpu_hours=0.0)

    def test_invalid_task_type(self):
        with pytest.raises(ValueError):
            TaskSpec(task_type="weird")

    def test_attributes_cover_template_fields(self):
        attrs = TaskSpec(owner="u", executable="e").attributes()
        assert attrs["owner"] == "u"
        assert attrs["executable"] == "e"
        assert set(attrs) == {
            "owner", "account", "partition", "queue", "nodes", "task_type", "executable",
        }

    def test_with_priority_returns_copy(self):
        spec = TaskSpec(priority=0)
        updated = spec.with_priority(9)
        assert updated.priority == 9
        assert spec.priority == 0

    def test_a_frozen_spec_is_hashable_consistently_with_equality(self):
        env = {"B": "2", "A": "1"}
        spec = TaskSpec(owner="u", environment=env)
        twin = TaskSpec(owner="u", environment=dict(reversed(env.items())))
        assert spec == twin and hash(spec) == hash(twin)
        assert hash(TaskSpec()) == hash(TaskSpec(environment={}))
        assert len({spec, twin, TaskSpec(), TaskSpec()}) == 2
        assert spec != TaskSpec(owner="u", environment={"A": "1"})

    def test_the_environment_is_read_only(self):
        env = {"A": "1"}
        spec = TaskSpec(environment=env)
        with pytest.raises(TypeError):
            spec.environment["X"] = "y"  # type: ignore[index]
        env["X"] = "y"  # the caller's dict is not the spec's
        assert dict(spec.environment) == {"A": "1"}
        assert TaskSpec().environment == {} and TaskSpec() == TaskSpec(environment={})

    def test_pickle_and_deepcopy_keep_the_spec(self):
        spec = TaskSpec(owner="u", environment={"A": "1"}, input_files=("in.dat",))
        job = Job(tasks=[Task(spec=spec, work_seconds=10.0)], owner="u")
        for copied in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert copied == spec and hash(copied) == hash(spec)
        for copied in (pickle.loads(pickle.dumps(job)), copy.deepcopy(job)):
            assert job_to_wire(copied) == job_to_wire(job)

    def test_the_wire_form_is_a_plain_dict(self):
        spec = TaskSpec(environment={"A": "1"})
        wire = spec_to_wire(spec)
        assert type(wire["environment"]) is dict
        assert json.dumps(wire["environment"]) == '{"A": "1"}'
        assert spec_from_wire(wire) == spec


class TestTask:
    def test_work_must_be_positive(self):
        with pytest.raises(ValueError):
            Task(spec=TaskSpec(), work_seconds=0.0)

    def test_tasks_of_alike_specs_hold_one(self):
        """Live tasks hold one spec per distinct value, and a steering
        verb's re-prioritised copy is shared the same way."""
        first, second = (make_task(owner="shared", priority=3) for _ in range(2))
        assert first.spec is second.spec
        assert first.spec.with_priority(4) is second.spec.with_priority(4)

    def test_a_spec_stands_only_for_one_alike_in_type(self):
        """``2`` and ``2.0`` CPU hours make equal specs, not alike ones: a
        task given the ``2`` spec after one given ``2.0`` keeps its own."""
        given_float = make_task(owner="exact", requested_cpu_hours=2.0).spec
        given_int = make_task(owner="exact", requested_cpu_hours=2).spec
        assert given_int == given_float and given_int is not given_float
        assert repr(given_int.requested_cpu_hours) == "2"
        assert repr(given_float.requested_cpu_hours) == "2.0"

    def test_a_spec_subclass_is_kept_as_given(self):
        class Tagged(TaskSpec):
            pass

        specs = [Tagged(owner="tagged"), Tagged(owner="tagged")]
        tasks = [Task(spec=spec, work_seconds=10.0) for spec in specs]
        assert specs[0] == specs[1]
        assert [task.spec for task in tasks] == specs
        assert all(task.spec is spec for task, spec in zip(tasks, specs))

    def test_unique_ids(self):
        a, b = make_task(), make_task()
        assert a.task_id != b.task_id

    def test_initial_state_pending(self):
        assert make_task().state is JobState.PENDING


class TestJobStates:
    def test_terminal_states(self):
        for state in (JobState.COMPLETED, JobState.FAILED, JobState.KILLED, JobState.MOVED):
            assert state.is_terminal
        for state in (JobState.PENDING, JobState.QUEUED, JobState.RUNNING, JobState.PAUSED):
            assert not state.is_terminal

    def test_active_states(self):
        assert JobState.RUNNING.is_active
        assert JobState.QUEUED.is_active
        assert JobState.PAUSED.is_active
        assert not JobState.PENDING.is_active
        assert not JobState.COMPLETED.is_active


class TestJob:
    def test_requires_tasks(self):
        with pytest.raises(ValueError):
            Job(tasks=[])

    def test_tasks_inherit_job_id(self):
        t = make_task()
        job = Job(tasks=[t])
        assert t.job_id == job.job_id

    def test_duplicate_task_ids_rejected(self):
        t = make_task()
        with pytest.raises(DependencyError):
            Job(tasks=[t, t])

    def test_unknown_dependency_target_rejected(self):
        t = make_task()
        with pytest.raises(DependencyError):
            Job(tasks=[t], dependencies={"nope": (t.task_id,)})

    def test_unknown_parent_rejected(self):
        t = make_task()
        with pytest.raises(DependencyError):
            Job(tasks=[t], dependencies={t.task_id: ("ghost",)})

    def test_cycle_rejected(self):
        a, b = make_task(), make_task()
        with pytest.raises(DependencyError):
            Job(tasks=[a, b], dependencies={a.task_id: (b.task_id,), b.task_id: (a.task_id,)})

    def test_self_cycle_rejected(self):
        a = make_task()
        with pytest.raises(DependencyError):
            Job(tasks=[a], dependencies={a.task_id: (a.task_id,)})

    def test_task_lookup(self):
        a = make_task()
        job = Job(tasks=[a])
        assert job.task(a.task_id) is a
        with pytest.raises(KeyError):
            job.task("missing")

    def test_topological_order_valid(self):
        a, b, c, d = (make_task() for _ in range(4))
        job = Job(
            tasks=[d, c, b, a],
            dependencies={
                b.task_id: (a.task_id,),
                c.task_id: (a.task_id,),
                d.task_id: (b.task_id, c.task_id),
            },
        )
        order = [t.task_id for t in job.topological_order()]
        assert order.index(a.task_id) < order.index(b.task_id)
        assert order.index(a.task_id) < order.index(c.task_id)
        assert order.index(b.task_id) < order.index(d.task_id)
        assert order.index(c.task_id) < order.index(d.task_id)

    def test_aggregate_state_precedence(self):
        a, b = make_task(), make_task()
        job = Job(tasks=[a, b])
        assert job.state is JobState.PENDING
        a.state = JobState.QUEUED
        assert job.state is JobState.QUEUED
        a.state = JobState.RUNNING
        assert job.state is JobState.RUNNING
        b.state = JobState.FAILED
        assert job.state is JobState.FAILED
        b.state = JobState.COMPLETED
        a.state = JobState.COMPLETED
        assert job.state is JobState.COMPLETED


class TestConcreteJobPlan:
    def make_plan(self):
        a, b = make_task(), make_task()
        job = Job(tasks=[a, b])
        plan = ConcreteJobPlan(
            job_id=job.job_id,
            bindings=(
                TaskBinding(a.task_id, "siteA"),
                TaskBinding(b.task_id, "siteB"),
            ),
        )
        return job, plan, a, b

    def test_site_for(self):
        _, plan, a, b = self.make_plan()
        assert plan.site_for(a.task_id) == "siteA"
        assert plan.site_for(b.task_id) == "siteB"

    def test_site_for_unknown_raises(self):
        _, plan, _, _ = self.make_plan()
        with pytest.raises(KeyError):
            plan.site_for("ghost")

    def test_sites_deduplicated_in_order(self):
        a, b = make_task(), make_task()
        plan = ConcreteJobPlan(
            job_id="j",
            bindings=(TaskBinding(a.task_id, "s1"), TaskBinding(b.task_id, "s1")),
        )
        assert plan.sites() == ["s1"]


class TestPlanTable:
    def make_table(self):
        a, b, c = make_task(), make_task(), make_task()
        job = Job(
            tasks=[a, b, c],
            dependencies={b.task_id: (a.task_id,), c.task_id: (a.task_id,)},
        )
        bindings = tuple(TaskBinding(t.task_id, "siteA") for t in job.tasks)
        table = PlanTable()
        table.restore(job, [ConcreteJobPlan(job_id=job.job_id, bindings=bindings, created_at=5.0)])
        return table, job, a, b, c

    def test_a_restored_history_is_the_current_plan_and_its_revisions(self):
        """The last plan binds the tasks, the earlier ones are its history."""
        table, job, a, b, c = self.make_table()
        first = table.plan(job.job_id)
        later = ConcreteJobPlan(
            job_id=job.job_id,
            bindings=(TaskBinding(a.task_id, "siteB"), *first.bindings[1:]),
            created_at=9.0,
        )
        fresh = PlanTable()
        fresh.restore(job, [first, later])
        assert fresh.jobs == {job.job_id: job}
        assert fresh.tasks == {t.task_id: t for t in (a, b, c)}
        assert [a.site, b.site, c.site] == ["siteB", "siteA", "siteA"]
        assert fresh.plan(job.job_id) == later
        assert fresh.history(job.job_id) == [first, later]

    def test_children_follow_dependencies(self):
        table, _, a, b, c = self.make_table()
        assert table.children(a.task_id) == (b, c)
        assert table.children(b.task_id) == ()

    def test_a_rebind_is_one_revision(self):
        table, job, a, b, _ = self.make_table()
        first = table.plan(job.job_id)
        table.rebind(a, "siteC")
        now = table.plan(job.job_id)
        assert now.site_for(a.task_id) == "siteC" == a.site
        assert now.site_for(b.task_id) == "siteA"
        assert first.site_for(a.task_id) == "siteA"  # a plan is a value
        assert table.history(job.job_id) == [first, now]
        assert now.created_at == first.created_at == 5.0

    def test_rebinding_a_task_of_an_unknown_job_raises(self):
        table, *_ = self.make_table()
        with pytest.raises(KeyError):
            table.rebind(make_task(), "siteC")


class TestJobFactories:
    def test_sequential_job_chains_dependencies(self):
        specs = [TaskSpec(executable=f"s{i}") for i in range(3)]
        job = sequential_job(specs, [10.0, 20.0, 30.0])
        order = job.topological_order()
        assert [t.spec.executable for t in order] == ["s0", "s1", "s2"]

    def test_sequential_job_length_mismatch(self):
        with pytest.raises(ValueError):
            sequential_job([TaskSpec()], [1.0, 2.0])

    def test_bag_of_tasks_has_no_dependencies(self):
        job = bag_of_tasks([TaskSpec(), TaskSpec()], [5.0, 6.0])
        assert job.dependencies == {}
        assert job.topological_order() == job.tasks
