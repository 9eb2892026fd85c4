"""Jobs, tasks, and concrete job plans.

Terminology follows the paper:

- a *task* is the atomic schedulable unit (§6.1: "an input task (the atomic
  component of a job)");
- a *job* is a set of tasks arranged in a directed acyclic graph (§2: "a
  large number of computing jobs are split up into a number of processing
  steps (arranged to follow a directed acyclic graph structure)");
- a *concrete job plan* is a job plan "precisely describing the nodes where
  the job will be executed" (§4.2.1), i.e. a binding of every task to an
  execution site.  The scheduler produces it and sends it to the steering
  service's Subscriber.

Task attributes deliberately mirror the SDSC Paragon accounting-trace fields
used in the paper's evaluation (account, login, partition, nodes, job type,
queue, requested CPU hours), because those are the features the runtime
estimator's similarity templates match on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


class JobState(enum.Enum):
    """Lifecycle of a task (and, in aggregate, of a job).

    The control verbs in §4 map to transitions:
    ``kill`` → KILLED, ``pause`` → PAUSED, ``resume`` → RUNNING,
    ``move`` → MOVED at the old site + re-queued at the new one.
    """

    PENDING = "pending"        # created, not yet submitted anywhere
    QUEUED = "queued"          # waiting in an execution-site queue
    RUNNING = "running"        # accruing wall-clock time on a node
    PAUSED = "paused"          # suspended by a steering command
    COMPLETED = "completed"    # finished successfully
    FAILED = "failed"          # execution error or site failure
    KILLED = "killed"          # removed by a steering command
    MOVED = "moved"            # terminal at the old site after a move

    @property
    def is_terminal(self) -> bool:
        """True for states a task never leaves."""
        return self in (JobState.COMPLETED, JobState.FAILED, JobState.KILLED, JobState.MOVED)

    @property
    def is_active(self) -> bool:
        """True while the task occupies queue or CPU at some site."""
        return self in (JobState.QUEUED, JobState.RUNNING, JobState.PAUSED)


class _IdCounter:
    """``itertools.count`` with an inspectable next value (checkpointable)."""

    __slots__ = ("next_value",)

    def __init__(self, start: int = 1) -> None:
        self.next_value = start

    def __next__(self) -> int:
        value = self.next_value
        self.next_value = value + 1
        return value


_task_counter = _IdCounter(1)
_job_counter = _IdCounter(1)


def _next_task_id() -> str:
    return f"task-{next(_task_counter):06d}"


def _next_job_id() -> str:
    return f"job-{next(_job_counter):06d}"


def reset_id_counters() -> None:
    """Reset the module-level id allocators (test isolation helper)."""
    _task_counter.next_value = 1
    _job_counter.next_value = 1


def snapshot_id_counters() -> Tuple[int, int]:
    """The next (task, job) id numbers the allocators would hand out."""
    return (_task_counter.next_value, _job_counter.next_value)


def restore_id_counters(task_next: int, job_next: int) -> None:
    """Re-seed the allocators so restored ids never collide with new ones."""
    _task_counter.next_value = int(task_next)
    _job_counter.next_value = int(job_next)


@dataclass(frozen=True, slots=True)
class TaskSpec:
    """The externally visible description of a task.

    These are the attributes a scheduler and the runtime estimator can see
    *before* the task runs.  ``requested_cpu_hours`` is the user's request
    (as in the Paragon trace), not the true runtime.
    """

    owner: str = "anonymous"
    account: str = "default"
    partition: str = "compute"
    queue: str = "standard"
    nodes: int = 1
    task_type: str = "batch"            # "batch" | "interactive"
    requested_cpu_hours: float = 1.0
    executable: str = "a.out"
    arguments: Tuple[str, ...] = ()
    input_files: Tuple[str, ...] = ()
    output_files: Tuple[str, ...] = ()
    priority: int = 0
    environment: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if self.requested_cpu_hours <= 0:
            raise ValueError(
                f"requested_cpu_hours must be positive, got {self.requested_cpu_hours}"
            )
        if self.task_type not in ("batch", "interactive"):
            raise ValueError(f"unknown task_type {self.task_type!r}")
        # Freeze the environment mapping so the spec is hashable-by-value.
        object.__setattr__(self, "environment", dict(self.environment))

    def attributes(self) -> Dict[str, object]:
        """The attribute dictionary similarity templates match on."""
        return {
            "owner": self.owner,
            "account": self.account,
            "partition": self.partition,
            "queue": self.queue,
            "nodes": self.nodes,
            "task_type": self.task_type,
            "executable": self.executable,
        }

    def with_priority(self, priority: int) -> "TaskSpec":
        """Return a copy with a different priority (steering verb)."""
        return replace(self, priority=priority)


@dataclass(slots=True)
class Task:
    """A schedulable unit of work.

    ``work_seconds`` is the ground-truth CPU time the task needs on one free
    CPU.  It is *hidden state*: the estimator service may only learn it from
    completed history records, never read it directly — that discipline is
    what makes the Figure 5 experiment honest.
    """

    spec: TaskSpec
    work_seconds: float
    task_id: str = field(default_factory=_next_task_id)
    job_id: Optional[str] = None
    state: JobState = JobState.PENDING
    checkpointable: bool = False
    #: Size of the checkpoint image a move must ship (0 = negligible).
    checkpoint_image_mb: float = 0.0

    def __post_init__(self) -> None:
        if self.work_seconds <= 0:
            raise ValueError(f"work_seconds must be positive, got {self.work_seconds}")

    @property
    def priority(self) -> int:
        return self.spec.priority

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Task({self.task_id}, {self.spec.executable}, "
            f"{self.work_seconds:.1f}s, {self.state.value})"
        )


class DependencyError(ValueError):
    """Raised for malformed task DAGs (cycles, unknown task ids)."""


@dataclass(slots=True)
class Job:
    """A DAG of tasks submitted as one unit.

    ``dependencies`` maps a task id to the ids of tasks that must complete
    first.  A job with no edges is an embarrassingly parallel bag of tasks.
    """

    tasks: List[Task]
    owner: str = "anonymous"
    job_id: str = field(default_factory=_next_job_id)
    dependencies: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("a job must contain at least one task")
        ids = [t.task_id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise DependencyError("duplicate task ids inside one job")
        known = set(ids)
        for tid, parents in self.dependencies.items():
            if tid not in known:
                raise DependencyError(f"dependency for unknown task {tid!r}")
            for parent in parents:
                if parent not in known:
                    raise DependencyError(f"unknown parent task {parent!r}")
        self._assert_acyclic()
        for task in self.tasks:
            task.job_id = self.job_id

    def _assert_acyclic(self) -> None:
        # Kahn's algorithm.
        indegree = {t.task_id: 0 for t in self.tasks}
        children: Dict[str, List[str]] = {t.task_id: [] for t in self.tasks}
        for tid, parents in self.dependencies.items():
            for parent in parents:
                indegree[tid] += 1
                children[parent].append(tid)
        frontier = [tid for tid, deg in indegree.items() if deg == 0]
        seen = 0
        while frontier:
            tid = frontier.pop()
            seen += 1
            for child in children[tid]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    frontier.append(child)
        if seen != len(self.tasks):
            raise DependencyError("task dependency graph contains a cycle")

    # ------------------------------------------------------------------
    def task(self, task_id: str) -> Task:
        """Look a task up by id (raises KeyError if absent)."""
        for t in self.tasks:
            if t.task_id == task_id:
                return t
        raise KeyError(task_id)

    def parents(self, task_id: str) -> Tuple[str, ...]:
        """Ids of tasks that must complete before *task_id* may start."""
        return self.dependencies.get(task_id, ())

    def ready_tasks(self, completed: Iterable[str]) -> List[Task]:
        """Tasks whose parents all appear in *completed* and are PENDING."""
        # The scheduler's set spans every job it knows; never copy a set.
        done = completed if isinstance(completed, (set, frozenset)) else set(completed)
        return [
            t
            for t in self.tasks
            if t.state is JobState.PENDING
            and t.task_id not in done
            and all(p in done for p in self.parents(t.task_id))
        ]

    def topological_order(self) -> List[Task]:
        """Tasks in an order compatible with the dependency DAG."""
        order: List[Task] = []
        done: set = set()
        remaining = {t.task_id: t for t in self.tasks}
        while remaining:
            progress = False
            for tid in list(remaining):
                if all(p in done for p in self.parents(tid)):
                    order.append(remaining.pop(tid))
                    done.add(tid)
                    progress = True
            if not progress:  # pragma: no cover - guarded by _assert_acyclic
                raise DependencyError("cycle detected during topological sort")
        return order

    @property
    def state(self) -> JobState:
        """Aggregate job state derived from task states.

        FAILED/KILLED dominate, then any in-flight activity, then COMPLETED
        only when every task completed.
        """
        states = {t.state for t in self.tasks}
        if JobState.FAILED in states:
            return JobState.FAILED
        if JobState.KILLED in states:
            return JobState.KILLED
        if JobState.RUNNING in states:
            return JobState.RUNNING
        if JobState.PAUSED in states:
            return JobState.PAUSED
        if JobState.QUEUED in states:
            return JobState.QUEUED
        if states == {JobState.COMPLETED}:
            return JobState.COMPLETED
        return JobState.PENDING


@dataclass(frozen=True, slots=True)
class TaskBinding:
    """One row of a concrete job plan: task → execution site."""

    task_id: str
    site_name: str


@dataclass(frozen=True, slots=True)
class ConcreteJobPlan:
    """A job plan "precisely describing the nodes where the job will be
    executed" (§4.2.1), produced by the scheduler and consumed by the
    steering service's Subscriber."""

    job_id: str
    bindings: Tuple[TaskBinding, ...]
    created_at: float = 0.0

    def site_for(self, task_id: str) -> str:
        """The site a task is bound to (KeyError if unbound)."""
        for b in self.bindings:
            if b.task_id == task_id:
                return b.site_name
        raise KeyError(task_id)

    def sites(self) -> List[str]:
        """Distinct execution sites used by the plan, in binding order."""
        seen: List[str] = []
        for b in self.bindings:
            if b.site_name not in seen:
                seen.append(b.site_name)
        return seen

    def rebind(self, task_id: str, new_site: str) -> "ConcreteJobPlan":
        """Return a plan with *task_id* moved to *new_site* (steering move)."""
        if task_id not in {b.task_id for b in self.bindings}:
            raise KeyError(task_id)
        bindings = tuple(
            TaskBinding(b.task_id, new_site if b.task_id == task_id else b.site_name)
            for b in self.bindings
        )
        return ConcreteJobPlan(job_id=self.job_id, bindings=bindings, created_at=self.created_at)


def sequential_job(specs: Sequence[TaskSpec], works: Sequence[float], owner: str = "anonymous") -> Job:
    """Build a chain job where each task depends on the previous one."""
    if len(specs) != len(works):
        raise ValueError("specs and works must have equal length")
    tasks = [Task(spec=s, work_seconds=w) for s, w in zip(specs, works)]
    deps = {
        tasks[i].task_id: (tasks[i - 1].task_id,)
        for i in range(1, len(tasks))
    }
    return Job(tasks=tasks, owner=owner, dependencies=deps)


def bag_of_tasks(specs: Sequence[TaskSpec], works: Sequence[float], owner: str = "anonymous") -> Job:
    """Build an embarrassingly parallel job (no dependencies)."""
    if len(specs) != len(works):
        raise ValueError("specs and works must have equal length")
    tasks = [Task(spec=s, work_seconds=w) for s, w in zip(specs, works)]
    return Job(tasks=tasks, owner=owner)


# ----------------------------------------------------------------------
# wire codecs (checkpoint/restore)
# ----------------------------------------------------------------------
def spec_to_wire(spec: TaskSpec) -> Dict[str, object]:
    """JSON-safe dict capturing every :class:`TaskSpec` field."""
    return {
        "owner": spec.owner,
        "account": spec.account,
        "partition": spec.partition,
        "queue": spec.queue,
        "nodes": spec.nodes,
        "task_type": spec.task_type,
        "requested_cpu_hours": spec.requested_cpu_hours,
        "executable": spec.executable,
        "arguments": list(spec.arguments),
        "input_files": list(spec.input_files),
        "output_files": list(spec.output_files),
        "priority": spec.priority,
        "environment": dict(spec.environment),
    }


def spec_from_wire(data: Mapping[str, object]) -> TaskSpec:
    """Inverse of :func:`spec_to_wire`."""
    fields_ = dict(data)
    for tuple_field in ("arguments", "input_files", "output_files"):
        fields_[tuple_field] = tuple(fields_.get(tuple_field, ()))  # type: ignore[arg-type]
    return TaskSpec(**fields_)  # type: ignore[arg-type]


def task_to_wire(task: Task) -> Dict[str, object]:
    """JSON-safe dict capturing one task, including hidden ground truth.

    Checkpoints are trusted system state, so ``work_seconds`` (the
    estimator-invisible truth) travels too — a restored grid must run
    the task for exactly the remaining time the original would have.
    """
    return {
        "spec": spec_to_wire(task.spec),
        "work_seconds": task.work_seconds,
        "task_id": task.task_id,
        "job_id": task.job_id,
        "state": task.state.value,
        "checkpointable": task.checkpointable,
        "checkpoint_image_mb": task.checkpoint_image_mb,
    }


def task_from_wire(data: Mapping[str, object]) -> Task:
    """Inverse of :func:`task_to_wire` (explicit id, no allocator draw)."""
    return Task(
        spec=spec_from_wire(data["spec"]),  # type: ignore[arg-type]
        work_seconds=data["work_seconds"],  # type: ignore[arg-type]
        task_id=data["task_id"],  # type: ignore[arg-type]
        job_id=data["job_id"],  # type: ignore[arg-type]
        state=JobState(data["state"]),
        checkpointable=bool(data["checkpointable"]),
        checkpoint_image_mb=data["checkpoint_image_mb"],  # type: ignore[arg-type]
    )


def plan_to_wire(plan: ConcreteJobPlan) -> Dict[str, object]:
    """JSON-safe dict capturing one concrete job plan."""
    return {
        "job_id": plan.job_id,
        "created_at": plan.created_at,
        "bindings": [[b.task_id, b.site_name] for b in plan.bindings],
    }


def plan_from_wire(data: Mapping[str, object]) -> ConcreteJobPlan:
    """Inverse of :func:`plan_to_wire`."""
    return ConcreteJobPlan(
        job_id=data["job_id"],  # type: ignore[arg-type]
        bindings=tuple(
            TaskBinding(task_id=task_id, site_name=site)
            for task_id, site in data["bindings"]  # type: ignore[union-attr]
        ),
        created_at=data["created_at"],  # type: ignore[arg-type]
    )


def job_to_wire(job: Job) -> Dict[str, object]:
    """JSON-safe dict capturing one job and all its tasks."""
    return {
        "job_id": job.job_id,
        "owner": job.owner,
        "description": job.description,
        "dependencies": {tid: list(parents) for tid, parents in job.dependencies.items()},
        "tasks": [task_to_wire(t) for t in job.tasks],
    }


def job_from_wire(data: Mapping[str, object]) -> Job:
    """Inverse of :func:`job_to_wire`.

    ``Job.__post_init__`` re-validates the DAG and re-stamps each task's
    ``job_id``; task states survive because they are set on the Task
    objects themselves.
    """
    return Job(
        tasks=[task_from_wire(t) for t in data["tasks"]],  # type: ignore[union-attr]
        owner=data["owner"],  # type: ignore[arg-type]
        job_id=data["job_id"],  # type: ignore[arg-type]
        dependencies={
            tid: tuple(parents)
            for tid, parents in data["dependencies"].items()  # type: ignore[union-attr]
        },
        description=data["description"],  # type: ignore[arg-type]
    )
