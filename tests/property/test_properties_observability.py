"""Property-based tests: tracing/journal invariants under site churn.

Whatever the fault injector does to the grid, every job that reaches a
terminal state must leave behind (a) a gap-free span tree — every span's
parent exists in the trace and no child starts before its parent — with
monotonically ordered sim-time stamps, and (b) a journal timeline that
starts at *submitted*, never goes backwards in time, and carries one
trace id end to end.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.steering.optimizer import SteeringPolicy
from repro.gae import build_gae
from repro.gridsim import GridBuilder, Job, Task, TaskSpec
from repro.gridsim.faults import FaultInjector
from repro.gridsim.job import JobState
from repro.events.journal import EventType

HORIZON_S = 8000.0

TERMINAL_EVENT = {
    JobState.COMPLETED: EventType.COMPLETED,
    JobState.KILLED: EventType.KILLED,
    JobState.FAILED: EventType.FAILED,
}


def run_faulty_gae(seed, mtbf_s, mttr_s, n_tasks):
    grid = (
        GridBuilder(seed=seed)
        .site("siteA", nodes=2, background_load=0.0)
        .site("siteB", nodes=2, background_load=0.0)
        .link("siteA", "siteB", capacity_mbps=100.0, latency_s=0.05)
        .probe_noise(0.0)
        .build()
    )
    gae = build_gae(grid, policy=SteeringPolicy(auto_move=False))
    tasks = [
        Task(spec=TaskSpec(owner="prop"), work_seconds=60.0 + 40.0 * i)
        for i in range(n_tasks)
    ]
    for task in tasks:
        gae.scheduler.submit_job(Job(tasks=[task], owner="prop"))
    injector = FaultInjector(gae.sim, rng=np.random.default_rng(seed))
    for site in ("siteA", "siteB"):
        injector.add_site(gae.grid.execution_services[site], mtbf_s=mtbf_s, mttr_s=mttr_s)
    gae.start()
    injector.start()
    gae.grid.run_until(HORIZON_S)
    gae.stop()
    return gae, tasks


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    mtbf_s=st.floats(min_value=400.0, max_value=5000.0),
    mttr_s=st.floats(min_value=50.0, max_value=500.0),
    n_tasks=st.integers(min_value=1, max_value=4),
)
def test_terminal_jobs_leave_ordered_gap_free_traces(seed, mtbf_s, mttr_s, n_tasks):
    gae, tasks = run_faulty_gae(seed, mtbf_s, mttr_s, n_tasks)
    obs = gae.observability
    terminal = [t for t in tasks if t.state.is_terminal]

    for task in terminal:
        trace_id = obs.trace_id_of(task.task_id)
        assert trace_id is not None

        # -- journal timeline ----------------------------------------
        timeline = obs.journal.timeline(task.task_id)
        assert timeline, f"terminal task {task.task_id} left no events"
        assert timeline[0].type is EventType.SUBMITTED
        times = [e.time for e in timeline]
        assert all(b >= a for a, b in zip(times, times[1:]))
        seqs = [e.seq for e in timeline]
        assert all(b > a for a, b in zip(seqs, seqs[1:]))
        assert {e.trace_id for e in timeline} == {trace_id}
        if task.state in TERMINAL_EVENT:
            assert TERMINAL_EVENT[task.state] in {e.type for e in timeline}

        # -- span tree -----------------------------------------------
        spans = obs.tracer.spans(trace_id)
        by_id = {s.span_id: s for s in spans}
        roots = [s for s in spans if s.name == f"task:{task.task_id}"]
        assert len(roots) == 1  # one root per task, however many retries
        for span in spans:
            if span.end is not None:
                assert span.end >= span.start
            if span.parent_id is not None:
                assert span.parent_id in by_id, (
                    f"gap in trace: {span.name} parents a missing span"
                )
                assert span.start >= by_id[span.parent_id].start
        if task.state is JobState.COMPLETED:
            assert roots[0].status == "ok"
        elif task.state is JobState.KILLED:
            assert roots[0].status == "killed"
        # A FAILED root stays open on purpose: recovery may resubmit.

        # Every timeline event's span is part of the same trace.
        for event in timeline:
            if event.span_id is not None:
                assert event.span_id in by_id
