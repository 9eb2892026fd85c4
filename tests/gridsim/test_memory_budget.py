"""What one live job may cost the serving process, asserted as counts.

``peak_rss_mb`` of the end-to-end benchmark is the timed-run version of
these claims; here they are bytes of traced heap and operation counts, so
they repeat exactly and cannot flake.  ``docs/ARCHITECTURE.md`` "Memory
budget" says where the bytes sit.
"""

import gc
import subprocess
import sys
import tracemalloc

import pytest

from repro.clarens.transport import LoopbackTransport
from repro.events.journal import EventJournal, EventType, JournalEvent
from repro.gae import SteeringPolicy, build_gae
from repro.gridsim import GridBuilder
from repro.gridsim.job import EMPTY_MAPPING, Job, JobState, Task, TaskSpec
from repro.observability.tracing import Span, SpanRef

QUIET = SteeringPolicy(auto_move=False, poll_interval_s=3_600.0)


def two_site_gae(observability):
    grid = (
        GridBuilder(seed=3)
        .site("siteA", nodes=2, cpus_per_node=2)
        .site("siteB", nodes=2, cpus_per_node=2)
        .link("siteA", "siteB", capacity_mbps=622.0, latency_s=0.05)
        .probe_noise(0.0)
        .build()
    )
    gae = build_gae(grid, observability=observability, policy=QUIET)
    gae.start()
    return gae


def rig(jobs, observability):
    gae = two_site_gae(observability)
    for i in range(jobs):
        task = Task(spec=TaskSpec(owner="u", priority=i % 5), work_seconds=100.0 + i % 7)
        gae.scheduler.submit_job(Job(tasks=[task], owner="u"))
    return gae


def traced_heap(jobs, observability):
    """Bytes still allocated by a rig of *jobs* live single-task jobs."""
    gc.collect()
    tracemalloc.start()
    try:
        gae = rig(jobs, observability)
        gc.collect()
        size = tracemalloc.get_traced_memory()[0]
        assert len(gae.scheduler.jobs()) == jobs  # and the rig is alive while measured
        return size
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "observability, window, budget",
    [(False, (1_000, 4_000), 1_434), (True, (3_000, 6_000), 2_670)],
    ids=["bare", "journal"],
)
def test_heap_per_live_job_stays_inside_the_budget(observability, window, budget):
    # Bare: 2 379 B before slotted records, 1 611.7 since, 1 371.7 since a
    # live job shares one empty value for each container it has not
    # written (an ad's nodes and outputs, a spec's environment, a job's
    # dependencies).  Journalled, in a window where the 8 192-span ring is
    # full at both ends (a job opens four spans at admission, so it fills
    # at 2 048 jobs): 4 367.4 while the trace records held their spans,
    # 3 407.8 since they hold ids, 3 095.8 since a journal row keeps its
    # payload as a values tuple and a task record no root ``SpanContext``,
    # 2 798.5 (later 2 794.7) since the ring keeps columns, not row
    # objects, 2 554.7 since the shared empty values, 2 562.2 since a job
    # trace carries its all-ok flag (+4.5 % of 2 554.7 is the budget).
    rig(50, observability)  # one-off allocations (caches, lazy imports) land here
    small, large = (traced_heap(jobs, observability) for jobs in window)
    per_job = (large - small) / (window[1] - window[0])
    assert per_job <= budget, per_job


def test_a_live_job_holds_no_empty_container_of_its_own():
    """A queued ad, a DAG-less job and a spec without an environment hold
    the one shared empty value, not a list or dict each (240 B a job)."""
    gae = rig(200, observability=False)
    jobs = gae.scheduler.jobs()
    specs = [task.spec for job in jobs for task in job.tasks]
    queued = [ad for site in gae.grid.sites.values() for ad in site.pool.queue_snapshot()]
    assert len(specs) == 200 and len(queued) >= 150
    for values, empty in (
        ([ad.allocated for ad in queued], ()),
        ([ad.local_output_files for ad in queued], ()),
        ([job.dependencies for job in jobs], EMPTY_MAPPING),
        ([spec.environment for spec in specs], EMPTY_MAPPING),
        ([spec.with_priority(7).environment for spec in specs], EMPTY_MAPPING),
    ):
        assert values[0] == empty and len({id(value) for value in values}) == 1


def test_the_span_ring_owns_every_span():
    """A span lives exactly as long as its ring slot: 4 000 admitted jobs
    open ~16 000 spans, the process keeps no ``Span`` and no handle
    (``SpanRef``) beyond the active stack, and no trace record holds one."""
    gae = rig(4_000, observability=True)
    obs = gae.observability
    tracer = obs.tracer
    traces = {record.trace_id for record in obs._jobs.values()}
    records = [*obs._tasks.values(), *obs._jobs.values()]
    gc.collect()
    objects = gc.get_objects()
    alive = sum(isinstance(o, Span) and o.trace_id in traces for o in objects)
    refs = sum(isinstance(o, SpanRef) and o._tracer is tracer for o in objects)
    assert len(tracer) == tracer.capacity
    assert alive == 0, alive  # the ring keeps columns: a Span exists only while read
    assert refs <= len(tracer._active.stack), refs
    assert not any(
        isinstance(getattr(record, slot), (Span, SpanRef))
        for record in records for slot in type(record).__slots__
    )


def test_a_full_ring_of_served_calls_holds_each_span_inside_the_budget():
    """What one served call leaves in a full 8 192-span ring: its slots in
    the ring's columns, its trace id and id counter, its timings and
    attribute values — no ``Span``, and no copy of the span name, method
    path or user name the host already holds.  Loopback
    ``jobmon.job_status`` as ``alice``, read cache off: 642.3 B/span while
    each span carried its own copies, 518.3 since, 94.8 since the ring keeps
    columns (+4.5 % is the budget).  What is traced is what the turn-over
    allocated and kept: the trace id string and the id's int; the values
    tuple and the duration float reuse the ones the evicted span freed."""
    grid = GridBuilder(seed=3).site("siteA", nodes=2).site("siteB", nodes=2).build()
    gae = build_gae(grid, read_cache=False).start()
    gae.add_user("alice", "pw")
    task = Task(spec=TaskSpec(owner="alice"), work_seconds=500.0)
    gae.scheduler.submit_job(Job(tasks=[task], owner="alice"))
    gae.sim.run_until(30.0)
    loop = LoopbackTransport(gae.host)
    token = loop.call("system.login", ["alice", "pw"])
    ring = gae.host.tracer.capacity

    def serve(calls):
        for _ in range(calls):
            loop.call("jobmon.job_status", [task.task_id], token=token)

    serve(2 * ring)  # the ring holds served calls only; reservoirs are at size
    gc.collect()
    tracemalloc.start()
    try:
        serve(ring)  # every slot turns over once: what is traced is the ring
        gc.collect()
        per_span = tracemalloc.get_traced_memory()[0] / ring
    finally:
        tracemalloc.stop()
    assert len(gae.host.tracer) == ring == 8_192
    assert per_span <= 99, per_span
    tracer = gae.host.tracer
    traces = set(tracer._columns[1])  # the trace-id column, read without building a Span
    alive = sum(
        isinstance(o, Span) and o.trace_id in traces
        or isinstance(o, SpanRef) and o._tracer is tracer
        for o in gc.get_objects()
    )
    assert alive == 0, alive


def test_a_full_journal_ring_keeps_columns_not_rows():
    """What one retained lifecycle row costs once the ring is full: its
    nine column slots (72 B) and their share of the deques' blocks, and
    no ``JournalEvent`` — a reader builds rows on demand.  147.9 B/row
    while the ring held a row object and a ``seq`` int each, 74.5 since
    (budget 80)."""
    rows = 20_000
    marker = "full-ring-task"
    gc.collect()
    tracemalloc.start()  # before the ring exists, so its deque blocks count
    try:
        journal = EventJournal(lambda: 5.0, capacity=rows)
        for _ in range(rows):
            journal.record(
                EventType.STARTED, marker, job_id="job-1", site="siteA",
                trace_id="trace-1", span_id="span-1",
            )
        gc.collect()
        per_row = tracemalloc.get_traced_memory()[0] / rows
    finally:
        tracemalloc.stop()
    alive = sum(isinstance(o, JournalEvent) and o.task_id == marker for o in gc.get_objects())
    assert len(journal) == rows and alive == 0
    assert per_row <= 80, per_row


class _CountingSet(set):
    """A set whose point operations are counted (each is O(1))."""

    operations = 0

    def add(self, item):
        type(self).operations += 1
        super().add(item)

    def __contains__(self, item):
        type(self).operations += 1
        return super().__contains__(item)


def test_a_2000_task_job_admits_and_completes_in_linear_set_work():
    """No per-job record may make admission or completion linear in the
    job's own size: the work on them is counted for one bag of 2 000."""
    tasks = 2_000
    gae = two_site_gae(observability=True)
    scheduler, obs = gae.scheduler, gae.observability
    _CountingSet.operations = 0
    scheduler._submitted = _CountingSet()
    scheduler._completed = _CountingSet()
    job = Job(
        tasks=[Task(spec=TaskSpec(owner="u"), work_seconds=10.0) for _ in range(tasks)],
        owner="u",
    )
    scheduler.submit_job(job)
    admitted = _CountingSet.operations
    assert len(scheduler._submitted) == tasks
    assert admitted <= 4 * tasks, admitted

    gae.grid.run_until(tasks * 10.0 / 8 + 600.0)
    assert job.state is JobState.COMPLETED
    assert scheduler._completed == {t.task_id for t in job.tasks}
    # One add per completion; the ready-scan after it tests no task that
    # is past PENDING, so a bag adds nothing more.
    assert _CountingSet.operations - admitted <= 2 * tasks
    # The trace records: one shared id tuple, a countdown, a flag per task,
    # and a published-state tuple that cannot outgrow the state enum.
    trace = obs._jobs[job.job_id]
    assert len(trace.task_ids) == tasks and trace.unfinished == 0
    # The ring owns the spans: it holds the newest of this job's ~10 000,
    # every one closed, and the job span, opened first, has left it — no
    # record keeps it alive.
    ring = obs.tracer.spans(trace.trace_id)
    assert len(ring) == obs.tracer.capacity and all(s.end is not None for s in ring)
    assert trace.span_id not in {s.span_id for s in ring}
    records = [obs._tasks[tid] for tid in trace.task_ids]
    assert all(r.finished for r in records)
    assert max(len(r.published_states) for r in records) <= len(JobState)


SERVE_ONE_JOB = """
import sys
from repro import AsyncSocketServerHandle, ClarensClient, GridBuilder, build_gae
from repro.gridsim.job import Job, Task, TaskSpec

grid = (
    GridBuilder(seed=1).site("a", nodes=1).site("b", nodes=1)
    .link("a", "b", capacity_mbps=100.0).file("in.dat", size_mb=10.0, at="a").build()
)
gae = build_gae(grid, observability=True)
gae.add_user("u", "p")
gae.start()
with AsyncSocketServerHandle(gae.host) as handle:
    client = ClarensClient(handle.url, codec="json")
    client.login("u", "p")
    spec = TaskSpec(owner="u", input_files=("in.dat",))
    gae.scheduler.submit_job(Job(tasks=[Task(spec=spec, work_seconds=50.0)], owner="u"))
    grid.run_until(200.0)
    assert client.call("system.ping")
    client.close()
print(sorted(m for m in UNSERVED if m in sys.modules))
"""

#: What a framed-socket host never uses: the third-party graph/science
#: stacks, the HTTP/XML-RPC front end and its stdlib (``pydoc`` comes with
#: ``xmlrpc.server``), an event-loop framework (the framed server is one
#: ``selectors`` thread), and the packages around the served services.
UNSERVED = (
    "networkx", "scipy",
    "xmlrpc", "http.client", "http.server", "email", "socketserver", "pydoc",
    "asyncio", "ssl", "concurrent.futures",
    "repro.scenarios", "repro.analysis", "repro.webui", "repro.workloads", "repro.cli",
)


def test_serving_process_imports_neither_networkx_nor_scipy():
    """Routing a stage-in, serving a framed ``json`` socket and journalling
    a job need numpy and the standard library only (networkx alone was
    12.6 MB), and load nothing of the other front end, of asyncio, or of
    the scenario, analysis, web UI, workload or CLI packages."""
    out = subprocess.run(
        [sys.executable, "-c", f"UNSERVED = {UNSERVED!r}\n{SERVE_ONE_JOB}"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_every_package_name_resolves_in_a_fresh_interpreter():
    """``repro`` resolves its names on first access: each one still
    imports, and ``dir(repro)`` lists them before any is touched."""
    script = (
        "import repro\n"
        "listed = set(dir(repro)) >= set(repro.__all__)\n"
        "from repro import *\n"
        "assert all(name in globals() for name in repro.__all__)\n"
        "print(listed)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"
