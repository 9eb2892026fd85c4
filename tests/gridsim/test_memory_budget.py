"""What one live job may cost the serving process, asserted as counts.

``peak_rss_mb`` of the end-to-end benchmark is the timed-run version of
these claims; here they are bytes of traced heap and operation counts, so
they repeat exactly and cannot flake.  ``docs/ARCHITECTURE.md`` "Memory
budget" says where the bytes sit.
"""

import ast
import gc
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import repro
from repro.clarens.transport import LoopbackTransport
from repro.events.journal import EventJournal, EventType, JournalEvent
from repro.gae import build_gae
from repro.gridsim import GridBuilder
from repro.gridsim.job import (
    EMPTY_MAPPING, ConcreteJobPlan, Job, JobState, Task, TaskBinding, TaskSpec, plan_to_wire,
)
from repro.observability.tracing import Span, SpanRef
from tests.gridsim.heap_ledger import breaches, ledger, render, rig, two_site_gae
from tests.property.test_properties_rng import EagerStreams


@pytest.mark.parametrize("mode", ["bare", "journal", "distinct"])
def test_heap_per_live_job_stays_inside_the_budget(mode):
    """The heap ledger (``heap_ledger.py``): each owner of a live job's
    bytes, and their sum, inside its budget; ``-s`` prints the table.

    Totals on 3.11, bare: 2 379 B before slotted records, 1 611.7 since,
    1 371.7 since a live job shares one empty value for each container it
    has not written (an ad's nodes and outputs, a spec's environment, a
    job's dependencies), 933.1 since each live-task fact has one home (the
    plan table holds jobs, tasks and bindings once, for the scheduler and
    the subscriber; no submitted/completed sets; bands found, not kept).
    Journalled: 4 367.4 while the trace records held their spans, 3 407.8
    since they hold ids, 3 095.8 since a journal row keeps its payload as a
    values tuple and a task record no root ``SpanContext``, 2 798.5 (later
    2 794.7) since the ring keeps columns, not row objects, 2 554.7 since
    the shared empty values, 2 562.2 since a job trace carries its all-ok
    flag, 1 793.4 since one home per fact and span ids kept as numbers.
    Since tasks share one spec per distinct spec and journal rows one
    values tuple per distinct payload: bare 773.1, journalled 1 529.4.
    ``distinct`` (no two tasks alike, so nothing to share) reads 2 171.6
    without the sharing and 2 169.1 with it: the tables cost no job."""
    per_owner = ledger(mode)
    print(render(mode, per_owner))
    assert not breaches(mode, per_owner)


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
    traces = {record.job.trace_id for record in obs._tasks.values()}
    records = [*obs._tasks.values(), *(record.job for record in obs._tasks.values())]
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
    traces = set(tracer._ring.columns[1])  # the trace-id column, read without building a Span
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


class _CountedTasks(list):
    """A job's task list that counts the tasks an iteration visits."""

    visits = 0

    def __iter__(self):
        for task in super().__iter__():
            type(self).visits += 1
            yield task


def test_a_2000_task_job_admits_and_completes_in_linear_set_work(monkeypatch):
    """Neither the ready scan nor a binding lookup may make admission or
    completion linear in the job's own size: the tasks the scheduler
    visits in the job's list and the bindings it visits in a plan are
    counted for one bag of 2 000.  (A rescan of every task after each
    completion and a binding scan per lookup visited ~4.0 M and ~8.0 M.)"""
    tasks = 2_000
    gae = two_site_gae(observability=True)
    scheduler, obs = gae.scheduler, gae.observability
    visited = {"bindings": 0}

    def counted_site_for(plan, task_id):
        for binding in plan.bindings:
            visited["bindings"] += 1
            if binding.task_id == task_id:
                return binding.site_name
        raise KeyError(task_id)

    monkeypatch.setattr(ConcreteJobPlan, "site_for", counted_site_for)
    job = Job(
        tasks=_CountedTasks(Task(spec=TaskSpec(owner="u"), work_seconds=10.0) for _ in range(tasks)),
        owner="u",
    )
    _CountedTasks.visits = 0
    scheduler.submit_job(job)
    gae.grid.run_until(tasks * 10.0 / 8 + 600.0)
    # Five passes: two topological orders (planning, the plan built for
    # the listeners), the plan table, the trace records, the ready scan.
    assert _CountedTasks.visits <= 6 * tasks, _CountedTasks.visits
    assert visited["bindings"] <= 2 * tasks, visited
    assert job.state is JobState.COMPLETED
    # The trace records: a job record shared by its tasks, a countdown,
    # a flag per task, and a published-state tuple that cannot outgrow
    # the state enum.
    records = [obs._tasks[t.task_id] for t in job.tasks]
    trace = records[0].job
    assert all(r.job is trace for r in records) and trace.unfinished == 0
    # The ring owns the spans: it holds the newest of this job's ~10 000,
    # every one closed, and the job span, opened first, has left it — no
    # record keeps it alive.
    ring = obs.tracer.spans(trace.trace_id)
    assert len(ring) == obs.tracer.capacity and all(s.end is not None for s in ring)
    assert obs.tracer.render_id(trace.span_id) not in {s.span_id for s in ring}
    assert all(r.finished for r in records)
    assert max(len(r.published_states) for r in records) <= len(JobState)


def test_k_moves_of_an_n_task_job_hold_n_plus_k_bindings():
    """A move revises one binding, so the plan history keeps one binding
    per move, not a copy of the plan (200 moves in a 2 000-task job held
    +21.5 MB as copies); the checkpointed history is still every plan the
    scheduler emitted, byte for byte."""
    tasks, moves = 500, 60
    gae = two_site_gae(observability=False)
    sent = []
    gae.scheduler.plan_listeners.append(lambda plan, job: sent.append(plan_to_wire(plan)))
    job = Job(tasks=[Task(spec=TaskSpec(owner="u"), work_seconds=1e6) for _ in range(tasks)], owner="u")
    gae.scheduler.submit_job(job)
    moved = job.tasks[-1]
    for _ in range(moves):
        target = "siteA" if gae.scheduler.site_of_task(moved.task_id) == "siteB" else "siteB"
        assert gae.steering.command_processor.move(moved.task_id, target).ok
    gc.collect()
    held = sum(isinstance(o, TaskBinding) for o in gc.get_objects())
    assert held <= tasks + moves, held
    [exported] = gae.scheduler.snapshot_state()["jobs"]
    assert exported["plan_history"] == sent and len(sent) == moves + 1


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
    the scenario, analysis, web UI, workload or CLI packages.  numpy is
    loaded here by the stage-in's noisy iperf probe, whose first draw seeds
    the ``iperf`` stream; a host that serves no draw never loads it
    (``test_a_framed_host_loads_no_numpy_with_its_first_fit``).  For the
    same reason ``UNSERVED`` cannot name ``hashlib`` / ``secrets``:
    ``numpy.random`` imports ``secrets``, and with it OpenSSL, so this
    drawing host loads them; the non-drawing host of that test does not."""
    out = subprocess.run(
        [sys.executable, "-c", f"UNSERVED = {UNSERVED!r}\n{SERVE_ONE_JOB}"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


#: The packages of the served services.  The simulator (``gridsim``,
#: ``workloads``, ``scenarios``) and ``analysis`` keep numpy for their draws.
NUMPY_FREE = ("core", "clarens", "monalisa", "events", "store", "observability")


def numpy_imports(path):
    """``(line, name)`` of every import of numpy in one source file: at
    module level, inside a function and under ``TYPE_CHECKING`` alike, and
    ``import_module`` / ``__import__`` of a literal name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Call) and (
            getattr(node.func, "attr", getattr(node.func, "id", None))
            in ("import_module", "__import__")
        ):
            names = [a.value for a in node.args[:1] if isinstance(a, ast.Constant)]
        else:
            continue
        found += [(node.lineno, n) for n in names if str(n).split(".")[0] == "numpy"]
    return found


def test_no_service_package_imports_numpy():
    """§6's estimators, the Clarens host, MonALISA, the event core, the
    stores and the observability layer compute in the standard library, so
    nothing a host serves can load numpy; only a draw does."""
    src = Path(repro.__file__).parent
    files = [path for package in NUMPY_FREE for path in sorted((src / package).rglob("*.py"))]
    assert {path.relative_to(src).parts[0] for path in files} == set(NUMPY_FREE)
    offenders = {str(path.relative_to(src)): numpy_imports(path) for path in files}
    assert {path: found for path, found in offenders.items() if found} == {}


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


SERVE_POLLS = """
import json, sys
from repro.clarens.aio import AsyncSocketServerHandle
from repro.clarens.client import ClarensClient
from repro.events.journal import EventType
from repro.gae import SteeringPolicy, build_gae
from repro.gridsim import GridBuilder
from repro.gridsim.job import Job, Task, TaskSpec

grid = (
    GridBuilder(seed=5)
    .site("siteA", nodes=8, cpus_per_node=4).site("siteB", nodes=8, cpus_per_node=4)
    .link("siteA", "siteB", capacity_mbps=622.0, latency_s=0.05).probe_noise(0.0).build()
)
gae = build_gae(grid, policy=SteeringPolicy(auto_move=False, poll_interval_s=3_600.0))
gae.add_user("u", "p")
gae.start()
tasks = []
for i in range(300):
    work = 150.0 + 0.1 * i
    spec = TaskSpec(owner="u", priority=i % 5, requested_cpu_hours=work / 3_000.0)
    tasks.append(Task(spec=spec, work_seconds=work))
    gae.scheduler.submit_job(Job(tasks=[tasks[-1]], owner="u"))
grid.run_until(100.0)
history = lambda: len(gae.events.journal.events(type=EventType.HISTORY_RECORDED))
report = {"history_at_settle": history()}
with AsyncSocketServerHandle(gae.host) as handle, ClarensClient(handle.url, codec="json") as client:
    client.login("u", "p")
    queued = next(t.task_id for t in reversed(tasks) if t.state.value == "queued")
    for tid in (tasks[0].task_id, queued):
        for method in ("job_status", "progress", "queue_position", "job_info"):
            client.call("jobmon." + method, tid)
    client.call("monalisa.grid_weather")
    client.call("monalisa.site_load", "siteA")
    client.call("monalisa.series_window", "siteA", "load", 0.0, 100.0)
    client.call("estimator.history_size")
    client.batch([("jobmon.job_status", queued), ("jobmon.progress", queued)])
    client.call("jobmon.owner_tasks", "u")
    client.call("jobmon.running_tasks")
    client.call("steering.set_priority", queued, 4)
    t = 100.0
    while history() < 3:
        t += 1.0
        grid.run_until(t)
    report["history_at_fit"] = history()
    report["estimate"] = client.call("estimator.estimate_runtime", {"_type": "TaskSpec", "owner": "u"})
    report["served"] = sorted(sys.modules)

from repro.store.checkpoint import Checkpointer
from repro.store.registry import CHECKPOINT_GRIDSIM
from repro.store.base import read_store_file

Checkpointer(gae).checkpoint(sys.argv[1])
report["rng_record"] = read_store_file(sys.argv[1]).get(CHECKPOINT_GRIDSIM, "rng")
print(json.dumps(report))
"""

#: What signing session tokens and one median do not need: OpenSSL's
#: ``_hashlib`` (~3.4 MB resident) and the stdlib wrappers that load it, and
#: ``statistics`` with the ``fractions`` / ``decimal`` it imports.
OPENSSL_AND_STATISTICS = (
    "_hashlib", "hashlib", "hmac", "secrets", "statistics", "fractions", "decimal",
)

#: Imports one layer at a time in a fresh interpreter and prints the
#: resident set after each: the modules of the serving set (argv[1], a
#: JSON list) split into standard library and ``repro``, then numpy, then
#: ``numpy.random``.
LAYERS = """
import os, sys  # loaded by start-up already

def rss_mb():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

interpreter = (len(sys.modules), rss_mb())
import importlib, json

def load(names):
    for name in names:
        try:
            importlib.import_module(name)
        except Exception:
            pass  # a private or platform module that only loads as a dependency

served = json.loads(sys.argv[1])
layers = [
    ("standard library", [m for m in served if m.split(".")[0] in sys.stdlib_module_names]),
    ("repro", [m for m in served if m.split(".")[0] == "repro"]),
    ("numpy", ["numpy"]),
    ("numpy.random", ["numpy.random"]),
]
print(json.dumps(["interpreter", *interpreter]))
for layer, names in layers:
    if layer == "numpy":
        assert "numpy" not in sys.modules, "the serving set imported numpy"
    load(names)
    print(json.dumps([layer, len(sys.modules), rss_mb()]))
"""


def test_a_framed_host_loads_no_numpy_with_its_first_fit(tmp_path):
    """A two-site host with a noiseless probe serves the §5 poll mix, a
    series read, a ``system.multicall``, a ``set_priority`` and its first
    runtime estimate (a fit over a non-empty history) over a framed
    ``json`` socket without importing numpy (~12 MB over the serving set, ~6 MB more for
    ``numpy.random``, OpenSSL included), or any of
    ``OPENSSL_AND_STATISTICS``: the §6.1 fit is closed-form ``math.fsum``
    arithmetic.  A checkpoint seeds the never-drawn ``iperf`` stream into
    the record the eager streams wrote.  Run with ``-s`` to print the
    resident set after each layer of the serving set loads."""
    out = subprocess.run(
        [sys.executable, "-c", SERVE_POLLS, str(tmp_path / "polls.sqlite")],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    # The serving set is read after the first fit over a non-empty history.
    assert report["history_at_settle"] == 0 and report["history_at_fit"] >= 3
    assert "numpy" not in report["served"]
    assert not set(report["served"]) & set(OPENSSL_AND_STATISTICS)
    # Eleven tasks of 150.0–151.0 s have finished by t = 151 s; the line
    # through them, clipped at twice the longest, is preferred.  The host
    # that fitted with numpy gave the same answer.
    assert report["estimate"] == {
        "value": 302.0, "mean": 150.5, "regression": 302.0, "n_similar": 11,
        "template": ["executable", "owner", "account", "queue", "partition", "task_type", "nodes"],
        "method": "regression",
    }
    eager = EagerStreams(seed=5)
    eager.stream("iperf")
    assert report["rng_record"] == eager.export_states()

    layers = subprocess.run(
        [sys.executable, "-c", LAYERS, json.dumps(report["served"])],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert layers.returncode == 0, layers.stderr
    readings = [json.loads(line) for line in layers.stdout.splitlines()]
    assert [layer for layer, _, _ in readings] == [
        "interpreter", "standard library", "repro", "numpy", "numpy.random",
    ]
    previous = 0.0
    for layer, modules, mb in readings:
        print(f"footprint  {layer:<16} {modules:>4} modules  {mb:6.2f} MB  (+{mb - previous:5.2f})")
        previous = mb
