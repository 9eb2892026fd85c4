"""End-to-end instrumentation tests over an assembled GAE.

The headline property (the tentpole's acceptance): one trace id follows a
job from submission through steering RPCs, Condor flocking, migration and
MonALISA publication.
"""

import ast
import inspect
from collections import Counter
from pathlib import Path

import pytest

from repro.clarens.aio import AsyncSocketServerHandle
from repro.clarens.errors import AuthorizationError
from repro.clarens.transport import AsyncSocketTransport
from repro.core.steering.optimizer import SteeringPolicy
from repro.gae import build_gae
from repro.gridsim import GridBuilder, Job
from repro.gridsim.job import JobState, Task, TaskSpec, reset_id_counters
from repro.events.journal import EventType
from repro.observability import instrument
from repro.workloads.generators import make_prime_count_task


def two_site_gae(seed=11, flock=False, site_a_nodes=2, **build_kwargs):
    builder = (
        GridBuilder(seed=seed)
        .site("siteA", nodes=site_a_nodes, background_load=0.0)
        .site("siteB", nodes=2, background_load=0.0)
        .link("siteA", "siteB", capacity_mbps=622.0, latency_s=0.05)
        .probe_noise(0.0)
    )
    if flock:
        builder = builder.flock("siteA", "siteB")
    gae = build_gae(
        builder.build(), policy=SteeringPolicy(auto_move=False), **build_kwargs
    )
    gae.add_user("u", "pw")
    return gae


def submit_to(gae, task, site):
    original = gae.scheduler.select_site
    gae.scheduler.select_site = lambda t, exclude=(): site
    try:
        gae.scheduler.submit_job(Job(tasks=[task], owner=task.spec.owner))
    finally:
        gae.scheduler.select_site = original


class TestSteeredMoveKeepsTrace:
    def test_move_keeps_same_trace_id_across_sites(self):
        gae = two_site_gae()
        gae.start()
        task = make_prime_count_task(owner="u", checkpointable=True)
        submit_to(gae, task, "siteA")
        obs = gae.observability
        trace_id = obs.trace_id_of(task.task_id)
        assert trace_id is not None

        gae.grid.run_until(50.0)
        client = gae.client("u", "pw")
        result = client.service("steering").move(task.task_id, "siteB")
        assert result["ok"], result
        gae.grid.run_until(4000.0)
        gae.stop()

        assert obs.trace_id_of(task.task_id) == trace_id
        names = [s.name for s in obs.tracer.spans(trace_id)]
        assert "run@siteA" in names and "run@siteB" in names
        timeline = obs.journal.timeline(task.task_id)
        assert {e.trace_id for e in timeline} == {trace_id}
        types = [e.type for e in timeline]
        assert EventType.MOVED in types
        assert types[-1] is EventType.COMPLETED
        # Both incarnations hang off the single task root span.
        roots = [s for s in obs.tracer.spans(trace_id)
                 if s.name == f"task:{task.task_id}"]
        assert len(roots) == 1
        assert roots[0].status == "ok"

    def test_steering_rpc_is_adopted_into_the_job_trace(self):
        gae = two_site_gae()
        gae.start()
        task = make_prime_count_task(owner="u")
        submit_to(gae, task, "siteA")
        gae.grid.run_until(30.0)
        gae.client("u", "pw").service("steering").pause(task.task_id)
        gae.stop()

        obs = gae.observability
        trace_id = obs.trace_id_of(task.task_id)
        spans = obs.tracer.spans(trace_id)
        rpc = next(s for s in spans if s.name == "rpc:steering.pause")
        steer = next(s for s in spans if s.name == "steer:pause")
        assert "adopted_from" in rpc.attributes  # born on the call trace
        root = next(s for s in spans if s.name == f"task:{task.task_id}")
        assert rpc.parent_id == root.span_id
        assert steer.parent_id == rpc.span_id


@pytest.mark.parametrize("codec", ["json", "xmlrpc"])
class TestServedCallSpans:
    """An instrumented host served over the framed socket: each call is one
    ``rpc:`` span in the job-trace ring, carrying the worker's stage
    timings — also a cached read and a denied call, which the middleware
    that opened ``rpc:`` spans before the recorder did never saw."""

    @pytest.fixture
    def served(self, codec):
        gae = two_site_gae()
        gae.add_user("guest", "pw", groups=("visitors",))  # no ACL rule names them
        gae.start()
        task = make_prime_count_task(owner="u")
        submit_to(gae, task, "siteA")
        gae.grid.run_until(30.0)
        with AsyncSocketServerHandle(gae.host) as handle:
            with AsyncSocketTransport(handle.address, codec=codec) as wire:
                yield gae, task, wire
        gae.stop()

    @staticmethod
    def call_spans(gae, wire_id):
        """The finished ``rpc:`` spans of the call sent with *wire_id*."""
        return [
            s for s in gae.observability.tracer.spans()
            if s.name.startswith("rpc:") and s.end is not None
            and s.attributes.get("adopted_from", s.trace_id) == wire_id
        ]

    def test_a_read_is_one_span_with_its_stage_timings(self, served, codec):
        gae, task, wire = served
        token = wire.call("system.login", ["u", "pw"])
        ring = len(gae.observability.tracer)
        wire.call("jobmon.job_status", [task.task_id], token, trace_id=f"read-{codec}")
        assert len(gae.observability.tracer) == ring + 1
        (span,) = self.call_spans(gae, f"read-{codec}")
        assert span.name == "rpc:jobmon.job_status" and span.status == "ok"
        fields = span.attributes
        assert fields["transport"] == f"async+{codec}" and fields["outcome"] == "ok"
        assert fields["decode_ms"] >= 0.0 and fields["encode_ms"] >= 0.0
        assert "served_from" not in fields  # executed

    def test_a_framed_call_writes_its_span_once(self, served, codec, monkeypatch):
        """The stage timings go in with the write that ends the call's span:
        one slot write per call, and no ``Tracer.update`` from the front end."""
        gae, task, wire = served
        tracer = gae.observability.tracer
        token = wire.call("system.login", ["u", "pw"])
        writes = Counter()
        for name in ("_write", "update", "end_span"):
            def counted(*args, _name=name, _method=getattr(tracer, name), **kwargs):
                writes[_name] += 1
                return _method(*args, **kwargs)
            monkeypatch.setattr(tracer, name, counted)
        for n in range(3):
            wire.call("jobmon.job_status", [task.task_id], token, trace_id=f"once-{codec}-{n}")
        assert writes == {"_write": 3, "end_span": 3}
        for n in range(3):
            (span,) = self.call_spans(gae, f"once-{codec}-{n}")
            assert {"decode_ms", "encode_ms"} <= span.attributes.keys()

    def test_a_cached_read_and_a_denied_call_each_leave_one_span(self, served, codec):
        gae, task, wire = served
        token = wire.call("system.login", ["u", "pw"])
        for wire_id in (f"miss-{codec}", f"hit-{codec}"):
            wire.call("jobmon.job_status", [task.task_id], token, trace_id=wire_id)
        (hit,) = self.call_spans(gae, f"hit-{codec}")
        assert hit.attributes["served_from"] == "cache"
        guest = wire.call("system.login", ["guest", "pw"])
        with pytest.raises(AuthorizationError):
            wire.call("jobmon.job_status", [task.task_id], guest, trace_id=f"denied-{codec}")
        (denied,) = self.call_spans(gae, f"denied-{codec}")
        assert denied.status == "error"
        assert (denied.attributes["outcome"], denied.attributes["code"]) == ("fault", 403)

    def test_a_steering_call_joins_its_job_trace(self, served, codec):
        gae, task, wire = served
        obs = gae.observability
        token = wire.call("system.login", ["u", "pw"])
        wire_id = f"steer-{codec}"
        assert wire.call("steering.pause", [task.task_id], token, trace_id=wire_id)["ok"]
        (span,) = self.call_spans(gae, wire_id)
        root = next(s for s in obs.tracer.spans() if s.name == f"task:{task.task_id}")
        assert span.trace_id == obs.trace_id_of(task.task_id) != wire_id
        assert span.attributes["adopted_from"] == wire_id
        assert span.parent_id == root.span_id
        (row,) = wire.call("system.recent_calls", [50, wire_id])
        assert (row["trace_id"], row["method"]) == (wire_id, "steering.pause")
        assert "decode_ms" in row and "encode_ms" in row


class TestFlockTracing:
    def test_flock_forward_spans_and_events(self):
        gae = two_site_gae(flock=True, site_a_nodes=1)
        gae.start()
        filler = make_prime_count_task(owner="u", work_seconds=500.0)
        gae.grid.execution_services["siteA"].submit_task(filler)
        task = make_prime_count_task(owner="u")
        submit_to(gae, task, "siteA")
        gae.grid.run_until(4000.0)
        gae.stop()

        obs = gae.observability
        trace_id = obs.trace_id_of(task.task_id)
        spans = obs.tracer.spans(trace_id)
        flock = next(s for s in spans if s.name == "flock")
        assert flock.attributes["from"] == "siteA"
        assert flock.attributes["to"] == "siteB"
        types = [e.type for e in obs.journal.timeline(task.task_id)]
        assert EventType.FLOCK_FORWARDED in types
        assert types[-1] is EventType.COMPLETED
        assert obs.metrics.get(
            "gae_condor_flock_forwards_total"
        ).value(**{"from": "siteA"}) == 1.0

    def test_steering_verb_reaches_a_flocked_task(self):
        # The plan follows the flock (scheduler rebinding), so pause lands
        # on siteB where the job actually runs.
        gae = two_site_gae(flock=True, site_a_nodes=1)
        gae.start()
        filler = make_prime_count_task(owner="u", work_seconds=500.0)
        gae.grid.execution_services["siteA"].submit_task(filler)
        task = make_prime_count_task(owner="u")
        submit_to(gae, task, "siteA")
        gae.grid.run_until(10.0)
        assert gae.scheduler.site_of_task(task.task_id) == "siteB"
        result = gae.client("u", "pw").service("steering").pause(task.task_id)
        assert result["ok"], result
        assert gae.grid.execution_services["siteB"].pool.status(
            task.task_id
        ).state.value == "paused"
        gae.stop()


class TestJournalAndMetricsWiring:
    @pytest.fixture
    def completed(self):
        gae = two_site_gae()
        gae.start()
        task = make_prime_count_task(owner="u")
        submit_to(gae, task, "siteA")
        gae.grid.run_until(4000.0)
        gae.stop()
        return gae, task

    def test_lifecycle_timeline(self, completed):
        gae, task = completed
        types = [e.type for e in gae.observability.journal.timeline(task.task_id)]
        assert types[0] is EventType.SUBMITTED
        assert EventType.SCHEDULED in types
        assert EventType.DISPATCHED in types
        assert EventType.STARTED in types
        assert types[-1] is EventType.COMPLETED

    def test_task_metrics_observed(self, completed):
        gae, _ = completed
        m = gae.observability.metrics
        assert m.get("gae_scheduler_jobs_planned_total").total() == 1.0
        assert gae.observability.telemetry.value("journal.completed.total") == 1.0
        assert m.get("gae_task_run_seconds").summary(site="siteA")["count"] == 1.0
        assert m.get("gae_monalisa_job_state_publish_total").total() > 0
        assert m.get("gae_execution_service_up").value(site="siteA") == 1.0

    def test_monalisa_publish_spans_deduped_per_state(self, completed):
        gae, task = completed
        trace_id = gae.observability.trace_id_of(task.task_id)
        publishes = [
            s for s in gae.observability.tracer.spans(trace_id)
            if s.name == "monalisa:publish"
        ]
        states = [s.attributes["state"] for s in publishes]
        assert len(states) == len(set(states))

    def test_system_observability_method(self, completed):
        gae, _ = completed
        snap = gae.client("u", "pw").call("system.observability")
        assert snap["enabled"] is True
        assert snap["tasks_traced"] == 1
        assert snap["spans"] > 0
        assert "gae_scheduler_tasks_planned_total" in snap["metrics"]
        # Events are counted once, by type, in telemetry's journal series.
        assert "gae_task_events_total" not in snap["metrics"]
        assert snap["telemetry"]["enabled"] is True

    def test_disabled_gae_reports_disabled(self):
        grid = GridBuilder(seed=5).site("s").probe_noise(0.0).build()
        gae = build_gae(grid, observability=False)
        assert gae.observability is None
        snap = gae.client().call("system.observability")
        assert snap == {"enabled": False}

    def test_service_failure_drives_the_up_gauge(self):
        gae = two_site_gae()
        gae.start()
        m = gae.observability.metrics.get("gae_execution_service_up")
        gae.grid.execution_services["siteA"].fail(crash_pool=False)
        assert m.value(site="siteA") == 0.0
        gae.grid.execution_services["siteA"].recover()
        assert m.value(site="siteA") == 1.0
        gae.stop()


class TestJobSpanOutcome:
    """A job span ends with its last task, ``ok`` only if every one of its
    tasks ended ``ok`` — a killed sibling fails it whichever task is last."""

    @staticmethod
    def _run_two_task_job(kill_last):
        """Run a short and a long task as one job; kill one of them.

        ``kill_last=None`` kills neither; ``False`` kills the short task
        before the long one completes; ``True`` kills the long task after
        the short one completes.  Returns the job, its tasks and the trace's
        spans by name.
        """
        gae = two_site_gae()
        gae.start()
        short = make_prime_count_task(owner="u", work_seconds=100.0)
        long = make_prime_count_task(owner="u", work_seconds=2_000.0)
        job = Job(tasks=[short, long], owner="u")
        gae.scheduler.submit_job(job)
        steering = gae.client("u", "pw").service("steering")
        if kill_last:  # short completes, then long is killed
            gae.grid.run_until(1_000.0)
            assert short.state is JobState.COMPLETED
            assert steering.kill(long.task_id)["ok"]
        elif kill_last is not None:  # short is killed, then long completes
            gae.grid.run_until(10.0)
            assert steering.kill(short.task_id)["ok"]
        gae.grid.run_until(10_000.0)
        gae.stop()
        obs = gae.observability
        spans = {s.name: s for s in obs.tracer.spans(obs.trace_id_of(short.task_id))}
        return job, short, long, spans

    @pytest.mark.parametrize("kill_last", [False, True])
    def test_the_last_task_to_finish_decides(self, kill_last):
        """The last task to finish ends the job span; its killed sibling,
        first or last, makes the job ``error``."""
        job, short, long, spans = self._run_two_task_job(kill_last)
        if not kill_last:
            assert long.state is JobState.COMPLETED
        tasks = {t.task_id: spans[f"task:{t.task_id}"] for t in job.tasks}
        assert {s.status for s in tasks.values()} == {"ok", "killed"}
        assert tasks[short.task_id].end < tasks[long.task_id].end
        job_span = spans[f"job:{job.job_id}"]
        assert job_span.end == tasks[long.task_id].end
        assert job_span.status == "error"

    def test_a_job_span_is_ok_only_if_every_task_is(self):
        job, _, _, spans = self._run_two_task_job(None)
        assert {spans[f"task:{t.task_id}"].status for t in job.tasks} == {"ok"}
        assert spans[f"job:{job.job_id}"].status == "ok"

    def test_a_restored_job_remembers_a_killed_task(self, tmp_path):
        """The flag rides in the checkpoint's job row: a task killed before
        the checkpoint still fails the job its sibling finishes after it."""
        from repro.store.checkpoint import Checkpointer, restore_gae

        gae = two_site_gae()
        gae.start()
        short = make_prime_count_task(owner="u", work_seconds=100.0)
        long = make_prime_count_task(owner="u", work_seconds=2_000.0)
        job = Job(tasks=[short, long], owner="u")
        gae.scheduler.submit_job(job)
        gae.grid.run_until(10.0)
        assert gae.client("u", "pw").service("steering").kill(short.task_id)["ok"]
        gae.grid.run_until(20.0)
        path = tmp_path / "gae.sqlite"
        Checkpointer(gae).checkpoint(path)
        gae.stop()
        restored = restore_gae(path)
        restored.grid.run_until(10_000.0)
        obs = restored.observability
        spans = {s.name: s for s in obs.tracer.spans(obs.trace_id_of(long.task_id))}
        assert spans[f"task:{long.task_id}"].status == "ok"
        assert spans[f"job:{job.job_id}"].status == "error"


def test_no_trace_record_slot_holds_a_span():
    """The ring owns the spans: the per-task and per-job records keep span
    ids (and the task root's immutable context), never a ``Span``."""
    tree = ast.parse(Path(instrument.__file__).read_text("utf-8"))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    slots = set()
    for name in ("_TaskTrace", "_JobTrace"):
        [declared] = [
            node.value for node in classes[name].body
            if isinstance(node, ast.Assign) and node.targets[0].id == "__slots__"
        ]
        slots |= set(ast.literal_eval(declared))
    assert {"root_id", "phase_id", "flock_id", "span_id"} <= slots
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert "Span" not in names | imported

    def pairs(target, value):
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            for t, v in zip(target.elts, value.elts):
                yield from pairs(t, v)
        else:
            yield target, value

    span_makers = {"start_span", "instant", "current_span"}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target, value in (p for t in node.targets for p in pairs(t, node.value)):
            if isinstance(target, ast.Attribute) and target.attr in slots:
                made = isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute)
                assert not (made and value.func.attr in span_makers), ast.unparse(node)


def test_the_instrumentation_has_one_shape():
    """Built whole, in one call: no late ``attach``, no part that may be
    missing, one event count, and no ``build_gae`` switch that leaves a
    part out."""
    tree = ast.parse(Path(instrument.__file__).read_text("utf-8"))
    [cls] = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "GAEInstrumentation"
    ]
    methods = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    assert "attach" not in methods

    def is_self_attr(node, names):
        return (
            isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name) and node.value.id == "self"
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Constant) and o.value is None for o in operands):
                assert not any(
                    is_self_attr(o, {"telemetry", "health"}) for o in operands
                ), ast.unparse(node)

    observers = [
        ast.unparse(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Attribute) and target.attr == "observe"
    ]
    assert observers == ["self.telemetry.count"]

    assert list(inspect.signature(build_gae).parameters) == [
        "grid", "policy", "history", "load_publish_period_s", "host_name",
        "monitor_snapshot_period_s", "observability", "telemetry_window_s",
        "health_rules", "store", "read_cache",
    ]


def steered_gae(live_jobs, **build_kwargs):
    """A started two-site GAE holding *live_jobs* single-task jobs, plus the
    three steering verbs (as callables returning their results) aimed at a
    queued, a running and a movable task."""
    reset_id_counters()
    gae = two_site_gae(**build_kwargs)
    grid = gae.grid
    gae.start()
    tasks = [
        Task(spec=TaskSpec(owner="u", priority=i % 5), work_seconds=5_000.0 + i)
        for i in range(live_jobs)
    ]
    for task in tasks:
        gae.scheduler.submit_job(Job(tasks=[task], owner="u"))
    grid.run_until(100.0)  # dispatch settles; the bulk of the queue idles
    steering = gae.client("u", "pw").service("steering")
    running = grid.sites["siteA"].pool.running_snapshot()[0].task_id
    queued, moved = tasks[-1].task_id, tasks[-2].task_id
    elsewhere = "siteA" if grid.sites["siteB"].pool.has_task(moved) else "siteB"
    verbs = {
        "set_priority": lambda: [steering.set_priority(queued, 7)],
        "pause+resume": lambda: [steering.pause(running), steering.resume(running)],
        "move": lambda: [steering.move(moved, elsewhere)],
    }
    return gae, verbs


class TestInstrumentationBudget:
    """What a steering verb appends to the journal and the span store is a
    fixed count, whatever the number of live jobs — the instrumentation
    budget as a count rather than a timing ceiling."""

    #: verb -> (journal events, spans) appended by one call.
    BUDGET = {
        "set_priority": (1, 2),    # priority-changed
        "pause+resume": (2, 6),    # paused, resumed
        "move": (4, 4),            # monitoring-updated, moved, dispatched, estimate-recorded
    }

    @pytest.mark.parametrize("live_jobs", [200, 2_000])
    def test_events_and_spans_per_steering_verb(self, live_jobs):
        gae, verbs = steered_gae(live_jobs, observability=True)
        obs = gae.observability
        spent = {}
        for name, verb in verbs.items():
            events, spans = len(obs.journal), len(obs.tracer)
            assert all(result["ok"] for result in verb()), name
            spent[name] = (len(obs.journal) - events, len(obs.tracer) - spans)
        gae.stop()
        assert spent == self.BUDGET

    def test_verbs_answer_the_same_bare_traced_and_fully_instrumented(self):
        """Bare (the same journal-first writes, but no tracer, no lifecycle
        events and nothing retained) and instrumented (tracer, telemetry
        and health engine)."""
        answers = []
        for observability in (False, True):
            gae, verbs = steered_gae(50, observability=observability)
            answers.append({name: verb() for name, verb in verbs.items()})
            gae.stop()
        assert answers[0] == answers[1]
        assert all(r["ok"] for results in answers[0].values() for r in results)
