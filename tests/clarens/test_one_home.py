"""One home for every count: the RPC layer's views agree with its registry.

``system.stats`` (``host.stats``), ``system.cache`` (``host.read_cache``)
and a server handle's ``pool_stats`` hold no numbers of their own — each
is a view over ``host.metrics`` — and ``system.recent_calls`` holds no
records of its own: it is a view over the ``rpc:`` spans of
``host.tracer``.  The property below drives a random interleaving of
executed, cached, coalesced, faulting and unknown-method calls over
loopback and over the async socket, and checks the four views against the
registry, against each other and against what the test itself sent —
again with a second server handle on the same host, and again on the host
``restore_gae`` builds from a checkpoint (where the parent's two copies of
the cache counts disagreed).  The other tests pin the structure that makes
the disagreement unrepresentable.
"""

import ast
import functools
import subprocess
import sys
from collections import Counter
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clarens.aio import AsyncSocketServerHandle
from repro.clarens.errors import ClarensFault
from repro.clarens.middleware import UNKNOWN_METHOD
from repro.clarens.transport import AsyncSocketTransport, LoopbackTransport
from repro.gae import build_gae
from repro.gridsim import GridBuilder
from repro.gridsim.job import TaskSpec, bag_of_tasks, reset_id_counters
from repro.store.checkpoint import Checkpointer, restore_gae

SRC = Path(__file__).resolve().parents[2] / "src"
STATUS = "jobmon.job_status"

_VIA = st.sampled_from(["loop", "sock"])
_TASK = st.integers(min_value=0, max_value=2)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("read"), _VIA, _TASK),
        st.tuples(st.just("multi"), _VIA, _TASK, st.integers(min_value=2, max_value=4)),
        st.tuples(st.just("fault"), _VIA),
        st.tuples(st.just("bogus"), _VIA, st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("advance")),
    ),
    min_size=1,
    max_size=20,
)


def _build():
    reset_id_counters()
    grid = GridBuilder(seed=3).site("siteA", nodes=2).site("siteB", nodes=2).build()
    gae = build_gae(grid).start()
    gae.add_user("u", "p")
    specs = [TaskSpec(owner="u") for _ in range(3)]
    gae.scheduler.submit_job(bag_of_tasks(specs, [500.0] * 3, owner="u"))
    gae.sim.run_until(30.0)
    return gae


class _Driver:
    """Sends calls to one host and keeps its own tally of what it sent."""

    def __init__(self, gae):
        self.gae, self.host = gae, gae.host
        self.tasks = sorted(t.task_id for job in gae.scheduler.jobs() for t in job.tasks)
        self.calls = self.faults = self.bogus = 0
        self.executed = Counter()  # method -> calls that got past the read cache
        self.frames = Counter()  # pool label -> frames that pool answered
        self.unknown = Counter()  # unresolvable path -> calls sent to it
        # A restored host lists the calls its checkpointed ring held: skip them.
        self.restored_rows = len(self._recent())
        self.host.add_middleware(self._spy)
        self.loop = LoopbackTransport(self.host)
        self.token = self._call(self.loop, "", "system.login", ["u", "p"])

    def _recent(self):
        """``system.recent_calls`` read in place, so the read is not a call."""
        return self.host.registry.resolve("system.recent_calls").func(-1)

    def _spy(self, ctx, call_next):
        self.executed[ctx.method_path] += 1
        return call_next(ctx)

    def _call(self, transport, pool, method, params, calls=1, fault=False):
        self.calls += calls
        self.faults += fault
        if pool:
            self.frames[pool] += 1
        try:
            result = transport.call(method, params, token=getattr(self, "token", ""))
        except ClarensFault:
            assert fault, f"{method} faulted"
            return None
        assert not fault, f"{method} did not fault"
        return result

    def run(self, ops, handle):
        pool = handle.pool_stats.pool
        sock = AsyncSocketTransport(handle.address, codec="json")
        try:
            for op, *args in ops:
                if op == "advance":
                    self.gae.sim.run_until(self.gae.sim.now + 1.0)
                    continue
                via = (sock, pool) if args[0] == "sock" else (self.loop, "")
                if op == "read":
                    self._call(*via, STATUS, [self.tasks[args[1]]])
                elif op == "multi":
                    sub = {"methodName": STATUS, "params": [self.tasks[args[1]]]}
                    self._call(*via, "system.multicall", [[sub] * args[2]], calls=1 + args[2])
                elif op == "fault":
                    self._call(*via, STATUS, ["no-such-task"], fault=True)
                else:
                    self.bogus += 1
                    self.unknown[f"nope.m{args[1]}"] += 1
                    self._call(*via, f"nope.m{args[1]}", [], fault=True)
        finally:
            sock.close()

    def check(self, *handles):
        host, metrics = self.host, self.host.metrics
        stats, cache = host.stats.snapshot(), host.read_cache.snapshot()
        series = metrics.get("gae_rpc_calls_total").series()

        def summed(**want):
            return sum(
                value for labels, value in series
                if all(labels[k] == v for k, v in want.items())
            )

        # system.stats == the registry == what was sent.
        assert stats["calls"] == sum(stats["per_method"].values()) == summed() == self.calls
        assert stats["faults"] == summed(outcome="fault") == self.faults
        assert isinstance(stats["calls"], int) and isinstance(stats["faults"], int)
        for method, n in stats["per_method"].items():
            assert n == summed(method=method) and isinstance(n, int)
        for transport, n in stats["per_transport"].items():
            assert n == summed(transport=transport)
        registered = {
            f"{service}.{name}"
            for service in host.registry.names()
            for name in host.registry.service(service).methods
        }
        assert set(stats["per_method"]) <= registered | {UNKNOWN_METHOD}
        assert stats["per_method"].get(UNKNOWN_METHOD, 0) == self.bogus

        # Latency counts executed calls only, and the histogram holds as many.
        latency = metrics.get("gae_rpc_latency_ms")
        executed = dict(self.executed)
        if self.bogus:
            executed[UNKNOWN_METHOD] = self.bogus
        assert {m: s["count"] for m, s in stats["latency_ms"].items()} == executed
        for method, n in executed.items():
            assert latency.summary(method=method)["count"] == n == summed(
                method=method, served_from="execute"
            )

        # system.cache == the cache counters by label == system.stats' served.
        kinds = ("hits", "misses", "invalidations", "coalesced")
        for method, counts in cache["per_method"].items():
            assert counts == {
                kind: int(metrics.get(f"gae_rpc_cache_{kind}_total").value(method=method))
                for kind in kinds
            }
            served = stats["served"].get(method, {})
            assert counts["hits"] == served.get("cache", 0)
            assert counts["coalesced"] == served.get("coalesced", 0)
            assert counts["misses"] + counts["invalidations"] == executed.get(method, 0)
        assert set(stats["served"]) <= set(cache["per_method"])

        # system.recent_calls == one row per pipeline pass, by label ==
        # the registry without the coalesced sub-calls (which make none).
        rows = self._recent()[self.restored_rows:]
        passes = Counter(
            (row["method"] if row["method"] in registered else UNKNOWN_METHOD,
             row["transport"], row["served_from"], row["outcome"])
            for row in rows
        )
        assert passes == Counter({
            (labels["method"], labels["transport"], labels["served_from"], labels["outcome"]):
            int(value)
            for labels, value in series if labels["served_from"] != "coalesced"
        })
        assert len(rows) == self.calls - summed(served_from="coalesced")
        assert Counter(r["method"] for r in rows if r["method"] not in registered) == (
            self.unknown
        )
        # Every frame's span, and no sub-call's, carries the stage timings.
        assert sum("decode_ms" in r and "encode_ms" in r for r in rows) == sum(
            self.frames.values()
        )

        # Each serving pool answered exactly the frames sent to it.
        assert sorted(host.worker_pools) == sorted(h.pool_stats.pool for h in handles)
        for handle in handles:
            pool = handle.pool_stats.snapshot()
            label = handle.pool_stats.pool
            assert pool["submitted"] == pool["completed"] == self.frames[label]
            assert pool["queue_depth"] == 0
            assert metrics.get("gae_aio_worker_completed_total").value(pool=label) == (
                self.frames[label]
            )
            assert pool["stages"].get("decode", {}).get("count", 0) == self.frames[label]


@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(first=_OPS, second=_OPS, third=_OPS)
def test_views_agree_with_the_registry(tmp_path, first, second, third):
    driver = _Driver(_build())
    with AsyncSocketServerHandle(driver.host) as handle:
        driver.run(first, handle)
        driver.check(handle)
        # A second front end on the same host: nothing is counted twice.
        with AsyncSocketServerHandle(driver.host) as other:
            driver.run(second, other)
            driver.run(second, handle)
            driver.check(handle, other)
        driver.check(handle)
    driver.check()

    # The host a restore builds starts from zero in every view at once.
    path = str(tmp_path / "ckpt.sqlite")
    Checkpointer(driver.gae).checkpoint(path)
    driver.gae.stop()
    reset_id_counters()
    restored = restore_gae(path)
    assert not [n for n in restored.observability.metrics.names() if n.startswith("gae_rpc")]
    assert restored.host.stats.snapshot()["calls"] == 0
    assert restored.host.read_cache.snapshot()["per_method"] == {}
    after = _Driver(restored)
    with AsyncSocketServerHandle(after.host) as handle:
        after.run(third, handle)
        after.check(handle)
    restored.stop()


# ----------------------------------------------------------------------
# structure
# ----------------------------------------------------------------------
_IMPORT_SPY = """
import builtins, sys
watched = ("repro.observability.metrics", "repro.observability.tracing")
real, pulled = builtins.__import__, []
def spy(name, globals=None, locals=None, fromlist=(), level=0):
    if (globals or {}).get("__name__") in watched and name.startswith("repro.clarens"):
        pulled.append((globals["__name__"], name))
    return real(name, globals, locals, fromlist, level)
builtins.__import__ = spy
import FIRST
assert all(name in sys.modules for name in watched), "not imported"
assert not pulled, pulled
"""


def test_registry_and_tracer_pull_in_nothing_from_clarens():
    """Whichever package is imported first: no cycle, and the two leaves stay leaves."""
    firsts = ["repro.observability.metrics", "repro.clarens", "repro.observability",
              "repro.events", "repro.events.core", "repro.gae", "repro"]
    procs = [  # one fresh interpreter each, side by side
        subprocess.Popen(
            [sys.executable, "-c", _IMPORT_SPY.replace("FIRST", first)],
            env={"PYTHONPATH": str(SRC)}, stderr=subprocess.PIPE, text=True,
        )
        for first in firsts
    ]
    for first, proc in zip(firsts, procs):
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"import {first} first: {stderr}"


@functools.lru_cache(maxsize=None)
def _class_defs():
    """``(path, node)`` of every class and function definition under ``src/``."""
    return [
        (path, node)
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    ]


def test_exactly_one_class_owns_a_latency_reservoir():
    defined = [
        (path.name, node.name) for path, node in _class_defs()
        if node.name in ("LatencyReservoir", "percentile")
    ]
    assert sorted(defined) == [("metrics.py", "LatencyReservoir"), ("metrics.py", "percentile")]
    owners = {
        node.name
        for _, node in _class_defs() if isinstance(node, ast.ClassDef)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", "") == "LatencyReservoir"
    }
    assert owners == {"_HistogramSeries"}


def test_prometheus_text_is_formatted_in_one_module():
    writers = {
        path.name for path, node in _class_defs() if node.name == "prometheus_lines"
    }
    assert writers == {"metrics.py"}
    webui = (SRC / "repro" / "webui.py").read_text(encoding="utf-8")
    assert "gae_rpc_" not in webui and "gae_aio_" not in webui


def test_one_trace_store():
    """Every call record is an ``rpc:`` span, opened by the recorder: no
    Clarens class keeps a ring of call records, and the async front end
    adds its stage timings to that span instead of a span of its own."""
    clarens = SRC / "repro" / "clarens"
    kept = [  # ``self.<name> = deque(...)``: a local work queue is not kept
        (path.name, node.name) for path, node in _class_defs()
        if isinstance(node, ast.ClassDef) and clarens in path.parents
        for assign in ast.walk(node)
        if isinstance(assign, (ast.Assign, ast.AnnAssign))
        and isinstance(getattr(assign, "target", None) or assign.targets[0], ast.Attribute)
        and isinstance(assign.value, ast.Call)
        and getattr(assign.value.func, "id", getattr(assign.value.func, "attr", "")) == "deque"
    ]
    assert not kept

    def literal(node):
        """The leading text of an f-string."""
        head = node.values[0] if node.values else None
        return head.value if isinstance(head, ast.Constant) and isinstance(head.value, str) else ""

    # A call span's name is built in two places only: once per method at
    # registration (``MethodEntry.span_name``) and, for an unknown path,
    # per call by the recorder.  The recorder opens the one server-side
    # span (its name is a variable); the client opens its own ``client:``.
    named = [
        (path.name, literal(node).split(":")[0])
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.JoinedStr) and literal(node).startswith(("rpc:", "aio:"))
    ]
    assert named == [("middleware.py", "rpc"), ("registry.py", "rpc")]
    opened = [
        (path.name, literal(call.args[0]) if isinstance(call.args[0], ast.JoinedStr) else None)
        for path in sorted(clarens.glob("*.py"))
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(call, ast.Call) and call.args
        and getattr(call.func, "attr", "") in ("start_span", "instant", "span")
    ]
    assert opened == [("middleware.py", None), ("transport.py", "client:")]
    aio = ast.parse((clarens / "aio.py").read_text(encoding="utf-8"))
    assert not [
        call for call in ast.walk(aio)
        if isinstance(call, ast.Call) and getattr(call.func, "attr", "") == "instant"
    ]
