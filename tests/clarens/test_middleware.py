"""Unit tests for the call pipeline: CallContext, composition, built-ins."""

import contextlib

import pytest

from repro.clarens.acl import AccessControlList
from repro.clarens.aio import AsyncSocketServerHandle
from repro.clarens.errors import AuthorizationError, ClarensFault, RemoteFault
from repro.clarens.middleware import (
    UNKNOWN_METHOD,
    CallContext,
    RecorderMiddleware,
    build_pipeline,
)
from repro.clarens.server import ClarensHost
from repro.clarens.transport import AsyncSocketTransport, LoopbackTransport


class TestCallContext:
    def test_defaults(self):
        ctx = CallContext("svc.m", [1, 2])
        assert ctx.method_path == "svc.m"
        assert ctx.params == [1, 2]
        assert ctx.principal is None
        assert ctx.outcome == ""
        assert ctx.transport == "inproc"

    def test_meta_created_lazily(self):
        ctx = CallContext("svc.m", [])
        assert ctx.metadata is None
        ctx.meta()["k"] = "v"
        assert ctx.metadata == {"k": "v"}
        assert ctx.meta() is ctx.metadata


class TestBuildPipeline:
    def test_outermost_first_ordering(self):
        order = []

        def mw(tag):
            def middleware(ctx, call_next):
                order.append(f"{tag}:in")
                result = call_next(ctx)
                order.append(f"{tag}:out")
                return result

            return middleware

        handler = build_pipeline([mw("a"), mw("b")], lambda ctx: "result")
        assert handler(CallContext("x.y", [])) == "result"
        assert order == ["a:in", "b:in", "b:out", "a:out"]

    def test_empty_chain_is_just_the_terminal(self):
        handler = build_pipeline([], lambda ctx: 42)
        assert handler(CallContext("x.y", [])) == 42

    def test_middleware_can_short_circuit(self):
        def gate(ctx, call_next):
            raise AuthorizationError("closed")

        invoked = []
        handler = build_pipeline([gate], lambda ctx: invoked.append(1))
        with pytest.raises(AuthorizationError):
            handler(CallContext("x.y", []))
        assert not invoked


def _recorded(terminal):
    """A bare host's recorder around *terminal*, and that host."""
    host = ClarensHost("h", time_source=lambda: 12.5)
    return build_pipeline([RecorderMiddleware(host)], terminal), host


def _recent(host):
    """The recorded calls, as ``system.recent_calls`` lists them."""
    return host.dispatch("system.recent_calls", [])


def _boom(fault):
    def terminal(ctx):
        raise fault

    return terminal


class TestMetricsMiddleware:
    """The recorder's metrics half (``MetricsMiddleware`` before the merge)."""

    def test_records_latency_and_outcome(self):
        handler, host = _recorded(lambda ctx: "ok")
        handler(CallContext("system.ping", []))
        summary = host.stats.snapshot()["latency_ms"]["system.ping"]
        assert summary["count"] == 1
        assert summary["faults"] == 0
        assert summary["mean_ms"] >= 0.0

    def test_counts_faults(self):
        handler, host = _recorded(_boom(RemoteFault("no")))
        with pytest.raises(RemoteFault):
            handler(CallContext("system.ping", []))
        snap = host.stats.snapshot()
        assert snap["faults"] == 1
        assert snap["latency_ms"]["system.ping"]["faults"] == 1

    def test_one_timing_feeds_context_trace_and_histogram(self):
        handler, host = _recorded(lambda ctx: "ok")
        ctx = CallContext("system.ping", [])
        handler(ctx)
        (record,) = _recent(host)
        summary = host.metrics.get("gae_rpc_latency_ms").summary(method="system.ping")
        assert ctx.duration_ms == record["duration_ms"] == summary["sum"]

    def test_unresolvable_path_is_counted_under_one_label(self):
        handler, host = _recorded(_boom(RemoteFault("no")))
        for i in range(3):
            with pytest.raises(RemoteFault):
                handler(CallContext(f"nope.m{i}", []))
        assert host.stats.snapshot()["per_method"] == {UNKNOWN_METHOD: 3}
        assert [r["method"] for r in _recent(host)] == ["nope.m0", "nope.m1", "nope.m2"]


class TestTracingMiddleware:
    """The recorder's span half (``TracingMiddleware`` before the merge)."""

    def test_stamps_duration_and_records(self):
        handler, host = _recorded(lambda ctx: "ok")
        ctx = CallContext("system.ping", [], trace_id="t-1")
        handler(ctx)
        assert ctx.outcome == "ok"
        assert ctx.duration_ms >= 0.0
        (record,) = _recent(host)
        assert record["trace_id"] == "t-1"
        assert record["started"] == 12.5  # the host clock
        assert record["outcome"] == "ok"
        span = host.tracer.spans("t-1")[0]
        assert span.span_id == ctx.span_id and span.name == "rpc:system.ping"
        assert span.status == "ok"
        assert "served_from" not in span.attributes and "code" not in span.attributes

    def test_fault_recorded_with_code(self):
        handler, host = _recorded(_boom(AuthorizationError("denied")))
        with pytest.raises(AuthorizationError):
            handler(CallContext("system.ping", [], trace_id="t-2"))
        (record,) = _recent(host)
        assert record["outcome"] == "fault"
        assert record["code"] == 403
        assert "denied" in record["error"]
        assert host.tracer.spans("t-2")[0].status == "error"


class TestHostIntegration:
    def test_default_chain_is_rebuilt_on_add_middleware(self):
        host = ClarensHost("h")
        calls = []

        @host.add_middleware
        def spy(ctx, call_next):
            calls.append(ctx.trace_id)
            return call_next(ctx)

        host.dispatch("system.ping", [], "", trace_id="t-3")
        assert calls == ["t-3"]

    def test_context_entry_cached_for_terminal_invoker(self):
        host = ClarensHost("h")
        entries = []

        def spy(ctx, call_next):
            entries.append(ctx.entry)
            return call_next(ctx)

        host.add_middleware(spy)
        host.dispatch("system.ping", [], "")
        # The recorder resolves the entry before user middlewares run.
        assert entries[0] is not None
        assert entries[0].name == "ping"

    def test_collect_reports_the_call_and_leaves_its_span_ended(self):
        """A plain ``collect`` dict gets the finished call's fields; the
        span's finishing write stays with the recorder (only a ``finish``
        key hands it over), so the ``rpc:`` span is ended on return."""
        host = ClarensHost("h")
        for method, outcome, status in (("system.ping", "ok", "ok"),
                                        ("nope.method", "fault", "error")):
            collect = {}
            with contextlib.suppress(ClarensFault):
                host.dispatch(method, [], "", trace_id=f"t-{outcome}", collect=collect)
            assert "finish" not in collect
            assert (collect["trace_id"], collect["outcome"]) == (f"t-{outcome}", outcome)
            assert collect["served_from"] == "execute"
            (span,) = _spans(host, f"rpc:{method}")
            assert span.span_id == collect["span_id"]
            assert span.end is not None and span.status == status
            assert span.attributes["outcome"] == outcome
        assert not host.tracer._active.stack


class _Echo:
    def echo(self, value):
        return value


@contextlib.contextmanager
def _served(via):
    """A host with user ``alice`` and a ``svc.echo`` method, and a ``call``
    that reaches it over *via* (loopback, or framed ``json``) as alice."""
    host = ClarensHost("h", acl=AccessControlList(default_allow=True))
    host.users.add_user("alice", "pw")
    host.register("svc", _Echo())
    with contextlib.ExitStack() as stack:
        if via == "loopback":
            transport = LoopbackTransport(host)
        else:
            handle = stack.enter_context(AsyncSocketServerHandle(host))
            transport = AsyncSocketTransport(handle.address, codec="json")
            stack.callback(transport.close)
        token = transport.call("system.login", ["alice", "pw"])
        yield host, lambda method, *params: transport.call(method, list(params), token=token)


def _spans(host, name):
    return [s for s in host.tracer.spans() if s.name == name]


@pytest.mark.parametrize("via", ["loopback", "json"])
class TestSharedStrings:
    """A retained call span holds no copy of a string the host already
    keeps, and no string a client sent is kept anywhere but its own span."""

    def test_two_calls_of_one_method_by_one_user_share_their_strings(self, via):
        with _served(via) as (host, call):
            assert call("svc.echo", 1) == 1 and call("svc.echo", 2) == 2
        first, second = _spans(host, "rpc:svc.echo")
        entry = host.registry.resolve("svc.echo")
        assert first.name is second.name is entry.span_name
        assert first.attributes["method"] is second.attributes["method"] is entry.path
        assert first.attributes["principal"] == "alice"
        assert first.attributes["principal"] is second.attributes["principal"]
        assert first.attributes["principal"] is host.users.principal("alice").user

    def test_an_unknown_path_is_recorded_as_sent_and_cached_nowhere(self, via):
        with _served(via) as (host, call):
            for _ in range(2):
                with pytest.raises(ClarensFault):
                    call("nope.method", 1)
        first, second = _spans(host, "rpc:nope.method")
        assert first.attributes["method"] == second.attributes["method"] == "nope.method"
        assert first.name is not second.name  # built per call, never memoised
        if via == "json":  # each frame decodes a string of its own: none is interned
            assert first.attributes["method"] is not second.attributes["method"]
        assert host.stats.snapshot()["per_method"][UNKNOWN_METHOD] == 2
        assert not host.registry.has("nope")
