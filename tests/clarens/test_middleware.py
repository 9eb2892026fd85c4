"""Unit tests for the host's one call path: CallContext and ClarensHost.call.

Every call is recorded by the call path itself, through whichever entry
point it arrives: one ``rpc:`` span on ``host.tracer`` and one count in
``host.stats``.  The tests drive ``host.dispatch`` and ``host.call``.
"""

import contextlib

import pytest

from repro.clarens.acl import AccessControlList
from repro.clarens.aio import AsyncSocketServerHandle
from repro.clarens.errors import (
    AuthenticationError,
    AuthorizationError,
    ClarensFault,
    MethodNotFound,
    RemoteFault,
    ServiceNotFound,
)
from repro.clarens.readcache import ReadPolicy
from repro.clarens.registry import clarens_method
from repro.clarens.server import UNKNOWN_METHOD, CallContext, ClarensHost
from repro.clarens.transport import AsyncSocketTransport, LoopbackTransport


class TestCallContext:
    def test_defaults(self):
        ctx = CallContext("svc.m", [1, 2])
        assert ctx.method_path == "svc.m"
        assert ctx.params == [1, 2]
        assert ctx.principal is None
        assert ctx.outcome == ""
        assert ctx.transport == "inproc"
        assert ctx.finish is None and ctx.span_id == ""


class _Svc:
    """``svc.ok`` answers; ``svc.boom`` raises the fault it was given."""

    def __init__(self):
        self.fault = RemoteFault("no")

    @clarens_method(anonymous=True)
    def ok(self):
        return "ok"

    @clarens_method(anonymous=True)
    def boom(self):
        raise self.fault


def _recorded():
    """A bare host on a fixed clock with an anonymous ``svc`` service."""
    host = ClarensHost("h", time_source=lambda: 12.5)
    service = _Svc()
    host.register("svc", service)
    return host, service


def _recent(host):
    """The recorded calls, as ``system.recent_calls`` lists them (a view
    read in place, so reading it records no call)."""
    return host.registry.resolve("system.recent_calls").func(-1)


class TestMetricsMiddleware:
    """What the call path counts in ``host.metrics``."""

    def test_records_latency_and_outcome(self):
        host, _ = _recorded()
        host.dispatch("svc.ok", [])
        summary = host.stats.snapshot()["latency_ms"]["svc.ok"]
        assert summary["count"] == 1
        assert summary["faults"] == 0
        assert summary["mean_ms"] >= 0.0

    def test_counts_faults(self):
        host, _ = _recorded()
        with pytest.raises(RemoteFault):
            host.dispatch("svc.boom", [])
        snap = host.stats.snapshot()
        assert snap["faults"] == 1
        assert snap["latency_ms"]["svc.boom"]["faults"] == 1

    def test_one_timing_feeds_context_trace_and_histogram(self):
        host, _ = _recorded()
        ctx = CallContext("svc.ok", [], trace_id="t-0")
        assert host.call(ctx) == "ok"
        (record,) = _recent(host)
        summary = host.metrics.get("gae_rpc_latency_ms").summary(method="svc.ok")
        assert ctx.duration_ms == record["duration_ms"] == summary["sum"]

    def test_unresolvable_path_is_counted_under_one_label(self):
        host, _ = _recorded()
        for i in range(3):
            with pytest.raises(ClarensFault):
                host.dispatch(f"nope.m{i}", [])
        assert host.stats.snapshot()["per_method"] == {UNKNOWN_METHOD: 3}
        assert [r["method"] for r in _recent(host)] == ["nope.m0", "nope.m1", "nope.m2"]


class TestTracingMiddleware:
    """The ``rpc:`` span the call path records."""

    def test_stamps_duration_and_records(self):
        host, _ = _recorded()
        ctx = CallContext("svc.ok", [], trace_id="t-1")
        host.call(ctx)
        assert ctx.outcome == "ok"
        assert ctx.duration_ms >= 0.0
        (record,) = _recent(host)
        assert record["trace_id"] == "t-1"
        assert record["started"] == 12.5  # the host clock
        assert record["outcome"] == "ok"
        span = host.tracer.spans("t-1")[0]
        assert span.span_id == ctx.span_id and span.name == "rpc:svc.ok"
        assert span.status == "ok"
        assert "served_from" not in span.attributes and "code" not in span.attributes

    def test_fault_recorded_with_code(self):
        host, service = _recorded()
        service.fault = AuthorizationError("denied")
        with pytest.raises(AuthorizationError):
            host.dispatch("svc.boom", [], trace_id="t-2")
        (record,) = _recent(host)
        assert record["outcome"] == "fault"
        assert record["code"] == 403
        assert "denied" in record["error"]
        assert host.tracer.spans("t-2")[0].status == "error"


class TestHostIntegration:
    def test_context_entry_cached_for_terminal_invoker(self):
        """The call resolves the path once and keeps the entry on the context."""
        host = ClarensHost("h")
        ctx = CallContext("system.ping", [])
        assert host.call(ctx) == "pong"
        assert ctx.entry is host.registry.resolve("system.ping")
        assert ctx.entry.name == "ping"

    def test_collect_reports_the_call_and_leaves_its_span_ended(self):
        """A ``collect`` dict gets the finished call's fields, and the
        ``rpc:`` span is ended on return."""
        host = ClarensHost("h")
        for method, outcome, status in (("system.ping", "ok", "ok"),
                                        ("nope.method", "fault", "error")):
            collect = {}
            with contextlib.suppress(ClarensFault):
                host.dispatch(method, [], "", trace_id=f"t-{outcome}", collect=collect)
            assert set(collect) == {"trace_id", "outcome", "served_from", "span_id"}
            assert (collect["trace_id"], collect["outcome"]) == (f"t-{outcome}", outcome)
            assert collect["served_from"] == "execute"
            (span,) = _spans(host, f"rpc:{method}")
            assert span.span_id == collect["span_id"]
            assert span.end is not None and span.status == status
            assert span.attributes["outcome"] == outcome
        assert not host.tracer._active.stack

    def test_a_span_left_open_is_handed_back_on_the_context(self):
        """``end_span=False`` (the framed server's call) leaves the span
        open and off the active stack, with its finishing write on
        ``ctx.finish``; everything else is recorded as usual."""
        host = ClarensHost("h")
        for method, outcome, status in (("system.ping", "ok", "ok"),
                                        ("nope.method", "fault", "error")):
            ctx = CallContext(method, [], trace_id=f"t-{outcome}")
            with contextlib.suppress(ClarensFault):
                host.call(ctx, end_span=False)
            assert not host.tracer._active.stack
            (span,) = _spans(host, f"rpc:{method}")
            assert span.span_id == ctx.span_id and span.end is None
            finish_status, fields = ctx.finish
            assert finish_status == status and fields["outcome"] == outcome
            host.tracer.end_span(ctx.span, finish_status, attributes=fields)
            (span,) = _spans(host, f"rpc:{method}")
            assert span.end is not None and span.status == status
        assert host.stats.snapshot()["per_method"] == {"system.ping": 1, UNKNOWN_METHOD: 1}


class TestOneCallPath:
    def test_every_entry_point_runs_the_one_call_path(self):
        """``dispatch``, ``invoke_as``, ``invoke_in_context``, multicall
        sub-calls and the framed server all run ``ClarensHost.call``."""
        host = ClarensHost("h")
        ran = []
        call = host.call

        def spy(ctx, end_span=True):
            ran.append((ctx.method_path, end_span))
            return call(ctx, end_span)

        host.call = spy
        host.dispatch("system.ping", [])
        host.invoke_as(host.principal_of(""), "system.host_name", [])
        host.invoke_in_context(CallContext("system.ping", []), "system.list_services", [])
        host.dispatch("system.multicall", [[{"methodName": "system.ping", "params": []}]])
        with AsyncSocketServerHandle(host) as handle:
            with AsyncSocketTransport(handle.address, codec="json") as transport:
                transport.call("system.host_name", [])
        assert ran == [
            ("system.ping", True), ("system.host_name", True),
            ("system.list_services", True),
            ("system.multicall", True), ("system.ping", True),
            ("system.host_name", False),
        ]


class _Reads:
    """``reads.get``: a cached read, open to group ``g`` only."""

    def __init__(self):
        self.executions = 0

    @clarens_method(cache=ReadPolicy(depends_on=("scheduler",)))
    def get(self, key):
        self.executions += 1
        return key


def test_the_stages_refuse_in_order():
    """Authentication, then the unknown path, then the anonymous flag,
    then the ACL, then the read cache: a cached answer never skips a check."""
    host = ClarensHost("h")
    host.users.add_user("alice", "pw", groups=("g",))
    host.users.add_user("eve", "pw", groups=("strangers",))
    host.acl.allow("reads.*", groups=("g",))
    reads = _Reads()
    host.register("reads", reads)
    alice = host.dispatch("system.login", ["alice", "pw"])
    eve = host.dispatch("system.login", ["eve", "pw"])
    assert host.dispatch("reads.get", ["k"], alice) == "k"
    assert host.dispatch("reads.get", ["k"], alice) == "k"
    assert reads.executions == 1
    refusals = [
        ("nope.get", "garbage", AuthenticationError),  # before the path is looked at
        ("nope.get", "", ServiceNotFound),  # before the anonymous flag
        ("reads.nope", alice, MethodNotFound),
        ("reads.get", "", AuthenticationError),  # anonymous, even with a cached answer
        ("reads.get", eve, AuthorizationError),  # the ACL, even with a cached answer
    ]
    for method, token, fault in refusals:
        with pytest.raises(fault):
            host.dispatch(method, ["k"], token)
    assert reads.executions == 1
    assert host.read_cache.snapshot()["per_method"]["reads.get"]["hits"] == 1


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
