"""Unit tests for the ClarensHost dispatcher and its system service."""

import pytest

from repro.clarens.errors import (
    AuthenticationError,
    AuthorizationError,
    MethodNotFound,
    ProtocolError,
    RemoteFault,
    ServiceNotFound,
)
from repro.clarens.registry import clarens_method
from repro.clarens.server import TRACE_CAPACITY, ClarensHost


class Calculator:
    def add(self, a, b):
        """Add two numbers."""
        return a + b

    def fail(self):
        raise ValueError("exploded")


class PersonalService:
    @clarens_method(pass_principal=True)
    def whoami(self, principal):
        return principal.user


@pytest.fixture
def host():
    h = ClarensHost("test-host")
    h.users.add_user("alice", "pw", groups=("users",))
    h.acl.allow("calc.*", groups=("users",))
    h.acl.allow("personal.*", groups=("users",))
    h.register("calc", Calculator())
    h.register("personal", PersonalService())
    return h


def login(host, user="alice", pw="pw"):
    return host.dispatch("system.login", [user, pw])


class TestDispatch:
    def test_authenticated_call(self, host):
        token = login(host)
        assert host.dispatch("calc.add", [2, 3], token) == 5

    def test_anonymous_call_to_protected_method_rejected(self, host):
        with pytest.raises(AuthenticationError):
            host.dispatch("calc.add", [2, 3], token="")

    def test_acl_denial(self, host):
        host.users.add_user("eve", "pw", groups=("strangers",))
        token = login(host, "eve")
        with pytest.raises(AuthorizationError):
            host.dispatch("calc.add", [1, 1], token)

    def test_unknown_service(self, host):
        with pytest.raises(ServiceNotFound):
            host.dispatch("ghost.x", [], "")

    def test_unknown_method(self, host):
        with pytest.raises(MethodNotFound):
            host.dispatch("calc.ghost", [], "")

    def test_application_error_becomes_remote_fault(self, host):
        token = login(host)
        with pytest.raises(RemoteFault) as exc:
            host.dispatch("calc.fail", [], token)
        assert "exploded" in str(exc.value)

    def test_result_marshalled_to_wire(self, host):
        token = login(host)
        result = host.dispatch("calc.add", [(1, 2), (3,)], token)
        # tuples in = concatenated tuple out, lowered to a list
        assert result == [1, 2, 3]

    def test_principal_injection(self, host):
        token = login(host)
        assert host.dispatch("personal.whoami", [], token) == "alice"

    def test_principal_of(self, host):
        token = login(host)
        assert host.principal_of(token).user == "alice"
        assert host.principal_of("").is_anonymous


class TestSystemService:
    def test_ping_anonymous(self, host):
        assert host.dispatch("system.ping", [], "") == "pong"

    def test_list_services(self, host):
        assert host.dispatch("system.list_services", [], "") == [
            "calc", "personal", "system",
        ]

    def test_list_methods(self, host):
        methods = host.dispatch("system.list_methods", ["calc"], "")
        assert methods == ["add", "fail"]

    def test_method_help(self, host):
        assert host.dispatch("system.method_help", ["calc.add"], "") == "Add two numbers."

    def test_host_name(self, host):
        assert host.dispatch("system.host_name", [], "") == "test-host"

    def test_logout_revokes(self, host):
        token = login(host)
        host.dispatch("system.logout", [token], "")
        with pytest.raises(AuthenticationError):
            host.dispatch("calc.add", [1, 1], token)


class TestStats:
    def test_call_counting(self, host):
        token = login(host)
        host.dispatch("calc.add", [1, 1], token)
        host.dispatch("calc.add", [2, 2], token)
        assert host.stats.snapshot()["per_method"]["calc.add"] == 2

    def test_fault_counting(self, host):
        token = login(host)
        with pytest.raises(RemoteFault):
            host.dispatch("calc.fail", [], token)
        assert host.stats.snapshot()["faults"] == 1

    def test_session_expiry_uses_injected_clock(self):
        clock = {"now": 0.0}
        host = ClarensHost(time_source=lambda: clock["now"], session_lifetime_s=10.0)
        host.users.add_user("u", "p")
        token = host.dispatch("system.login", ["u", "p"])
        clock["now"] = 11.0
        with pytest.raises(AuthenticationError):
            host.principal_of(token)


class TestSystemStats:
    def test_stats_exposed_anonymously(self, host):
        token = login(host)
        host.dispatch("calc.add", [1, 1], token)
        stats = host.dispatch("system.stats", [], "")
        assert stats["calls"] >= 2  # the login + the add at least
        assert stats["per_method"]["calc.add"] == 1
        assert "faults" in stats

    def test_stats_report_latency_percentiles(self, host):
        token = login(host)
        for _ in range(10):
            host.dispatch("calc.add", [1, 1], token)
        latency = host.dispatch("system.stats", [], "")["latency_ms"]["calc.add"]
        assert latency["count"] == 10
        assert latency["faults"] == 0
        for key in ("mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"):
            assert latency[key] >= 0.0
        assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"] <= latency["max_ms"]


class TestRecentCalls:
    def test_finished_calls_land_in_the_ring(self, host):
        token = login(host)
        host.dispatch("calc.add", [1, 2], token)
        records = host.dispatch("system.recent_calls", [10], "")
        assert records[-1]["method"] == "calc.add"
        assert records[-1]["outcome"] == "ok"
        assert records[-1]["principal"] == "alice"
        assert records[-1]["trace_id"]

    def test_fault_outcome_recorded(self, host):
        token = login(host)
        with pytest.raises(RemoteFault):
            host.dispatch("calc.fail", [], token)
        records = host.dispatch("system.recent_calls", [10], "")
        rec = [r for r in records if r["method"] == "calc.fail"][0]
        assert rec["outcome"] == "fault"
        assert rec["code"] == 520
        assert "exploded" in rec["error"]

    def test_trace_id_filter(self, host):
        host.dispatch("system.ping", [], "", trace_id="t-123")
        host.dispatch("system.ping", [], "")
        records = host.dispatch("system.recent_calls", [50, "t-123"], "")
        assert [r["trace_id"] for r in records] == ["t-123"]

    def test_limit_keeps_the_newest(self, host):
        for i in range(5):
            host.dispatch("system.ping", [], "", trace_id=f"t-{i}")
        records = host.dispatch("system.recent_calls", [2], "")
        assert [r["trace_id"] for r in records] == ["t-3", "t-4"]
        assert len(host.dispatch("system.recent_calls", [-1], "")) == 6  # + the read above

    def test_rows_are_plain_wire_dicts(self, host):
        host.dispatch("system.ping", [], "")
        (row,) = host.dispatch("system.recent_calls", [1], "")
        assert set(row) == {
            "trace_id", "method", "transport", "principal", "started",
            "duration_ms", "outcome", "code", "error", "served_from",
        }
        assert (row["code"], row["error"], row["served_from"]) == (0, "", "execute")

    def test_spans_without_the_recorders_fields_are_not_listed(self, host):
        """An ``rpc:`` span as a format-2 checkpoint restores it (opened by a
        middleware that recorded only the method and transport)."""
        host.tracer.instant(
            "rpc:calc.add", trace_id="old", attributes={"method": "calc.add", "transport": "inproc"}
        )
        host.dispatch("system.ping", [], "", trace_id="new")
        records = host.dispatch("system.recent_calls", [-1], "")
        assert [r["trace_id"] for r in records] == ["new"]

    def test_the_ring_is_the_host_tracer(self, host):
        """A host's own tracer keeps its newest calls as finished ``rpc:``
        spans; the reading call is still open, so it is not listed."""
        for i in range(TRACE_CAPACITY + 10):
            host.dispatch("system.ping", [], "")
        assert len(host.tracer) == host.tracer.capacity == TRACE_CAPACITY
        records = host.dispatch("system.recent_calls", [-1], "")
        assert len(records) == TRACE_CAPACITY - 1
        assert {s.name for s in host.tracer.spans()} == {"rpc:system.ping", "rpc:system.recent_calls"}


class TestConcurrentDispatch:
    def test_16_threads_no_lost_stat_updates(self, host):
        """Regression: recording a call used to race under the threaded
        XML-RPC server (plain-dict read-modify-write with no lock)."""
        import threading

        token = login(host)
        calls_per_thread = 200
        n_threads = 16
        errors = []

        def hammer():
            try:
                for _ in range(calls_per_thread):
                    host.dispatch("calc.add", [1, 1], token)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        snapshot = host.stats.snapshot()
        assert snapshot["per_method"]["calc.add"] == n_threads * calls_per_thread
        latency = snapshot["latency_ms"]["calc.add"]
        assert latency["count"] == n_threads * calls_per_thread
        assert latency["faults"] == 0


class TestUnknownMethodLabel:
    def test_bogus_paths_add_one_method_label(self, host):
        """Regression: per-method state was keyed by the path as sent, so an
        unauthenticated client grew server memory one reservoir per path."""
        from repro.clarens.aio import AsyncSocketServerHandle
        from repro.clarens.server import UNKNOWN_METHOD
        from repro.clarens.transport import AsyncSocketTransport

        def labels(name):
            return {
                labels["method"]
                for labels, _ in host.metrics.get(name).series()
            }

        host.dispatch("system.ping", [])
        for i in range(1000):
            with pytest.raises(ServiceNotFound):
                host.dispatch(f"nope.m{i}", [])
        with AsyncSocketServerHandle(host) as handle:
            with AsyncSocketTransport(handle.address, codec="json") as sock:
                sock.call("system.ping", [])
                for i in range(1000):  # rejected before the path is resolved
                    with pytest.raises(AuthenticationError):
                        sock.call(f"system.m{i}", [], token="not-a-session")
        for name in ("gae_rpc_calls_total", "gae_rpc_latency_ms"):
            assert labels(name) == {"system.ping", UNKNOWN_METHOD}
        stats = host.dispatch("system.stats", [])
        assert stats["per_method"] == {"system.ping": 2, UNKNOWN_METHOD: 2000}
        assert set(stats["latency_ms"]) == {"system.ping", UNKNOWN_METHOD}
        # The bounded ring still shows the path as the caller sent it.
        newest = host.dispatch("system.recent_calls", [2])
        assert [r["method"] for r in newest] == ["system.m999", "system.stats"]


class TestMulticall:
    def test_batch_of_calls_under_one_token(self, host):
        token = login(host)
        results = host.dispatch(
            "system.multicall",
            [[
                {"methodName": "calc.add", "params": [1, 2]},
                {"methodName": "calc.add", "params": [3, 4]},
                {"methodName": "system.ping", "params": []},
            ]],
            token,
        )
        assert [r["ok"] for r in results] == [True, True, True]
        assert [r["result"] for r in results] == [3, 7, "pong"]

    def test_one_failure_does_not_poison_the_batch(self, host):
        token = login(host)
        results = host.dispatch(
            "system.multicall",
            [[
                {"methodName": "calc.fail", "params": []},
                {"methodName": "calc.add", "params": [5, 5]},
            ]],
            token,
        )
        assert results[0]["ok"] is False
        assert "exploded" in results[0]["error"]
        assert results[1]["ok"] is True
        assert results[1]["result"] == 10

    def test_acl_enforced_per_subcall(self, host):
        host.users.add_user("eve", "pw", groups=("strangers",))
        token = login(host, "eve")
        results = host.dispatch(
            "system.multicall",
            [[{"methodName": "calc.add", "params": [1, 1]},
              {"methodName": "system.ping", "params": []}]],
            token,
        )
        assert results[0]["ok"] is False
        assert results[0]["code"] == 403
        assert results[1]["ok"] is True

    def test_anonymous_multicall_limited_to_anonymous_methods(self, host):
        results = host.dispatch(
            "system.multicall",
            [[{"methodName": "system.ping", "params": []},
              {"methodName": "calc.add", "params": [1, 1]}]],
            "",
        )
        assert results[0]["ok"] is True
        assert results[1]["ok"] is False
        assert results[1]["code"] == 401

    def test_nested_multicall_rejected(self, host):
        results = host.dispatch(
            "system.multicall",
            [[{"methodName": "system.multicall", "params": [[]]}]],
            "",
        )
        assert results[0]["ok"] is False
        assert "nested" in results[0]["error"]

    def test_subcalls_share_the_batch_trace_id(self, host):
        token = login(host)
        results = host.dispatch(
            "system.multicall",
            [[{"methodName": "calc.add", "params": [1, 2]},
              {"methodName": "system.ping", "params": []}]],
            token,
            trace_id="batch-7",
        )
        assert [r["trace_id"] for r in results] == ["batch-7", "batch-7"]
        records = host.dispatch("system.recent_calls", [50, "batch-7"], "")
        # Start order: the batch is listed before the sub-calls it ran.
        assert [r["method"] for r in records] == ["system.multicall", "calc.add", "system.ping"]
        batch, *subcalls = host.tracer.spans("batch-7")
        assert all(s.parent_id == batch.span_id for s in subcalls)

    def test_multicall_over_real_xmlrpc(self, host):
        from repro.clarens.client import ClarensClient
        from repro.clarens.transport import SocketTransport
        from repro.clarens.xmlrpc_server import XmlRpcServerHandle

        with XmlRpcServerHandle(host) as handle:
            client = ClarensClient(SocketTransport(handle.url))
            client.login("alice", "pw")
            results = client.call(
                "system.multicall",
                [{"methodName": "calc.add", "params": [2, 2]},
                 {"methodName": "system.host_name", "params": []}],
            )
            assert results[0]["result"] == 4
            assert results[1]["result"] == "test-host"


@pytest.fixture(params=["loopback", "json"])
def wire_call(request, host):
    """``call(method, params)`` as alice over loopback or the framed socket."""
    from repro.clarens.aio import AsyncSocketServerHandle
    from repro.clarens.transport import AsyncSocketTransport, LoopbackTransport

    if request.param == "loopback":
        transport = LoopbackTransport(host)
        token = transport.call("system.login", ["alice", "pw"])
        yield lambda method, params: transport.call(method, params, token=token)
        return
    with AsyncSocketServerHandle(host) as handle:
        with AsyncSocketTransport(handle.address, codec="json") as transport:
            token = transport.call("system.login", ["alice", "pw"])
            yield lambda method, params: transport.call(method, params, token=token)


class TestMulticallInput:
    """A multicall batch arrives from the wire as any value: each entry is
    checked before it runs, never spread as if it were an argument list."""

    def test_params_that_are_not_a_list_refuse_that_entry_only(self, wire_call):
        results = wire_call("system.multicall", [[
            {"methodName": "calc.add", "params": "12"},
            {"methodName": "calc.add", "params": {"x": 1, "y": 2}},
            {"methodName": "calc.add", "params": [1, 2]},
        ]])
        assert [(r["ok"], r["code"]) for r in results[:2]] == [(False, 400), (False, 400)]
        assert results[0]["error"] == "calls[0].params is not a list"
        assert results[1]["error"] == "calls[1].params is not a list"
        assert results[2]["ok"] is True and results[2]["result"] == 3

    def test_an_entry_that_is_not_a_struct_is_refused(self, wire_call):
        results = wire_call("system.multicall", [[
            7, ["calc.add", [1, 2]], {"methodName": "system.ping", "params": []},
        ]])
        assert [r["code"] for r in results[:2]] == [400, 400]
        assert [r["error"] for r in results[:2]] == [
            "calls[0] is not a struct", "calls[1] is not a struct",
        ]
        assert results[2]["ok"] is True and results[2]["result"] == "pong"

    def test_a_missing_params_is_an_empty_list(self, wire_call):
        (result,) = wire_call("system.multicall", [[{"methodName": "system.ping"}]])
        assert result["ok"] is True and result["result"] == "pong"

    @pytest.mark.parametrize("batch", [5, "calc.add", {"methodName": "system.ping"}])
    def test_a_batch_that_is_not_a_list_is_a_protocol_error(self, wire_call, batch):
        with pytest.raises(ProtocolError, match="takes a list of calls"):
            wire_call("system.multicall", [batch])
