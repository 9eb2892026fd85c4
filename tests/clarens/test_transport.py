"""Unit tests for the two transports (in-process and XML-RPC)."""

import threading

import pytest

from repro.clarens.client import ClarensClient
from repro.clarens.errors import (
    AuthenticationError,
    RemoteFault,
    SerializationError,
    TransportError,
)
from repro.clarens.server import ClarensHost, XmlRpcServerHandle
from repro.clarens.transport import LoopbackTransport, SocketTransport


class Echo:
    def echo(self, value):
        """Return the argument unchanged."""
        return value

    def boom(self):
        raise RuntimeError("kaput")


@pytest.fixture
def host():
    h = ClarensHost("t")
    h.users.add_user("u", "p", groups=("g",))
    h.acl.allow("echo.*", groups=("g",))
    h.register("echo", Echo())
    return h


@pytest.fixture
def xmlrpc_server(host):
    with XmlRpcServerHandle(host) as handle:
        yield handle


class TestLoopbackTransport:
    def test_round_trip(self, host):
        t = LoopbackTransport(host)
        token = t.call("system.login", ["u", "p"])
        assert t.call("echo.echo", [{"a": [1, 2]}], token) == {"a": [1, 2]}

    def test_strict_wire_catches_bad_params(self, host):
        t = LoopbackTransport(host)
        token = t.call("system.login", ["u", "p"])
        with pytest.raises(SerializationError):
            t.call("echo.echo", [object()], token)

    def test_non_strict_passes_objects(self, host):
        t = LoopbackTransport(host, strict_wire=False)
        token = t.call("system.login", ["u", "p"])
        # Without strict wire the host still marshals the *result*, so a
        # non-wire-safe result would fail; plain values pass.
        assert t.call("echo.echo", [5], token) == 5


class TestSocketTransport:
    def test_round_trip_over_sockets(self, xmlrpc_server):
        t = SocketTransport(xmlrpc_server.url)
        token = t.call("system.login", ["u", "p"])
        assert t.call("echo.echo", [{"k": "v"}], token) == {"k": "v"}

    def test_fault_rehydrated_to_typed_exception(self, xmlrpc_server):
        t = SocketTransport(xmlrpc_server.url)
        with pytest.raises(AuthenticationError):
            t.call("echo.echo", ["x"], token="")

    def test_application_error_travels_as_remote_fault(self, xmlrpc_server):
        t = SocketTransport(xmlrpc_server.url)
        token = t.call("system.login", ["u", "p"])
        with pytest.raises(RemoteFault) as exc:
            t.call("echo.boom", [], token)
        assert "kaput" in str(exc.value)

    def test_unreachable_server_raises_transport_error(self):
        t = SocketTransport("http://127.0.0.1:1/RPC2", timeout_s=0.5)
        with pytest.raises(TransportError):
            t.call("system.ping", [])

    def test_concurrent_clients_each_with_own_transport(self, xmlrpc_server):
        results = []
        errors = []

        def worker():
            try:
                t = SocketTransport(xmlrpc_server.url)
                token = t.call("system.login", ["u", "p"])
                for _ in range(5):
                    results.append(t.call("echo.echo", ["hi"], token))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        assert results.count("hi") == 40


class TestTransportEquivalence:
    def test_same_result_on_both_transports(self, host, xmlrpc_server):
        payload = {"nested": [1, 2.5, "x", None, True], "t": [1, 2]}
        local = LoopbackTransport(host)
        remote = SocketTransport(xmlrpc_server.url)
        tok_l = local.call("system.login", ["u", "p"])
        tok_r = remote.call("system.login", ["u", "p"])
        assert local.call("echo.echo", [payload], tok_l) == remote.call(
            "echo.echo", [payload], tok_r
        )

    def test_client_facade_over_both(self, host, xmlrpc_server):
        for transport in (LoopbackTransport(host), SocketTransport(xmlrpc_server.url)):
            client = ClarensClient(transport)
            client.login("u", "p")
            assert client.ping()
            assert client.service("echo").echo("abc") == "abc"
            client.logout()
            assert not client.logged_in


class TestTracePropagation:
    def test_inprocess_trace_reaches_the_host(self, host):
        t = LoopbackTransport(host)
        t.call("system.ping", [], trace_id="trace-local")
        records = host.dispatch("system.recent_calls", [50, "trace-local"])
        assert [r["method"] for r in records] == ["system.ping"]
        assert records[0]["transport"] == "inproc"

    def test_xmlrpc_trace_travels_the_wire(self, host, xmlrpc_server):
        t = SocketTransport(xmlrpc_server.url)
        token = t.call("system.login", ["u", "p"])
        t.call("echo.echo", ["traced"], token, trace_id="trace-wire")
        records = host.dispatch("system.recent_calls", [50, "trace-wire"])
        assert [r["method"] for r in records] == ["echo.echo"]
        assert records[0]["transport"] == "xmlrpc"
        assert records[0]["principal"] == "u"

    def test_wire_token_still_authenticates_with_trace_attached(self, xmlrpc_server):
        t = SocketTransport(xmlrpc_server.url)
        token = t.call("system.login", ["u", "p"])
        # A traced call to a protected method must not corrupt the token.
        assert t.call("echo.echo", [1], token, trace_id="x-1") == 1


class TestClose:
    def test_inprocess_close_is_idempotent(self, host):
        t = LoopbackTransport(host)
        t.close()
        t.close()
        assert t.closed

    def test_xmlrpc_close_is_idempotent(self, xmlrpc_server):
        t = SocketTransport(xmlrpc_server.url)
        assert t.call("system.ping", []) == "pong"
        t.close()
        t.close()
        assert t.closed

    def test_transport_context_manager(self, xmlrpc_server):
        with SocketTransport(xmlrpc_server.url) as t:
            assert t.call("system.ping", []) == "pong"
        assert t.closed
