"""Unit tests for the client facade and service proxies."""

import pytest

from repro.clarens.client import ClarensClient, ServiceProxy
from repro.clarens.errors import AuthenticationError
from repro.clarens.server import ClarensHost
from repro.clarens.transport import LoopbackTransport


class Greeter:
    def greet(self, name):
        return f"hello {name}"


@pytest.fixture
def client():
    host = ClarensHost()
    host.users.add_user("u", "p", groups=("g",))
    host.acl.allow("greeter.*", groups=("g",))
    host.register("greeter", Greeter())
    return ClarensClient(LoopbackTransport(host))


class TestSession:
    def test_login_stores_token(self, client):
        token = client.login("u", "p")
        assert client.token == token
        assert client.logged_in

    def test_login_failure_raises(self, client):
        with pytest.raises(AuthenticationError):
            client.login("u", "wrong")
        assert not client.logged_in

    def test_logout_clears_token(self, client):
        client.login("u", "p")
        client.logout()
        assert client.token == ""

    def test_logout_without_login_is_noop(self, client):
        client.logout()

    def test_logout_of_a_dead_session_drops_the_token(self, client):
        client.login("u", "p")
        client.transport.call("system.logout", [client.token])
        client.logout()
        assert not client.logged_in


class TestCalls:
    def test_call_carries_token(self, client):
        client.login("u", "p")
        assert client.call("greeter.greet", "world") == "hello world"

    def test_unauthenticated_call_fails(self, client):
        with pytest.raises(AuthenticationError):
            client.call("greeter.greet", "world")

    def test_service_proxy_attribute_call(self, client):
        client.login("u", "p")
        proxy = client.service("greeter")
        assert isinstance(proxy, ServiceProxy)
        assert proxy.greet("x") == "hello x"

    def test_proxy_rejects_private_attributes(self, client):
        proxy = client.service("greeter")
        with pytest.raises(AttributeError):
            proxy._hidden

    def test_introspection_helpers(self, client):
        assert "greeter" in client.list_services()
        assert client.list_methods("greeter") == ["greet"]
        assert client.ping()


class TestBatch:
    def test_batch_returns_results_in_order(self, client):
        client.login("u", "p")
        results = client.batch([
            ("greeter.greet", "a"),
            ("system.ping",),
            ("greeter.greet", "b"),
        ])
        assert results == ["hello a", "pong", "hello b"]

    def test_batch_raises_typed_fault_on_failure(self, client):
        from repro.clarens.errors import ServiceNotFound

        client.login("u", "p")
        with pytest.raises(ServiceNotFound):
            client.batch([("ghost.method",)])

    def test_batch_detailed_never_raises(self, client):
        from repro.clarens.serialization import MulticallResult

        client.login("u", "p")
        detailed = client.batch_detailed([
            ("greeter.greet", "x"),
            ("ghost.method",),
        ])
        assert all(isinstance(r, MulticallResult) for r in detailed)
        assert detailed[0].ok is True
        assert detailed[0].result == "hello x"
        assert detailed[1].ok is False
        assert detailed[1].code == 404

    def test_batch_results_share_one_trace_id(self, client):
        client.login("u", "p")
        detailed = client.batch_detailed([
            ("greeter.greet", "x"),
            ("system.ping",),
        ])
        assert detailed[0].trace_id
        assert detailed[0].trace_id == detailed[1].trace_id


class TestContextManager:
    def test_with_block_logs_out_and_closes(self, client):
        with client:
            client.login("u", "p")
            assert client.logged_in
        assert not client.logged_in
        assert client.transport.closed

    def test_close_is_idempotent(self, client):
        client.login("u", "p")
        client.close()
        client.close()
        assert client.transport.closed

    def test_close_swallows_dead_session(self, client):
        client.login("u", "p")
        # Revoke behind the client's back: close() must still succeed.
        token = client.token
        client.transport.call("system.logout", [token])
        client.close()
        assert not client.logged_in


class TestTracing:
    def test_new_trace_is_carried_and_recorded(self, client):
        client.login("u", "p")
        trace = client.new_trace()
        client.service("greeter").greet("x")
        records = client.call("system.recent_calls", 50, trace)
        assert [r["method"] for r in records] == ["greeter.greet"]

    def test_explicit_trace_id(self, client):
        assert client.new_trace("my-trace") == "my-trace"
        assert client.trace_id == "my-trace"
