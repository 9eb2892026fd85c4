"""Tests for the redesigned public API surface."""

import pytest

import repro
import repro.clarens
import repro.clarens.api as api
import repro.clarens.transport as transport_mod
from repro.clarens.client import ClarensClient, resolve_transport
from repro.clarens.server import ClarensHost
from repro.clarens.transport import (
    AsyncSocketTransport,
    LoopbackTransport,
    SocketTransport,
    parse_framed_address,
)


class Echo:
    def echo(self, value):
        """Return the argument unchanged."""
        return value


@pytest.fixture
def host():
    h = ClarensHost("t")
    h.users.add_user("u", "p", groups=("g",))
    h.acl.allow("echo.*", groups=("g",))
    h.register("echo", Echo())
    return h


class TestApiSurface:
    def test_api_module_is_single_surface(self):
        for name in api.__all__:
            assert hasattr(api, name), name

    def test_clarens_package_mirrors_api(self):
        assert set(repro.clarens.__all__) == set(api.__all__)
        for name in ("AsyncSocketServerHandle", "AsyncSocketTransport",
                     "LoopbackTransport", "SocketTransport", "ClarensClient",
                     "Codec", "codec_names", "get_codec", "negotiate",
                     "ProtocolError", "TransportClosedError",
                     "resolve_transport", "parse_framed_address"):
            assert getattr(repro.clarens, name) is getattr(api, name)

    def test_top_level_exports_new_names(self):
        for name in ("AsyncSocketServerHandle", "AsyncSocketTransport",
                     "LoopbackTransport", "SocketTransport"):
            assert hasattr(repro, name)
        assert "InProcessTransport" not in repro.__all__
        assert "XmlRpcTransport" not in repro.__all__

    def test_pre_redesign_names_raise_attribute_error(self):
        for module in (repro, repro.clarens, transport_mod):
            for name in ("InProcessTransport", "XmlRpcTransport"):
                with pytest.raises(AttributeError):
                    getattr(module, name)


class TestResolveTransport:
    def test_host_becomes_loopback(self, host):
        assert isinstance(resolve_transport(host), LoopbackTransport)

    def test_http_url_becomes_socket_transport(self):
        t = resolve_transport("http://127.0.0.1:1/RPC2")
        assert isinstance(t, SocketTransport)

    def test_transport_passthrough(self, host):
        t = LoopbackTransport(host)
        assert resolve_transport(t) is t

    def test_codec_rejected_for_non_framed_targets(self, host):
        with pytest.raises(ValueError):
            resolve_transport(host, codec="json")
        with pytest.raises(ValueError):
            resolve_transport("http://x:1/RPC2", codec="json")
        with pytest.raises(ValueError):
            resolve_transport(LoopbackTransport(host), codec="json")

    def test_http_url_accepts_xmlrpc_codec(self):
        t = resolve_transport("http://127.0.0.1:1/RPC2", codec="xmlrpc")
        assert isinstance(t, SocketTransport)

    def test_parse_framed_address_forms(self):
        assert parse_framed_address(("h", 7)) == ("h", 7)
        assert parse_framed_address("clarens://h:7") == ("h", 7)
        assert parse_framed_address("h:7") == ("h", 7)


class TestClientConstruction:
    def test_client_from_host(self, host):
        client = ClarensClient(host)
        assert isinstance(client.transport, LoopbackTransport)
        client.login("u", "p")
        assert client.call("echo.echo", 5) == 5

    def test_client_from_transport_instance(self, host):
        client = ClarensClient(LoopbackTransport(host))
        client.login("u", "p")
        assert client.call("echo.echo", "x") == "x"

    def test_client_clarens_url_uses_async_transport(self, host):
        from repro.clarens.aio import AsyncSocketServerHandle

        with AsyncSocketServerHandle(host) as handle:
            client = ClarensClient(handle.url, codec="xmlrpc")
            try:
                assert isinstance(client.transport, AsyncSocketTransport)
                assert client.transport.codec.name == "xmlrpc"
                client.login("u", "p")
                assert client.call("echo.echo", [1]) == [1]
            finally:
                client.close()

    def test_pipelined_batch_matches_multicall(self, host):
        """batch_reads over a pipelining transport equals the multicall path."""
        from repro.clarens.aio import AsyncSocketServerHandle

        calls = [("echo.echo", i % 3) for i in range(7)] + [("echo.nope",)]
        loop_client = ClarensClient(host)
        loop_client.login("u", "p")
        expected = loop_client.batch_reads(calls)

        with AsyncSocketServerHandle(host) as handle:
            client = ClarensClient(handle.url)
            try:
                client.login("u", "p")
                got = client.batch_reads(calls)
            finally:
                client.close()

        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert (g.ok, g.result, g.code) == (e.ok, e.result, e.code)
