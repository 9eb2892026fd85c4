"""Integration tests for the framed server + AsyncSocketTransport."""

import contextlib
import socket
import threading
import time

import pytest

from repro.clarens.aio import AsyncSocketServerHandle
from repro.clarens.client import ClarensClient
from repro.clarens.codecs import get_codec
from repro.clarens.errors import (
    AuthenticationError,
    ClarensFault,
    ProtocolError,
    RemoteFault,
    TransportClosedError,
    TransportError,
)
from repro.clarens.framing import (
    CALL,
    ERROR,
    HELLO,
    REPLY,
    WELCOME,
    decode_hello,
    encode_error,
    encode_frame,
    encode_hello,
    encode_welcome,
    read_frame_from,
)
from repro.clarens.serialization import decode_trace_token
from repro.clarens.server import ClarensHost
from repro.clarens.transport import AsyncSocketTransport


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


def _recent_calls(host, trace_id):
    return host.dispatch("system.recent_calls", [50, trace_id])


def _reader(sock):
    """A ``read_exact`` over a blocking socket, for ``read_frame_from``."""

    def read_exact(n):
        data = b""
        while len(data) < n:
            chunk = sock.recv(n - len(data))
            assert chunk, "the peer hung up"
            data += chunk
        return data

    return read_exact


def _handshake(sock):
    sock.sendall(encode_frame(HELLO, 0, encode_hello(("json",))))
    assert read_frame_from(_reader(sock))[0] == WELCOME


@contextlib.contextmanager
def scripted_peer(script):
    """A one-connection framed server: accepts, answers the HELLO with a
    WELCOME for the client's first codec, then runs ``script(sock, codec)``.
    Yields its address."""
    listener = socket.create_server(("127.0.0.1", 0))
    failures = []

    def serve():
        try:
            sock, _ = listener.accept()
            with sock:
                read_exact = _reader(sock)
                frame_type, hello_id, payload = read_frame_from(read_exact)
                assert frame_type == HELLO
                codec = get_codec(decode_hello(payload)[1][0])
                sock.sendall(encode_frame(WELCOME, hello_id, encode_welcome(codec.name, "peer")))
                script(sock, codec)
        except Exception as exc:  # surfaced by the test, not lost in the thread
            failures.append(exc)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        thread.join(timeout=10.0)
        listener.close()
    assert not thread.is_alive() and not failures, failures


@contextlib.contextmanager
def reversing_peer():
    """A scripted peer that answers a pipelined pair of calls in reverse
    order, 20 ms apart, each with its first parameter.  Yields its address
    and the ``(method, token, trace_id)`` of each call it read."""
    seen = []

    def script(sock, codec):
        read_exact = _reader(sock)
        calls = [read_frame_from(read_exact) for _ in range(2)]
        for frame_type, request_id, payload in reversed(calls):
            assert frame_type == CALL
            method, wire_token, params = codec.decode_request(payload)
            seen.append((method, *decode_trace_token(wire_token)))
            sock.sendall(encode_frame(REPLY, request_id, codec.encode_response(params[0])))
            time.sleep(0.02)
        seen.reverse()

    with scripted_peer(script) as address:
        yield address, seen


@pytest.fixture
def server(host):
    with AsyncSocketServerHandle(host) as handle:
        yield handle


@pytest.mark.parametrize("codec", ["json", "xmlrpc"])
class TestRoundTrip:
    def test_call_round_trip(self, server, codec):
        with AsyncSocketTransport(server.address, codec=codec) as t:
            token = t.call("system.login", ["u", "p"])
            assert t.call("echo.echo", [{"a": [1, 2]}], token) == {"a": [1, 2]}

    def test_negotiated_codec_reported(self, server, codec):
        with AsyncSocketTransport(server.address, codec=codec) as t:
            assert t.codec.name == codec
            assert t.server_name == "t"

    def test_fault_rehydrated(self, server, codec):
        with AsyncSocketTransport(server.address, codec=codec) as t:
            with pytest.raises(AuthenticationError):
                t.call("echo.echo", ["x"], token="")
            token = t.call("system.login", ["u", "p"])
            with pytest.raises(RemoteFault, match="kaput"):
                t.call("echo.boom", [], token)

    def test_pipelined_batch_ordered(self, server, codec):
        with AsyncSocketTransport(server.address, codec=codec) as t:
            token = t.call("system.login", ["u", "p"])
            calls = [("echo.echo", [i]) for i in range(150)]
            outcomes = t.call_pipelined(calls, token=token, window=32)
            assert outcomes == [(True, i) for i in range(150)]

    def test_pipelined_fault_isolated(self, server, codec):
        with AsyncSocketTransport(server.address, codec=codec) as t:
            token = t.call("system.login", ["u", "p"])
            calls = [("echo.echo", [0]), ("echo.boom", []), ("echo.echo", [2])]
            outcomes = t.call_pipelined(calls, token=token)
            assert outcomes[0] == (True, 0)
            ok, fault = outcomes[1]
            assert not ok and isinstance(fault, RemoteFault)
            assert outcomes[2] == (True, 2)


class TestNegotiation:
    def test_default_prefers_json(self, server):
        with AsyncSocketTransport(server.address) as t:
            assert t.codec.name == "json"

    def test_unknown_codec_rejected_by_server(self, server):
        with pytest.raises(ProtocolError, match="no common codec"):
            AsyncSocketTransport(server.address, codec="msgpack")

    def test_server_codec_subset(self, host):
        with AsyncSocketServerHandle(host, codecs=["xmlrpc"]) as handle:
            with AsyncSocketTransport(handle.address) as t:
                assert t.codec.name == "xmlrpc"
            with pytest.raises(ProtocolError):
                AsyncSocketTransport(handle.address, codec="json")

    def test_server_rejects_unknown_codec_at_init(self, host):
        with pytest.raises(ProtocolError):
            AsyncSocketServerHandle(host, codecs=["msgpack"])


class TestLifecycle:
    def test_url_and_address(self, server):
        bind, port = server.address
        assert bind == "127.0.0.1"
        assert server.url == f"clarens://127.0.0.1:{port}"

    def test_address_before_start_raises(self, host):
        handle = AsyncSocketServerHandle(host)
        with pytest.raises(TransportError):
            handle.address

    def test_shutdown_idempotent(self, host):
        handle = AsyncSocketServerHandle(host).start()
        handle.shutdown()
        handle.shutdown()

    def test_stopped_pool_leaves_the_host(self, host):
        """Regression: shutdown never unregistered the worker pool, so
        ``system.stats`` and ``/metrics`` listed dead pools forever."""
        handle = AsyncSocketServerHandle(host)
        labels = []
        for _ in range(2):  # start -> stop -> start on one host
            handle.start()
            labels.append(f"async:{handle.address[1]}")
            with AsyncSocketTransport(handle.address) as t:
                t.call("system.ping", [])
                stats = t.call("system.stats", [])
            assert list(stats["worker_pools"]) == labels[-1:]
            assert stats["worker_pools"][labels[-1]]["submitted"] == 2
            exposition = "\n".join(host.metrics.prometheus_lines())
            assert f'pool="{labels[-1]}"' in exposition
            handle.shutdown()
            handle.shutdown()
            assert host.worker_pools == {}
            assert "worker_pools" not in host.dispatch("system.stats", [])
            exposition = "\n".join(host.metrics.prometheus_lines())
            assert not [label for label in labels if f'pool="{label}"' in exposition]

    def test_failed_start_registers_no_pool(self, host, server):
        clash = AsyncSocketServerHandle(host, port=server.address[1])
        with pytest.raises(TransportError):
            clash.start()
        clash.shutdown()
        assert list(host.worker_pools) == [f"async:{server.address[1]}"]

    def test_transport_close_idempotent(self, server):
        t = AsyncSocketTransport(server.address)
        t.close()
        t.close()
        assert t.closed

    def test_call_after_close_raises(self, server):
        t = AsyncSocketTransport(server.address)
        t.close()
        with pytest.raises(TransportClosedError):
            t.call("system.ping", [])

    def test_concurrent_close_unblocks_inflight(self, server):
        t = AsyncSocketTransport(server.address)
        token = t.call("system.login", ["u", "p"])
        errors = []

        def hammer():
            try:
                for _ in range(100):
                    t.call_pipelined(
                        [("echo.echo", [i]) for i in range(64)], token=token
                    )
            except TransportClosedError:
                errors.append("closed")
            except TransportError:
                errors.append("transport")

        worker = threading.Thread(target=hammer)
        worker.start()
        t.close()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert errors and errors[0] in ("closed", "transport")

    def test_server_shutdown_surfaces_transport_error(self, host):
        handle = AsyncSocketServerHandle(host).start()
        t = AsyncSocketTransport(handle.address)
        t.call("system.ping", [])
        handle.shutdown()
        with pytest.raises((TransportError, ProtocolError)):
            for _ in range(5):
                t.call("system.ping", [])


class Sleepy:
    """Methods that hold the serving thread, logging each call's tag."""

    def __init__(self):
        self.log = []

    def nap(self, tag, seconds):
        time.sleep(seconds)
        self.log.append(tag)
        return tag


class TestFailedExchangeClosesTransport:
    """Regression: a framed client stayed open after a failed exchange, so
    the next call read the reply meant for the one that failed."""

    def test_a_receive_timeout_closes_the_transport(self, host):
        host.acl.allow("sleepy.*", groups=("g",))
        host.register("sleepy", Sleepy())
        with AsyncSocketServerHandle(host) as handle:
            with AsyncSocketTransport(handle.address, timeout_s=0.1) as t:
                token = t.call("system.login", ["u", "p"])
                with pytest.raises(TransportError, match="timed out"):
                    t.call("sleepy.nap", ["late", 0.4], token)
                assert t.closed
                time.sleep(0.4)  # the late reply is on the wire by now
                with pytest.raises(TransportClosedError):
                    t.call("system.ping", [])

    def test_a_reply_for_an_unknown_id_closes_the_transport(self):
        def script(sock, codec):
            read_frame_from(_reader(sock))
            sock.sendall(encode_frame(REPLY, 99, codec.encode_response("stray")))

        with scripted_peer(script) as address:
            with AsyncSocketTransport(address, codec="json") as t:
                with pytest.raises(ProtocolError, match="unknown request id 99"):
                    t.call("system.ping", [])
                assert t.closed
                with pytest.raises(TransportClosedError):
                    t.call("system.ping", [])

    def test_an_error_frame_closes_the_transport(self):
        def script(sock, codec):
            read_frame_from(_reader(sock))
            sock.sendall(encode_frame(ERROR, 0, encode_error(500, "server trouble")))

        with scripted_peer(script) as address:
            with AsyncSocketTransport(address, codec="json") as t:
                with pytest.raises(ClarensFault, match="server trouble"):
                    t.call("system.ping", [])
                assert t.closed
                with pytest.raises(TransportClosedError):
                    t.call("system.ping", [])


class TestOneServingThread:
    """One thread serves every connection: bounded buffers, fair turns."""

    def test_a_client_that_does_not_read_holds_at_most_one_turn(self, host):
        """10 000 pipelined calls from a client that reads nothing: the
        server stops serving it once a send comes up short, so the reply
        bytes it holds stay within one turn; every reply arrives, in order,
        once the client reads."""
        codec = get_codec("json")
        value = "x" * 1000
        total, max_inflight = 10_000, 64
        with AsyncSocketServerHandle(host, max_inflight=max_inflight) as handle:
            token = host.dispatch("system.login", ["u", "p"])
            request = codec.encode_request("echo.echo", token, [value])
            reply = encode_frame(REPLY, 1, codec.encode_response(value))
            calls = b"".join(encode_frame(CALL, i, request) for i in range(1, total + 1))
            sock = socket.socket()
            # A fixed receive buffer (no autotuning) keeps what the kernels
            # can absorb well below the 10 MB of replies.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
            sock.settimeout(30.0)
            sock.connect(handle.address)
            with sock:
                _handshake(sock)
                sender = threading.Thread(target=sock.sendall, args=(calls,), daemon=True)
                sender.start()
                held, stalled_at = 0, None
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    held = max([held, *(len(c.out) for c in list(handle._conns))])
                    submitted = handle.pool_stats.snapshot()["submitted"]
                    if submitted == stalled_at:
                        break  # no turn ran in the last 50 ms
                    stalled_at = submitted
                    time.sleep(0.05)
                assert stalled_at is not None and stalled_at < total
                assert held <= max_inflight * len(reply)
                read_exact = _reader(sock)
                for request_id in range(1, total + 1):
                    frame_type, answered, body = read_frame_from(read_exact)
                    assert (frame_type, answered) == (REPLY, request_id)
                    assert codec.decode_response(body) == value
                sender.join(timeout=10.0)
                assert not sender.is_alive()
            pool = handle.pool_stats.snapshot()
            assert pool["submitted"] == pool["completed"] == total
            assert pool["max_batch"] <= max_inflight

    def test_connections_take_turns(self, host):
        """A pipelined burst cannot starve another connection: with
        ``max_inflight=4`` a call sent after the burst's first reply is
        answered before the burst's last one."""
        sleepy = Sleepy()
        host.acl.allow("sleepy.*", groups=("g",))
        host.register("sleepy", sleepy)
        codec = get_codec("json")
        with AsyncSocketServerHandle(host, max_inflight=4) as handle:
            token = host.dispatch("system.login", ["u", "p"])
            with socket.create_connection(handle.address, timeout=10.0) as a, \
                    AsyncSocketTransport(handle.address, codec="json") as b:
                _handshake(a)
                read_a = _reader(a)
                burst = codec.encode_request("sleepy.nap", token, ["a", 0.002])
                a.sendall(b"".join(encode_frame(CALL, i, burst) for i in range(64)))
                assert read_frame_from(read_a)[:2] == (REPLY, 0)
                assert b.call("sleepy.nap", ["b", 0.0], token) == "b"
                for request_id in range(1, 64):
                    assert read_frame_from(read_a)[:2] == (REPLY, request_id)
        # B ran while A still had calls to run.
        assert sleepy.log.count("a") == 64 and sleepy.log[-1] == "a"


class TestTelemetry:
    def test_per_transport_label(self, server, host):
        with AsyncSocketTransport(server.address, codec="json") as t:
            t.call("system.ping", [])
        snapshot = host.stats.snapshot()
        assert snapshot["per_transport"].get("async+json", 0) >= 1

    def test_client_over_async_transport(self, server):
        client = ClarensClient(server.url, codec="json")
        try:
            client.login("u", "p")
            assert client.call("echo.echo", "hi") == "hi"
            results = client.batch_reads(
                [("echo.echo", 1), ("echo.echo", 2), ("echo.echo", 1)]
            )
            assert [r.result for r in results] == [1, 2, 1]
            assert all(r.ok for r in results)
        finally:
            client.close()


class TestMalformedFrames:
    def test_an_undecodable_call_is_a_faulted_decode(self, server):
        """Regression: a CALL frame that does not decode was recorded as a
        successful 0 ms decode, so the decode fault counter never moved."""
        codec = get_codec("json")
        with socket.create_connection(server.address, timeout=10.0) as sock:
            read_exact = _reader(sock)

            def call(request_id, payload):
                sock.sendall(encode_frame(CALL, request_id, payload))
                frame_type, answered, body = read_frame_from(read_exact)
                assert (frame_type, answered) == (REPLY, request_id)
                return codec.decode_response(body)

            _handshake(sock)
            with pytest.raises(ClarensFault):
                call(1, b"\xff\xfenot json")
            # The connection still serves the next call.
            assert call(2, codec.encode_request("system.ping", "", [])) == "pong"
        pool = server.pool_stats.snapshot()
        assert pool["stages"]["decode"]["count"] == 2
        assert pool["stages"]["decode"]["faults"] == 1
        assert pool["submitted"] == pool["completed"] == 2


@pytest.mark.parametrize("codec", ["json", "xmlrpc"])
class TestTraceIdPropagation:
    """Wire trace ids must reach the host pipeline under every codec."""

    def test_call_carries_trace_id_to_host(self, server, host, codec):
        with AsyncSocketTransport(server.address, codec=codec) as t:
            token = t.call("system.login", ["u", "p"])
            t.call("echo.echo", ["x"], token, trace_id=f"trace-{codec}")
        records = _recent_calls(host, f"trace-{codec}")
        assert [r["method"] for r in records] == ["echo.echo"]
        assert records[0]["transport"] == f"async+{codec}"

    def test_pipelined_batch_shares_one_trace(self, server, host, codec):
        with AsyncSocketTransport(server.address, codec=codec) as t:
            token = t.call("system.login", ["u", "p"])
            calls = [("echo.echo", [i]) for i in range(20)]
            outcomes = t.call_pipelined(
                calls, token=token, trace_id=f"batch-{codec}"
            )
        assert outcomes == [(True, i) for i in range(20)]
        records = _recent_calls(host, f"batch-{codec}")
        assert len(records) == 20
        assert {r["method"] for r in records} == {"echo.echo"}

    def test_out_of_order_completion_preserves_order_and_trace(self, codec):
        with reversing_peer() as (address, seen):
            with AsyncSocketTransport(address, codec=codec) as t:
                outcomes = t.call_pipelined(
                    [("gated.slow", ["s"]), ("gated.fast", ["f"])],
                    token="tok", trace_id=f"ooo-{codec}",
                )
        # Results come back in issue order even though 'fast' was answered first.
        assert outcomes == [(True, "s"), (True, "f")]
        assert seen == [
            ("gated.slow", "tok", f"ooo-{codec}"),
            ("gated.fast", "tok", f"ooo-{codec}"),
        ]


class TestClientSpans:
    """AsyncSocketTransport emits client:<method> spans when given a tracer."""

    def _tracer(self):
        import time as _time

        from repro.observability.tracing import Tracer

        return Tracer(_time.monotonic)

    def test_pipelined_spans_one_per_call(self, server, host):
        tracer = self._tracer()
        with AsyncSocketTransport(
            server.address, codec="json", tracer=tracer
        ) as t:
            token = t.call("system.login", ["u", "p"])
            t.call_pipelined(
                [("echo.echo", [i]) for i in range(5)], token=token
            )
        spans = [s for s in tracer.spans() if s.name == "client:echo.echo"]
        assert len(spans) == 5
        assert all(s.status == "ok" and s.end is not None for s in spans)
        assert sorted(s.attributes["slot"] for s in spans) == list(range(5))
        # A batch trace id was minted and shared; the host saw the same id.
        trace_ids = {s.trace_id for s in spans}
        assert len(trace_ids) == 1
        records = _recent_calls(host, trace_ids.pop())
        assert sum(r["method"] == "echo.echo" for r in records) == 5

    def test_out_of_order_spans_end_as_replies_arrive(self):
        tracer = self._tracer()
        with reversing_peer() as (address, _):
            with AsyncSocketTransport(address, codec="json", tracer=tracer) as t:
                t.call_pipelined([("gated.slow", ["s"]), ("gated.fast", ["f"])])
        by_name = {
            s.name: s for s in tracer.spans() if s.name.startswith("client:gated")
        }
        slow, fast = by_name["client:gated.slow"], by_name["client:gated.fast"]
        assert slow.status == fast.status == "ok"
        # 'fast' was issued second but its reply (and span end) came first.
        assert fast.end < slow.end

    def test_explicit_trace_id_not_overridden(self, server):
        tracer = self._tracer()
        with AsyncSocketTransport(
            server.address, codec="json", tracer=tracer
        ) as t:
            token = t.call("system.login", ["u", "p"])
            t.call_pipelined(
                [("echo.echo", [1])], token=token, trace_id="mine"
            )
        spans = [s for s in tracer.spans() if s.name == "client:echo.echo"]
        assert spans and all(s.trace_id == "mine" for s in spans)
