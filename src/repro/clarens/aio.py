"""The framed Clarens front end: one thread, pipelined, codec-negotiated.

:class:`AsyncSocketServerHandle` serves persistent framed sockets
(:mod:`repro.clarens.framing`) with per-connection codec negotiation
(:mod:`repro.clarens.codecs`) and request pipelining: a client may have
hundreds of calls in flight on one connection.  One background thread
owns every connection through a :class:`selectors.DefaultSelector`.  It
accepts without blocking, cuts each connection's input into frames, runs
the HELLO/WELCOME handshake and runs each CALL **inline** through the
synchronous :meth:`ClarensHost.call <repro.clarens.server.ClarensHost.call>`,
so the one call path (auth → ACL → read cache → invoke, recorded as one
``rpc:`` span) is reused unchanged and answers are wire-identical to
every other transport.

Server-side call sequence, one *turn* of one connection::

    recv ──► cut ≤ max_inflight frames ──► per CALL: decode(codec)
         ──► host.call ──► encode(codec) ──► one send of the replies

Ready connections take turns round-robin.  Replies leave in issue order;
what one ``send`` does not take stays buffered under ``EVENT_WRITE``, and
a connection with unsent reply bytes is neither read nor served until it
drains.  A connection holds at most one ``recv`` of input plus one turn
of unsent replies — backpressure, not an error.

The trade-off: a call runs to completion before another connection is
served.  A worker pool bought no parallelism here (one GIL: threads only
interleaved at its 5 ms switch interval) and cost its imports (asyncio,
ssl, concurrent.futures) and one malloc arena per thread, each keeping
the transient of the largest reply it had built.  No registered service
method waits on another call; one that did would stall its connection.

Use exactly like the threaded handle::

    with AsyncSocketServerHandle(host) as handle:
        transport = AsyncSocketTransport(handle.address, codec="json")
        ...
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.clarens.codecs import Codec, codec_names, get_codec, negotiate, require_codec
from repro.clarens.errors import ClarensFault, ProtocolError, TransportError
from repro.clarens.framing import (
    CALL,
    GOODBYE,
    HEADER_BYTES,
    HELLO,
    REPLY,
    WELCOME,
    decode_header,
    decode_hello,
    encode_error,
    encode_frame,
    encode_welcome,
)
from repro.clarens.framing import ERROR as ERROR_FRAME
from repro.clarens.serialization import decode_trace_token
from repro.clarens.server import CallContext, ClarensHost
from repro.clarens.telemetry import WorkerPoolStats
from repro.observability.tracing import new_trace_id

#: Most bytes one ``recv`` takes: a connection's unparsed input is at most
#: this beyond an incomplete frame.
RECV_BYTES = 256 * 1024


def _error_frame(request_id: int, exc: ClarensFault) -> bytes:
    return encode_frame(ERROR_FRAME, request_id, encode_error(exc.code, exc.message))


class _Connection:
    """The serving thread's state for one client connection."""

    __slots__ = ("sock", "inbuf", "out", "codec", "label", "closing")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.inbuf = bytearray()
        #: Reply bytes one send did not take: a view of the turn's replies,
        #: so a slow reader's sends never copy what is left.
        self.out: Union[bytes, memoryview] = b""
        self.codec: Optional[Codec] = None  # set by the handshake
        #: Shows up as ``transport`` in trace records / ``system.stats``.
        self.label = ""
        self.closing = False  # close after this turn's send

    def next_frame(self) -> Optional[Tuple[int, int, bytes]]:
        """Cut ``(type, request_id, payload)`` off the input, or ``None``
        while the next frame is incomplete; a bad header raises
        :class:`~repro.clarens.errors.ProtocolError`."""
        buf = self.inbuf
        if len(buf) < HEADER_BYTES:
            return None
        payload_len, frame_type, request_id = decode_header(buf[:HEADER_BYTES])
        end = HEADER_BYTES + payload_len
        if len(buf) < end:
            return None
        payload = bytes(buf[HEADER_BYTES:end])
        del buf[:end]
        return frame_type, request_id, payload


class AsyncSocketServerHandle:
    """A running framed-protocol server fronting a ``ClarensHost``.

    Parameters
    ----------
    host:
        The host to dispatch into.
    bind / port:
        Listen address; port 0 (default) picks an ephemeral port — read
        :attr:`address` after :meth:`start`.
    codecs:
        Codec names this server accepts (default: every registered one).
    max_inflight:
        Per-connection pipelining bound: CALL frames admitted but not yet
        answered, i.e. the most frames one connection runs per turn.
    """

    def __init__(
        self,
        host: ClarensHost,
        bind: str = "127.0.0.1",
        port: int = 0,
        codecs: Optional[Sequence[str]] = None,
        max_inflight: int = 256,
    ) -> None:
        self.host = host
        self._bind = bind
        self._port = port
        self.codecs: Tuple[str, ...] = tuple(codecs or codec_names())
        for name in self.codecs:
            require_codec(name)  # fail fast; the codec loads on first negotiation
        self._max_inflight = max(1, max_inflight)
        #: The view of this server's series in ``host.metrics`` (queue
        #: depth, stage latency), labelled ``pool="async:<port>"``; on the
        #: host as ``host.worker_pools[label]`` while serving.
        self.pool_stats: Optional[WorkerPoolStats] = None
        self._address: Optional[Tuple[str, int]] = None
        self._thread: Optional[threading.Thread] = None
        self._wake: Optional[socket.socket] = None  # shutdown's end of the socketpair
        self._selector: Optional[selectors.BaseSelector] = None
        self._conns: Set[_Connection] = set()
        #: Connections with frames to run, in turn order (a dict as an ordered set).
        self._ready: Dict[_Connection, None] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AsyncSocketServerHandle":
        """Begin serving in a background thread (idempotent)."""
        if self._thread is not None:
            return self
        try:
            listener = socket.create_server((self._bind, self._port), backlog=128)
        except OSError as exc:
            raise TransportError(f"async server failed to start: {exc}") from exc
        listener.setblocking(False)
        self._address = listener.getsockname()[:2]
        label = f"async:{self._address[1]}"
        self.pool_stats = WorkerPoolStats(self.host.metrics, label)
        self.host.worker_pools[label] = self.pool_stats
        self._wake, woken = socket.socketpair()
        woken.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, listener)
        self._selector.register(woken, selectors.EVENT_READ, woken)
        self._thread = threading.Thread(
            target=self._serve,
            args=(listener, woken),
            name=f"clarens-aio-{self.host.name}",
            daemon=True,
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop serving, close connections, join the thread (idempotent)."""
        if self._thread is None:
            return
        self._wake.send(b"x")
        self._thread.join(timeout=10.0)
        self._wake.close()
        self._thread = self._wake = None
        # A stopped pool leaves the host: its label and its series.
        del self.host.worker_pools[self.pool_stats.pool]
        self.host.metrics.discard(pool=self.pool_stats.pool)

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` the server is bound to."""
        if self._address is None:
            raise TransportError("async server is not started")
        return self._address

    @property
    def url(self) -> str:
        """The server's endpoint as a ``clarens://`` URL."""
        bind, port = self.address
        return f"clarens://{bind}:{port}"

    def __enter__(self) -> "AsyncSocketServerHandle":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # the serving thread
    # ------------------------------------------------------------------
    def _serve(self, listener: socket.socket, woken: socket.socket) -> None:
        selector, ready = self._selector, self._ready
        try:
            while True:
                for key, mask in selector.select(0 if ready else None):
                    owner = key.data
                    if owner is woken:
                        return
                    if owner is listener:
                        self._accept(listener)
                    elif mask & selectors.EVENT_WRITE:
                        self._drain(owner)
                    elif owner not in ready:  # a connection is read only between turns
                        self._read(owner)
                for conn in list(ready):
                    del ready[conn]
                    try:
                        self._turn(conn)
                    except Exception:  # a defect costs its connection, not the server
                        traceback.print_exc()
                        if conn in self._conns:
                            self._close(conn)
        finally:
            for conn in list(self._conns):
                self._close(conn)
            ready.clear()
            selector.close()
            listener.close()
            woken.close()

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:  # none pending (or out of descriptors): serve the others
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock)
            self._conns.add(conn)
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _read(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if not data:  # the peer is gone, between frames or not
            self._close(conn)
            return
        conn.inbuf += data
        self._ready[conn] = None

    def _drain(self, conn: _Connection) -> None:
        try:
            sent = conn.sock.send(conn.out)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(conn)
            return
        conn.out = conn.out[sent:]
        if not conn.out:
            conn.out = b""  # let the turn's replies go
            self._selector.modify(conn.sock, selectors.EVENT_READ, conn)
            self._ready[conn] = None  # frames may have waited behind the replies

    def _close(self, conn: _Connection) -> None:
        self._conns.discard(conn)
        self._selector.unregister(conn.sock)
        conn.sock.close()

    def _turn(self, conn: _Connection) -> None:
        """Run up to ``max_inflight`` of *conn*'s frames, then send their
        replies in issue order with one ``send``."""
        stats = self.pool_stats
        clk = time.perf_counter
        frames: List[bytes] = []
        calls: List[Tuple[int, bytes, float]] = []
        tail = b""  # the ERROR frame that ends the connection, after the replies
        while len(calls) < self._max_inflight:
            try:
                frame = conn.next_frame()
                if frame is None:
                    break
                frame_type, request_id, payload = frame
                if conn.codec is None:
                    frames.append(self._welcome(conn, frame_type, request_id, payload))
                elif frame_type == CALL:
                    stats.on_submit()
                    calls.append((request_id, payload, clk()))
                elif frame_type == GOODBYE:
                    conn.closing = True
                    break
                else:
                    tail = _error_frame(
                        request_id, ProtocolError(f"unexpected frame type {frame_type}")
                    )
                    break
            except ProtocolError as exc:  # a bad header or a failed handshake
                tail = _error_frame(0, exc)
                break
        for request_id, payload, parsed in calls:
            stats.on_start(clk() - parsed)
            frames.append(self._execute(conn.codec, conn.label, request_id, payload))
        if calls:
            stats.on_batch(len(calls))
        if tail:
            frames.append(tail)
            conn.closing = True
        if frames:
            data = b"".join(frames)
            t0 = clk()
            try:
                sent = conn.sock.send(data)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError:
                self._close(conn)
                return
            stats.record_stage("reply_flush", clk() - t0)
            if sent < len(data) and not conn.closing:
                conn.out = memoryview(data)[sent:]
                self._selector.modify(conn.sock, selectors.EVENT_WRITE, conn)
                return
        if conn.closing:  # one send is all a departing or faulted peer gets
            self._close(conn)
        elif len(calls) == self._max_inflight:
            self._ready[conn] = None  # more frames may be buffered: next in the round

    def _welcome(self, conn: _Connection, frame_type: int, hello_id: int, payload: bytes) -> bytes:
        """Negotiate *conn*'s codec from its first frame: the WELCOME frame."""
        if frame_type != HELLO:
            raise ProtocolError(f"expected HELLO, got frame type {frame_type}")
        codec_name = negotiate(decode_hello(payload)[1], self.codecs)
        conn.codec = get_codec(codec_name)
        conn.label = f"async+{codec_name}"
        return encode_frame(WELCOME, hello_id, encode_welcome(codec_name, self.host.name))

    def _execute(self, codec: Codec, label: str, request_id: int, payload: bytes) -> bytes:
        """One CALL: decode, run, encode; a failure is a fault reply.

        The call's span is left open by the host and ended here, in one
        write that adds this front end's ``decode_ms`` / ``encode_ms``."""
        stats = self.pool_stats
        clk = time.perf_counter
        ctx: Optional[CallContext] = None
        decode_s: Optional[float] = None
        encode_s = 0.0
        t0 = clk()
        try:
            method, wire_token, params = codec.decode_request(payload)
            token, trace_id = decode_trace_token(wire_token)
            decode_s = clk() - t0
            stats.record_stage("decode", decode_s)
            t0 = clk()
            ctx = CallContext(method, list(params), token, trace_id or new_trace_id(), label)
            try:
                result = self.host.call(ctx, end_span=False)
            finally:
                stats.record_stage("dispatch", clk() - t0, ok=ctx.outcome == "ok")
            t0 = clk()
            body = codec.encode_response(result)
            encode_s = clk() - t0
            stats.record_stage("encode", encode_s)
        except Exception as exc:  # a fault, or an encode failure: never drop a reply
            if decode_s is None:  # the frame never decoded
                stats.record_stage("decode", clk() - t0, ok=False)
            if isinstance(exc, ClarensFault):
                body = codec.encode_fault(exc.code, exc.message)
            else:
                body = codec.encode_fault(500, f"{type(exc).__name__}: {exc}")
        if ctx is not None and ctx.finish is not None:
            status, fields = ctx.finish
            fields["decode_ms"] = decode_s * 1000.0
            fields["encode_ms"] = encode_s * 1000.0
            self.host.tracer.end_span(ctx.span, status, attributes=fields)
        return encode_frame(REPLY, request_id, body)


__all__ = ["AsyncSocketServerHandle"]
