"""Client-side transports.

Three interchangeable implementations of one interface:

- :class:`LoopbackTransport` — dispatches straight into a
  :class:`~repro.clarens.server.ClarensHost` in the same process.  Values
  still pass through :func:`~repro.clarens.serialization.to_wire`, so a
  service that works in-process is guaranteed to work over sockets.
- :class:`SocketTransport` — speaks real XML-RPC over HTTP, marshalled by
  the ``xmlrpc`` codec; this is what the Figure 6 benchmark measures.
  One connection, one request in flight at a time.
- :class:`AsyncSocketTransport` — a persistent framed connection to an
  :class:`~repro.clarens.aio.AsyncSocketServerHandle` with codec
  negotiation (:mod:`repro.clarens.codecs`) and request **pipelining**:
  :meth:`~Transport.call_pipelined` keeps a window of calls in flight on
  the one connection instead of paying a round trip each.

All present ``call(method_path, params, token, trace_id)`` and translate
failures into the :class:`~repro.clarens.errors.ClarensFault` hierarchy, so
client code is transport-agnostic.  A caller-issued trace id reaches the
host's pipeline on every path: in-process it is passed straight through,
over the socket transports it piggybacks on the wire token field (see
:func:`~repro.clarens.serialization.encode_trace_token`).

Every transport is a context manager, and :meth:`Transport.close` is
idempotent and safe to call from any thread — including while another
thread has calls in flight, which then fail with
:class:`~repro.clarens.errors.TransportClosedError` rather than hanging
or corrupting the stream.
"""

from __future__ import annotations

import abc
import socket
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.clarens.codecs import Codec, codec_names, get_codec
from repro.clarens.errors import (
    ClarensFault,
    ProtocolError,
    TransportClosedError,
    TransportError,
    fault_from_code,
)
from repro.clarens.framing import (
    CALL,
    GOODBYE,
    HELLO,
    REPLY,
    WELCOME,
    decode_error,
    decode_welcome,
    encode_frame,
    encode_hello,
    read_frame_from,
)
from repro.clarens.framing import ERROR as ERROR_FRAME
from repro.clarens.serialization import encode_trace_token, from_wire, to_wire
from repro.clarens.server import ClarensHost
from repro.observability.tracing import new_trace_id


class Transport(abc.ABC):
    """Abstract client transport (a reusable, idempotently-closable one)."""

    #: Whether :meth:`close` has run; subclasses honour and set this.
    closed: bool = False
    #: True when :meth:`call_pipelined` overlaps requests on the wire
    #: (rather than falling back to sequential calls).
    supports_pipelining: bool = False

    @abc.abstractmethod
    def call(
        self,
        method_path: str,
        params: Sequence[Any],
        token: str = "",
        trace_id: str = "",
    ) -> Any:
        """Invoke ``service.method`` with *params* under *token*.

        *trace_id*, when non-empty, is propagated to the host so the call
        (and any ``system.multicall`` sub-calls) shows up under that id in
        ``system.recent_calls``.
        """

    def call_pipelined(
        self,
        calls: Sequence[Tuple[str, Sequence[Any]]],
        token: str = "",
        trace_id: str = "",
    ) -> List[Tuple[bool, Any]]:
        """Issue many calls, overlapping them when the transport can.

        *calls* is a sequence of ``(method_path, params)`` pairs.  Returns
        one ``(ok, value)`` pair per call **in order**: ``(True, result)``
        or ``(False, fault)`` with the typed
        :class:`~repro.clarens.errors.ClarensFault` — fault isolation, so
        one failing call does not poison its batch.  The base
        implementation runs the calls sequentially; transports with
        :attr:`supports_pipelining` keep a window in flight.
        """
        out: List[Tuple[bool, Any]] = []
        for method_path, params in calls:
            try:
                out.append(
                    (True, self.call(method_path, params, token=token, trace_id=trace_id))
                )
            except ClarensFault as exc:
                if isinstance(exc, (TransportError, ProtocolError)):
                    raise  # connection-level failure: the batch is dead
                out.append((False, exc))
        return out

    def close(self) -> None:
        """Release any underlying connection (idempotent; no-op here)."""
        self.closed = True

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class LoopbackTransport(Transport):
    """Zero-copy-distance transport into a host in the same process.

    Parameters and results run through the same marshalling as the
    socket transports (:func:`~repro.clarens.serialization.to_wire` out,
    :func:`~repro.clarens.serialization.from_wire` back), so serialization
    bugs surface in fast unit tests rather than in deployment.  The copy
    ``from_wire`` makes matters here: a cached result is one wire value
    shared by every caller (see :mod:`repro.clarens.readcache`).
    """

    def __init__(self, host: ClarensHost) -> None:
        self.host = host

    def call(
        self,
        method_path: str,
        params: Sequence[Any],
        token: str = "",
        trace_id: str = "",
    ) -> Any:
        if self.closed:
            raise TransportClosedError("transport is closed")
        result = self.host.dispatch(
            method_path, [to_wire(p) for p in params], token=token, trace_id=trace_id
        )
        return from_wire(result)


class SocketTransport(Transport):
    """Real XML-RPC over HTTP.

    Each call is one POST on one keep-alive ``http.client`` connection
    (HTTPS for an ``https://`` URL), its body marshalled both ways by the
    :class:`~repro.clarens.codecs.xmlrpc.XmlRpcCodec` the servers use —
    so a value XML cannot carry is refused with
    :class:`~repro.clarens.errors.SerializationError` before anything is
    sent.  It is **not** thread-safe: concurrent clients (as in the
    Figure 6 benchmark) should each own a transport.
    """

    def __init__(self, url: str, timeout_s: float = 30.0) -> None:
        import http.client  # the HTTP stack loads with its first client
        from urllib.parse import urlsplit

        self.url = url
        parts = urlsplit(url)
        connection = (
            http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        )
        self._conn = connection(parts.hostname, parts.port, timeout=timeout_s)
        self._path = parts.path or "/RPC2"
        self._codec = get_codec("xmlrpc")

    def call(
        self,
        method_path: str,
        params: Sequence[Any],
        token: str = "",
        trace_id: str = "",
    ) -> Any:
        import http.client

        if self.closed:
            raise TransportClosedError("transport is closed")
        body = self._codec.encode_request(
            method_path, encode_trace_token(token, trace_id), [to_wire(p) for p in params]
        )
        try:
            self._conn.request("POST", self._path, body, {"Content-Type": "text/xml"})
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self._conn.close()
            if self.closed:
                raise TransportClosedError(
                    f"transport closed during call to {method_path}"
                ) from exc
            raise TransportError(f"transport failure calling {method_path}: {exc}") from exc
        if response.status != 200:
            raise TransportError(
                f"transport failure calling {method_path}: "
                f"HTTP {response.status} {response.reason}"
            )
        return self._codec.decode_response(data)

    def close(self) -> None:
        """Drop the HTTP connection (safe to call more than once)."""
        if not self.closed:
            self.closed = True
            self._conn.close()


def parse_framed_address(
    address: Union[str, Tuple[str, int]]
) -> Tuple[str, int]:
    """Normalise a framed-server address to ``(host, port)``.

    Accepts an ``(host, port)`` tuple (e.g.
    :attr:`~repro.clarens.aio.AsyncSocketServerHandle.address`), a
    ``clarens://host:port`` URL, or a bare ``host:port`` string.
    """
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    text = str(address)
    if "//" in text:
        text = text.split("//", 1)[1]
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise TransportError(f"not a framed-server address: {address!r}")
    try:
        return host, int(port_text)
    except ValueError:
        raise TransportError(
            f"not a framed-server address: {address!r}"
        ) from None


class AsyncSocketTransport(Transport):
    """Persistent framed connection to the framed Clarens server.

    Connects, negotiates a codec (HELLO/WELCOME, see
    :mod:`repro.clarens.framing`) and then multiplexes calls over the one
    TCP connection.  :meth:`call` is a plain round trip;
    :meth:`call_pipelined` keeps up to ``pipeline_window`` requests in
    flight, matching replies (which may arrive out of order) to calls by
    request id.

    The wire is serialised by an internal lock, so a transport may be
    shared across threads — though each blocking round trip still admits
    one caller at a time; concurrency comes from pipelining, not from
    thread fan-out.  :meth:`close` is safe from any thread: in-flight
    calls fail with :class:`~repro.clarens.errors.TransportClosedError`.

    Parameters
    ----------
    address:
        Anything :func:`parse_framed_address` accepts.
    codec:
        Preferred codec name, or a preference-ordered sequence of names.
        Default: every registered codec, compact-JSON first.
    timeout_s:
        Socket timeout for connect and for each blocking read.
    pipeline_window:
        Default maximum calls in flight for :meth:`call_pipelined`.  The
        server runs at most its ``max_inflight`` (default 256) of one
        connection's frames per turn; a window at or below that is
        answered in one turn.
    tracer:
        A :class:`~repro.observability.tracing.Tracer` (or compatible).
        When given, every call gets a client-side ``client:<method>``
        span opened at send time and closed when its reply arrives —
        pipelined calls therefore show their true overlap and
        out-of-order completion.  A batch with no caller trace id gets
        one minted so client and server spans correlate.
    """

    supports_pipelining = True

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        codec: Union[str, Sequence[str], None] = None,
        timeout_s: float = 30.0,
        pipeline_window: int = 64,
        tracer: Optional[Any] = None,
    ) -> None:
        self.tracer = tracer
        host, port = parse_framed_address(address)
        self.url = f"clarens://{host}:{port}"
        if codec is None:
            preferences: Tuple[str, ...] = tuple(codec_names())
        elif isinstance(codec, str):
            preferences = (codec,)
        else:
            preferences = tuple(codec)
        self._pipeline_window = max(1, pipeline_window)
        self._lock = threading.Lock()  # serialises all wire access
        self._close_lock = threading.Lock()
        self._request_id = 0
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            self.codec, self.server_name = self._handshake(preferences)
        except BaseException:
            self._sock.close()
            self.closed = True
            raise

    # ------------------------------------------------------------------
    # handshake
    # ------------------------------------------------------------------
    def _handshake(self, preferences: Tuple[str, ...]) -> Tuple[Codec, str]:
        self._sock.sendall(encode_frame(HELLO, 0, encode_hello(preferences)))
        frame_type, _, payload = read_frame_from(self._read_exact)
        if frame_type == ERROR_FRAME:
            code, message = decode_error(payload)
            raise fault_from_code(code, message)
        if frame_type != WELCOME:
            raise ProtocolError(
                f"expected WELCOME, got frame type {frame_type}"
            )
        _, codec_name, server_name = decode_welcome(payload)
        return get_codec(codec_name), server_name

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def call(
        self,
        method_path: str,
        params: Sequence[Any],
        token: str = "",
        trace_id: str = "",
    ) -> Any:
        ok, value = self.call_pipelined(
            [(method_path, params)], token=token, trace_id=trace_id
        )[0]
        if not ok:
            raise value
        return value

    def call_pipelined(
        self,
        calls: Sequence[Tuple[str, Sequence[Any]]],
        token: str = "",
        trace_id: str = "",
        window: Optional[int] = None,
    ) -> List[Tuple[bool, Any]]:
        """Windowed pipelining over the framed connection.

        Encodes and sends up to *window* calls before reading the first
        reply, then keeps the window full as replies drain — one
        connection, many overlapping requests, no reply-ordering
        assumption.  A failed exchange (send, receive, an ERROR frame or
        a reply for an unknown id) closes the transport: later calls raise
        :class:`~repro.clarens.errors.TransportClosedError`.
        """
        limit = self._pipeline_window if window is None else max(1, window)
        tracer = self.tracer
        if tracer is not None and not trace_id:
            trace_id = new_trace_id()
        wire_token = encode_trace_token(token, trace_id)
        codec = self.codec
        results: List[Optional[Tuple[bool, Any]]] = [None] * len(calls)
        spans: Dict[int, Any] = {}  # request id -> open client span
        try:
            with self._lock:
                self._ensure_open()
                pending: Dict[int, int] = {}  # request id -> slot
                next_slot = 0
                send_buffer: List[bytes] = []
                while next_slot < len(calls) or pending:
                    while next_slot < len(calls) and len(pending) < limit:
                        method_path, params = calls[next_slot]
                        self._request_id += 1
                        request_id = self._request_id
                        pending[request_id] = next_slot
                        send_buffer.append(
                            encode_frame(
                                CALL,
                                request_id,
                                codec.encode_request(
                                    method_path,
                                    wire_token,
                                    [to_wire(p) for p in params],
                                ),
                            )
                        )
                        if tracer is not None:
                            spans[request_id] = tracer.start_span(
                                f"client:{method_path}",
                                trace_id=trace_id,
                                attributes={
                                    "method": method_path,
                                    "codec": codec.name,
                                    "slot": next_slot,
                                },
                                activate=False,
                            )
                        next_slot += 1
                    if send_buffer:
                        self._send(b"".join(send_buffer))
                        send_buffer = []
                    if not pending:
                        break
                    frame_type, request_id, payload = read_frame_from(
                        self._read_exact
                    )
                    if frame_type == ERROR_FRAME:  # the server ends the connection
                        self.close()
                        raise fault_from_code(*decode_error(payload))
                    if frame_type != REPLY:
                        raise ProtocolError(
                            f"expected REPLY, got frame type {frame_type}"
                        )
                    slot = pending.pop(request_id, None)
                    if slot is None:
                        raise ProtocolError(
                            f"reply for unknown request id {request_id}"
                        )
                    try:
                        results[slot] = (True, codec.decode_response(payload))
                    except (TransportError, ProtocolError):
                        raise
                    except ClarensFault as fault:
                        results[slot] = (False, fault)
                    span = spans.pop(request_id, None)
                    if span is not None:
                        ok = results[slot] is not None and results[slot][0]
                        tracer.end_span(span, status="ok" if ok else "error")
        except (TransportError, ProtocolError):
            # The stream is out of step (a reply may still be on its way):
            # no later call on this connection could trust what it reads.
            self.close()
            raise
        finally:
            # A transport failure mid-batch leaves spans open; close them
            # as errors so the trace shows which calls never completed.
            for span in spans.values():
                tracer.end_span(span, status="error")
        return results  # type: ignore[return-value]  # every slot filled

    # ------------------------------------------------------------------
    # wire primitives
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self.closed:
            raise TransportClosedError("transport is closed")

    def _send(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as exc:
            if self.closed:
                raise TransportClosedError(
                    "transport closed while a call was in flight"
                ) from exc
            raise TransportError(f"send failed: {exc}") from exc

    def _read_exact(self, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            try:
                chunk = self._sock.recv(n - len(buf))
            except OSError as exc:
                if self.closed:
                    raise TransportClosedError(
                        "transport closed while a call was in flight"
                    ) from exc
                raise TransportError(f"receive failed: {exc}") from exc
            if not chunk:
                if self.closed:
                    raise TransportClosedError(
                        "transport closed while a call was in flight"
                    )
                raise TransportError("connection closed by server")
            buf += chunk
        return bytes(buf)

    def close(self) -> None:
        """Close the connection; concurrent and repeat calls are safe.

        A polite GOODBYE is sent only when the wire is idle; otherwise the
        socket is shut down immediately, and any thread blocked inside
        :meth:`call` / :meth:`call_pipelined` gets a
        :class:`~repro.clarens.errors.TransportClosedError`.
        """
        with self._close_lock:
            if self.closed:
                return
            self.closed = True
        if self._lock.acquire(blocking=False):
            try:
                self._sock.sendall(encode_frame(GOODBYE, 0, b""))
            except OSError:
                pass
            finally:
                self._lock.release()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


__all__ = [
    "AsyncSocketTransport",
    "LoopbackTransport",
    "SocketTransport",
    "Transport",
    "parse_framed_address",
]
