"""The asyncio Clarens front end: framed, pipelined, codec-negotiated.

:class:`AsyncSocketServerHandle` is the high-concurrency replacement for
the thread-per-connection XML-RPC server
(:class:`~repro.clarens.server.XmlRpcServerHandle`).  One asyncio event
loop (running in a background thread, like the threaded handle it
replaces) owns every connection: persistent framed sockets
(:mod:`repro.clarens.framing`), per-connection codec negotiation
(:mod:`repro.clarens.codecs`), and request pipelining — a client may have
hundreds of calls in flight on one connection, bounded by a
per-connection semaphore instead of one OS thread per concurrent call.

The host stays synchronous: a bounded **worker pool** bridges async I/O
into the thread-safe :class:`~repro.clarens.server.ClarensHost`, so the
whole middleware pipeline (recorder → auth → ACL → read cache)
is reused unchanged and answers are wire-identical to every other
transport.  The bridge drains requests in batches — decode, dispatch and
encode all happen on the worker thread, and each batch wakes the event
loop **once** with the concatenated reply frames — which is what keeps
per-call loop overhead to a frame header parse.

Server-side call sequence::

    loop:    read CALL frame ──► inflight.acquire ──► queue
    worker:  decode(codec) ──► host.dispatch ──► encode(codec) ─┐
    loop:    ◄── one call_soon_threadsafe per batch: write frames

Use exactly like the threaded handle::

    with AsyncSocketServerHandle(host) as handle:
        transport = AsyncSocketTransport(handle.address, codec="json")
        ...
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.clarens.codecs import Codec, codec_names, get_codec, negotiate
from repro.clarens.errors import ClarensFault, ProtocolError, TransportError
from repro.clarens.framing import (
    CALL,
    GOODBYE,
    HELLO,
    REPLY,
    WELCOME,
    encode_error,
    encode_frame,
    encode_hello,  # noqa: F401  (re-exported for symmetry in tests)
    encode_welcome,
    decode_hello,
    read_frame_async,
)
from repro.clarens.framing import ERROR as ERROR_FRAME
from repro.clarens.serialization import decode_trace_token
from repro.clarens.server import ClarensHost
from repro.clarens.telemetry import WorkerPoolStats


class _Connection:
    """Loop-side state for one negotiated client connection."""

    __slots__ = (
        "writer", "codec", "transport_label", "loop", "inflight", "closed",
        "stats",
    )

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        codec: Codec,
        loop: asyncio.AbstractEventLoop,
        max_inflight: int,
        stats: WorkerPoolStats,
    ) -> None:
        self.writer = writer
        self.codec = codec
        #: Shows up as ``transport`` in trace records / ``system.stats``.
        self.transport_label = f"async+{codec.name}"
        self.loop = loop
        self.inflight = asyncio.Semaphore(max_inflight)
        self.closed = False
        self.stats = stats

    def post_replies(self, data: bytes, count: int) -> None:
        """Hand *count* concatenated reply frames to the event loop.

        Called from worker threads; one loop wake-up per batch.
        """
        try:
            self.loop.call_soon_threadsafe(self._write_replies, data, count)
        except RuntimeError:
            pass  # loop already closed (server shutdown mid-flight)

    def _write_replies(self, data: bytes, count: int) -> None:
        for _ in range(count):
            self.inflight.release()
        if not self.closed and not self.writer.is_closing():
            t0 = time.perf_counter()
            self.writer.write(data)
            self.stats.record_stage("reply_flush", time.perf_counter() - t0)


class _WorkerBridge:
    """Bounded thread pool bridging framed requests into ``ClarensHost``.

    Workers drain the shared queue in batches (up to ``batch`` items) so
    the decode → dispatch → encode cost of a pipelined burst is paid
    without a loop wake-up per call.
    """

    def __init__(
        self,
        host: ClarensHost,
        workers: int,
        batch: int,
        stats: WorkerPoolStats,
    ) -> None:
        self._host = host
        self._batch = max(1, batch)
        self._stats = stats
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._threads = [
            threading.Thread(
                target=self._run, name=f"clarens-aio-worker-{i}", daemon=True
            )
            for i in range(max(1, workers))
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, conn: _Connection, request_id: int, payload: bytes) -> None:
        self._stats.on_submit()
        self._queue.put((conn, request_id, payload, time.perf_counter()))

    def stop(self) -> None:
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=5.0)

    # -- worker side ----------------------------------------------------
    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            batch: List[Tuple[_Connection, int, bytes, float]] = [item]
            while len(batch) < self._batch:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is None:
                    self._queue.put(None)  # re-post for a sibling worker
                    break
                batch.append(extra)
            stats = self._stats
            replies: Dict[_Connection, List[bytes]] = {}
            for conn, request_id, payload, enqueued in batch:
                stats.on_start(time.perf_counter() - enqueued)
                replies.setdefault(conn, []).append(
                    self._execute(conn.codec, conn.transport_label, request_id, payload)
                )
            stats.on_batch(len(batch))
            for conn, frames in replies.items():
                conn.post_replies(b"".join(frames), len(frames))

    def _execute(
        self, codec: Codec, label: str, request_id: int, payload: bytes
    ) -> bytes:
        stats = self._stats
        clk = time.perf_counter
        collect: Dict[str, Any] = {}
        decode_s: Optional[float] = None
        encode_s = 0.0
        t0 = clk()
        try:
            method, wire_token, params = codec.decode_request(payload)
            token, trace_id = decode_trace_token(wire_token)
            decode_s = clk() - t0
            stats.record_stage("decode", decode_s)
            t0 = clk()
            try:
                result = self._host.dispatch(
                    method,
                    params,
                    token=token,
                    trace_id=trace_id or "",
                    transport=label,
                    collect=collect,
                )
            finally:
                stats.record_stage("dispatch", clk() - t0, ok=collect.get("outcome") == "ok")
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
        if collect.get("span_id"):
            # The stage timings ride on the call's own span.
            self._host.tracer.update(
                collect["span_id"], decode_ms=decode_s * 1000.0, encode_ms=encode_s * 1000.0
            )
        return encode_frame(REPLY, request_id, body)


class AsyncSocketServerHandle:
    """A running asyncio framed-protocol server fronting a ``ClarensHost``.

    Parameters
    ----------
    host:
        The (thread-safe) host to dispatch into.
    bind / port:
        Listen address; port 0 (default) picks an ephemeral port — read
        :attr:`address` after :meth:`start`.
    workers:
        Worker-pool threads bridging into the host.  More than a few
        buys nothing under the GIL; the default suits CPU-light reads.
    codecs:
        Codec names this server accepts (default: every registered one).
    max_inflight:
        Per-connection pipelining bound: CALL frames admitted but not
        yet answered.  Backpressure, not an error — the server simply
        stops reading that connection until replies drain.
    dispatch_batch:
        Max requests a worker drains per queue wake-up.
    """

    def __init__(
        self,
        host: ClarensHost,
        bind: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        codecs: Optional[Sequence[str]] = None,
        max_inflight: int = 256,
        dispatch_batch: int = 64,
    ) -> None:
        self.host = host
        self._bind = bind
        self._port = port
        self._workers = workers
        self.codecs: Tuple[str, ...] = tuple(codecs or codec_names())
        for name in self.codecs:
            get_codec(name)  # fail fast on unknown names
        self._max_inflight = max_inflight
        self._dispatch_batch = dispatch_batch
        #: The view of this server's worker-pool series in ``host.metrics``
        #: (queue depth, stage latency), labelled ``pool="async:<port>"``;
        #: on the host as ``host.worker_pools[label]`` while serving.
        self.pool_stats: Optional[WorkerPoolStats] = None
        self._started = False
        self._address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._bridge: Optional[_WorkerBridge] = None
        self._conns: Set[_Connection] = set()
        self._conn_tasks: "Set[asyncio.Task]" = set()
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AsyncSocketServerHandle":
        """Begin serving in a background thread (idempotent)."""
        if self._started:
            return self
        ready = threading.Event()
        self._thread = threading.Thread(
            target=self._serve,
            args=(ready,),
            name=f"clarens-aio-{self.host.name}",
            daemon=True,
        )
        self._thread.start()
        ready.wait()
        if self._startup_error is not None:
            self._thread.join(timeout=5.0)
            raise TransportError(
                f"async server failed to start: {self._startup_error}"
            ) from self._startup_error
        self._started = True
        return self

    def shutdown(self) -> None:
        """Stop serving, close connections, join every thread (idempotent)."""
        if self._started:
            loop, stop = self._loop, self._stop_event
            if loop is not None and stop is not None:
                try:
                    loop.call_soon_threadsafe(stop.set)
                except RuntimeError:
                    pass
            if self._thread is not None:
                self._thread.join(timeout=10.0)
            self._started = False
        if self._bridge is not None:
            self._bridge.stop()
            self._bridge = None
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
    # loop side
    # ------------------------------------------------------------------
    def _serve(self, ready: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._serve_async(ready))
        except BaseException as exc:  # pragma: no cover - defensive
            if self._startup_error is None:
                self._startup_error = exc
            ready.set()
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    async def _serve_async(self, ready: threading.Event) -> None:
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._on_connection, self._bind, self._port
            )
        except OSError as exc:
            self._startup_error = exc
            ready.set()
            return
        sockname = server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])
        # The pool is labelled by the bound port, and must exist before
        # the loop serves its first connection (the next ``await``).
        label = f"async:{sockname[1]}"
        self.pool_stats = WorkerPoolStats(self.host.metrics, label)
        self.host.worker_pools[label] = self.pool_stats
        self._bridge = _WorkerBridge(
            self.host, self._workers, self._dispatch_batch, self.pool_stats
        )
        ready.set()
        await self._stop_event.wait()
        server.close()
        await server.wait_closed()
        for conn in list(self._conns):
            conn.closed = True
            conn.writer.close()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            await self._session(reader, writer)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _session(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # -- handshake --------------------------------------------------
        try:
            frame_type, hello_id, payload = await read_frame_async(reader)
            if frame_type != HELLO:
                raise ProtocolError(
                    f"expected HELLO, got frame type {frame_type}"
                )
            _, preferences = decode_hello(payload)
            codec_name = negotiate(preferences, self.codecs)
        except ProtocolError as exc:
            writer.write(
                encode_frame(ERROR_FRAME, 0, encode_error(exc.code, exc.message))
            )
            return
        except (TransportError, asyncio.IncompleteReadError, OSError):
            return  # peer vanished before negotiating; nothing to answer
        writer.write(
            encode_frame(
                WELCOME,
                hello_id,
                encode_welcome(codec_name, self.host.name),
            )
        )
        bridge = self._bridge  # made, with pool_stats, before the first connection
        conn = _Connection(
            writer, get_codec(codec_name), asyncio.get_event_loop(),
            self._max_inflight, self.pool_stats,
        )
        self._conns.add(conn)
        # -- framed call loop -------------------------------------------
        try:
            while not conn.closed:
                try:
                    frame_type, request_id, payload = await read_frame_async(
                        reader
                    )
                except (
                    asyncio.IncompleteReadError,
                    TransportError,
                    OSError,
                ):
                    break  # disconnect (orderly between frames or not)
                except ProtocolError as exc:
                    writer.write(
                        encode_frame(
                            ERROR_FRAME, 0, encode_error(exc.code, exc.message)
                        )
                    )
                    break
                if frame_type == GOODBYE:
                    break
                if frame_type != CALL:
                    writer.write(
                        encode_frame(
                            ERROR_FRAME,
                            request_id,
                            encode_error(
                                400, f"unexpected frame type {frame_type}"
                            ),
                        )
                    )
                    break
                # Pipelining backpressure: stop reading this connection
                # while ``max_inflight`` calls are unanswered.
                await conn.inflight.acquire()
                bridge.submit(conn, request_id, payload)
        finally:
            conn.closed = True
            self._conns.discard(conn)


__all__ = ["AsyncSocketServerHandle"]
