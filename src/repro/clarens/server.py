"""The Clarens host: dispatch pipeline, system services, XML-RPC front end.

:class:`ClarensHost` is the in-process core every GAE service registers
with.  A call no longer walks a hard-coded auth → ACL → invoke sequence;
it flows through an explicit **middleware pipeline**
(:mod:`repro.clarens.middleware`) operating on one
:class:`~repro.clarens.middleware.CallContext`:

    recorder → authentication → ACL → read cache → [user middlewares] → invoke

so every hosted service inherits per-method latency metrics
(``system.stats``), one ``rpc:`` span per call on the host's tracer
(``host.tracer``, read back by ``system.recent_calls``) and trace-id
propagation for free.  ``host.add_middleware()`` extends the
chain.  Every count and latency the RPC layer keeps lives once, in the
host's own ``MetricsRegistry`` (``host.metrics``); ``system.stats``,
``system.cache`` and the webui ``/metrics`` page are views over it.

:class:`XmlRpcServerHandle` mounts a host on a real threaded HTTP XML-RPC
server (stdlib ``xmlrpc.server``), the stand-in for the Windows-XP JClarens
server of §7's performance study.  The wire protocol puts the session token
first in every parameter list: ``service.method(token, *args)``; a client
trace id piggybacks on the token field (see
:func:`~repro.clarens.serialization.encode_trace_token`).
"""

from __future__ import annotations

import threading
import time
from socketserver import ThreadingMixIn
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from xmlrpc.client import Fault
from xmlrpc.server import SimpleXMLRPCRequestHandler, SimpleXMLRPCServer

from repro.clarens.acl import AccessControlList
from repro.clarens.auth import AuthService, Principal, UserDatabase
from repro.clarens.errors import ClarensFault, RemoteFault
from repro.clarens.middleware import (
    AclMiddleware,
    AuthenticationMiddleware,
    CallContext,
    Middleware,
    RecorderMiddleware,
    build_pipeline,
)
from repro.clarens.readcache import (
    EpochRegistry,
    ReadCache,
    ReadCacheMiddleware,
    canonical_args,
)
from repro.clarens.registry import ServiceRegistry, clarens_method
from repro.clarens.serialization import (
    MulticallResult,
    decode_trace_token,
    to_wire,
)
from repro.clarens.telemetry import CallStats, WorkerPoolStats
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Span, Tracer, new_trace_id

__all__ = [
    "ClarensHost",
    "XmlRpcServerHandle",
]

#: Spans a host's own tracer keeps: its recent-calls ring.  An
#: instrumented build replaces the tracer with its larger job-trace ring.
TRACE_CAPACITY = 256
#: Attributes the async front end adds to a call's span, listed with it.
_STAGE_FIELDS = ("decode_ms", "encode_ms")


def _call_row(span: Span) -> Optional[Dict[str, Any]]:
    """A finished ``rpc:`` span as its ``system.recent_calls`` row, or
    ``None`` for any other span and for a restored one without the
    recorder's fields."""
    if span.end is None or not span.name.startswith("rpc:"):
        return None
    fields = span.attributes
    if "outcome" not in fields:
        return None
    row = {
        "trace_id": fields.get("adopted_from", span.trace_id),
        "method": fields["method"],
        "transport": fields["transport"],
        "principal": fields["principal"],
        "started": span.start,
        "duration_ms": fields["duration_ms"],
        "outcome": fields["outcome"],
        "code": fields.get("code", 0),
        "error": fields.get("error", ""),
        "served_from": fields.get("served_from", "execute"),
    }
    row.update((key, fields[key]) for key in _STAGE_FIELDS if key in fields)
    return row


class _SystemService:
    """The built-in ``system`` service every host exposes."""

    def __init__(self, host: "ClarensHost") -> None:
        self._host = host

    @clarens_method(anonymous=True)
    def ping(self) -> str:
        """Liveness check."""
        return "pong"

    @clarens_method(anonymous=True)
    def login(self, user: str, password: str) -> str:
        """Authenticate; returns a session token for subsequent calls."""
        return self._host.auth.login(user, password)

    @clarens_method(anonymous=True)
    def logout(self, token: str) -> bool:
        """Revoke a session token."""
        self._host.auth.logout(token)
        return True

    @clarens_method(anonymous=True)
    def list_services(self) -> List[str]:
        """Names of every service hosted here."""
        return self._host.registry.names()

    @clarens_method(anonymous=True)
    def list_methods(self, service: str) -> List[str]:
        """Exposed method names of one service."""
        return sorted(self._host.registry.service(service).methods)

    @clarens_method(anonymous=True)
    def method_help(self, method_path: str) -> str:
        """Docstring of a ``service.method`` path."""
        return self._host.registry.resolve(method_path).doc

    @clarens_method(anonymous=True)
    def host_name(self) -> str:
        """This host's name."""
        return self._host.name

    @clarens_method(anonymous=True)
    def stats(self) -> Dict[str, Any]:
        """Aggregate call statistics for this host.

        Returns ``calls``, ``faults``, ``per_method`` counts and
        ``latency_ms`` — per-method ``{count, faults, mean_ms, p50_ms,
        p95_ms, p99_ms, max_ms}`` summaries of the executed calls.
        Hosts fronted by the async server also report ``worker_pools``:
        per-pool queue depth and decode/dispatch/encode/reply-flush
        stage latency summaries.
        """
        snap = self._host.stats.snapshot()
        if self._host.worker_pools:
            snap["worker_pools"] = {
                label: pool.snapshot()
                for label, pool in sorted(self._host.worker_pools.items())
            }
        return snap

    @clarens_method(anonymous=True)
    def observability(self) -> Dict[str, Any]:
        """Snapshot of the unified observability layer.

        Returns ``{"enabled": False}`` on hosts without instrumentation;
        otherwise span/journal occupancy plus every registered metric
        (counters, gauges, histogram summaries) keyed by name.
        """
        instrumentation = self._host.observability
        if instrumentation is None:
            return {"enabled": False}
        return instrumentation.snapshot()

    @clarens_method(anonymous=True)
    def consumers(self) -> Dict[str, Any]:
        """The consumers of the event-sourced write path.

        Returns ``{"enabled": False}`` on a host no GAE was built on;
        otherwise the journal head seq plus, per registered consumer
        (``estimators``, ``monitoring``, ``monalisa`` — each the one fold
        behind a store), its folded event kinds and the namespaces its
        checkpoint rows live in.  Dispatch is synchronous, so every
        consumer has folded up to the head.
        """
        core = self._host.events
        if core is None:
            return {"enabled": False}
        return core.snapshot()

    @clarens_method(anonymous=True)
    def health(self) -> Dict[str, Any]:
        """Live state of the declarative health-rule engine.

        Returns ``{"enabled": False}`` on hosts without instrumentation;
        otherwise the firing count, per-rule
        state machines (``ok``/``firing`` with streaks and observed
        values), and each rule's firing/resolved transition history.
        """
        instrumentation = self._host.observability
        if instrumentation is None:
            return {"enabled": False}
        return instrumentation.health_snapshot()

    @clarens_method(anonymous=True)
    def cache(self) -> Dict[str, Any]:
        """Read-cache introspection for this host.

        Returns the cache configuration (``enabled``, ``capacity``), its
        current occupancy (``entries``, ``evictions``), per-method
        ``{hits, misses, invalidations, coalesced}`` counters, and the
        live epoch vector (``epochs``: every registered epoch name with
        its current value).
        """
        return self._host.read_cache.snapshot()

    @clarens_method(anonymous=True)
    def recent_calls(self, limit: int = 50, trace_id: str = "") -> List[Dict[str, Any]]:
        """The newest *limit* finished calls: the ``rpc:`` spans of the host tracer.

        Each row carries ``trace_id`` (the call's own id, also when the
        span was re-homed onto a job trace), ``method`` (the path as
        sent), ``transport``, ``principal``, ``started``,
        ``duration_ms``, ``outcome``, ``served_from`` (``execute`` /
        ``cache``) and ``code``/``error`` (``0``/``""`` unless it
        failed); calls served over the async socket add ``decode_ms`` /
        ``encode_ms``.  Filter to one call id with *trace_id*; rows
        arrive oldest start first, so a multicall precedes its sub-calls.
        """
        rows = []
        for span in self._host.tracer.spans():
            row = _call_row(span)
            if row is not None and (not trace_id or row["trace_id"] == trace_id):
                rows.append(row)
        limit = int(limit)
        return rows[len(rows) - min(limit, len(rows)):] if limit >= 0 else rows

    @clarens_method(anonymous=True, pass_context=True)
    def multicall(self, ctx: CallContext, calls: List[Dict[str, Any]]) -> List[MulticallResult]:
        """Execute several calls in one round trip (XML-RPC multicall).

        Each entry is ``{"methodName": "service.method", "params": [...]}``.
        The caller's token authenticates every sub-call; each result is a
        :class:`~repro.clarens.serialization.MulticallResult` struct so one
        failure cannot poison the batch.  Every sub-call runs through the
        full middleware pipeline under the batch's trace id.  Nested
        multicalls are rejected.

        When the host's read cache is enabled, identical **read** sub-calls
        (same method + canonical args, method registered with a
        ``ReadPolicy``) are *coalesced*: the first occurrence executes, the
        duplicates reuse its result without re-entering the pipeline.  This
        is safe because duplicates share the batch's principal (same auth
        and ACL outcome) and only declared-read-only sub-calls separate
        them — any potentially mutating sub-call in between resets the
        dedup window, so answers stay bit-identical to an uncoalesced run.
        """
        host = self._host
        cache = host.read_cache
        out: List[MulticallResult] = []
        seen: Dict[Any, int] = {}  # coalescing key -> index of first result
        for call in calls:
            method = str(call.get("methodName", ""))
            params = list(call.get("params", []))
            if method == "system.multicall":
                out.append(MulticallResult(
                    ok=False, code=400,
                    error="nested multicall is not allowed",
                    trace_id=ctx.trace_id,
                ))
                continue
            key = None
            if cache.enabled:
                try:
                    entry = host.registry.resolve(method)
                except ClarensFault:
                    entry = None
                if (
                    entry is not None
                    and entry.cache is not None
                    and not entry.pass_context
                ):
                    args_key = canonical_args(params)
                    if args_key is not None:
                        key = (method, args_key)
                else:
                    # A sub-call without a read policy may mutate state:
                    # earlier read results are no longer reusable.
                    seen.clear()
            first_index = seen.get(key) if key is not None else None
            if first_index is not None and out[first_index].ok:
                cache.note_coalesced(method)
                host.stats.record(method, served_from="coalesced")
                out.append(MulticallResult(
                    ok=True, result=out[first_index].result,
                    trace_id=ctx.trace_id,
                ))
                continue
            try:
                result = host.invoke_in_context(ctx, method, params)
                out.append(MulticallResult(
                    ok=True, result=result, trace_id=ctx.trace_id
                ))
                if key is not None:
                    seen[key] = len(out) - 1
            except ClarensFault as exc:
                out.append(MulticallResult(
                    ok=False, code=exc.code, error=exc.message,
                    trace_id=ctx.trace_id,
                ))
        return out


class ClarensHost:
    """An in-process Clarens service host.

    Parameters
    ----------
    name:
        Host name (used by discovery).
    time_source:
        Clock for session expiry; defaults to wall time, the GAE wiring
        passes the simulator clock.
    users / acl:
        Authentication database and access rules; fresh empty ones are
        created when omitted.  The default ACL denies everything except
        methods marked ``anonymous``.
    """

    def __init__(
        self,
        name: str = "clarens",
        time_source: Callable[[], float] = time.time,
        users: Optional[UserDatabase] = None,
        acl: Optional[AccessControlList] = None,
        session_lifetime_s: float = 3600.0,
        read_cache_capacity: int = 4096,
        read_cache_enabled: bool = True,
    ) -> None:
        self.name = name
        self.registry = ServiceRegistry()
        self.users = users if users is not None else UserDatabase()
        self.time_source = time_source
        self.auth = AuthService(self.users, time_source, session_lifetime_s)
        self.acl = acl if acl is not None else AccessControlList(default_allow=False)
        #: The RPC layer's own instruments: wall-clock, process-local and
        #: never checkpointed (the GAE's sim-domain registry is a second
        #: instance, ``GAEInstrumentation.metrics``).  ``stats``,
        #: ``read_cache`` and ``worker_pools`` are views over it.
        self.metrics = MetricsRegistry()
        self.stats = CallStats(self.metrics)
        #: Where every call's ``rpc:`` span lives (on the host clock).
        #: ``build_gae`` with observability installs the instrumentation's
        #: tracer here, so a steering call joins its job's trace.
        self.tracer = Tracer(time_source, capacity=TRACE_CAPACITY)
        #: Epoch counters every mutating subsystem bumps (``wire_epochs``).
        self.epochs = EpochRegistry()
        #: The epoch-keyed result cache behind ``ReadCacheMiddleware``,
        #: multicall coalescing, and the webui's memoized hot pages.
        self.read_cache = ReadCache(
            self.epochs,
            self.metrics,
            capacity=read_cache_capacity,
            enabled=read_cache_enabled,
        )
        #: The GAE's :class:`~repro.observability.instrument.GAEInstrumentation`
        #: when wired (``build_gae`` sets it); ``system.observability`` reads it.
        self.observability = None
        #: The GAE's :class:`~repro.events.core.EventCore` (``build_gae``
        #: sets it on every build); ``system.consumers`` reads it.
        self.events = None
        #: The serving async front ends' worker pools by label; the aio
        #: server registers at start and unregisters at shutdown,
        #: ``system.stats`` merges the snapshots under ``worker_pools``.
        self.worker_pools: Dict[str, WorkerPoolStats] = {}
        self._user_middlewares: List[Middleware] = []
        self._pipeline = self._build_pipeline()
        self.registry.register(
            "system", _SystemService(self), description="built-in host introspection"
        )

    # ------------------------------------------------------------------
    # pipeline assembly
    # ------------------------------------------------------------------
    def _build_pipeline(self) -> Callable[[CallContext], Any]:
        chain: List[Middleware] = [
            RecorderMiddleware(self),
            AuthenticationMiddleware(self.auth),
            AclMiddleware(self.registry, self.acl),
            ReadCacheMiddleware(self.read_cache),
            *self._user_middlewares,
        ]
        return build_pipeline(chain, self._invoke)

    def add_middleware(self, middleware: Middleware) -> Middleware:
        """Append *middleware* to the pipeline (innermost position).

        User middlewares run after the built-in recorder/auth/ACL/cache
        chain — the context reaches them with the principal resolved and
        the method entry cached — and before the terminal invoker.
        Returns *middleware* so the call can be used as a decorator.
        """
        self._user_middlewares.append(middleware)
        self._pipeline = self._build_pipeline()
        return middleware

    @property
    def middlewares(self) -> Tuple[Middleware, ...]:
        """The user middlewares currently installed, in call order."""
        return tuple(self._user_middlewares)

    def _invoke(self, ctx: CallContext) -> Any:
        """Terminal pipeline stage: resolve, call the method, marshal."""
        entry = ctx.entry
        if entry is None:
            entry = ctx.entry = self.registry.resolve(ctx.method_path)
        try:
            if entry.pass_context:
                result = entry.func(ctx, *ctx.params)
            elif entry.pass_principal:
                result = entry.func(ctx.principal, *ctx.params)
            else:
                result = entry.func(*ctx.params)
        except ClarensFault:
            raise
        except Exception as exc:
            raise RemoteFault(f"{type(exc).__name__}: {exc}") from exc
        return to_wire(result)

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        instance: Any,
        methods: Optional[List[str]] = None,
        description: str = "",
    ) -> None:
        """Register a service instance under *name*."""
        self.registry.register(name, instance, methods=methods, description=description)

    def dispatch(
        self,
        method_path: str,
        params: Sequence[Any],
        token: str = "",
        trace_id: str = "",
        transport: str = "inproc",
        collect: Optional[Dict[str, Any]] = None,
    ) -> Any:
        """Execute one call through the middleware pipeline.

        A fresh trace id is minted when the caller supplies none.  Raises
        the :class:`ClarensFault` subclasses on any failure; an application
        exception inside the method surfaces as :class:`RemoteFault`
        carrying the original message.

        *collect*, when given, receives ``trace_id``, ``outcome``,
        ``served_from`` and ``span_id`` (the call's ``rpc:`` span) from the
        finished context, filled even when the call faults — how the async
        front end adds its stage timings to the call's span.
        """
        ctx = CallContext(
            method_path=method_path,
            params=list(params),
            token=token,
            trace_id=trace_id or new_trace_id(),
            transport=transport,
        )
        try:
            return self._pipeline(ctx)
        finally:
            if collect is not None:
                collect["trace_id"] = ctx.trace_id
                collect["outcome"] = ctx.outcome
                collect["served_from"] = ctx.served_from
                collect["span_id"] = ctx.span_id

    def invoke_as(
        self, principal: Principal, method_path: str, params: Sequence[Any]
    ) -> Any:
        """Execute a call for an already-authenticated principal.

        The call still flows through the full pipeline (so it is traced
        and counted); the authentication middleware simply skips token
        validation because the principal is pre-bound.
        """
        ctx = CallContext(
            method_path=method_path,
            params=list(params),
            trace_id=new_trace_id(),
            principal=principal,
        )
        return self._pipeline(ctx)

    def invoke_in_context(
        self, parent: CallContext, method_path: str, params: Sequence[Any]
    ) -> Any:
        """Execute a sub-call sharing *parent*'s trace id and principal.

        How ``system.multicall`` fans one authentication and one trace id
        out over a whole batch: every sub-call runs the full pipeline, so
        each is individually traced and counted under the shared trace.
        """
        ctx = CallContext(
            method_path=method_path,
            params=list(params),
            token=parent.token,
            trace_id=parent.trace_id,
            transport=parent.transport,
            principal=parent.principal,
        )
        return self._pipeline(ctx)

    def principal_of(self, token: str) -> Principal:
        """Resolve a token to its principal (ANONYMOUS for the empty token)."""
        return self.auth.validate(token)


# ----------------------------------------------------------------------
# Real XML-RPC front end (Figure 6's measurement target)
# ----------------------------------------------------------------------
class _Handler(SimpleXMLRPCRequestHandler):
    rpc_paths = ("/RPC2",)
    # Keep-alive: each client reuses one TCP connection across calls, as a
    # real 2005 Clarens deployment would; without it, 100 clients reconnect
    # per request and overflow the listen backlog.
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # keep benchmark output clean


class _ThreadedXmlRpcServer(ThreadingMixIn, SimpleXMLRPCServer):
    daemon_threads = True
    allow_reuse_address = True
    # Sized for the Figure 6 experiment's 100 simultaneous clients.
    request_queue_size = 256


class _WireDispatcher:
    """Adapts ClarensHost.dispatch to the xmlrpc server's _dispatch hook."""

    def __init__(self, host: ClarensHost) -> None:
        self._host = host

    def _dispatch(self, method: str, params: Tuple[Any, ...]) -> Any:
        if not params:
            raise Fault(400, "missing session token parameter")
        wire_token, args = params[0], params[1:]
        if not isinstance(wire_token, str):
            raise Fault(400, "session token must be a string")
        token, trace_id = decode_trace_token(wire_token)
        try:
            return self._host.dispatch(
                method, list(args), token=token,
                trace_id=trace_id or "", transport="xmlrpc",
            )
        except ClarensFault as exc:
            raise Fault(exc.code, exc.message) from exc


class XmlRpcServerHandle:
    """A running threaded XML-RPC server fronting a :class:`ClarensHost`.

    Use as a context manager::

        with XmlRpcServerHandle(host) as handle:
            transport = SocketTransport(handle.url)
            ...

    The port defaults to 0 (ephemeral); read :attr:`url` after start.
    """

    def __init__(self, host: ClarensHost, bind: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self._server = _ThreadedXmlRpcServer(
            (bind, port), requestHandler=_Handler, allow_none=True, logRequests=False
        )
        self._server.register_instance(_WireDispatcher(host))
        self._thread = threading.Thread(
            target=self._server.serve_forever, name=f"clarens-{host.name}", daemon=True
        )
        self._started = False

    def start(self) -> "XmlRpcServerHandle":
        """Begin serving in a background thread."""
        if not self._started:
            self._thread.start()
            self._started = True
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """(host, port) the server is bound to."""
        return self._server.server_address  # type: ignore[return-value]

    @property
    def url(self) -> str:
        """The server's XML-RPC endpoint URL."""
        bind, port = self.address
        return f"http://{bind}:{port}/RPC2"

    def shutdown(self) -> None:
        """Stop serving and release the socket."""
        if self._started:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._started = False
        self._server.server_close()

    def __enter__(self) -> "XmlRpcServerHandle":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
