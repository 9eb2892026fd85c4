"""The Clarens host: the one call path and the system services.

:class:`ClarensHost` is the in-process core every GAE service registers
with.  Every call, whichever front end or helper it arrives through, runs
:meth:`ClarensHost.call` on one :class:`CallContext`, which does the same
fixed stages in the same order in one function::

    resolve → open rpc: span → authenticate → refuse unknown path
            → anonymous flag + ACL → read cache or invoke + to_wire
            → finish span + count

so every hosted service inherits per-method latency metrics
(``system.stats``), one ``rpc:`` span per call on the host's tracer
(``host.tracer``, read back by ``system.recent_calls``) and trace-id
propagation for free.  Every count and latency the RPC layer keeps lives
once, in the host's own ``MetricsRegistry`` (``host.metrics``);
``system.stats``, ``system.cache`` and its Prometheus text
(``prometheus_lines()``) are views over it.

A host is served over sockets by one of two front ends:
:class:`~repro.clarens.aio.AsyncSocketServerHandle` (framed, pipelined) or
:class:`~repro.clarens.xmlrpc_server.XmlRpcServerHandle` (threaded
XML-RPC over HTTP).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.clarens.acl import AccessControlList
from repro.clarens.auth import AuthService, Principal, UserDatabase
from repro.clarens.errors import (
    AuthenticationError,
    AuthorizationError,
    ClarensFault,
    ProtocolError,
    RemoteFault,
)
from repro.clarens.readcache import EpochRegistry, ReadCache, canonical_args
from repro.clarens.registry import ServiceRegistry, clarens_method
from repro.clarens.serialization import MulticallResult, to_wire
from repro.clarens.telemetry import CallStats, WorkerPoolStats
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Span, Tracer, new_trace_id

__all__ = ["CallContext", "ClarensHost", "UNKNOWN_METHOD"]

#: Spans a host's own tracer keeps: its recent-calls ring.  An
#: instrumented build replaces the tracer with its larger job-trace ring.
TRACE_CAPACITY = 256
#: Attributes the async front end adds to a call's span, listed with it.
_STAGE_FIELDS = ("decode_ms", "encode_ms")
#: The ``method`` label of a call whose path resolves to no registered
#: method: callers choose the path, so it must not become a label value.
UNKNOWN_METHOD = "<unknown>"


class CallContext:
    """Everything the host knows about one in-flight call.

    Built by :meth:`ClarensHost.dispatch`, :meth:`~ClarensHost.invoke_as`,
    :meth:`~ClarensHost.invoke_in_context` (``system.multicall``
    sub-calls, which share the parent's trace id) and the framed server,
    and run by :meth:`ClarensHost.call`, which fills in the rest.
    """

    __slots__ = (
        "method_path",
        "params",
        "token",
        "trace_id",
        "transport",
        "principal",
        "entry",
        "span",
        "finish",
        "duration_ms",
        "outcome",
        "served_from",
        "fault_code",
        "fault_message",
    )

    def __init__(
        self,
        method_path: str,
        params: Sequence[Any],
        token: str = "",
        trace_id: str = "",
        transport: str = "inproc",
        principal: Optional[Principal] = None,
    ) -> None:
        self.method_path = method_path
        self.params = params
        self.token = token
        self.trace_id = trace_id
        self.transport = transport
        #: Resolved from ``token`` by the call (None until then, unless
        #: pre-bound by ``invoke_as`` / a multicall sub-call).
        self.principal = principal
        #: The resolved MethodEntry (None for an unknown path).
        self.entry: Any = None
        #: The call's ``rpc:`` span on the host tracer.
        self.span: Any = None
        #: The span's finishing ``(status, fields)`` when the call was run
        #: with ``end_span=False``: the caller ends the span with them.
        self.finish: Optional[Tuple[str, Dict[str, Any]]] = None
        self.duration_ms = 0.0
        self.outcome = ""          # "" while in flight; "ok"/"fault"/"error" after
        #: "execute" normally; "cache" when the read cache answered,
        #: "coalesced" when multicall deduplication did.
        self.served_from = "execute"
        self.fault_code = 0
        self.fault_message = ""

    @property
    def span_id(self) -> str:
        """The id of the call's ``rpc:`` span, ``""`` before it is opened."""
        return self.span.span_id if self.span is not None else ""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CallContext({self.method_path!r}, trace={self.trace_id!r}, "
            f"transport={self.transport!r}, outcome={self.outcome!r})"
        )


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
        return instrumentation.health.snapshot()

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
        for span in self._host.tracer.spans(name_prefix="rpc:"):
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
        failure cannot poison the batch.  Every sub-call runs the host's
        whole call path (:meth:`ClarensHost.call`) under the batch's trace
        id.  A batch that is not a list is a :class:`ProtocolError`; an
        entry that is not a struct, whose ``params`` is not a list, or
        that nests a multicall gets its own code-400 result.

        When the host's read cache is enabled, identical **read** sub-calls
        (same method + canonical args, method registered with a
        ``ReadPolicy``) are *coalesced*: the first occurrence executes, the
        duplicates reuse its result without running the call path again.  This
        is safe because duplicates share the batch's principal (same auth
        and ACL outcome) and only declared-read-only sub-calls separate
        them — any potentially mutating sub-call in between resets the
        dedup window, so answers stay bit-identical to an uncoalesced run.
        """
        if not isinstance(calls, list):
            raise ProtocolError(
                f"system.multicall takes a list of calls, not {type(calls).__name__}"
            )
        host = self._host
        cache = host.read_cache
        out: List[MulticallResult] = []
        seen: Dict[Any, int] = {}  # coalescing key -> index of first result
        for i, call in enumerate(calls):
            if not isinstance(call, dict):
                refusal = f"calls[{i}] is not a struct"
            else:
                method = str(call.get("methodName", ""))
                params = call.get("params", [])
                if not isinstance(params, list):
                    refusal = f"calls[{i}].params is not a list"
                elif method == "system.multicall":
                    refusal = "nested multicall is not allowed"
                else:
                    refusal = ""
            if refusal:
                out.append(MulticallResult(
                    ok=False, code=400, error=refusal, trace_id=ctx.trace_id,
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
        #: The epoch-keyed result cache behind read-policy calls and
        #: multicall coalescing.
        self.read_cache = ReadCache(self.epochs, self.metrics, enabled=read_cache_enabled)
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
        self.registry.register(
            "system", _SystemService(self), description="built-in host introspection"
        )

    # ------------------------------------------------------------------
    # the call path
    # ------------------------------------------------------------------
    def call(self, ctx: CallContext, end_span: bool = True) -> Any:
        """Run one call through the fixed stages and return its wire value.

        The stages are listed in the module docstring.  An unknown path is
        refused only after authentication, so an unauthenticated caller
        learns nothing about what is served; its span keeps the path as
        sent and it is counted as :data:`UNKNOWN_METHOD`.  A registered
        method's span shares its name and ``method`` strings with the
        :class:`~repro.clarens.registry.MethodEntry`.  Raises the
        :class:`ClarensFault` subclasses; an application exception inside
        the method surfaces as :class:`RemoteFault`.

        With ``end_span=False`` the span is left open and its finishing
        ``(status, fields)`` are put on ``ctx.finish``: the framed server
        adds its stage timings to ``fields`` and ends the span in one write.
        """
        registry = self.registry
        try:
            entry = registry.resolve(ctx.method_path)
            name = entry.span_name
            method = label = entry.path
        except ClarensFault:  # raised again below, after authentication
            entry = None
            method = ctx.method_path
            name, label = f"rpc:{method}", UNKNOWN_METHOD
        ctx.entry = entry
        tracer = self.tracer
        span = ctx.span = tracer.start_span(
            name,
            trace_id=ctx.trace_id,
            attributes={"method": method, "transport": ctx.transport},
        )
        t0 = time.perf_counter()
        try:
            principal = ctx.principal
            if principal is None:
                principal = ctx.principal = self.auth.validate(ctx.token)
            if entry is None:
                entry = ctx.entry = registry.resolve(ctx.method_path)
            if not entry.anonymous:
                if principal.is_anonymous:
                    raise AuthenticationError(f"{ctx.method_path} requires a session token")
                if not self.acl.check(principal, ctx.method_path):
                    raise AuthorizationError(
                        f"user {principal.user!r} may not call {ctx.method_path}"
                    )
            # A read-policy method's answer is cached under its path, its
            # canonical args (and the caller, when it is passed one) and
            # the epoch vector it was computed at.  Faults are never cached.
            cache = self.read_cache
            args_key = None
            if entry.cache is not None and cache.enabled and not entry.pass_context:
                args_key = canonical_args(ctx.params)
                if args_key is not None:
                    if entry.pass_principal:  # the answer may depend on who asks
                        args_key = (principal.user, args_key)
                    vector = cache.epochs.vector(entry.cache.depends_on)
                    result = cache.lookup(ctx.method_path, args_key, vector)
                    if result is not ReadCache._MISS:
                        ctx.served_from = "cache"
                        ctx.outcome = "ok"
                        return result
            try:
                if entry.pass_context:
                    result = entry.func(ctx, *ctx.params)
                elif entry.pass_principal:
                    result = entry.func(principal, *ctx.params)
                else:
                    result = entry.func(*ctx.params)
            except ClarensFault:
                raise
            except Exception as exc:
                raise RemoteFault(f"{type(exc).__name__}: {exc}") from exc
            result = to_wire(result)
            if args_key is not None:
                cache.store(ctx.method_path, args_key, vector, result)
            ctx.outcome = "ok"
            return result
        except ClarensFault as exc:
            ctx.outcome = "fault"
            ctx.fault_code = exc.code
            ctx.fault_message = exc.message
            raise
        except BaseException as exc:  # non-Clarens escape (shutdown etc.)
            ctx.outcome = "error"
            ctx.fault_code = 500
            ctx.fault_message = str(exc)
            raise
        finally:
            ctx.duration_ms = (time.perf_counter() - t0) * 1000.0
            principal = ctx.principal
            fields = {
                "principal": principal.user if principal is not None else "",
                "duration_ms": ctx.duration_ms,
                "outcome": ctx.outcome,
            }
            if ctx.served_from != "execute":
                fields["served_from"] = ctx.served_from
            if ctx.outcome != "ok":
                fields["code"] = ctx.fault_code
                fields["error"] = ctx.fault_message
            status = "ok" if ctx.outcome == "ok" else "error"
            if end_span:
                tracer.end_span(span, status, attributes=fields)
            else:
                tracer.deactivate(span)
                ctx.finish = (status, fields)
            self.stats.record(
                label,
                ctx.outcome,
                ctx.duration_ms,
                served_from=ctx.served_from,
                transport=ctx.transport,
            )

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
        """Execute one call (:meth:`call`) and return its wire value.

        A fresh trace id is minted when the caller supplies none.

        *collect*, when given, receives ``trace_id``, ``outcome``,
        ``served_from`` and ``span_id`` (the call's ``rpc:`` span, ended
        by then) from the finished context, filled even when the call
        faults.
        """
        ctx = CallContext(
            method_path=method_path,
            params=list(params),
            token=token,
            trace_id=trace_id or new_trace_id(),
            transport=transport,
        )
        try:
            return self.call(ctx)
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

        The call still runs the whole call path (so it is traced and
        counted); only token validation is skipped, because the principal
        is pre-bound.
        """
        ctx = CallContext(
            method_path=method_path,
            params=list(params),
            trace_id=new_trace_id(),
            principal=principal,
        )
        return self.call(ctx)

    def invoke_in_context(
        self, parent: CallContext, method_path: str, params: Sequence[Any]
    ) -> Any:
        """Execute a sub-call sharing *parent*'s trace id and principal.

        How ``system.multicall`` fans one authentication and one trace id
        out over a whole batch: every sub-call runs the whole call path, so
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
        return self.call(ctx)

    def principal_of(self, token: str) -> Principal:
        """Resolve a token to its principal (ANONYMOUS for the empty token)."""
        return self.auth.validate(token)
