"""The middleware pipeline every Clarens call flows through.

The host's old hard-coded auth → ACL → invoke sequence is now an explicit
chain of middlewares operating on one :class:`CallContext`.  A middleware
is any callable ``(ctx, call_next) -> result``: it may inspect or mutate
the context, short-circuit by raising (or returning without calling
``call_next``), and observe the result or fault on the way back out.

The built-in chain, outermost first::

    RecorderMiddleware    # times the call once: its rpc: span + host.metrics
    AuthenticationMiddleware   # token -> Principal (skipped when pre-set)
    AclMiddleware         # anonymous/ACL enforcement
    ReadCacheMiddleware   # epoch-keyed read cache (repro.clarens.readcache)
    ... user middlewares added via ClarensHost.add_middleware() ...
    <terminal invoker>    # registry lookup + method invocation + to_wire

This is the DIRACx-style instrumented pipeline: every GAE service inherits
tracing and per-method latency metrics with zero changes of its own.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional, Sequence

from repro.clarens.auth import Principal
from repro.clarens.errors import (
    AuthenticationError,
    AuthorizationError,
    ClarensFault,
)

#: A middleware: receives the call context and the next handler in the chain.
Middleware = Callable[["CallContext", Callable[["CallContext"], Any]], Any]

#: The ``method`` label of a call whose path resolves to no registered
#: method: callers choose the path, so it must not become a label value.
UNKNOWN_METHOD = "<unknown>"


class CallContext:
    """Everything the pipeline knows about one in-flight call.

    Created by :meth:`ClarensHost.dispatch` (or by ``system.multicall``
    for sub-calls, which share the parent's trace id) and threaded through
    every middleware down to the terminal invoker.
    """

    __slots__ = (
        "method_path",
        "params",
        "token",
        "trace_id",
        "transport",
        "principal",
        "entry",
        "span_id",
        "duration_ms",
        "outcome",
        "served_from",
        "fault_code",
        "fault_message",
        "metadata",
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
        #: Resolved by auth middleware (None until then, unless pre-set by
        #: ``invoke_as`` / multicall sub-dispatch).
        self.principal = principal
        #: Resolved MethodEntry, cached by the recorder (None for an
        #: unknown path, which the ACL stage then refuses).
        self.entry: Any = None
        #: The call's ``rpc:`` span on the host tracer, set by the recorder.
        self.span_id = ""
        self.duration_ms = 0.0
        self.outcome = ""          # "" while in flight; "ok"/"fault"/"error" after
        #: "execute" normally; "cache" when ReadCacheMiddleware answered,
        #: "coalesced" when multicall deduplication did.
        self.served_from = "execute"
        self.fault_code = 0
        self.fault_message = ""
        #: Scratch space for user middlewares (created lazily).
        self.metadata: Optional[Dict[str, Any]] = None

    def meta(self) -> Dict[str, Any]:
        """The metadata dict, created on first use."""
        if self.metadata is None:
            self.metadata = {}
        return self.metadata

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CallContext({self.method_path!r}, trace={self.trace_id!r}, "
            f"transport={self.transport!r}, outcome={self.outcome!r})"
        )


def build_pipeline(
    middlewares: Sequence[Middleware],
    terminal: Callable[[CallContext], Any],
) -> Callable[[CallContext], Any]:
    """Compose *middlewares* (outermost first) around *terminal*."""
    handler = terminal
    for mw in reversed(list(middlewares)):
        def make(mw: Middleware, nxt: Callable[[CallContext], Any]):
            def handle(ctx: CallContext) -> Any:
                return mw(ctx, nxt)
            return handle
        handler = make(mw, handler)
    return handler


# ----------------------------------------------------------------------
# built-in middlewares
# ----------------------------------------------------------------------
class AuthenticationMiddleware:
    """Resolves ``ctx.token`` to ``ctx.principal`` (token validation).

    Skipped when a principal was pre-bound (``invoke_as`` and multicall
    sub-calls authenticate once for the whole batch).
    """

    def __init__(self, auth: Any) -> None:
        self._auth = auth

    def __call__(self, ctx: CallContext, call_next: Callable[[CallContext], Any]) -> Any:
        if ctx.principal is None:
            ctx.principal = self._auth.validate(ctx.token)
        return call_next(ctx)


class AclMiddleware:
    """Enforces the anonymous flag and the host's access-control list."""

    def __init__(self, registry: Any, acl: Any) -> None:
        self._registry = registry
        self._acl = acl

    def __call__(self, ctx: CallContext, call_next: Callable[[CallContext], Any]) -> Any:
        entry = ctx.entry
        if entry is None:
            entry = ctx.entry = self._registry.resolve(ctx.method_path)
        if not entry.anonymous:
            principal = ctx.principal
            if principal is None or principal.is_anonymous:
                raise AuthenticationError(
                    f"{ctx.method_path} requires a session token"
                )
            if not self._acl.check(principal, ctx.method_path):
                raise AuthorizationError(
                    f"user {principal.user!r} may not call {ctx.method_path}"
                )
        return call_next(ctx)


class RecorderMiddleware:
    """Times each call once and records it: its span and the call metrics.

    Outermost, so every call gets its record — cache hits and calls the
    auth or ACL stage rejects too — and the record reflects the final
    outcome after every other middleware.  It opens the call's
    ``rpc:<method>`` span on ``host.tracer`` (read per call: an
    instrumented build swaps in its own), stamps ``ctx.duration_ms`` /
    ``ctx.outcome``, finishes the span with them and counts the call in
    ``host.stats``.  ``system.recent_calls`` reads those spans back.

    A registered method's span takes its name and ``method`` from the
    resolved :class:`~repro.clarens.registry.MethodEntry` and its
    ``principal`` from the user's own :class:`Principal`, so a retained
    span holds no copy of a string the host already keeps.  An unknown
    path is recorded as sent, in strings of its own call only.
    """

    def __init__(self, host: Any) -> None:
        self._host = host

    def __call__(self, ctx: CallContext, call_next: Callable[[CallContext], Any]) -> Any:
        entry = ctx.entry
        if entry is None:
            try:
                entry = ctx.entry = self._host.registry.resolve(ctx.method_path)
            except ClarensFault:  # raised again by the ACL stage, after auth
                pass
        if entry is not None:
            name, method = entry.span_name, entry.path
        else:
            method = ctx.method_path
            name = f"rpc:{method}"
        tracer = self._host.tracer
        span = tracer.start_span(
            name,
            trace_id=ctx.trace_id,
            attributes={"method": method, "transport": ctx.transport},
        )
        ctx.span_id = span.span_id
        t0 = time.perf_counter()
        try:
            result = call_next(ctx)
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
            fields = span.attributes
            fields["principal"] = principal.user if principal is not None else ""
            fields["duration_ms"] = ctx.duration_ms
            fields["outcome"] = ctx.outcome
            if ctx.served_from != "execute":
                fields["served_from"] = ctx.served_from
            if ctx.outcome != "ok":
                fields["code"] = ctx.fault_code
                fields["error"] = ctx.fault_message
            tracer.end_span(span, status="ok" if ctx.outcome == "ok" else "error")
            self._host.stats.record(
                method if entry is not None else UNKNOWN_METHOD,
                ctx.outcome,
                ctx.duration_ms,
                served_from=ctx.served_from,
                transport=ctx.transport,
            )


__all__ = [
    "AclMiddleware",
    "AuthenticationMiddleware",
    "CallContext",
    "Middleware",
    "RecorderMiddleware",
    "UNKNOWN_METHOD",
    "build_pipeline",
]
