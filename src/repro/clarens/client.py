"""Client-side convenience layer: sessions and service proxies.

>>> client = ClarensClient(host)                       # doctest: +SKIP
>>> client.login("alice", "secret")                    # doctest: +SKIP
>>> steering = client.service("steering")              # doctest: +SKIP
>>> steering.list_jobs()                               # doctest: +SKIP

A :class:`ServiceProxy` turns attribute access into remote calls, carrying
the client's session token automatically.

The constructor accepts a ready transport, a host (wrapped in a
:class:`~repro.clarens.transport.LoopbackTransport`), or an endpoint
string — ``http://...`` for the threaded XML-RPC server, ``clarens://``
for the framed async server, where ``codec=`` states the wire-codec
preference::

    with ClarensClient("clarens://127.0.0.1:8123", codec="json") as client:
        client.login("alice", "secret")
        ...

Clients are context managers — leaving the ``with`` block logs out and
closes the transport.

Every call carries the client's current :attr:`~ClarensClient.trace_id`
(empty by default — the host then mints one per call); set one with
:meth:`~ClarensClient.new_trace` to correlate a sequence of calls in the
host's ``system.recent_calls`` ring.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Union

from repro.clarens.errors import ClarensFault, fault_from_code
from repro.clarens.readcache import canonical_args
from repro.clarens.serialization import MulticallResult
from repro.clarens.server import ClarensHost
from repro.clarens.transport import (
    AsyncSocketTransport,
    LoopbackTransport,
    SocketTransport,
    Transport,
)
from repro.observability.tracing import new_trace_id


def resolve_transport(
    target: Union[Transport, ClarensHost, str],
    codec: Union[str, Sequence[str], None] = None,
) -> Transport:
    """Turn a transport spec into a :class:`Transport`.

    - a :class:`Transport` is returned as-is (*codec* must be ``None`` —
      a constructed transport already fixed its codec);
    - a :class:`~repro.clarens.server.ClarensHost` becomes a
      :class:`~repro.clarens.transport.LoopbackTransport`;
    - an ``http(s)://`` URL becomes a
      :class:`~repro.clarens.transport.SocketTransport` (XML-RPC only);
    - a ``clarens://host:port`` URL (or bare ``host:port``) becomes an
      :class:`~repro.clarens.transport.AsyncSocketTransport`, the only
      spec where *codec* applies.
    """
    if isinstance(target, Transport):
        if codec is not None:
            raise ValueError(
                "codec= cannot be combined with an already-built transport"
            )
        return target
    if isinstance(target, ClarensHost):
        if codec is not None:
            raise ValueError("codec= does not apply to a loopback transport")
        return LoopbackTransport(target)
    spec = str(target)
    if spec.startswith(("http://", "https://")):
        if codec not in (None, "xmlrpc"):
            raise ValueError(
                f"the HTTP transport only speaks xmlrpc, not {codec!r}"
            )
        return SocketTransport(spec)
    return AsyncSocketTransport(spec, codec=codec)


class ClarensClient:
    """A session-holding client over any :class:`Transport`.

    *transport* is anything :func:`resolve_transport` accepts; *codec*
    is forwarded to it (only meaningful for ``clarens://`` endpoints).
    """

    def __init__(
        self,
        transport: Union[Transport, ClarensHost, str],
        codec: Union[str, Sequence[str], None] = None,
    ) -> None:
        self.transport = resolve_transport(transport, codec)
        self.token: str = ""
        #: Trace id sent with every call ("" lets the host mint one each).
        self.trace_id: str = ""

    # ------------------------------------------------------------------
    # session management
    # ------------------------------------------------------------------
    def login(self, user: str, password: str) -> str:
        """Authenticate; stores and returns the session token."""
        self.token = self.transport.call("system.login", [user, password])
        return self.token

    def logout(self) -> None:
        """Revoke the current session (no-op when not logged in)."""
        if self.token:
            self.transport.call("system.logout", [self.token])
            self.token = ""

    @property
    def logged_in(self) -> bool:
        """Whether the client holds a session token."""
        return bool(self.token)

    def close(self) -> None:
        """Log out (best effort) and close the transport.  Idempotent."""
        try:
            self.logout()
        except ClarensFault:
            self.token = ""  # server unreachable or session already dead
        finally:
            self.transport.close()

    def __enter__(self) -> "ClarensClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    def new_trace(self, trace_id: Optional[str] = None) -> str:
        """Start a client-issued trace; subsequent calls carry the id.

        Returns the id (a fresh one when *trace_id* is omitted).  Clear
        with ``client.trace_id = ""`` to let the host mint per-call ids
        again.
        """
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        return self.trace_id

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def call(self, method_path: str, *args: Any) -> Any:
        """Invoke ``service.method`` with the stored token and trace id."""
        return self.transport.call(
            method_path, list(args), token=self.token, trace_id=self.trace_id
        )

    def batch(self, calls: List[tuple]) -> List[Any]:
        """Execute several calls in one round trip via ``system.multicall``.

        *calls* is a list of ``(method_path, *args)`` tuples.  Returns the
        unwrapped results in order; the first failed sub-call is re-raised
        as its typed :class:`~repro.clarens.errors.ClarensFault`.  Use
        :meth:`batch_detailed` for fault-isolation semantics.
        """
        out = []
        for entry in self.batch_detailed(calls):
            if not entry.ok:
                raise fault_from_code(entry.code, entry.error)
            out.append(entry.result)
        return out

    def batch_detailed(self, calls: List[tuple]) -> List[MulticallResult]:
        """Like :meth:`batch` but never raises for sub-call failures.

        Returns one :class:`~repro.clarens.serialization.MulticallResult`
        per sub-call; each carries the batch's shared ``trace_id``.
        """
        payload = [
            {"methodName": c[0], "params": list(c[1:])} for c in calls
        ]
        return [MulticallResult.from_wire(r) for r in self.call("system.multicall", payload)]

    def batch_reads(self, calls: List[tuple]) -> List[MulticallResult]:
        """Batch **read-only** calls, deduplicating identical ones client-side.

        Like :meth:`batch_detailed`, but identical ``(method, args)``
        sub-calls are sent only once and the shared result is fanned back
        to every original position — the client-side half of request
        coalescing (the host's ``system.multicall`` additionally coalesces
        server-side).  Only use this for batches of read methods: the
        caller asserts that executing a duplicate would return the same
        answer, so a batch containing mutations must use :meth:`batch`.

        On a pipelining transport (``supports_pipelining``) the deduped
        batch is issued as overlapping framed calls under one shared trace
        id instead of a ``system.multicall`` round trip — each sub-call
        then passes the host pipeline (and read cache) individually, with
        the same fault-isolation semantics.
        """
        unique: List[tuple] = []
        index_of: dict = {}
        positions: List[int] = []
        for call in calls:
            key = (call[0], canonical_args(list(call[1:])))
            if key[1] is not None and key in index_of:
                positions.append(index_of[key])
                continue
            if key[1] is not None:
                index_of[key] = len(unique)
            positions.append(len(unique))
            unique.append(call)
        if self.transport.supports_pipelining:
            trace_id = self.trace_id or new_trace_id()
            outcomes = self.transport.call_pipelined(
                [(c[0], list(c[1:])) for c in unique],
                token=self.token,
                trace_id=trace_id,
            )
            results = [
                MulticallResult(ok=True, result=value, trace_id=trace_id)
                if ok
                else MulticallResult(
                    ok=False,
                    code=value.code,
                    error=value.message,
                    trace_id=trace_id,
                )
                for ok, value in outcomes
            ]
        else:
            results = self.batch_detailed(unique)
        return [results[i] for i in positions]

    def service(self, name: str) -> "ServiceProxy":
        """A proxy whose attributes are the service's remote methods."""
        return ServiceProxy(self, name)

    # ------------------------------------------------------------------
    # discovery helpers
    # ------------------------------------------------------------------
    def list_services(self) -> List[str]:
        """Names of services on the connected host."""
        return self.call("system.list_services")

    def list_methods(self, service: str) -> List[str]:
        """Exposed methods of one service on the connected host."""
        return self.call("system.list_methods", service)

    def ping(self) -> bool:
        """Round-trip liveness check."""
        return self.call("system.ping") == "pong"


class ServiceProxy:
    """Attribute-access facade for one remote service."""

    def __init__(self, client: ClarensClient, service_name: str) -> None:
        self._client = client
        self._service_name = service_name

    def __getattr__(self, method_name: str) -> Callable[..., Any]:
        if method_name.startswith("_"):
            raise AttributeError(method_name)

        def remote(*args: Any) -> Any:
            return self._client.call(f"{self._service_name}.{method_name}", *args)

        remote.__name__ = method_name
        return remote

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ServiceProxy({self._service_name!r})"
