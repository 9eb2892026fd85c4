"""A Clarens-style Grid-enabled web services framework.

Clarens is the backbone of the GAE (§3): it "offers a web service framework
for hosting the GAE web services, and provides a common set of services for
authentication, access control, and for service lookup and discovery", with
clients speaking SOAP/XML-RPC "in a language-neutral manner".

This subpackage reproduces that framework in Python:

- :mod:`repro.clarens.api` — **the public surface**; everything below is
  re-exported here and from this package;
- :mod:`repro.clarens.registry` — service/method registration;
- :mod:`repro.clarens.auth` — login → HMAC-signed session tokens;
- :mod:`repro.clarens.acl` — per-service/method access control;
- :mod:`repro.clarens.server` — the :class:`ClarensHost` dispatcher;
- :mod:`repro.clarens.xmlrpc_server` — a real threaded XML-RPC HTTP server
  (stdlib ``xmlrpc``) used by the Figure 6 latency benchmark, imported on
  first access to :class:`XmlRpcServerHandle`;
- :mod:`repro.clarens.aio` — the framed-protocol server, one
  ``selectors`` thread: persistent connections, request pipelining,
  codec negotiation;
- :mod:`repro.clarens.framing` — the length-prefixed frame format and
  HELLO/WELCOME handshake spoken by the async server;
- :mod:`repro.clarens.codecs` — negotiable wire codecs (XML-RPC bodies
  and a compact JSON encoding) for the framed transport;
- :mod:`repro.clarens.middleware` — the call pipeline every dispatch flows
  through (recorder → auth → ACL → read cache → user middlewares → invoke);
- :mod:`repro.clarens.telemetry` — the ``system.stats`` and worker-pool
  views over the host's metrics registry (``host.metrics``); each call's
  record is its ``rpc:`` span on ``host.tracer``, read back by
  ``system.recent_calls``;
- :mod:`repro.clarens.client` — proxy objects over pluggable transports;
- :mod:`repro.clarens.transport` — loopback, XML-RPC and async framed
  transports;
- :mod:`repro.clarens.discovery` — the peer-to-peer lookup network used for
  dynamic service discovery (§3, [5]);
- :mod:`repro.clarens.serialization` — wire-safe marshalling helpers.
"""

from typing import Any

from repro.clarens import api
from repro.clarens.api import (  # noqa: F401  (re-exported surface)
    ANONYMOUS,
    AccessControlList,
    AclRule,
    AsyncSocketServerHandle,
    AsyncSocketTransport,
    AuthService,
    AuthenticationError,
    AuthorizationError,
    CallContext,
    CallStats,
    ClarensClient,
    ClarensFault,
    ClarensHost,
    Codec,
    DiscoveryNetwork,
    LoopbackTransport,
    MethodNotFound,
    Middleware,
    MulticallResult,
    Peer,
    Principal,
    ProtocolError,
    RemoteFault,
    SerializationError,
    ServiceNotFound,
    ServiceProxy,
    ServiceRegistry,
    SocketTransport,
    Transport,
    TransportClosedError,
    TransportError,
    UserDatabase,
    clarens_method,
    codec_names,
    from_wire,
    get_codec,
    negotiate,
    new_trace_id,
    parse_framed_address,
    resolve_transport,
    to_wire,
)

__all__ = [
    "ANONYMOUS",
    "AccessControlList",
    "AclRule",
    "AsyncSocketServerHandle",
    "AsyncSocketTransport",
    "AuthService",
    "AuthenticationError",
    "AuthorizationError",
    "CallContext",
    "CallStats",
    "ClarensClient",
    "ClarensFault",
    "ClarensHost",
    "Codec",
    "DiscoveryNetwork",
    "LoopbackTransport",
    "MethodNotFound",
    "Middleware",
    "MulticallResult",
    "Peer",
    "Principal",
    "ProtocolError",
    "RemoteFault",
    "SerializationError",
    "ServiceNotFound",
    "ServiceProxy",
    "ServiceRegistry",
    "SocketTransport",
    "Transport",
    "TransportClosedError",
    "TransportError",
    "UserDatabase",
    "XmlRpcServerHandle",
    "clarens_method",
    "codec_names",
    "from_wire",
    "get_codec",
    "negotiate",
    "new_trace_id",
    "parse_framed_address",
    "resolve_transport",
    "to_wire",
]


def __getattr__(name: str) -> Any:
    # ``XmlRpcServerHandle``: resolved, on first use, by the api module.
    if name in __all__:
        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
