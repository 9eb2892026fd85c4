"""The single public surface of the Clarens framework.

Import from here (or from :mod:`repro.clarens`, which re-exports this
module) rather than from the implementation modules — the submodule
layout is free to change between versions; this surface is not.

The surface groups into:

- **hosting** — :class:`ClarensHost` plus the two server front ends:
  :class:`XmlRpcServerHandle` (threaded HTTP/XML-RPC, one thread per
  connection; it and the stdlib HTTP stack load on first access) and
  :class:`AsyncSocketServerHandle` (framed protocol on one serving
  thread: persistent connections, pipelining, codec negotiation);
- **clients** — :class:`ClarensClient` / :class:`ServiceProxy` over a
  :class:`Transport`: :class:`LoopbackTransport` (in-process),
  :class:`SocketTransport` (XML-RPC over HTTP) and
  :class:`AsyncSocketTransport` (framed, pipelined);
  :func:`resolve_transport` maps endpoint strings to transports;
- **codecs** — the negotiable wire encodings of the framed transport
  (:func:`get_codec`, :func:`codec_names`, :func:`negotiate`);
- **framework plumbing** — registry, auth, ACL, middleware, telemetry,
  discovery, serialization helpers and the fault hierarchy.
"""

from __future__ import annotations

from typing import Any

from repro.clarens.acl import AccessControlList, AclRule
from repro.clarens.aio import AsyncSocketServerHandle
from repro.clarens.auth import ANONYMOUS, AuthService, Principal, UserDatabase
from repro.clarens.client import ClarensClient, ServiceProxy, resolve_transport
from repro.clarens.codecs import Codec, codec_names, get_codec, negotiate
from repro.clarens.discovery import DiscoveryNetwork, Peer
from repro.clarens.errors import (
    AuthenticationError,
    AuthorizationError,
    ClarensFault,
    MethodNotFound,
    ProtocolError,
    RemoteFault,
    SerializationError,
    ServiceNotFound,
    TransportClosedError,
    TransportError,
)
from repro.clarens.middleware import CallContext, Middleware
from repro.clarens.registry import ServiceRegistry, clarens_method
from repro.clarens.serialization import MulticallResult, from_wire, to_wire
from repro.clarens.server import ClarensHost
from repro.clarens.telemetry import CallStats
from repro.clarens.transport import (
    AsyncSocketTransport,
    LoopbackTransport,
    SocketTransport,
    Transport,
    parse_framed_address,
)
from repro.observability.tracing import new_trace_id

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
    # The HTTP/XML-RPC front end is imported on first use only: a host
    # served over the framed socket never loads the stdlib HTTP stack.
    if name == "XmlRpcServerHandle":
        from repro.clarens.xmlrpc_server import XmlRpcServerHandle

        return XmlRpcServerHandle
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
