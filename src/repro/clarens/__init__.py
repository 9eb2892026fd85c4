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
- :mod:`repro.clarens.server` — the :class:`ClarensHost` dispatcher and
  its one call path (:meth:`ClarensHost.call`: record → authenticate →
  ACL → read cache → invoke, on one :class:`CallContext`);
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

from typing import Any, List

from repro.clarens import api

#: The one list of public names is the api module's.
__all__ = api.__all__


def __getattr__(name: str) -> Any:
    # Each name resolves through the api module on first use (there,
    # ``XmlRpcServerHandle`` loads the HTTP stack) and is then bound here.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(api, name)
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *__all__})
