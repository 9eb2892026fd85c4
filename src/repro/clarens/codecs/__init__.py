"""Negotiable wire codecs for the framed Clarens transport.

A *codec* is the byte-level encoding of one call and its response; the
*framing* (:mod:`repro.clarens.framing`) around it is codec-agnostic, so
one async server speaks every codec at once and each connection picks its
own during the handshake (see :func:`negotiate`).

Two codecs ship:

- ``xmlrpc`` (:class:`~repro.clarens.codecs.xmlrpc.XmlRpcCodec`) — the
  existing XML-RPC body format, byte-compatible with what the stdlib
  ``xmlrpc`` stack puts inside an HTTP POST.  The compatibility codec:
  a 2005-era SOAP/XML-RPC client's payloads work unchanged.
- ``json`` (:class:`~repro.clarens.codecs.json.CompactJsonCodec`) — a
  compact JSON encoding, typically 3–6x smaller and an order of
  magnitude cheaper to parse.  The codec for bandwidth-constrained
  clients (handheld devices, high-frequency G-Monitor-style portals).

Both carry exactly the wire value set of
:func:`~repro.clarens.serialization.to_wire`, so responses are
wire-identical across codecs (pinned by
``tests/property/test_properties_codecs.py``).

Every codec implements the :class:`Codec` interface over *wire values*
(post-``to_wire`` structures): requests as ``(method, wire_token,
params)`` — the trace id piggybacks on the token field exactly as on the
HTTP transport — and responses as either a result value or a
:class:`~repro.clarens.errors.ClarensFault`.
"""

from __future__ import annotations

import abc
import importlib
from typing import Any, Dict, List, Sequence, Tuple

from repro.clarens.errors import ProtocolError


class Codec(abc.ABC):
    """One wire encoding of Clarens calls and responses.

    Implementations must be stateless and thread-safe: the async server
    encodes responses from worker-pool threads while the event loop
    decodes requests, all through one shared instance.
    """

    #: Registry/negotiation name (``"json"``, ``"xmlrpc"``).
    name: str = ""
    #: Advisory MIME type (reported by introspection, not on the wire).
    content_type: str = "application/octet-stream"

    @abc.abstractmethod
    def encode_request(
        self, method: str, wire_token: str, params: Sequence[Any]
    ) -> bytes:
        """Encode one call.  *params* must already be wire values."""

    @abc.abstractmethod
    def decode_request(self, data: bytes) -> Tuple[str, str, List[Any]]:
        """Decode a call into ``(method, wire_token, params)``.

        Raises :class:`~repro.clarens.errors.ProtocolError` on malformed
        payloads.
        """

    @abc.abstractmethod
    def encode_response(self, result: Any) -> bytes:
        """Encode a successful result (already a wire value)."""

    @abc.abstractmethod
    def encode_fault(self, code: int, message: str) -> bytes:
        """Encode a fault response."""

    @abc.abstractmethod
    def decode_response(self, data: bytes) -> Any:
        """Decode a response; raises the typed fault for fault bodies."""


#: Every codec by name, preferred (compact) first, as ``(module, class)``.
#: A codec's module is imported when the codec is first asked for, so a
#: host that only ever speaks ``json`` never loads the ``xmlrpc`` stack.
_REGISTRY: Dict[str, Tuple[str, str]] = {
    "json": ("repro.clarens.codecs.json", "CompactJsonCodec"),
    "xmlrpc": ("repro.clarens.codecs.xmlrpc", "XmlRpcCodec"),
}

_CODECS: Dict[str, Codec] = {}


def codec_names() -> List[str]:
    """Names of every registered codec, preferred (compact) first."""
    return list(_REGISTRY)


def get_codec(name: str) -> Codec:
    """The shared codec instance registered under *name*.

    Raises :class:`~repro.clarens.errors.ProtocolError` for unknown
    names, the same failure an impossible negotiation surfaces.
    """
    codec = _CODECS.get(name)
    if codec is None:
        require_codec(name)
        module, cls = _REGISTRY[name]
        codec = _CODECS.setdefault(name, getattr(importlib.import_module(module), cls)())
    return codec


def require_codec(name: str) -> None:
    """Refuse *name* unless a codec is registered under it (imports nothing)."""
    if name not in _REGISTRY:
        raise ProtocolError(
            f"unknown codec {name!r} (have: {', '.join(_REGISTRY)})"
        )


def negotiate(preferences: Sequence[str], supported: Sequence[str]) -> str:
    """Pick the first client-preferred codec the server also supports.

    The client's order wins (it knows its bandwidth constraints); raises
    :class:`~repro.clarens.errors.ProtocolError` when the sets are
    disjoint.
    """
    for name in preferences:
        if name in supported:
            return name
    raise ProtocolError(
        f"no common codec: client offers {list(preferences)!r}, "
        f"server supports {list(supported)!r}"
    )


__all__ = [
    "Codec",
    "codec_names",
    "get_codec",
    "negotiate",
    "require_codec",
]
