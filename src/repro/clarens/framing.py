"""Length-prefixed framing for the async Clarens socket transport.

Every message on a framed connection is one *frame*::

    +----------------+------+----------------+----------------+
    | length  (u32)  | type | request id u64 | payload bytes  |
    +----------------+------+----------------+----------------+

``length`` counts everything after itself (type + id + payload), all
integers big-endian.  The payload encoding is whatever codec the
connection negotiated — framing itself is codec-agnostic, which is what
lets one server speak XML-RPC and compact JSON on neighbouring
connections.

Frame types:

- ``HELLO`` / ``WELCOME`` — the negotiation handshake.  The client's
  HELLO payload is compact JSON ``{"v": 1, "codecs": [...]}`` (most
  preferred first); the server's WELCOME answers ``{"v": 1, "codec":
  name, "host": hostname}``.  The handshake is always JSON regardless of
  the codec being negotiated — you cannot parse a payload before
  agreeing how payloads are parsed.
- ``CALL`` / ``REPLY`` — one request and its response, correlated by the
  request id.  Ids are chosen by the client (monotonically increasing);
  replies may arrive out of order under pipelining, which is the whole
  point of carrying the id.
- ``ERROR`` — a protocol-level failure (unparseable frame, failed
  negotiation, oversized payload) with a JSON ``{"code": int, "error":
  str}`` payload.  Distinct from an application fault, which travels as
  a normal REPLY in the connection's codec.
- ``GOODBYE`` — an orderly half-close; the peer stops reading afterwards.

The client reads frames off its blocking socket with
:func:`read_frame_from`; the server cuts them out of each connection's
input buffer with :func:`decode_header`.  Both enforce
:data:`MAX_FRAME_BYTES` so a corrupt length prefix cannot make either
side allocate gigabytes.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Callable, Dict, Tuple

from repro.clarens.errors import ProtocolError

#: Protocol version spoken (and required) by both ends of the handshake.
PROTOCOL_VERSION = 1

#: Hard cap on a single frame's post-length size (type + id + payload).
MAX_FRAME_BYTES = 64 * 1024 * 1024

HELLO = 1
WELCOME = 2
CALL = 3
REPLY = 4
ERROR = 5
GOODBYE = 6

_HEADER = struct.Struct(">IBQ")  # length, type, request id

#: Bytes of a frame header: :func:`decode_header` takes exactly this many.
HEADER_BYTES = _HEADER.size


def encode_frame(frame_type: int, request_id: int, payload: bytes) -> bytes:
    """One wire-ready frame (header + payload)."""
    return _HEADER.pack(len(payload) + 9, frame_type, request_id) + payload


def decode_header(header: bytes) -> Tuple[int, int, int]:
    """Split a 13-byte header into ``(payload_length, type, request_id)``.

    Raises :class:`~repro.clarens.errors.ProtocolError` for frames that
    are undersized or exceed :data:`MAX_FRAME_BYTES`.
    """
    length, frame_type, request_id = _HEADER.unpack(header)
    if length < 9 or length > MAX_FRAME_BYTES:
        raise ProtocolError(f"invalid frame length {length}")
    return length - 9, frame_type, request_id


def read_frame_from(
    read_exact: Callable[[int], bytes]
) -> Tuple[int, int, bytes]:
    """Read one frame via a blocking ``read_exact(n) -> bytes`` callable.

    Returns ``(type, request_id, payload)``.  *read_exact* must either
    return exactly ``n`` bytes or raise (the client's reader raises
    :class:`~repro.clarens.errors.TransportClosedError` /
    :class:`~repro.clarens.errors.TransportError` itself).
    """
    payload_len, frame_type, request_id = decode_header(
        read_exact(HEADER_BYTES)
    )
    payload = read_exact(payload_len) if payload_len else b""
    return frame_type, request_id, payload


# ----------------------------------------------------------------------
# handshake payloads (always JSON, independent of the negotiated codec)
# ----------------------------------------------------------------------
def encode_hello(codecs: Tuple[str, ...]) -> bytes:
    """The client's HELLO payload offering codec names, preferred first."""
    return json.dumps(
        {"v": PROTOCOL_VERSION, "codecs": list(codecs)},
        separators=(",", ":"),
    ).encode("ascii")


def decode_hello(payload: bytes) -> Tuple[int, Tuple[str, ...]]:
    """Parse a HELLO payload into ``(version, codec_preferences)``."""
    body = _handshake_body(payload, "HELLO")
    codecs = body.get("codecs")
    if not isinstance(codecs, list) or not all(
        isinstance(c, str) for c in codecs
    ):
        raise ProtocolError("HELLO payload lacks a codec preference list")
    return int(body.get("v", 0)), tuple(codecs)


def encode_welcome(codec: str, host_name: str) -> bytes:
    """The server's WELCOME payload confirming the negotiated codec."""
    return json.dumps(
        {"v": PROTOCOL_VERSION, "codec": codec, "host": host_name},
        separators=(",", ":"),
    ).encode("ascii")


def decode_welcome(payload: bytes) -> Tuple[int, str, str]:
    """Parse a WELCOME payload into ``(version, codec, host_name)``."""
    body = _handshake_body(payload, "WELCOME")
    codec = body.get("codec")
    if not isinstance(codec, str) or not codec:
        raise ProtocolError("WELCOME payload names no codec")
    return int(body.get("v", 0)), codec, str(body.get("host", ""))


def encode_error(code: int, message: str) -> bytes:
    """An ERROR frame payload."""
    return json.dumps(
        {"code": int(code), "error": str(message)}, separators=(",", ":")
    ).encode("utf-8")


def decode_error(payload: bytes) -> Tuple[int, str]:
    """Parse an ERROR payload into ``(code, message)`` (tolerant)."""
    try:
        body = json.loads(payload.decode("utf-8"))
        return int(body.get("code", 500)), str(body.get("error", ""))
    except Exception:
        return 500, payload.decode("utf-8", errors="replace")


def _handshake_body(payload: bytes, kind: str) -> Dict[str, Any]:
    try:
        body = json.loads(payload.decode("utf-8"))
    except Exception as exc:
        raise ProtocolError(f"malformed {kind} payload: {exc}") from exc
    if not isinstance(body, dict):
        raise ProtocolError(f"{kind} payload must be a JSON object")
    if body.get("v", 0) != PROTOCOL_VERSION:  # not int(): "v" is the peer's input
        raise ProtocolError(
            f"{kind} speaks protocol version {body.get('v')!r}; "
            f"this end requires {PROTOCOL_VERSION}"
        )
    return body


__all__ = [
    "CALL",
    "ERROR",
    "GOODBYE",
    "HEADER_BYTES",
    "HELLO",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "REPLY",
    "WELCOME",
    "decode_error",
    "decode_header",
    "decode_hello",
    "decode_welcome",
    "encode_error",
    "encode_frame",
    "encode_hello",
    "encode_welcome",
    "read_frame_from",
]
