"""Wire-safe marshalling for the XML-RPC transport.

XML-RPC understands a small closed set of types: bool, int, float, str,
bytes, ISO dates, arrays and string-keyed structs (plus nil when
``allow_none`` is on).  Services, however, naturally return dataclasses,
enums, tuples and numpy scalars.  :func:`to_wire` lowers rich values into
the wire set recursively; :func:`from_wire` is the in-process transport's
copy on receipt.

The in-process transport runs values through the same functions so that the
two transports are observationally identical — a service that works in-sim
cannot break when moved onto real sockets.
"""

from __future__ import annotations

import dataclasses
import enum
import sys
from typing import Any, Dict, Optional, Tuple

from repro.clarens.errors import SerializationError
from repro.declare import field_names

# XML-RPC's int is 32-bit signed; wider ints must travel as doubles or strings.
_XMLRPC_INT_MIN = -(2**31)
_XMLRPC_INT_MAX = 2**31 - 1

#: Exact types a walk writes inline (an ``int`` too, when in range).
_PLAIN = frozenset({str, float, bool, type(None)})


def to_wire(value: Any) -> Any:
    """Lower *value* into XML-RPC-representable types.

    - dataclasses → structs (dicts) with a ``_type`` tag, ``_``-prefixed
      fields skipped,
    - enums → their ``value``,
    - tuples/sets → arrays,
    - numpy scalars → Python scalars, numpy arrays → nested lists,
    - dict keys are coerced to str (XML-RPC structs require string keys),
    - ints outside the 32-bit range → floats.

    The tagged walk of a record's one field plan, :func:`repro.declare.field_names`
    (:func:`repro.declare.encode` is the untagged one).  A walk writes an exact
    ``str``, ``float``, ``bool``, ``None`` or in-range ``int`` inline; a
    subclass (a str-valued enum, ``numpy.float64``) takes a call.

    Raises :class:`SerializationError` for values with no representation
    (e.g. functions, arbitrary objects).
    """
    if value is None or isinstance(value, (bool, str, bytes)):
        return value
    if isinstance(value, enum.Enum):
        return to_wire(value.value)
    # No numpy value can exist before numpy is loaded, so a host whose
    # services never compute with it never imports it for this check.
    numpy = sys.modules.get("numpy")
    if numpy is not None and isinstance(value, numpy.generic):
        value = value.item()  # bool_, integer, floating → bool, int, float
    if isinstance(value, int):
        if _XMLRPC_INT_MIN <= value <= _XMLRPC_INT_MAX:
            return value
        return float(value)
    if isinstance(value, float):
        return value
    if numpy is not None and isinstance(value, numpy.ndarray):
        return to_wire(value.tolist())
    names = field_names(type(value))
    if names is not None:
        out: Dict[str, Any] = {"_type": type(value).__name__}
        keys = [name for name in names if not name.startswith("_")]
        items = [getattr(value, name) for name in keys]
    elif isinstance(value, dict):
        out, keys, items = {}, list(map(str, value)), value.values()
    elif isinstance(value, (list, tuple)):
        keys, items = None, value
    elif isinstance(value, (set, frozenset)):
        keys, items = None, sorted(value, key=repr)
    else:
        raise SerializationError(
            f"cannot marshal {type(value).__name__} value {value!r} onto the wire"
        )
    lowered = [
        item if (kind := type(item)) in _PLAIN
        or (kind is int and _XMLRPC_INT_MIN <= item <= _XMLRPC_INT_MAX)
        else to_wire(item)
        for item in items
    ]
    if keys is None:
        return lowered
    out.update(zip(keys, lowered))
    return out


def from_wire(value: Any) -> Any:
    """A fresh copy of every container in a wire value.

    The in-process transport's receive step: a host's result may be a
    wire value the read cache shares between callers, which a caller
    must not be able to mutate.  A socket transport needs no copy — its
    codec decodes every reply into fresh containers.
    """
    if isinstance(value, dict):
        return {k: from_wire(v) for k, v in value.items()}
    if isinstance(value, list):
        return [from_wire(v) for v in value]
    return value


@dataclasses.dataclass
class MulticallResult:
    """One ``system.multicall`` sub-call outcome.

    Travels the wire as an ordinary dataclass struct (``_type`` tag plus
    fields, see :func:`to_wire`); :meth:`from_wire` rehydrates it on the
    client so callers deal with a typed value instead of an ad-hoc dict.
    ``trace_id`` is the batch's shared trace id, so every sub-call can be
    found in the host's ``system.recent_calls`` ring.
    """

    ok: bool
    result: Any = None
    code: int = 0
    error: str = ""
    trace_id: str = ""

    @classmethod
    def from_wire(cls, value: Any) -> "MulticallResult":
        """Rehydrate a wire struct (tolerates the legacy tag-less shape)."""
        if isinstance(value, MulticallResult):
            return value
        if not isinstance(value, dict) or "ok" not in value:
            raise SerializationError(
                f"not a multicall result struct: {value!r}"
            )
        return cls(
            ok=bool(value["ok"]),
            result=value.get("result"),
            code=int(value.get("code", 0)),
            error=str(value.get("error", "")),
            trace_id=str(value.get("trace_id", "")),
        )


# ----------------------------------------------------------------------
# trace-id propagation over the XML-RPC wire
# ----------------------------------------------------------------------
# The Clarens wire protocol puts the session token first in every call's
# parameter list.  Rather than change the method signatures (which would
# break 2005-era clients), a trace id piggybacks on that slot with a
# prefix no HMAC token can produce: ``!t=<trace-id>!<token>``.
_TRACE_TOKEN_PREFIX = "!t="


def encode_trace_token(token: str, trace_id: str) -> str:
    """Fold *trace_id* into the wire token field (identity when empty)."""
    if not trace_id:
        return token
    if "!" in trace_id:
        raise SerializationError(f"trace id {trace_id!r} may not contain '!'")
    return f"{_TRACE_TOKEN_PREFIX}{trace_id}!{token}"


def decode_trace_token(wire_token: str) -> Tuple[str, Optional[str]]:
    """Split a wire token field into ``(token, trace_id-or-None)``."""
    if not wire_token.startswith(_TRACE_TOKEN_PREFIX):
        return wire_token, None
    body = wire_token[len(_TRACE_TOKEN_PREFIX):]
    trace_id, sep, token = body.partition("!")
    if not sep:
        return wire_token, None
    return token, trace_id


# ----------------------------------------------------------------------
# JSON-representable view of wire values (the compact-JSON codec's half)
# ----------------------------------------------------------------------
# XML-RPC's wire set includes ``bytes``; JSON's does not.  Bytes travel as
# a two-element array tagged by a sentinel first element.  The sentinel
# starts with NUL, which no sane payload string uses — but payloads are
# adversarial (hypothesis says so), so any *list* whose first element is
# itself a sentinel string gets escape-tagged too.  Both sides can skip
# the recursive walk entirely when the JSON text contains no ``\u0000``
# escape, which is every real payload (see CompactJsonCodec).
_JSON_BYTES_TAG = "\x00b64"
_JSON_ESCAPE_TAG = "\x00esc"
_JSON_TAGS = (_JSON_BYTES_TAG, _JSON_ESCAPE_TAG)


def to_jsonable(value: Any) -> Any:
    """Lower a wire value (post-:func:`to_wire`) into JSON-only types."""
    if isinstance(value, bytes):
        import base64

        return [_JSON_BYTES_TAG, base64.b64encode(value).decode("ascii")]
    if isinstance(value, list):
        items = [to_jsonable(v) for v in value]
        if items and isinstance(items[0], str) and items[0] in _JSON_TAGS:
            return [_JSON_ESCAPE_TAG, *items]
        return items
    if isinstance(value, dict):
        return {k: to_jsonable(v) for k, v in value.items()}
    return value


def from_jsonable(value: Any) -> Any:
    """Invert :func:`to_jsonable` (bytes untagging, list unescaping)."""
    if isinstance(value, list):
        if value and value[0] == _JSON_BYTES_TAG:
            import base64

            return base64.b64decode(value[1])
        if value and value[0] == _JSON_ESCAPE_TAG:
            return [from_jsonable(v) for v in value[1:]]
        return [from_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: from_jsonable(v) for k, v in value.items()}
    return value


def check_wire_safe(value: Any) -> None:
    """Assert *value* is already wire-representable (post-``to_wire``)."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return
    if isinstance(value, list):
        for v in value:
            check_wire_safe(v)
        return
    if isinstance(value, dict):
        for k, v in value.items():
            if not isinstance(k, str):
                raise SerializationError(f"struct key {k!r} is not a string")
            check_wire_safe(v)
        return
    raise SerializationError(f"{type(value).__name__} is not wire-safe")
