"""The XML-RPC body codec for the framed transport.

Reuses the stdlib ``xmlrpc.client`` marshaller, so a frame's payload is
byte-for-byte what the threaded HTTP transport puts inside a POST body.
This is the compatibility codec: it proves the framed async transport is
a pure transport change — same bodies, different plumbing — and gives
legacy XML-RPC tooling a migration path onto persistent framed
connections without a re-encode.

XML 1.0 has no spelling for the C0 controls other than tab, LF and CR, nor
for U+FFFE and U+FFFF.  ``dumps`` writes them all the same, into a body
every XML parser refuses, so a call or result holding one is refused with
:class:`~repro.clarens.errors.SerializationError` before it is sent, and a
fault's message writes one as its ``U+XXXX`` name.
"""

from __future__ import annotations

import re
import xmlrpc.client
from typing import Any, List, Sequence, Tuple

from repro.clarens.codecs import Codec
from repro.clarens.errors import ProtocolError, SerializationError, fault_from_code

_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


def _named(match: re.Match) -> str:
    return f"U+{ord(match.group()):04X}"


def _xml(body: str) -> bytes:
    """*body* as UTF-8, refused if it holds a character XML cannot carry."""
    bad = _NOT_XML.search(body)
    if bad is not None:
        raise SerializationError(f"XML-RPC cannot carry the character {_named(bad)}")
    return body.encode("utf-8")


class XmlRpcCodec(Codec):
    """Calls and responses as standard XML-RPC ``methodCall`` bodies."""

    name = "xmlrpc"
    content_type = "text/xml"

    def encode_request(
        self, method: str, wire_token: str, params: Sequence[Any]
    ) -> bytes:
        return _xml(xmlrpc.client.dumps(
            tuple([wire_token, *params]), methodname=method, allow_none=True
        ))

    def decode_request(self, data: bytes) -> Tuple[str, str, List[Any]]:
        try:
            params, method = xmlrpc.client.loads(
                data.decode("utf-8"), use_builtin_types=True
            )
        except Exception as exc:
            raise ProtocolError(f"malformed XML-RPC request: {exc}") from exc
        if method is None or not params or not isinstance(params[0], str):
            raise ProtocolError(
                "XML-RPC request lacks a method name or leading token param"
            )
        return method, params[0], list(params[1:])

    def encode_response(self, result: Any) -> bytes:
        return _xml(xmlrpc.client.dumps((result,), methodresponse=True, allow_none=True))

    def encode_fault(self, code: int, message: str) -> bytes:
        """Never refuses: a character XML cannot carry is written by name."""
        body = xmlrpc.client.dumps(
            xmlrpc.client.Fault(code, _NOT_XML.sub(_named, message)),
            methodresponse=True, allow_none=True,
        )
        return body.encode("utf-8")

    def decode_response(self, data: bytes) -> Any:
        try:
            (result,), _ = xmlrpc.client.loads(
                data.decode("utf-8"), use_builtin_types=True
            )
        except xmlrpc.client.Fault as fault:
            raise fault_from_code(fault.faultCode, fault.faultString) from None
        except Exception as exc:
            raise ProtocolError(f"malformed XML-RPC response: {exc}") from exc
        return result


__all__ = ["XmlRpcCodec"]
