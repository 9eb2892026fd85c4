"""Fault hierarchy for the Clarens framework.

Every fault carries a numeric code so it can cross the XML-RPC wire as a
standard ``Fault`` and be rehydrated into the matching Python exception on
the client side (see :func:`fault_from_code`).
"""

from __future__ import annotations

from typing import Dict, Type


class ClarensFault(RuntimeError):
    """Base class for every framework-level error."""

    code: int = 500

    def __init__(self, message: str = "") -> None:
        super().__init__(message)
        self.message = message


class AuthenticationError(ClarensFault):
    """Missing, malformed, expired, or forged session token."""

    code = 401


class AuthorizationError(ClarensFault):
    """The authenticated principal may not call this method (ACL deny)."""

    code = 403


class ServiceNotFound(ClarensFault):
    """No service registered under the requested name."""

    code = 404


class MethodNotFound(ClarensFault):
    """The service exists but exposes no such method."""

    code = 405


class SerializationError(ClarensFault):
    """A value cannot be represented on the XML-RPC wire."""

    code = 406


class TransportError(ClarensFault):
    """The transport failed to reach the host (network-level error)."""

    code = 502


class TransportClosedError(TransportError):
    """The transport was closed while (or before) the call was in flight.

    Raised instead of hanging or surfacing a bare socket error when
    :meth:`~repro.clarens.transport.Transport.close` runs concurrently
    with pipelined calls — the structured "your connection is gone"
    signal pipelined clients retry or surface.
    """

    code = 503


class ProtocolError(ClarensFault):
    """The framed wire protocol was violated (bad frame, failed handshake)."""

    code = 400


class RemoteFault(ClarensFault):
    """An application exception raised inside a service method."""

    code = 520


_CODE_MAP: Dict[int, Type[ClarensFault]] = {
    cls.code: cls
    for cls in (
        AuthenticationError,
        AuthorizationError,
        ServiceNotFound,
        MethodNotFound,
        SerializationError,
        TransportError,
        TransportClosedError,
        ProtocolError,
        RemoteFault,
        ClarensFault,
    )
}


def fault_from_code(code: int, message: str) -> ClarensFault:
    """Rehydrate a wire fault into the matching exception class.

    Codes without a dedicated class (e.g. a service's own
    ``ClarensFault`` subclass with ``code = 451``) come back as a base
    :class:`ClarensFault` carrying the wire code.
    """
    cls = _CODE_MAP.get(code)
    if cls is not None:
        return cls(message)
    fault = ClarensFault(message)
    fault.code = code
    return fault
