"""The threaded XML-RPC/HTTP front end of a :class:`ClarensHost`.

:class:`XmlRpcServerHandle` mounts a host on a real threaded HTTP XML-RPC
server (stdlib ``xmlrpc.server``), the stand-in for the Windows-XP JClarens
server of §7's performance study and the transport the Figure 6 latency
benchmark measures.  The wire protocol puts the session token first in
every parameter list: ``service.method(token, *args)``; a client trace id
piggybacks on the token field (see
:func:`~repro.clarens.serialization.encode_trace_token`).

It lives apart from the host so that a process serving only the framed
socket (:mod:`repro.clarens.aio`) never loads the HTTP/XML-RPC stack.
"""

from __future__ import annotations

import threading
from socketserver import ThreadingMixIn
from typing import Any, Optional, Tuple
from xmlrpc.server import SimpleXMLRPCRequestHandler, SimpleXMLRPCServer

from repro.clarens.codecs.xmlrpc import XmlRpcCodec
from repro.clarens.errors import ClarensFault
from repro.clarens.serialization import decode_trace_token
from repro.clarens.server import ClarensHost

__all__ = ["XmlRpcServerHandle"]

_CODEC = XmlRpcCodec()


class _Handler(SimpleXMLRPCRequestHandler):
    rpc_paths = ("/RPC2",)
    # Keep-alive: each client reuses one TCP connection across calls, as a
    # real 2005 Clarens deployment would; without it, 100 clients reconnect
    # per request and overflow the listen backlog.
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # keep benchmark output clean


class _ThreadedXmlRpcServer(ThreadingMixIn, SimpleXMLRPCServer):
    daemon_threads = True
    allow_reuse_address = True
    # Sized for the Figure 6 experiment's 100 simultaneous clients.
    request_queue_size = 256

    def __init__(self, address: Tuple[str, int], host: ClarensHost) -> None:
        super().__init__(address, requestHandler=_Handler, logRequests=False)
        self.host = host

    def _marshaled_dispatch(
        self, data: bytes, dispatch_method: Any = None, path: Optional[str] = None
    ) -> bytes:
        """One POST body: decode, run, encode; a failure is a fault body.

        The framed server's codec (:mod:`repro.clarens.codecs.xmlrpc`)
        marshals both ways, so a value it refuses is a typed fault here too.
        """
        try:
            method, wire_token, params = _CODEC.decode_request(data)
            token, trace_id = decode_trace_token(wire_token)
            result = self.host.dispatch(
                method, params, token=token, trace_id=trace_id or "", transport="xmlrpc"
            )
            return _CODEC.encode_response(result)
        except ClarensFault as exc:
            return _CODEC.encode_fault(exc.code, exc.message)
        except Exception as exc:  # never drop a reply
            return _CODEC.encode_fault(500, f"{type(exc).__name__}: {exc}")


class XmlRpcServerHandle:
    """A running threaded XML-RPC server fronting a :class:`ClarensHost`.

    Use as a context manager::

        with XmlRpcServerHandle(host) as handle:
            transport = SocketTransport(handle.url)
            ...

    The port defaults to 0 (ephemeral); read :attr:`url` after start.
    """

    def __init__(self, host: ClarensHost, bind: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self._server = _ThreadedXmlRpcServer((bind, port), host)
        self._thread = threading.Thread(
            target=self._server.serve_forever, name=f"clarens-{host.name}", daemon=True
        )
        self._started = False

    def start(self) -> "XmlRpcServerHandle":
        """Begin serving in a background thread."""
        if not self._started:
            self._thread.start()
            self._started = True
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """(host, port) the server is bound to."""
        return self._server.server_address  # type: ignore[return-value]

    @property
    def url(self) -> str:
        """The server's XML-RPC endpoint URL."""
        bind, port = self.address
        return f"http://{bind}:{port}/RPC2"

    def shutdown(self) -> None:
        """Stop serving and release the socket."""
        if self._started:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._started = False
        self._server.server_close()

    def __enter__(self) -> "XmlRpcServerHandle":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
