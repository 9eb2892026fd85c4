"""Property-based tests: no byte sequence wedges the framed server.

One thread serves every framed connection, so a connection that wedges it
stops all of them.  Hypothesis drives a live
:class:`~repro.clarens.aio.AsyncSocketServerHandle` with sequences of
garbage bytes, truncated headers, length prefixes out of range, calls
before the handshake, malformed HELLO payloads, unknown frame types, duplicate request ids,
undecodable payloads and disconnects in the middle of a frame.  After
each sequence a second, well-behaved connection must get its
``system.ping`` answered within a second, the serving thread must be
alive, and every call the server admitted must have been answered.
"""

import json
import socket
import struct
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clarens.aio import AsyncSocketServerHandle
from repro.clarens.codecs import get_codec
from repro.clarens.framing import (
    CALL,
    ERROR,
    GOODBYE,
    HELLO,
    MAX_FRAME_BYTES,
    REPLY,
    WELCOME,
    encode_frame,
    encode_hello,
)
from repro.clarens.server import ClarensHost
from repro.clarens.transport import AsyncSocketTransport

JSON = get_codec("json")
PING = JSON.encode_request("system.ping", "", [])
KNOWN_TYPES = (HELLO, WELCOME, CALL, REPLY, ERROR, GOODBYE)
_request_ids = st.integers(0, 3)  # a small range, so ids repeat

hello = st.sampled_from(["json", "xmlrpc", "msgpack"]).map(
    lambda codec: encode_frame(HELLO, 0, encode_hello((codec,)))
)
_json_scalar = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.text(max_size=4))
malformed_hello = st.fixed_dictionaries(
    {},
    optional={
        "v": st.one_of(_json_scalar, st.lists(_json_scalar, max_size=2)),
        "codecs": st.one_of(_json_scalar, st.lists(st.one_of(st.just("json"), _json_scalar),
                                                   max_size=2)),
    },
).map(lambda body: encode_frame(HELLO, 0, json.dumps(body).encode()))
ping = _request_ids.map(lambda rid: encode_frame(CALL, rid, PING))
undecodable = st.tuples(_request_ids, st.binary(max_size=32)).map(
    lambda a: encode_frame(CALL, a[0], a[1])
)
garbage = st.binary(min_size=1, max_size=48)
truncated_header = st.tuples(ping, st.integers(1, 12)).map(lambda a: a[0][: a[1]])
bad_length = st.tuples(
    st.one_of(st.integers(0, 8), st.integers(MAX_FRAME_BYTES + 10, 2**32 - 1)),
    st.sampled_from(KNOWN_TYPES),
).map(lambda a: struct.pack(">IBQ", a[0], a[1], 1))
unknown_type = st.tuples(
    st.integers(0, 255).filter(lambda t: t not in KNOWN_TYPES), _request_ids
).map(lambda a: encode_frame(a[0], a[1], b"?"))
stray = st.sampled_from([WELCOME, REPLY, ERROR, GOODBYE]).map(
    lambda t: encode_frame(t, 1, b"")
)

actions = st.lists(
    st.one_of(
        ping, ping, undecodable, garbage, truncated_header, bad_length,
        unknown_type, stray, hello, malformed_hello,
    ),
    max_size=12,
)


@pytest.fixture(scope="module")
def server():
    with AsyncSocketServerHandle(ClarensHost("fuzz")) as handle:
        yield handle


def _wait_until_idle(handle, within_s):
    deadline = time.monotonic() + within_s
    while handle._conns and time.monotonic() < deadline:
        time.sleep(0.002)
    return not handle._conns


@settings(max_examples=100, deadline=None)
@given(
    greet=st.booleans(),
    sequence=actions,
    cut=st.one_of(st.none(), st.integers(1, len(PING) + 12)),
    read_replies=st.booleans(),
)
@example(greet=True, sequence=[encode_frame(CALL, 1, PING)] * 2, cut=5, read_replies=False)
@example(greet=True, sequence=[struct.pack(">IBQ", MAX_FRAME_BYTES, CALL, 1)], cut=None,
         read_replies=True)
@example(greet=False, sequence=[encode_frame(CALL, 1, PING)], cut=None, read_replies=True)
@example(greet=False, sequence=[encode_frame(HELLO, 0, b'{"v": "x", "codecs": ["json"]}')],
         cut=None, read_replies=True)
@example(greet=True, sequence=[encode_frame(CALL, 1, PING), encode_frame(GOODBYE, 0, b"")],
         cut=None, read_replies=False)
def test_no_sequence_wedges_the_server(server, greet, sequence, cut, read_replies):
    """``cut`` ends the sequence with the first ``cut`` bytes of one more
    call and a disconnect; ``read_replies`` drains whatever the server
    answered before hanging up (a reader that never reads otherwise)."""
    data = (encode_frame(HELLO, 0, encode_hello(("json",))) if greet else b"")
    data += b"".join(sequence)
    if cut is not None:
        data += encode_frame(CALL, 9, PING)[:cut]
    with socket.create_connection(server.address, timeout=5.0) as fuzz:
        try:
            fuzz.sendall(data)
        except OSError:
            pass  # the server may hang up on a bad frame before it has read all
        if read_replies:
            fuzz.settimeout(0.05)
            try:
                while fuzz.recv(65536):
                    pass
            except OSError:
                pass

    started = time.monotonic()
    with AsyncSocketTransport(server.address, codec="json", timeout_s=1.0) as good:
        assert good.call("system.ping", []) == "pong"
    assert time.monotonic() - started < 1.0
    assert server._thread.is_alive()
    assert _wait_until_idle(server, within_s=1.0)
    pool = server.pool_stats.snapshot()
    assert pool["submitted"] == pool["completed"]
