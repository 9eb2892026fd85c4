"""Property-based tests: the two wire codecs decode identically.

The framed transport's contract is that codec choice is invisible: any
wire-representable payload (the :func:`~repro.clarens.serialization.to_wire`
value set), encoded as a request or response by either codec, decodes to
the same Python value — including fault structures and
``system.multicall`` batch shapes.  The compact-JSON codec additionally
must survive payloads XML cannot carry (control characters, strings that
collide with its own byte-tagging sentinels).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clarens.codecs import codec_names, get_codec
from repro.clarens.errors import (
    AuthenticationError,
    ClarensFault,
    RemoteFault,
)

JSON = get_codec("json")
XMLRPC = get_codec("xmlrpc")

# ----------------------------------------------------------------------
# payload domains
# ----------------------------------------------------------------------
# Strings both codecs can carry: XML 1.0 forbids most C0 control
# characters and the noncharacters U+FFFE / U+FFFF outright (the XML-RPC
# codec refuses them with a 406), and XML parsers normalize \r away, so
# the cross-codec domain excludes them (and lone surrogates, which
# neither UTF-8 wire format can encode).
_xml_safe_chars = st.characters(
    blacklist_categories=("Cs",),
    blacklist_characters="".join(
        chr(c) for c in range(0x20) if c not in (0x09, 0x0A)
    )
    + "\x0d\ufffe\uffff",
)
xml_safe_text = st.text(alphabet=_xml_safe_chars, max_size=30)

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    xml_safe_text,
    st.binary(max_size=30),
)

wire_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(xml_safe_text, children, max_size=5),
    ),
    max_leaves=25,
)

# JSON-only domain: full unicode text (minus surrogates), including the
# control characters and NUL-prefixed sentinel lookalikes XML refuses.
_json_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30
)
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    _json_text,
    st.binary(max_size=30),
    st.sampled_from(["\x00b64", "\x00esc", "\x00b64trailing", "\x00"]),
)
json_values = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(_json_text, children, max_size=5),
    ),
    max_leaves=25,
)

methods = st.sampled_from(
    ["jobmon.job_status", "system.multicall", "steering.set_priority", "a.b"]
)
tokens = st.sampled_from(["", "tok-123", "!t=abcd-1!signed.token"])


class TestCrossCodecIdentity:
    @given(methods, tokens, st.lists(wire_values, max_size=4))
    @settings(max_examples=150)
    def test_requests_decode_identically(self, method, token, params):
        for codec in (JSON, XMLRPC):
            got = codec.decode_request(
                codec.encode_request(method, token, params)
            )
            assert got == (method, token, params), codec.name

    @given(wire_values)
    @settings(max_examples=200)
    def test_responses_decode_identically(self, value):
        decoded = {
            codec.name: codec.decode_response(codec.encode_response(value))
            for codec in (JSON, XMLRPC)
        }
        assert decoded["json"] == decoded["xmlrpc"] == value

    @given(
        st.sampled_from([401, 403, 404, 405, 406, 400, 502, 503, 520, 500]),
        xml_safe_text,
    )
    @settings(max_examples=100)
    def test_faults_decode_identically(self, code, message):
        for codec in (JSON, XMLRPC):
            with pytest.raises(ClarensFault) as err:
                codec.decode_response(codec.encode_fault(code, message))
            assert err.value.code == code, codec.name
            assert err.value.message == message, codec.name

    @given(st.lists(wire_values, max_size=3))
    @settings(max_examples=50)
    def test_multicall_batches_decode_identically(self, results):
        """The multicall request/response shapes survive both codecs."""
        batch_request = [
            {"methodName": "jobmon.job_status", "params": [r]} for r in results
        ]
        batch_response = [
            {"ok": True, "result": r, "code": 0, "error": "", "trace_id": "t-1"}
            for r in results
        ] + [
            {"ok": False, "result": None, "code": 401, "error": "expired",
             "trace_id": "t-1"}
        ]
        for payload in (batch_request, batch_response):
            decoded = {
                codec.name: codec.decode_response(codec.encode_response(payload))
                for codec in (JSON, XMLRPC)
            }
            assert decoded["json"] == decoded["xmlrpc"] == payload

    def test_fault_types_rehydrate(self):
        for codec in (JSON, XMLRPC):
            with pytest.raises(AuthenticationError):
                codec.decode_response(codec.encode_fault(401, "expired"))
            with pytest.raises(RemoteFault):
                codec.decode_response(codec.encode_fault(520, "kaput"))


class TestJsonCodecAdversarial:
    """The compact codec alone must survive what XML cannot carry."""

    @given(json_values)
    @settings(max_examples=300)
    def test_response_round_trip(self, value):
        assert JSON.decode_response(JSON.encode_response(value)) == value

    @given(methods, st.lists(json_values, max_size=4))
    @settings(max_examples=150)
    def test_request_round_trip(self, method, params):
        got = JSON.decode_request(JSON.encode_request(method, "tok", params))
        assert got == (method, "tok", params)

    @given(st.binary(max_size=100))
    def test_bytes_round_trip(self, blob):
        assert JSON.decode_response(JSON.encode_response(blob)) == blob

    def test_sentinel_collisions(self):
        """User data shaped exactly like the codec's own tags survives."""
        tricky = [
            ["\x00b64", "bm90IGJ5dGVz"],          # fake bytes tag
            ["\x00esc", "payload"],                # fake escape tag
            {"k": ["\x00b64", b"\x00\xff", "x"]},  # tag + real bytes mixed
            "\x00b64",                             # bare sentinel string
            [["\x00esc", ["\x00b64", "y"]]],       # nested fakes
        ]
        for value in tricky:
            assert JSON.decode_response(JSON.encode_response(value)) == value

    def test_nan_free_floats_exact(self):
        for value in (0.1, -1e300, 5e-324, math.pi):
            assert JSON.decode_response(JSON.encode_response(value)) == value


def test_registry_names_stable():
    """The negotiation preference order is part of the wire contract."""
    assert codec_names() == ["json", "xmlrpc"]
