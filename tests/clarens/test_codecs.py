"""Unit tests for the negotiable wire codecs (repro.clarens.codecs)."""

import pytest

from repro.clarens.codecs import Codec, codec_names, get_codec, negotiate
from repro.clarens.errors import (
    AuthenticationError,
    ProtocolError,
    RemoteFault,
    SerializationError,
)
from repro.clarens.framing import (
    CALL,
    HELLO,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_error,
    decode_header,
    decode_hello,
    decode_welcome,
    encode_error,
    encode_frame,
    encode_hello,
    encode_welcome,
)


class TestRegistry:
    def test_codec_names_json_first(self):
        assert codec_names() == ["json", "xmlrpc"]

    def test_get_codec_returns_codec_instances(self):
        for name in codec_names():
            codec = get_codec(name)
            assert isinstance(codec, Codec)
            assert codec.name == name

    def test_get_codec_unknown_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="unknown codec"):
            get_codec("msgpack")


class TestNegotiate:
    def test_client_preference_order_wins(self):
        assert negotiate(["xmlrpc", "json"], ["json", "xmlrpc"]) == "xmlrpc"
        assert negotiate(["json", "xmlrpc"], ["xmlrpc", "json"]) == "json"

    def test_single_common_codec(self):
        assert negotiate(["msgpack", "xmlrpc"], ["json", "xmlrpc"]) == "xmlrpc"

    def test_disjoint_sets_raise(self):
        with pytest.raises(ProtocolError, match="no common codec"):
            negotiate(["msgpack"], ["json", "xmlrpc"])


@pytest.mark.parametrize("name", ["json", "xmlrpc"])
class TestCodecRoundTrip:
    def test_request(self, name):
        codec = get_codec(name)
        payload = codec.encode_request("echo.echo", "tok", [1, "x", None])
        assert codec.decode_request(payload) == ("echo.echo", "tok", [1, "x", None])

    def test_response(self, name):
        codec = get_codec(name)
        value = {"jobs": [1, 2], "blob": b"\x00\xff", "f": 1.5}
        assert codec.decode_response(codec.encode_response(value)) == value

    def test_fault_rehydrates_typed(self, name):
        codec = get_codec(name)
        with pytest.raises(AuthenticationError, match="expired"):
            codec.decode_response(codec.encode_fault(401, "expired"))
        with pytest.raises(RemoteFault):
            codec.decode_response(codec.encode_fault(520, "kaput"))

    def test_encoded_payload_is_bytes(self, name):
        codec = get_codec(name)
        assert isinstance(codec.encode_response([1]), bytes)
        assert isinstance(codec.encode_request("a.b", "", []), bytes)
        assert isinstance(codec.encode_fault(500, "x"), bytes)


@pytest.mark.parametrize("char, name", [("\ufffe", "U+FFFE"), ("\uffff", "U+FFFF"),
                                        ("\x01", "U+0001")])
class TestXmlForbiddenCharacters:
    """XML 1.0 cannot carry these: the XML-RPC codec refuses to write them
    into a body its own decoder would refuse, and names them in a fault."""

    def test_a_request_holding_one_is_refused(self, char, name):
        with pytest.raises(SerializationError) as refused:
            get_codec("xmlrpc").encode_request("echo.echo", "tok", [["x", char]])
        assert refused.value.code == 406
        assert name in refused.value.message and char not in refused.value.message

    def test_a_response_holding_one_is_refused(self, char, name):
        with pytest.raises(SerializationError) as refused:
            get_codec("xmlrpc").encode_response({"k": f"a{char}b"})
        assert name in refused.value.message and char not in refused.value.message

    def test_a_fault_names_it_and_decodes(self, char, name):
        codec = get_codec("xmlrpc")
        with pytest.raises(RemoteFault) as fault:
            codec.decode_response(codec.encode_fault(520, f"bad {char}"))
        assert fault.value.message == f"bad {name}"


@pytest.mark.parametrize("name", ["json", "xmlrpc"])
def test_a_carriage_return_survives(name):
    """XML parsers turn a raw CR into LF; the codec writes it as ``&#13;``."""
    codec = get_codec(name)
    assert codec.decode_response(codec.encode_response("a\rb")) == "a\rb"
    assert codec.decode_response(codec.encode_response({"k\r": "\r\n"})) == {"k\r": "\r\n"}
    assert codec.decode_request(codec.encode_request("a.b", "t", ["x\ry"]))[2] == ["x\ry"]
    with pytest.raises(RemoteFault) as fault:
        codec.decode_response(codec.encode_fault(520, "bad\rline"))
    assert fault.value.message == "bad\rline"


class TestJsonCompactness:
    def test_json_much_smaller_than_xmlrpc(self):
        value = [{"job_id": i, "state": "running"} for i in range(50)]
        json_size = len(get_codec("json").encode_response(value))
        xml_size = len(get_codec("xmlrpc").encode_response(value))
        assert json_size < xml_size / 3

    def test_nul_bytes_survive(self):
        codec = get_codec("json")
        value = {"raw": b"\x00\x01", "s": "nul\x00here"}
        assert codec.decode_response(codec.encode_response(value)) == value


class TestFraming:
    def test_frame_round_trip(self):
        frame = encode_frame(CALL, 42, b"payload")
        payload_len, frame_type, request_id = decode_header(frame[:13])
        assert frame_type == CALL
        assert request_id == 42
        assert frame[13:13 + payload_len] == b"payload"

    def test_oversized_frame_rejected(self):
        huge = MAX_FRAME_BYTES + 1
        with pytest.raises(ProtocolError, match="frame"):
            decode_header(
                (huge + 9).to_bytes(4, "big") + bytes([CALL]) + (0).to_bytes(8, "big")
            )

    def test_hello_welcome_round_trip(self):
        version, codecs = decode_hello(encode_hello(("json", "xmlrpc")))
        assert version == PROTOCOL_VERSION
        assert tuple(codecs) == ("json", "xmlrpc")
        version, codec, host = decode_welcome(encode_welcome("json", "gae"))
        assert (version, codec, host) == (PROTOCOL_VERSION, "json", "gae")

    def test_error_frame_round_trip(self):
        assert decode_error(encode_error(400, "bad hello")) == (400, "bad hello")

    def test_hello_frame_type_distinct(self):
        assert HELLO != CALL
