"""Unit tests for wire marshalling."""

import enum
from dataclasses import dataclass

import numpy as np
import pytest

from repro.clarens.errors import SerializationError
from repro.clarens.serialization import check_wire_safe, from_wire, to_wire
from repro.declare import encode


class Color(enum.Enum):
    RED = "red"
    BLUE = "blue"


class Level(str, enum.Enum):
    HIGH = "high"


@dataclass
class Point:
    x: float
    y: float
    _secret: str = "hidden"


@dataclass
class Hinted:
    """Annotated with a name only a ``TYPE_CHECKING`` block would import."""

    ref: "NotImportedHere" = None  # noqa: F821
    count: int = 2**40


class TestToWire:
    def test_scalars_pass_through(self):
        for v in (None, True, 3, 2.5, "s", b"bytes"):
            assert to_wire(v) == v

    def test_enum_lowered_to_value(self):
        assert to_wire(Color.RED) == "red"

    def test_numpy_scalars_lowered(self):
        assert to_wire(np.int64(5)) == 5
        assert isinstance(to_wire(np.int64(5)), int)
        assert to_wire(np.float64(2.5)) == 2.5

    def test_numpy_booleans_lowered(self):
        for value in (np.bool_(True), np.bool_(False)):
            assert to_wire(value) is bool(value)
        assert to_wire({"ok": np.bool_(True), "n": [np.uint8(7)]}) == {"ok": True, "n": [7]}

    def test_numpy_array_lowered_to_lists(self):
        assert to_wire(np.array([[1, 2], [3, 4]])) == [[1, 2], [3, 4]]

    def test_wide_int_becomes_float(self):
        assert to_wire(2**40) == float(2**40)
        assert to_wire(-(2**40)) == float(-(2**40))

    def test_32bit_boundaries_stay_int(self):
        assert to_wire(2**31 - 1) == 2**31 - 1
        assert to_wire(-(2**31)) == -(2**31)

    def test_dataclass_becomes_tagged_struct(self):
        wire = to_wire(Point(1.0, 2.0))
        assert wire == {"_type": "Point", "x": 1.0, "y": 2.0}

    def test_private_fields_dropped(self):
        assert "_secret" not in to_wire(Point(0.0, 0.0))

    def test_tuple_becomes_list(self):
        assert to_wire((1, 2)) == [1, 2]

    def test_set_becomes_sorted_list(self):
        assert to_wire({3, 1, 2}) == [1, 2, 3]

    def test_dict_keys_coerced_to_str(self):
        assert to_wire({1: "a"}) == {"1": "a"}

    def test_nested_structures(self):
        value = {"points": [Point(0.0, 1.0)], "tag": Color.BLUE}
        wire = to_wire(value)
        assert wire["points"][0]["x"] == 0.0
        assert wire["tag"] == "blue"

    def test_a_walk_lowers_each_item_as_the_top_level_does(self):
        items = [None, True, 3, 2**40, 2.5, np.float64(2.5), "s", Level.HIGH, Color.RED]
        for walked in (to_wire(items), list(to_wire(dict(enumerate(items))).values()),
                       to_wire(Hinted(ref=items))["ref"]):
            assert walked == [to_wire(item) for item in items]
            assert [type(v) for v in walked] == [type(to_wire(item)) for item in items]

    def test_a_record_annotated_with_an_unresolvable_name_lowers(self):
        assert to_wire(Hinted()) == {"_type": "Hinted", "ref": None, "count": float(2**40)}

    def test_encode_is_the_untagged_lowering_of_the_same_fields(self):
        assert encode(Hinted()) == {"ref": None, "count": 2**40}
        assert encode(Point(1.0, 2.0)) == {"x": 1.0, "y": 2.0, "_secret": "hidden"}

    def test_unmarshalable_raises(self):
        with pytest.raises(SerializationError):
            to_wire(lambda: None)
        with pytest.raises(SerializationError):
            to_wire(object())


class TestFromWire:
    def test_structural_identity(self):
        value = {"a": [1, 2, {"b": "c"}], "d": 2.5}
        assert from_wire(value) == value

    def test_round_trip_stability(self):
        value = to_wire({"p": Point(1.0, 2.0), "xs": (1, 2, 3)})
        assert from_wire(value) == value
        assert to_wire(from_wire(value)) == value


class TestCheckWireSafe:
    def test_accepts_wire_types(self):
        check_wire_safe({"a": [1, 2.5, "s", None, True]})

    def test_rejects_non_string_keys(self):
        with pytest.raises(SerializationError):
            check_wire_safe({1: "a"})

    def test_rejects_objects(self):
        with pytest.raises(SerializationError):
            check_wire_safe({"a": object()})

    def test_everything_to_wire_emits_is_wire_safe(self):
        value = to_wire(
            {"p": Point(1.0, 2.0), "e": Color.RED, "arr": np.arange(3), "n": 2**50}
        )
        check_wire_safe(value)


class TestMulticallResult:
    def test_wire_round_trip(self):
        from repro.clarens.serialization import MulticallResult

        ok = MulticallResult(ok=True, result=[1, 2], trace_id="t-1")
        wire = to_wire(ok)
        assert wire["_type"] == "MulticallResult"
        back = MulticallResult.from_wire(from_wire(wire))
        assert back == ok

    def test_from_wire_tolerates_legacy_shape(self):
        from repro.clarens.serialization import MulticallResult

        legacy = {"ok": False, "code": 404, "error": "gone"}
        r = MulticallResult.from_wire(legacy)
        assert (r.ok, r.code, r.error, r.trace_id) == (False, 404, "gone", "")

    def test_from_wire_rejects_garbage(self):
        from repro.clarens.serialization import MulticallResult

        with pytest.raises(SerializationError):
            MulticallResult.from_wire([1, 2, 3])


class TestTraceToken:
    def test_round_trip(self):
        from repro.clarens.serialization import decode_trace_token, encode_trace_token

        wire = encode_trace_token("tok|123|abc", "trace-9")
        token, trace = decode_trace_token(wire)
        assert (token, trace) == ("tok|123|abc", "trace-9")

    def test_empty_trace_is_identity(self):
        from repro.clarens.serialization import decode_trace_token, encode_trace_token

        assert encode_trace_token("tok", "") == "tok"
        assert decode_trace_token("tok") == ("tok", None)

    def test_trace_id_may_not_contain_bang(self):
        from repro.clarens.serialization import encode_trace_token

        with pytest.raises(SerializationError):
            encode_trace_token("tok", "bad!id")
