"""Unit tests for the fault hierarchy and wire rehydration."""

from repro.clarens.errors import (
    AuthenticationError,
    AuthorizationError,
    ClarensFault,
    MethodNotFound,
    RemoteFault,
    SerializationError,
    ServiceNotFound,
    TransportError,
    fault_from_code,
)

ALL_FAULTS = [
    AuthenticationError, AuthorizationError, ServiceNotFound, MethodNotFound,
    SerializationError, TransportError, RemoteFault,
]


class TestFaultHierarchy:
    def test_all_are_clarens_faults(self):
        for cls in ALL_FAULTS:
            assert issubclass(cls, ClarensFault)
            assert issubclass(cls, RuntimeError)

    def test_codes_are_unique(self):
        codes = [cls.code for cls in ALL_FAULTS]
        assert len(set(codes)) == len(codes)

    def test_message_attribute(self):
        fault = AuthenticationError("bad token")
        assert fault.message == "bad token"
        assert str(fault) == "bad token"


class TestFaultFromCode:
    def test_round_trip_every_class(self):
        for cls in ALL_FAULTS:
            rebuilt = fault_from_code(cls.code, "msg")
            assert type(rebuilt) is cls
            assert rebuilt.message == "msg"

    def test_unknown_code_degrades_to_base(self):
        fault = fault_from_code(999, "strange")
        assert type(fault) is ClarensFault
        assert fault.message == "strange"

    def test_unknown_code_is_preserved_on_the_instance(self):
        # A custom middleware fault (e.g. code=451) must not be masked by
        # the base class's code=500 when rehydrated client-side.
        fault = fault_from_code(451, "blocked by policy")
        assert fault.code == 451
        assert ClarensFault.code == 500  # the class attribute is untouched
