"""Round-trip and schema-validation tests for the JSONL trace export."""

import json

import pytest

from repro.observability.export import (
    EXPORT_SCHEMA_VERSION,
    ExportValidationError,
    export_observability,
    load_export,
    validate_export_file,
)
from repro.events.journal import (
    JOURNAL_SCHEMA_VERSION,
    EventJournal,
    EventType,
)
from repro.observability.tracing import Tracer

SCHEMA = "docs/schemas/trace_export.schema.json"


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def stores():
    clock = FakeClock()
    tracer = Tracer(clock)
    journal = EventJournal(clock)
    root = tracer.start_span("task:t1", trace_id="tr-1", activate=False)
    journal.record(EventType.SUBMITTED, "t1", trace_id="tr-1", span_id=root.span_id)
    clock.now = 10.0
    tracer.end_span(root)
    journal.record(EventType.COMPLETED, "t1", site="siteA", trace_id="tr-1")
    tracer.instant("other", trace_id="tr-2")
    journal.record(EventType.SUBMITTED, "t2", trace_id="tr-2")
    return tracer, journal


class TestExportRoundTrip:
    def test_meta_then_rows(self, tmp_path, stores):
        tracer, journal = stores
        path = tmp_path / "out.jsonl"
        count = export_observability(path, tracer, journal, sim_now=10.0)
        assert count == 1 + 2 + 3  # meta + spans + events
        first = json.loads(path.read_text().splitlines()[0])
        assert first == {
            "kind": "meta", "schema": EXPORT_SCHEMA_VERSION,
            "journal_schema": JOURNAL_SCHEMA_VERSION,
            "sim_now": 10.0, "span_count": 2, "event_count": 3,
        }
        data = load_export(path)
        assert len(data["span"]) == 2
        assert len(data["event"]) == 3

    def test_trace_filter(self, tmp_path, stores):
        tracer, journal = stores
        path = tmp_path / "one.jsonl"
        export_observability(path, tracer, journal, trace_id="tr-1")
        data = load_export(path)
        assert {s["trace_id"] for s in data["span"]} == {"tr-1"}
        assert {e["trace_id"] for e in data["event"]} == {"tr-1"}

    def test_export_validates_against_checked_in_schema(self, tmp_path, stores):
        tracer, journal = stores
        path = tmp_path / "out.jsonl"
        export_observability(path, tracer, journal, sim_now=10.0)
        assert validate_export_file(path, SCHEMA) == 6


class TestValidator:
    def write(self, tmp_path, rows):
        path = tmp_path / "x.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return path

    def meta(self, **over):
        row = {"kind": "meta", "schema": EXPORT_SCHEMA_VERSION,
               "journal_schema": JOURNAL_SCHEMA_VERSION,
               "sim_now": 0.0, "span_count": 0, "event_count": 0}
        row.update(over)
        return row

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text("")
        with pytest.raises(ExportValidationError, match="empty"):
            validate_export_file(path, SCHEMA)

    def test_missing_meta_rejected(self, tmp_path):
        span = {"kind": "span", "name": "a", "trace_id": "t", "span_id": "s",
                "parent_id": None, "start": 0.0, "end": 1.0,
                "status": "ok", "attributes": {}}
        with pytest.raises(ExportValidationError, match="meta"):
            validate_export_file(self.write(tmp_path, [span]), SCHEMA)

    def test_meta_not_first_rejected(self, tmp_path):
        span = {"kind": "span", "name": "a", "trace_id": "t", "span_id": "s",
                "parent_id": None, "start": 0.0, "end": 1.0,
                "status": "ok", "attributes": {}}
        with pytest.raises(ExportValidationError, match="first"):
            validate_export_file(self.write(tmp_path, [span, self.meta()]), SCHEMA)

    def test_bad_span_status_rejected(self, tmp_path):
        span = {"kind": "span", "name": "a", "trace_id": "t", "span_id": "s",
                "parent_id": None, "start": 0.0, "end": 1.0,
                "status": "exploded", "attributes": {}}
        with pytest.raises(ExportValidationError, match="no oneOf branch"):
            validate_export_file(self.write(tmp_path, [self.meta(), span]), SCHEMA)

    def test_unknown_event_type_rejected(self, tmp_path):
        event = {"kind": "event", "seq": 0, "time": 0.0, "type": "teleported",
                 "task_id": "t", "job_id": None, "site": None,
                 "trace_id": None, "span_id": None, "attributes": {}}
        with pytest.raises(ExportValidationError):
            validate_export_file(self.write(tmp_path, [self.meta(), event]), SCHEMA)

    def test_missing_required_key_rejected(self, tmp_path):
        event = {"kind": "event", "seq": 0, "time": 0.0, "type": "started"}
        with pytest.raises(ExportValidationError):
            validate_export_file(self.write(tmp_path, [self.meta(), event]), SCHEMA)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ExportValidationError, match="invalid JSON"):
            validate_export_file(path, SCHEMA)

    def test_unknown_kind_rejected_on_load(self, tmp_path):
        path = self.write(tmp_path, [self.meta(), {"kind": "mystery"}])
        with pytest.raises(ExportValidationError, match="unknown row kind"):
            load_export(path)

    def test_schema_lists_every_event_type(self, tmp_path):
        schema = json.loads(open(SCHEMA, encoding="utf-8").read())
        event_branch = next(
            b for b in schema["oneOf"]
            if b["properties"]["kind"].get("const") == "event"
        )
        assert set(event_branch["properties"]["type"]["enum"]) == {
            e.value for e in EventType
        }
