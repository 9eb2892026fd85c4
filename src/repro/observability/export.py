"""JSONL export of spans and journal events, plus schema validation.

The export format is line-delimited JSON: a ``meta`` header row, then
one row per span and one per journal event, each tagged with ``kind``.
The shape is pinned by ``docs/schemas/trace_export.schema.json``; CI
runs the tiny demo, exports, and validates every row against that
schema so the wire format cannot drift silently.

The validator implements the small JSON-Schema subset the checked-in
schema uses (``type``, ``properties``, ``required``, ``enum``,
``items``, ``oneOf``, ``const``) — no third-party dependency.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.events.journal import (
    JOURNAL_SCHEMA_VERSION,
    EventJournal,
    OutOfOrderError,
)
from repro.observability.tracing import Tracer

__all__ = [
    "EXPORT_SCHEMA_VERSION",
    "ExportValidationError",
    "export_observability",
    "load_export",
    "validate_export_file",
]

#: /2 adds the journal row-schema version to the meta header and the
#: strict monotonic-``seq`` ordering guarantee for event rows (imports
#: reject violations — see :func:`load_export`).
EXPORT_SCHEMA_VERSION = "gae-trace-export/2"


class ExportValidationError(ValueError):
    """An export row does not match the trace-export schema."""


def export_observability(
    path: Union[str, Path],
    tracer: Tracer,
    journal: EventJournal,
    *,
    trace_id: Optional[str] = None,
    sim_now: Optional[float] = None,
) -> int:
    """Write spans + events to *path* as JSONL; returns the row count.

    With ``trace_id`` only that trace's spans (and the events stamped
    with it) are exported; by default everything in the bounded stores
    goes out.
    """
    spans = tracer.spans(trace_id)
    events = journal.events()
    if trace_id is not None:
        events = [e for e in events if e.trace_id == trace_id]
    rows: List[Dict[str, Any]] = [
        {
            "kind": "meta",
            "schema": EXPORT_SCHEMA_VERSION,
            "journal_schema": JOURNAL_SCHEMA_VERSION,
            "sim_now": sim_now,
            "span_count": len(spans),
            "event_count": len(events),
        }
    ]
    rows.extend({"kind": "span", **span.to_wire()} for span in spans)
    rows.extend({"kind": "event", **event.to_wire()} for event in events)
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
    return len(rows)


def load_export(path: Union[str, Path]) -> Dict[str, List[Dict[str, Any]]]:
    """Read a JSONL export back into ``{"meta": [...], "span": [...], "event": [...]}``.

    Event rows must arrive in strictly increasing ``seq`` order — the
    journal is a monotonically sequenced log, and an out-of-order stream
    (a corrupt or hand-spliced export) is rejected with
    :class:`~repro.events.journal.OutOfOrderError` rather than
    silently producing a log consumers cannot fold.
    """
    out: Dict[str, List[Dict[str, Any]]] = {"meta": [], "span": [], "event": []}
    last_seq: Optional[int] = None
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ExportValidationError(f"line {line_no}: invalid JSON: {exc}") from exc
            kind = row.get("kind")
            if kind not in out:
                raise ExportValidationError(f"line {line_no}: unknown row kind {kind!r}")
            if kind == "event":
                seq = row.get("seq")
                if last_seq is not None and isinstance(seq, int) and seq <= last_seq:
                    raise OutOfOrderError(
                        f"line {line_no}: event seq {seq} after {last_seq} "
                        "violates monotonic order"
                    )
                if isinstance(seq, int):
                    last_seq = seq
            out[kind].append(row)
    return out


# ----------------------------------------------------------------------
# minimal JSON-Schema checker
# ----------------------------------------------------------------------

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _check(value: Any, schema: Dict[str, Any], path: str) -> List[str]:
    errors: List[str] = []
    if "oneOf" in schema:
        branches = schema["oneOf"]
        branch_errors = []
        for branch in branches:
            errs = _check(value, branch, path)
            if not errs:
                return []
            branch_errors.append(errs)
        flat = "; ".join(e for errs in branch_errors for e in errs[:1])
        return [f"{path}: no oneOf branch matched ({flat})"]
    if "const" in schema and value != schema["const"]:
        return [f"{path}: expected {schema['const']!r}, got {value!r}"]
    if "enum" in schema and value not in schema["enum"]:
        return [f"{path}: {value!r} not in enum {schema['enum']!r}"]
    type_spec = schema.get("type")
    if type_spec is not None:
        types = type_spec if isinstance(type_spec, list) else [type_spec]
        if not any(_TYPE_CHECKS[t](value) for t in types):
            return [f"{path}: expected type {type_spec}, got {type(value).__name__}"]
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        for key, subschema in schema.get("properties", {}).items():
            if key in value:
                errors.extend(_check(value[key], subschema, f"{path}.{key}"))
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            errors.extend(_check(item, schema["items"], f"{path}[{i}]"))
    return errors


def validate_export_file(path: Union[str, Path], schema_path: Union[str, Path]) -> int:
    """Validate every JSONL row in *path* against the row schema.

    Returns the number of validated rows; raises
    :class:`ExportValidationError` on the first bad row, on a missing
    meta header, or on an empty file.
    """
    schema = json.loads(Path(schema_path).read_text(encoding="utf-8"))
    count = 0
    saw_meta = False
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ExportValidationError(f"line {line_no}: invalid JSON: {exc}") from exc
            errors = _check(row, schema, f"line {line_no}")
            if errors:
                raise ExportValidationError("; ".join(errors))
            if isinstance(row, dict) and row.get("kind") == "meta":
                if line_no != 1:
                    raise ExportValidationError(f"line {line_no}: meta row must come first")
                saw_meta = True
            count += 1
    if count == 0:
        raise ExportValidationError(f"{path}: empty export")
    if not saw_meta:
        raise ExportValidationError(f"{path}: missing meta header row")
    return count
