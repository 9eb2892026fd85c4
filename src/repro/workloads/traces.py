"""CSV persistence for accounting traces.

The synthetic Paragon trace round-trips through the same flat CSV shape the
original accounting data had, so experiments can be frozen to disk and
replayed.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import List, Union

from repro.declare import field_names
from repro.workloads.downey import ParagonAccountingRecord

_FIELDS = list(field_names(ParagonAccountingRecord))
_FLOATS = {
    "requested_cpu_hours",
    "cpu_charge_rate",
    "idle_charge_rate",
    "submit_time",
    "start_time",
    "end_time",
}
_INTS = {"nodes"}


def write_trace_csv(
    records: List[ParagonAccountingRecord], path: Union[str, Path, None] = None
) -> str:
    """Serialise records to CSV; writes to *path* when given.

    Returns the CSV text either way.
    """
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_FIELDS)
    writer.writeheader()
    for r in records:
        writer.writerow({name: getattr(r, name) for name in _FIELDS})
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


def read_trace_csv(source: Union[str, Path]) -> List[ParagonAccountingRecord]:
    """Parse a trace CSV.

    *source* is a filesystem path when such a file exists, otherwise it is
    treated as CSV text itself.
    """
    raw = str(source)
    try:
        is_file = "\n" not in raw and len(raw) < 1024 and Path(raw).exists()
    except OSError:
        is_file = False
    text = Path(raw).read_text() if is_file else raw
    reader = csv.DictReader(io.StringIO(text))
    out: List[ParagonAccountingRecord] = []
    for row in reader:
        kwargs = {}
        for name in _FIELDS:
            raw = row[name]
            if name in _FLOATS:
                kwargs[name] = float(raw)
            elif name in _INTS:
                kwargs[name] = int(float(raw))
            else:
                kwargs[name] = raw
        out.append(ParagonAccountingRecord(**kwargs))  # type: ignore[arg-type]
    return out
