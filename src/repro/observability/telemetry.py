"""Streaming telemetry: windowed aggregation over metrics and the journal.

The registry and journal built in PR 3 are point-in-time: a counter
holds its current value and the journal holds raw events, so nothing can
answer "what was the failure *rate* five minutes ago?" while a run is
still going.  :class:`TelemetryPipeline` closes that gap: it samples
every :class:`~repro.observability.metrics.MetricsRegistry` instrument
and counts journal events onto **sim-clock-aligned windows** (the
instrumentation, the event core's one observer, hands it each live
event through :meth:`TelemetryPipeline.count`), keeping
each resulting series in a bounded ring buffer of non-decreasing
``(time, value)`` samples.

Series naming, for a window width ``w`` closing at boundary ``t``:

- ``journal.<event-type>.count`` — events of that type in ``[t-w, t)``;
- ``journal.<event-type>.rate``  — ``count / w`` (events per second);
- ``journal.<event-type>.total`` — cumulative count since the origin;
- ``metric.<name>.total`` / ``.rate``   — counter value and per-window rate;
- ``metric.<name>.value`` / ``.delta``  — gauge value and per-window change;
- ``metric.<name>.count`` / ``.rate``   — histogram observation count/rate;
- ``metric.<name>.p50|.p95|.p99``       — histogram percentile snapshots.

Determinism contract: every derived value is a pure function of the
raw samples, so aggregates recomputed offline from the raw
journal/metric samples are **bit-identical** to the streaming values
(``tests/property/test_properties_telemetry.py`` holds the offline
reference, ``derive_window_series`` and ``windows_from_events``).  Windows
are assigned by event *time*, not callback order, so events recorded at
the exact boundary instant land in the next window regardless of event
queue tie-breaking.

The JSONL export mirrors the trace export (meta header + one row per
series) and validates against ``docs/schemas/telemetry_export.schema.json``
via the same minimal JSON-Schema checker
(:func:`repro.observability.export.validate_export_file`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.events.journal import JournalEvent
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetryPipeline",
    "WindowSeries",
    "reduce_values",
]

TELEMETRY_SCHEMA_VERSION = "gae-telemetry/1"

#: Reducers :meth:`WindowSeries.reduce` understands.
REDUCERS = ("last", "sum", "mean", "min", "max", "delta", "p50", "p95", "p99")


def reduce_values(values: Sequence[float], reducer: str) -> Optional[float]:
    """Apply a named reducer to a window of values (None when empty)."""
    if not values:
        return None
    if reducer == "last":
        return values[-1]
    if reducer == "sum":
        return sum(values)
    if reducer == "mean":
        return sum(values) / len(values)
    if reducer == "min":
        return min(values)
    if reducer == "max":
        return max(values)
    if reducer == "delta":
        return values[-1] - values[0]
    if reducer in ("p50", "p95", "p99"):
        return percentile(sorted(values), int(reducer[1:]))
    raise ValueError(f"unknown reducer {reducer!r} (known: {', '.join(REDUCERS)})")


class WindowSeries:
    """Bounded ring of per-window ``(time, value)`` samples, times
    non-decreasing."""

    __slots__ = ("name", "source", "window_s", "_times", "_values")

    def __init__(
        self, name: str, source: str, window_s: float, capacity: int
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.name = name
        self.source = source  # "journal" | "metric"
        self.window_s = window_s
        self._times: deque = deque(maxlen=capacity)
        self._values: deque = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._times)

    def append(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"out-of-order window sample at t={time:.6g} "
                f"(last was {self._times[-1]:.6g})"
            )
        self._times.append(float(time))
        self._values.append(float(value))

    def samples(self) -> List[Tuple[float, float]]:
        return list(zip(self._times, self._values))

    def values(self, last_n: Optional[int] = None) -> List[float]:
        out = list(self._values)
        return out if last_n is None else out[-last_n:]

    def reduce(self, reducer: str, last_n: Optional[int] = None) -> Optional[float]:
        """Apply a :data:`REDUCERS` member over the last *last_n* windows."""
        return reduce_values(self.values(last_n), reducer)


class TelemetryPipeline:
    """Continuous windowed aggregation on the simulation clock.

    Construction wires nothing; whoever observes the journal calls
    :meth:`count` per event, and :meth:`start` arms the periodic boundary
    tick (`sim.every`,
    aligned so boundaries stay at ``origin + k * window_s`` even across
    a checkpoint/restore).  Each tick closes one window: every registry
    instrument is sampled, journal counts are folded in, and the
    :class:`~repro.observability.health.HealthEngine` (which attaches
    itself when it is constructed over the pipeline) is evaluated against
    the fresh windows.
    """

    def __init__(
        self,
        sim: Any,
        metrics: MetricsRegistry,
        *,
        window_s: float = 60.0,
        retain: int = 256,
    ) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if retain <= 0:
            raise ValueError("retain must be positive")
        self.sim = sim
        self.metrics = metrics
        self.window_s = float(window_s)
        self.retain = int(retain)
        self.origin = float(sim.now)
        self.windows_closed = 0
        self.health: Any = None  # the HealthEngine, set by attach_health
        self._series: Dict[str, WindowSeries] = {}
        self._boundaries: deque = deque(maxlen=retain)
        self._upcoming_boundary = self.origin + self.window_s
        self._current_counts: Dict[str, int] = {}
        self._next_counts: Dict[str, int] = {}
        self._cumulative: Dict[str, int] = {}
        self._handle = None
        self._seeded = False

    # -- wiring --------------------------------------------------------

    def attach_health(self, health: Any) -> None:
        """Evaluate *health* (a HealthEngine) after every closed window."""
        self.health = health

    def start(self) -> None:
        """Arm the periodic window tick (idempotent while armed)."""
        if self._handle is not None and not self._handle.cancelled:
            return
        if not self._seeded:
            self._sample_metrics(self.origin, seed_only=True)
            self._seeded = True
        first_delay = self._upcoming_boundary - self.sim.now
        if first_delay <= 0:  # checkpoint landed exactly on a boundary
            first_delay = None
        self._handle = self.sim.every(
            self.window_s, self._tick, label="telemetry.window",
            first_delay=first_delay,
        )

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # -- streaming -----------------------------------------------------

    def count(self, event: JournalEvent) -> None:
        """Count one journal event into the window its time falls in."""
        target = (
            self._current_counts
            if event.time < self._upcoming_boundary
            else self._next_counts
        )
        key = event.type.value
        target[key] = target.get(key, 0) + 1

    def _tick(self) -> None:
        t_end = self._upcoming_boundary
        self._upcoming_boundary = t_end + self.window_s
        counts = self._current_counts
        self._current_counts = self._next_counts
        self._next_counts = {}
        self._boundaries.append(t_end)

        for key in sorted(counts):
            self._cumulative[key] = self._cumulative.get(key, 0) + counts[key]
        # Every journal type ever seen keeps a gap-free count series.
        for key in sorted(self._cumulative):
            count = counts.get(key, 0)
            self._append(f"journal.{key}.count", "journal", t_end, float(count))
            self._append(
                f"journal.{key}.rate", "journal", t_end, count / self.window_s
            )
            self._append(
                f"journal.{key}.total", "journal", t_end,
                float(self._cumulative[key]),
            )

        self._sample_metrics(t_end)
        self.windows_closed += 1
        self.health.evaluate(t_end)

    def _sample_metrics(self, t: float, seed_only: bool = False) -> None:
        for name in self.metrics.names():
            inst = self.metrics.get(name)
            if isinstance(inst, Counter):
                self._sample_derived(
                    f"metric.{name}.total", f"metric.{name}.rate",
                    "counter", t, inst.total(), seed_only,
                )
            elif isinstance(inst, Gauge):
                self._sample_derived(
                    f"metric.{name}.value", f"metric.{name}.delta",
                    "gauge", t, inst.total(), seed_only,
                )
            elif isinstance(inst, Histogram):
                self._sample_derived(
                    f"metric.{name}.count", f"metric.{name}.rate",
                    "counter", t, inst.total_count(), seed_only,
                )
                if not seed_only:
                    summary = inst.merged_summary()
                    for q in ("p50", "p95", "p99"):
                        if q in summary:
                            self._append(
                                f"metric.{name}.{q}", "metric", t, summary[q]
                            )

    def _sample_derived(
        self,
        raw_name: str,
        derived_name: str,
        kind: str,
        t: float,
        value: float,
        seed_only: bool,
    ) -> None:
        raw = self._get_series(raw_name, "metric")
        prev = raw.values(1)
        raw.append(t, value)
        if seed_only or not prev:
            return
        # One step of the property suite's ``derive_window_series``.
        if kind == "counter":
            derived = (value - prev[0]) / self.window_s
        else:
            derived = value - prev[0]
        self._append(derived_name, "metric", t, derived)

    def _get_series(self, name: str, source: str) -> WindowSeries:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = WindowSeries(
                name, source, self.window_s, self.retain
            )
        return series

    def _append(self, name: str, source: str, t: float, value: float) -> None:
        self._get_series(name, source).append(t, value)

    # -- queries -------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._series)

    def series(self, name: str) -> Optional[WindowSeries]:
        return self._series.get(name)

    def boundaries(self) -> List[float]:
        """End times of the retained closed windows, oldest first."""
        return list(self._boundaries)

    def value(
        self, name: str, reducer: str = "last", last_n: Optional[int] = None
    ) -> Optional[float]:
        """Reduce one series (None when the series is absent or empty)."""
        series = self._series.get(name)
        if series is None:
            return None
        return series.reduce(reducer, last_n)

    def to_dict(self) -> Dict[str, Any]:
        """Wire-safe snapshot: meta plus per-series samples."""
        return {
            "schema": TELEMETRY_SCHEMA_VERSION,
            "window_s": self.window_s,
            "origin_s": self.origin,
            "sim_now": self.sim.now,
            "windows_closed": self.windows_closed,
            "series": {
                name: {
                    "source": self._series[name].source,
                    "samples": [[t, v] for t, v in self._series[name].samples()],
                }
                for name in self.names()
            },
        }

    def export_jsonl(self, path: Union[str, "Any"]) -> int:
        """Write the windows as JSONL (meta row + one row per series).

        The shape is pinned by ``docs/schemas/telemetry_export.schema.json``;
        validate with
        ``validate_export_file(path, "docs/schemas/telemetry_export.schema.json")``.
        Returns the row count.
        """
        import json
        from pathlib import Path

        snapshot = self.to_dict()
        rows: List[Dict[str, Any]] = [
            {
                "kind": "meta",
                "schema": TELEMETRY_SCHEMA_VERSION,
                "window_s": self.window_s,
                "origin_s": self.origin,
                "sim_now": self.sim.now,
                "windows_closed": self.windows_closed,
                "series_count": len(snapshot["series"]),
            }
        ]
        for name, body in snapshot["series"].items():
            rows.append(
                {
                    "kind": "series",
                    "name": name,
                    "source": body["source"],
                    "samples": body["samples"],
                }
            )
        out = Path(path)
        with out.open("w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
        return len(rows)

    # -- persistence ---------------------------------------------------

    def export_state(self) -> Dict[str, Any]:
        """Everything needed to resume the windows without a gap."""
        return {
            "window_s": self.window_s,
            "retain": self.retain,
            "origin": self.origin,
            "upcoming_boundary": self._upcoming_boundary,
            "windows_closed": self.windows_closed,
            "boundaries": list(self._boundaries),
            "current_counts": dict(self._current_counts),
            "next_counts": dict(self._next_counts),
            "cumulative": dict(self._cumulative),
            "seeded": self._seeded,
            "series": {
                name: {
                    "source": s.source,
                    "samples": [[t, v] for t, v in s.samples()],
                }
                for name, s in sorted(self._series.items())
            },
        }

    def import_state(self, state: Dict[str, Any]) -> None:
        """Restore ring buffers and window bookkeeping from a checkpoint."""
        self.window_s = float(state["window_s"])
        self.retain = int(state["retain"])
        self.origin = float(state["origin"])
        self._upcoming_boundary = float(state["upcoming_boundary"])
        self.windows_closed = int(state["windows_closed"])
        self._boundaries = deque(
            (float(b) for b in state["boundaries"]), maxlen=self.retain
        )
        self._current_counts = {k: int(v) for k, v in state["current_counts"].items()}
        self._next_counts = {k: int(v) for k, v in state["next_counts"].items()}
        self._cumulative = {k: int(v) for k, v in state["cumulative"].items()}
        self._seeded = bool(state["seeded"])
        self._series = {}
        for name, body in state["series"].items():
            series = WindowSeries(name, body["source"], self.window_s, self.retain)
            for t, v in body["samples"]:
                series.append(float(t), float(v))
            self._series[name] = series
