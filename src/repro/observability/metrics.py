"""The metrics registry: counters, gauges, histograms.

One implementation, two instances per GAE (docs/ARCHITECTURE.md "Metrics
naming"): ``GAEInstrumentation.metrics`` collects simulation-domain
instruments from steering, monitoring, estimators, condor and accounting
and is checkpointed state; ``ClarensHost.metrics`` holds the RPC layer's
wall-clock counts and latencies and never is.  ``system.observability``
exposes the first, ``system.stats`` / ``system.cache`` are views over the
second, and ``prometheus_lines()`` renders either as Prometheus text.

Naming convention: metric names are ``gae_<area>_<what>[_total]`` —
snake_case, ``gae_`` prefix, ``_total`` suffix for monotonic counters —
and labels are lowercase identifiers (``site``, ``command``,
``state``...).  Values are simulation-domain unless the name says
otherwise.

This module imports nothing from the rest of ``repro`` at import time,
so every layer (``repro.clarens`` included) may hold a registry.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyReservoir",
    "MetricsRegistry",
    "percentile",
]


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) of *samples* by nearest-rank.

    Raises ValueError on an empty sample set.
    """
    if not samples:
        raise ValueError("percentile of an empty sample set")
    ordered = sorted(samples)
    if q <= 0:
        return ordered[0]
    if q >= 100:
        return ordered[-1]
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math import
    return ordered[int(rank) - 1]


class LatencyReservoir:
    """Fixed-capacity sample store: fills, then overwrites cyclically.

    The sliding window of recent values behind every histogram's
    percentiles.  Not thread-safe on its own — the owning histogram
    holds the lock.
    """

    __slots__ = ("cap", "samples", "_next")

    def __init__(self, cap: int = 512) -> None:
        if cap < 1:
            raise ValueError("reservoir capacity must be positive")
        self.cap = cap
        self.samples: List[float] = []
        self._next = 0

    def add(self, value: float) -> None:
        if len(self.samples) < self.cap:
            self.samples.append(value)
        else:  # overwrite cyclically: a sliding window of recent values
            self.samples[self._next] = value
            self._next = (self._next + 1) % self.cap


LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    # The 0- and 1-label cases dominate the instrumentation hot path;
    # skip the sort for them (a 1-tuple is trivially sorted).
    if not labels:
        return ()
    if len(labels) == 1:
        [(k, v)] = labels.items()
        return ((k, str(v)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_str(key: LabelKey) -> str:
    if not key:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in key) + "}"


class _Instrument:
    """Shared bookkeeping: name, help text, per-labelset storage, lock."""

    kind = "instrument"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: Dict[LabelKey, Any] = {}
        self._lock = threading.Lock()

    def bind(self, **labels: Any) -> "_Bound":
        """A handle with the labelset resolved once, for per-event call sites."""
        return _Bound(self, _label_key(labels))

    def discard(self, **labels: Any) -> None:
        """Drop every series whose labelset includes *labels*."""
        unwanted = set(_label_key(labels))
        with self._lock:
            for key in [k for k in self._series if unwanted.issubset(k)]:
                del self._series[key]

    def snapshot(self) -> Dict[str, Any]:  # pragma: no cover - overridden
        raise NotImplementedError

    def prometheus_lines(self) -> List[str]:  # pragma: no cover - overridden
        raise NotImplementedError


class _Bound:
    """One labelset of an instrument, its key resolved once — the hot path.

    Every per-series operation is implemented here and nowhere else (the
    instruments' ``**labels`` forms are ``bind(**labels)`` then the same
    call): ``inc``/``dec``/``set_max``/``value`` for a counter or gauge,
    ``observe``/``summary`` for a histogram.
    """

    __slots__ = ("_instrument", "_key")

    def __init__(self, instrument: _Instrument, key: LabelKey) -> None:
        self._instrument = instrument
        self._key = key

    def inc(self, amount: float = 1.0) -> float:
        """Add *amount*; returns the new value (read under the same lock)."""
        instrument, key = self._instrument, self._key
        with instrument._lock:
            value = instrument._series[key] = instrument._series.get(key, 0.0) + amount
        return value

    def dec(self, amount: float = 1.0) -> float:
        return self.inc(-amount)

    def set_max(self, value: float) -> None:
        """Raise the value to *value* if that is larger (a high-water mark)."""
        instrument, key = self._instrument, self._key
        with instrument._lock:
            if value > instrument._series.get(key, 0.0):
                instrument._series[key] = float(value)

    def value(self) -> float:
        instrument = self._instrument
        with instrument._lock:
            return instrument._series.get(self._key, 0.0)

    def observe(self, value: float) -> None:
        instrument, key = self._instrument, self._key
        with instrument._lock:
            series = instrument._series.get(key)
            if series is None:
                series = instrument._series[key] = _HistogramSeries(instrument._cap)
            series.observe(value)

    def summary(self) -> Dict[str, float]:
        instrument = self._instrument
        with instrument._lock:
            series = instrument._series.get(self._key)
            return series.summary() if series is not None else {}


class _Numeric(_Instrument):
    """One float per labelset: what :class:`Counter` and :class:`Gauge` share."""

    def _current(self) -> Dict[LabelKey, float]:
        with self._lock:
            return dict(self._series)

    def value(self, **labels: Any) -> float:
        return self.bind(**labels).value()

    def total(self) -> float:
        """Sum over every labelset."""
        return sum(self._current().values())

    def series(self) -> List[Tuple[Dict[str, str], float]]:
        """``(labels, value)`` per labelset, for views that sum by label."""
        return [(dict(key), value) for key, value in self._current().items()]

    def export_state(self) -> Dict[str, Any]:
        with self._lock:
            values = dict(self._series)
        return {
            "kind": self.kind,
            "help": self.help,
            "values": [[[list(pair) for pair in k], v] for k, v in values.items()],
        }

    def import_state(self, state: Dict[str, Any]) -> None:
        with self._lock:
            self._series = {
                tuple((k, v) for k, v in pairs): float(value)
                for pairs, value in state["values"]
            }

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "values": {_label_str(k) or "": v for k, v in sorted(self._current().items())},
        }

    def prometheus_lines(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]
        for key, value in sorted(self._current().items()):
            lines.append(f"{self.name}{_label_str(key)} {value:g}")
        return lines


class Counter(_Numeric):
    """Monotonically increasing counter, optionally labelled."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.bind(**labels).inc(amount)


class Gauge(_Numeric):
    """Point-in-time value; set explicitly or backed by a callable."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", fn: Optional[Callable[[], float]] = None) -> None:
        super().__init__(name, help)
        self._fn = fn

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        self.bind(**labels).inc(amount)

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.bind(**labels).dec(amount)

    def value(self, **labels: Any) -> float:
        if self._fn is not None and not labels:
            return float(self._fn())
        return super().value(**labels)

    def _current(self) -> Dict[LabelKey, float]:
        # Only explicitly-set values are state (``export_state``); an
        # fn-backed value recomputes from whatever the gauge observes.
        values = super()._current()
        if self._fn is not None:
            values[()] = float(self._fn())
        return values


class _HistogramSeries:
    __slots__ = ("count", "sum", "max", "reservoir")

    def __init__(self, cap: int) -> None:
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        self.reservoir = LatencyReservoir(cap)

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value
        self.reservoir.add(value)

    def summary(self) -> Dict[str, float]:
        out: Dict[str, float] = {"count": float(self.count), "sum": self.sum, "max": self.max}
        samples = self.reservoir.samples
        if samples:
            ordered = sorted(samples)
            out["p50"] = percentile(ordered, 50)
            out["p95"] = percentile(ordered, 95)
            out["p99"] = percentile(ordered, 99)
        return out

    def export_state(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
            "samples": list(self.reservoir.samples),
            "next": self.reservoir._next,
        }

    @classmethod
    def from_state(cls, cap: int, state: Dict[str, Any]) -> "_HistogramSeries":
        series = cls(cap)
        series.count = int(state["count"])
        series.sum = float(state["sum"])
        series.max = float(state["max"])
        series.reservoir.samples = [float(v) for v in state["samples"]]
        series.reservoir._next = int(state["next"])
        return series


class Histogram(_Instrument):
    """Distribution summary over a sliding reservoir of observations."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "", reservoir_cap: int = 512) -> None:
        super().__init__(name, help)
        self._cap = reservoir_cap

    def observe(self, value: float, **labels: Any) -> None:
        self.bind(**labels).observe(value)

    def export_state(self) -> Dict[str, Any]:
        with self._lock:
            series = {k: s.export_state() for k, s in self._series.items()}
        return {
            "kind": self.kind,
            "help": self.help,
            "cap": self._cap,
            "series": [[[list(pair) for pair in k], s] for k, s in series.items()],
        }

    def import_state(self, state: Dict[str, Any]) -> None:
        with self._lock:
            self._cap = int(state.get("cap", self._cap))
            self._series = {
                tuple((k, v) for k, v in pairs): _HistogramSeries.from_state(self._cap, s)
                for pairs, s in state["series"]
            }

    def summary(self, **labels: Any) -> Dict[str, float]:
        return self.bind(**labels).summary()

    def series(self) -> List[Tuple[Dict[str, str], Dict[str, float]]]:
        """``(labels, summary)`` per labelset, for views that group by label."""
        with self._lock:
            return [(dict(key), s.summary()) for key, s in self._series.items()]

    def total_count(self) -> float:
        """Observation count summed over every labelset."""
        with self._lock:
            return float(sum(s.count for s in self._series.values()))

    def merged_summary(self) -> Dict[str, float]:
        """Count/sum/max plus p50/p95/p99 over all labelsets' reservoirs."""
        with self._lock:
            series = list(self._series.values())
            merged: List[float] = []
            for s in series:
                merged.extend(s.reservoir.samples)
            out: Dict[str, float] = {
                "count": float(sum(s.count for s in series)),
                "sum": sum(s.sum for s in series),
                "max": max((s.max for s in series), default=0.0),
            }
        if merged:
            ordered = sorted(merged)
            out["p50"] = percentile(ordered, 50)
            out["p95"] = percentile(ordered, 95)
            out["p99"] = percentile(ordered, 99)
        return out

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            summaries = {k: s.summary() for k, s in self._series.items()}
        return {
            "kind": self.kind,
            "help": self.help,
            "values": {_label_str(k) or "": v for k, v in sorted(summaries.items())},
        }

    def prometheus_lines(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} summary"]
        with self._lock:
            summaries = sorted((k, s.summary()) for k, s in self._series.items())
        for key, summary in summaries:
            base = dict(key)
            for q, field in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
                if field in summary:
                    quantile_key = _label_key({**base, "quantile": q})
                    lines.append(f"{self.name}{_label_str(quantile_key)} {summary[field]:g}")
            lines.append(f"{self.name}_sum{_label_str(key)} {summary['sum']:g}")
            lines.append(f"{self.name}_count{_label_str(key)} {summary['count']:g}")
        return lines


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Asking twice for the same name returns the same instrument; asking
    for an existing name with a different kind raises ``ValueError`` so
    two services cannot silently fight over one series.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, **kwargs: Any):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"not {cls.kind}"
                    )
                return existing
            instrument = cls(name, help, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "", fn: Optional[Callable[[], float]] = None) -> Gauge:
        return self._get_or_create(Gauge, name, help, fn=fn)

    def histogram(self, name: str, help: str = "", reservoir_cap: int = 512) -> Histogram:
        return self._get_or_create(Histogram, name, help, reservoir_cap=reservoir_cap)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def snapshot(self) -> Dict[str, Any]:
        """Wire-safe snapshot of every instrument, keyed by name."""
        with self._lock:
            instruments = dict(self._instruments)
        return {name: inst.snapshot() for name, inst in sorted(instruments.items())}

    def prometheus_lines(self) -> List[str]:
        """Prometheus text-exposition lines for every instrument."""
        with self._lock:
            instruments = [inst for _, inst in sorted(self._instruments.items())]
        lines: List[str] = []
        for inst in instruments:
            lines.extend(inst.prometheus_lines())
        return lines

    def discard(self, **labels: Any) -> None:
        """Drop, from every instrument, each series carrying *labels*.

        How a component that stops for good (a shut-down worker pool)
        takes its labelled series out of the exposition.
        """
        with self._lock:
            instruments = list(self._instruments.values())
        for inst in instruments:
            inst.discard(**labels)

    # -- persistence (state-store backend) ------------------------------

    def save_to(self, store: "StateStore") -> int:
        """Write every instrument's state into ``observability.metrics``."""
        from repro.store.registry import OBSERVABILITY_METRICS, namespace_record

        store.register_namespace(namespace_record(OBSERVABILITY_METRICS))
        store.clear(OBSERVABILITY_METRICS)
        with self._lock:
            instruments = dict(self._instruments)
        return store.put_many(
            OBSERVABILITY_METRICS,
            ((name, inst.export_state()) for name, inst in instruments.items()),
        )

    def load_from(self, store: "StateStore") -> int:
        """Restore instrument values from ``observability.metrics``.

        Instruments already registered (the normal case after rebuilding
        a GAE) get their values replaced in place, preserving any bound
        handles and gauge callables; unknown names are re-created from
        the stored kind/help.
        """
        from repro.store.registry import OBSERVABILITY_METRICS

        classes = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}
        n = 0
        for name, state in store.items(OBSERVABILITY_METRICS):
            cls = classes[state["kind"]]
            inst = self._get_or_create(cls, name, state.get("help", ""))
            inst.import_state(state)
            n += 1
        return n
