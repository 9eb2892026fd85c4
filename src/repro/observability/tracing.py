"""Trace ids, spans and a simulation-clock-aware tracer.

:func:`new_trace_id` mints the ids every Clarens call and every job
trace is correlated by; a :class:`Span` carries (trace_id, span_id, parent_id,
sim-time start/end, attributes, status), and a thread-safe
:class:`Tracer` keeps a bounded ring of them, keyed by span id, plus a
per-thread stack of *active* spans so nested instrumentation points can
parent themselves correctly without threading a context object through
every call signature.

Timestamps come from an injected ``clock`` callable — in the GAE this is
``sim.clock`` (simulation seconds), so span durations line up with the
journal and with every queue/run time the estimators see.

The one unusual verb is :meth:`Tracer.adopt_current_trace`: a Clarens
RPC opens its spans under the *call's* trace id before anyone knows
which job it concerns; once the steering command processor resolves the
task, it re-homes the open span stack onto the job's trace so the RPC,
the steering verb, and the resulting pool events share one trace.

Ids: :func:`new_trace_id` / :func:`new_span_id` carry a random
per-process prefix (eight / six hex digits) and a process counter; a
client mints its calls' trace ids so, and so does a tracer given no
``id_prefix`` (a bare ``ClarensHost``'s).  A tracer given one counts its
own: an instrumented GAE passes :func:`seeded_id_prefix` of the grid seed
(``g`` and five hex digits: never a random prefix, never longer) and
checkpoints the counters, so two runs of one seed mint the same ids,
restored or not.

At import time this module needs only the standard library, so
``repro.clarens`` can take its trace ids from here without an import cycle.
"""

from __future__ import annotations

import itertools
import random
import secrets
import threading
import zlib
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "Span", "SpanContext", "Tracer", "new_trace_id", "render_span_tree", "seeded_id_prefix",
]

# A random per-process prefix plus a counter: unique enough to correlate
# calls across hosts, and ~10x cheaper than uuid4 on the hot path.
_TRACE_PREFIX = secrets.token_hex(4)
_TRACE_COUNTER = itertools.count(1)


def new_trace_id() -> str:
    """A process-unique trace id (``<random-prefix>-<counter>``)."""
    return f"{_TRACE_PREFIX}-{next(_TRACE_COUNTER):x}"


_SPAN_PREFIX = f"{random.getrandbits(24):06x}"
_SPAN_COUNTER = itertools.count(1)


def new_span_id() -> str:
    """Process-unique span id, same flavour as ``new_trace_id``."""
    return f"{_SPAN_PREFIX}-s{next(_SPAN_COUNTER):x}"


def seeded_id_prefix(seed: int) -> str:
    """The ``id_prefix`` of a tracer whose run *seed* fixes: ``g`` and five
    hex digits of its CRC-32 (``g`` is no hex digit, so no random prefix
    is ever equal to it)."""
    return f"g{zlib.crc32(str(seed).encode()) & 0xFFFFF:05x}"


class SpanContext(Tuple[str, str, Optional[str]]):
    """Immutable (trace_id, span_id, parent_id) triple for propagation."""

    __slots__ = ()

    def __new__(cls, trace_id: str, span_id: str, parent_id: Optional[str] = None):
        return tuple.__new__(cls, (trace_id, span_id, parent_id))

    @property
    def trace_id(self) -> str:
        return self[0]

    @property
    def span_id(self) -> str:
        return self[1]

    @property
    def parent_id(self) -> Optional[str]:
        return self[2]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanContext(trace_id={self[0]!r}, span_id={self[1]!r}, parent_id={self[2]!r})"


class Span:
    """One timed operation within a trace.

    ``trace_id`` is deliberately mutable: :meth:`Tracer.adopt_current_trace`
    re-homes open RPC spans onto a job trace once the target task is known.
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start", "end", "status", "attributes")

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        start: float,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.status = "open"
        self.attributes: Dict[str, Any] = dict(attributes) if attributes else {}

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id, self.parent_id)

    @property
    def duration_s(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def finish(self, end: float, status: str = "ok") -> None:
        if self.end is None:
            self.end = end
            self.status = status

    def to_wire(self) -> Dict[str, Any]:
        """JSON-safe dict, the shape used by the JSONL export."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, trace={self.trace_id}, span={self.span_id}, status={self.status})"


class _ActiveStack(threading.local):
    def __init__(self) -> None:
        self.stack: List[Span] = []


class Tracer:
    """Thread-safe ring of the newest ``capacity`` spans keyed by span id (a
    span lives exactly as long as its slot; long-lived work holds ids and
    reaches spans through :meth:`update`), plus a per-thread active-span stack.

    With an ``id_prefix`` the tracer mints its trace and span ids from its
    own two counters (:attr:`id_counters`); without one, from the module's
    random-prefixed ones."""

    def __init__(
        self, clock: Callable[[], float], capacity: int = 8192, id_prefix: Optional[str] = None
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._clock = clock
        #: span id -> span, oldest first; appends and evictions hold ``_lock``.
        self._spans: "OrderedDict[str, Span]" = OrderedDict()
        self._lock = threading.Lock()
        self._active = _ActiveStack()
        self.capacity = capacity
        self._id_prefix = id_prefix
        #: The next [trace, span] counter values of a prefixed tracer; a
        #: checkpoint saves them.  Minting holds ``_lock``.
        self.id_counters: List[int] = [1, 1]

    def _count(self, which: int) -> int:
        with self._lock:
            n = self.id_counters[which]
            self.id_counters[which] = n + 1
        return n

    def new_trace_id(self) -> str:
        """A fresh trace id: ``<id_prefix>-<counter>``, or
        :func:`new_trace_id`'s without a prefix."""
        if self._id_prefix is None:
            return new_trace_id()
        return f"{self._id_prefix}-{self._count(0):x}"

    def _new_span_id(self) -> str:
        if self._id_prefix is None:
            return new_span_id()
        return f"{self._id_prefix}-s{self._count(1):x}"

    def _append(self, span: Span) -> None:
        with self._lock:
            self._spans[span.span_id] = span
            if len(self._spans) > self.capacity:
                self._spans.popitem(last=False)

    # -- span lifecycle ------------------------------------------------

    def start_span(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent: Optional[SpanContext] = None,
        attributes: Optional[Dict[str, Any]] = None,
        start: Optional[float] = None,
        activate: bool = True,
    ) -> Span:
        """Open a span.

        Parentage, in priority order: explicit ``parent`` context, else
        the current thread's active span *if it belongs to the same
        trace*, else root.  ``trace_id`` defaults to the parent's, or a
        fresh :meth:`new_trace_id` for a brand-new trace.
        """
        if parent is None:
            current = self.current_span()
            if current is not None and (trace_id is None or current.trace_id == trace_id):
                parent = current.context
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else self.new_trace_id()
        parent_id = parent.span_id if parent is not None and parent.trace_id == trace_id else None
        span = Span(
            name,
            trace_id=trace_id,
            span_id=self._new_span_id(),
            parent_id=parent_id,
            start=self._clock() if start is None else start,
            attributes=attributes,
        )
        self._append(span)
        if activate:
            self._active.stack.append(span)
        return span

    def end_span(self, span: Span, status: str = "ok", end: Optional[float] = None) -> None:
        span.finish(self._clock() if end is None else end, status)
        stack = self._active.stack
        if span in stack:
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()

    def update(self, span_id: str, *, status: Optional[str] = None, **attributes: Any) -> None:
        """Set ``attributes`` on the ring's span ``span_id`` and, given a
        ``status``, end it now; a no-op once the ring has dropped the span,
        which no reader (export, :meth:`render`, checkpoint) can see."""
        span = self._spans.get(span_id)  # one atomic lookup under the GIL
        if span is None:
            return
        span.attributes.update(attributes)
        if status is not None:
            span.finish(self._clock(), status)

    def span(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent: Optional[SpanContext] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> "_SpanHandle":
        """Context manager: opens on ``__enter__``, closes on ``__exit__``
        with status ``error`` if an exception escaped."""
        return _SpanHandle(self, name, trace_id, parent, attributes)

    def instant(
        self,
        name: str,
        *,
        trace_id: str,
        parent: Optional[SpanContext] = None,
        attributes: Optional[Dict[str, Any]] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
        status: str = "ok",
    ) -> Span:
        """Record an already-finished (possibly zero-length) span."""
        span = self.start_span(
            name, trace_id=trace_id, parent=parent, attributes=attributes, start=start, activate=False
        )
        span.finish(span.start if end is None else end, status)
        return span

    # -- ambient context -----------------------------------------------

    def current_span(self) -> Optional[Span]:
        stack = self._active.stack
        return stack[-1] if stack else None

    def adopt_current_trace(self, trace_id: str) -> List[str]:
        """Re-home every open span on this thread's stack onto ``trace_id``.

        Returns the original trace ids that were replaced (deduplicated,
        outermost first) so callers can record the join in attributes.
        """
        replaced: List[str] = []
        for span in self._active.stack:
            if span.trace_id != trace_id:
                if span.trace_id not in replaced:
                    replaced.append(span.trace_id)
                span.attributes.setdefault("adopted_from", span.trace_id)
                span.trace_id = trace_id
        return replaced

    # -- queries -------------------------------------------------------

    def spans(self, trace_id: Optional[str] = None) -> List[Span]:
        snapshot = self._snapshot()
        if trace_id is None:
            return snapshot
        return [s for s in snapshot if s.trace_id == trace_id]

    def _snapshot(self) -> List[Span]:
        with self._lock:
            return list(self._spans.values())

    def __len__(self) -> int:
        return len(self._spans)  # len() is atomic under the GIL

    def render(self, trace_id: str) -> str:
        """ASCII span tree for one trace (see :func:`render_span_tree`)."""
        return render_span_tree([s.to_wire() for s in self.spans(trace_id)])

    # -- persistence (state-store backend) ------------------------------

    def save_to(self, store: "StateStore") -> int:
        """Write every retained span into ``observability.tracing``."""
        from repro.store.registry import OBSERVABILITY_TRACING, namespace_record

        store.register_namespace(namespace_record(OBSERVABILITY_TRACING))
        store.clear(OBSERVABILITY_TRACING)
        return store.put_many(
            OBSERVABILITY_TRACING,
            ((f"{i:012d}", s.to_wire()) for i, s in enumerate(self._snapshot())),
        )

    def load_from(self, store: "StateStore") -> int:
        """Replace the span store from ``observability.tracing``.

        Returns the number of spans restored; live task/job traces re-link
        to them by id through :meth:`update`.  Nothing lands on any active
        stack — restored spans are data, not open work on this thread.
        """
        from repro.store.registry import OBSERVABILITY_TRACING

        self._spans.clear()
        for _, row in store.items(OBSERVABILITY_TRACING):
            span = Span(
                row["name"],
                trace_id=row["trace_id"],
                span_id=row["span_id"],
                parent_id=row["parent_id"],
                start=row["start"],
                attributes=row["attributes"],
            )
            span.end = row["end"]
            span.status = row["status"]
            self._append(span)
        return len(self._spans)


class _SpanHandle:
    __slots__ = ("_tracer", "_name", "_trace_id", "_parent", "_attributes", "span")

    def __init__(self, tracer, name, trace_id, parent, attributes) -> None:
        self._tracer = tracer
        self._name = name
        self._trace_id = trace_id
        self._parent = parent
        self._attributes = attributes
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self._tracer.start_span(
            self._name, trace_id=self._trace_id, parent=self._parent, attributes=self._attributes
        )
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.span is not None:
            self._tracer.end_span(self.span, status="error" if exc_type else "ok")


def render_span_tree(spans: List[Dict[str, Any]]) -> str:
    """Render wire-format spans (``Span.to_wire`` dicts) as an ASCII tree.

    Works on exported JSONL rows as well as live tracer output, so the
    CLI ``trace`` subcommand and the webui share one renderer.  Children
    are ordered by start time; orphans (parent outside the slice, e.g.
    evicted from the bounded store) are promoted to roots.
    """
    if not spans:
        return "(no spans)"
    by_id = {s["span_id"]: s for s in spans}
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for s in spans:
        parent = s.get("parent_id")
        if parent is not None and parent not in by_id:
            parent = None
        children.setdefault(parent, []).append(s)
    for kids in children.values():
        kids.sort(key=lambda s: (s["start"], s["span_id"]))

    lines: List[str] = []

    def fmt(s: Dict[str, Any]) -> str:
        end = s.get("end")
        if end is None:
            timing = f"t={s['start']:.1f}s .. open"
        elif end == s["start"]:
            timing = f"t={s['start']:.1f}s"
        else:
            timing = f"t={s['start']:.1f}s +{end - s['start']:.1f}s"
        status = s.get("status", "open")
        extra = ""
        attrs = s.get("attributes") or {}
        keys = [k for k in ("site", "from", "to", "command", "method", "farm") if k in attrs]
        if keys:
            extra = " " + " ".join(f"{k}={attrs[k]}" for k in keys)
        return f"{s['name']}  [{timing}] {status}{extra}"

    def walk(parent_id: Optional[str], prefix: str) -> None:
        kids = children.get(parent_id, [])
        for i, s in enumerate(kids):
            last = i == len(kids) - 1
            if prefix == "" and parent_id is None:
                lines.append(fmt(s))
                walk(s["span_id"], "  ")
            else:
                branch = "`-" if last else "|-"
                lines.append(f"{prefix}{branch} {fmt(s)}")
                walk(s["span_id"], prefix + ("   " if last else "|  "))

    walk(None, "")
    return "\n".join(lines)
