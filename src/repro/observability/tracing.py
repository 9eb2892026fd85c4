"""Trace ids, spans and a simulation-clock-aware tracer.

:func:`new_trace_id` mints the ids every Clarens call and every job
trace is correlated by.  A thread-safe :class:`Tracer` keeps a bounded
ring of spans — (trace_id, span_id, parent_id, sim-time start/end,
attributes, status) — as columns (:class:`repro.ring.ColumnRing`), plus a
per-thread stack of *active* spans so nested instrumentation points can parent
themselves correctly without threading a context object through every
call signature.  Opening a span returns a :class:`SpanRef`, the handle
its writes go through; reading the ring builds :class:`Span` copies.

Timestamps come from an injected ``clock`` callable — in the GAE this is
``sim.clock`` (simulation seconds), so span durations line up with the
journal and with every queue/run time the estimators see.

The one unusual verb is :meth:`Tracer.adopt_current_trace`: a Clarens
RPC opens its spans under the *call's* trace id before anyone knows
which job it concerns; once the steering command processor resolves the
task, it re-homes the open span stack onto the job's trace so the RPC,
the steering verb, and the resulting pool events share one trace.

Ids: trace / span ids minted without an ``id_prefix`` carry a random
per-process prefix (eight / six hex digits) and a process counter; a
client mints its calls' trace ids so (:func:`new_trace_id`), and so
does a tracer given no ``id_prefix`` (a bare ``ClarensHost``'s).  A
tracer given one counts its own: an instrumented GAE passes
:func:`seeded_id_prefix` of the grid seed (``g`` and five hex digits:
never a random prefix, never longer) and checkpoints the counters, so
two runs of one seed mint the same ids, restored or not.

At import time this module needs only the standard library,
:mod:`repro.payload` and :mod:`repro.ring`, so ``repro.clarens`` can take
its trace ids from here without an import cycle.
"""

from __future__ import annotations

import itertools
import random
import threading
import zlib
from itertools import compress, repeat, starmap
from operator import eq
from os import urandom
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.payload import payload, updated
from repro.ring import ColumnRing

__all__ = [
    "Span", "SpanContext", "SpanRef", "Tracer", "new_trace_id", "render_span_tree",
    "seeded_id_prefix",
]

# A random per-process prefix plus a counter: unique enough to correlate
# calls across hosts, and ~10x cheaper than uuid4 on the hot path.  (The
# bytes ``secrets.token_hex`` would draw; ``secrets`` loads OpenSSL.)
_TRACE_PREFIX = urandom(4).hex()
_TRACE_COUNTER = itertools.count(1)


def new_trace_id() -> str:
    """A process-unique trace id (``<random-prefix>-<counter>``)."""
    return f"{_TRACE_PREFIX}-{next(_TRACE_COUNTER):x}"


#: A bare tracer's span ids: ``<_SPAN_PREFIX>-s<counter>``, the counter
#: shared by every bare tracer of the process.
_SPAN_PREFIX = f"{random.getrandbits(24):06x}"
_SPAN_COUNTER = itertools.count(1)


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
    """One timed operation within a trace, as a reader sees it.

    The tracer keeps no ``Span``: :meth:`Tracer.spans` builds one per
    retained slot each time it is asked, so a ``Span`` is a copy — writing
    to it changes nothing in the ring.
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
    def duration_s(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

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


class SpanRef:
    """What :meth:`Tracer.start_span` and :meth:`Tracer.instant` return: a
    span's ids, its start and its place in the ring — the handle the
    span's writes go through, not the span (read that with
    :meth:`Tracer.spans`).  The id is rendered when asked for;
    ``number`` is what the ring keeps of it (:meth:`Tracer.id_number`)."""

    __slots__ = ("_tracer", "trace_id", "number", "parent_id", "start", "_position")

    def __init__(
        self, tracer: "Tracer", trace_id: str, number: Union[int, str],
        parent_id: Optional[str], start: float, position: int,
    ) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        self.number = number
        self.parent_id = parent_id
        self.start = start
        self._position = position

    @property
    def span_id(self) -> str:
        return self._tracer.render_id(self.number)  # type: ignore[return-value]

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id, self.parent_id)


class _ActiveStack(threading.local):
    def __init__(self) -> None:
        self.stack: List[SpanRef] = []


#: A span's fields, in :class:`Span` order: the columns the tracer's ring
#: keeps (``span_id`` holds the id's counter value, see :class:`Tracer`).
_COLUMNS = ("name", "trace_id", "span_id", "parent_id", "start", "end", "status", "keys", "values")
_TRACE, _PARENT, _END, _STATUS, _KEYS, _VALUES = (
    _COLUMNS.index(field) for field in ("trace_id", "parent_id", "end", "status", "keys", "values")
)


class Tracer:
    """Thread-safe ring of the newest ``capacity`` spans, plus a per-thread
    active-span stack.

    The ring keeps no :class:`Span` objects: a :class:`~repro.ring.ColumnRing`
    of the fields (``_COLUMNS``), the attributes as a ``values`` tuple over an
    interned ``keys`` tuple (:func:`repro.payload.payload`).  A span id is
    kept as its counter value and rendered ``<prefix>-s<hex>`` when read;
    the one id kept as a string is a restored one that is not this
    tracer's (a random-prefixed format-2 row).  A span lives exactly as
    long as its slot: long-lived work holds ids and writes through
    :meth:`update`, live calls through the :class:`SpanRef` they opened,
    and a reader (:meth:`spans`) builds fresh ``Span``\\ s from the columns.

    With an ``id_prefix`` the tracer mints its trace and span ids from its
    own two counters (:attr:`id_counters`); without one, from the module's
    random-prefixed ones."""

    def __init__(
        self, clock: Callable[[], float], capacity: int = 8192, id_prefix: Optional[str] = None
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._clock = clock
        #: The ring, one column per field; every access holds ``_lock``.
        self._ring = ColumnRing(len(_COLUMNS), capacity)
        self._lock = threading.Lock()
        self._active = _ActiveStack()
        self.capacity = capacity
        self._id_prefix = id_prefix
        self._span_head = f"{_SPAN_PREFIX if id_prefix is None else id_prefix}-s"
        #: The next [trace, span] counter values of a prefixed tracer; a
        #: checkpoint saves them.  Minting holds ``_lock``.
        self.id_counters: List[int] = [1, 1]

    def new_trace_id(self) -> str:
        """A fresh trace id: ``<id_prefix>-<counter>``, or
        :func:`new_trace_id`'s without a prefix."""
        if self._id_prefix is None:
            return new_trace_id()
        with self._lock:
            n = self.id_counters[0]
            self.id_counters[0] = n + 1
        return f"{self._id_prefix}-{n:x}"

    # -- ids and slots --------------------------------------------------

    def render_id(self, number: Union[int, str, None]) -> Optional[str]:
        """The span id kept as *number* (:meth:`id_number`), as a string."""
        if number is None or number.__class__ is str:
            return number  # type: ignore[return-value]
        return f"{self._span_head}{number:x}"

    def id_number(self, span_id: Union[str, int]) -> Union[int, str]:
        """What the ``span_id`` column keeps for *span_id*: the counter
        value of an id this tracer renders, else the id itself (trace
        records and journal rows keep it too: 28 B, not ~57 B a string)."""
        if span_id.__class__ is int:
            return span_id
        head = self._span_head
        if span_id.startswith(head):
            digits = span_id[len(head):]
            try:
                number = int(digits, 16)
            except ValueError:
                return span_id
            if f"{number:x}" == digits:  # the one spelling render_id gives
                return number
        return span_id

    def _slot_of(self, span_id: Union[str, int]) -> int:
        """The ring slot of *span_id*, ``-1`` if the ring does not hold it.
        Holds ``_lock``.

        A prefixed tracer's counter values run on by one from slot to slot
        (it mints and appends in one step), so the slot is the distance
        back from the newest; a bare tracer shares the process counter with
        every other bare tracer, and a restored string id has no number,
        so those are looked for."""
        ids = self._ring.columns[2]
        number = self.id_number(span_id)
        if ids and number.__class__ is int and ids[-1].__class__ is int:
            slot = len(ids) - 1 - (ids[-1] - number)
            if 0 <= slot < len(ids) and ids[slot] == number:
                return slot
            if self._id_prefix is not None:
                return -1
        try:
            return ids.index(number)
        except ValueError:
            return -1

    def _write(
        self, slot: int, attributes: Optional[Dict[str, Any]], status: Optional[str],
        end: Optional[float],
    ) -> None:
        """Set *attributes* on *slot* and, given a *status*, finish it (the
        first finish wins).  Holds ``_lock``."""
        columns = self._ring.columns
        if attributes:
            columns[_KEYS][slot], columns[_VALUES][slot] = updated(
                columns[_KEYS][slot], columns[_VALUES][slot], attributes
            )
        if status is not None and columns[_END][slot] is None:
            columns[_END][slot] = self._clock() if end is None else end
            columns[_STATUS][slot] = status

    # -- span lifecycle ------------------------------------------------

    def _open(
        self,
        name: str,
        trace_id: Optional[str],
        parent: Optional[Union[SpanContext, SpanRef]],
        attributes: Optional[Dict[str, Any]],
        start: float,
        end: Optional[float],
        status: str,
        activate: bool,
    ) -> SpanRef:
        """Append one span (and push it on this thread's active stack if
        *activate*); parentage as :meth:`start_span` describes."""
        stack = self._active.stack
        if parent is None and stack:
            current = stack[-1]
            if trace_id is None or current.trace_id == trace_id:
                parent = current
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else self.new_trace_id()
        parent_id = parent.span_id if parent is not None and parent.trace_id == trace_id else None
        keys, values = payload(attributes)
        with self._lock:
            if self._id_prefix is None:
                number = next(_SPAN_COUNTER)
            else:
                number = self.id_counters[1]
                self.id_counters[1] = number + 1
            position = self._ring.append(name, trace_id, number, parent_id, start, end,
                                         status, keys, values)
        span = SpanRef(self, trace_id, number, parent_id, start, position)
        if activate:
            stack.append(span)
        return span

    def start_span(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent: Optional[Union[SpanContext, SpanRef]] = None,
        attributes: Optional[Dict[str, Any]] = None,
        start: Optional[float] = None,
        activate: bool = True,
    ) -> SpanRef:
        """Open a span.

        Parentage, in priority order: explicit ``parent`` context, else
        the current thread's active span *if it belongs to the same
        trace*, else root.  ``trace_id`` defaults to the parent's, or a
        fresh :meth:`new_trace_id` for a brand-new trace.
        """
        return self._open(
            name, trace_id, parent, attributes,
            self._clock() if start is None else start, None, "open", activate,
        )

    def end_span(
        self,
        span: SpanRef,
        status: str = "ok",
        end: Optional[float] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Finish *span* with *status*, adding *attributes*, in one write to
        its slot (a no-op once the ring has dropped it), and take it off
        this thread's active stack."""
        stack = self._active.stack
        if span in stack:  # what deactivate does, without its frame per served call
            del stack[stack.index(span):]
        with self._lock:
            slot = self._ring.slot(span._position)
            if slot >= 0:
                self._write(slot, attributes, status, end)

    def deactivate(self, span: SpanRef) -> None:
        """Take *span*, and anything opened above it, off this thread's
        active stack without finishing it."""
        stack = self._active.stack
        if span in stack:
            del stack[stack.index(span):]

    def update(
        self, span_id: Union[str, int], *, status: Optional[str] = None, **attributes: Any
    ) -> None:
        """Set ``attributes`` on the ring's span ``span_id`` (or its
        :meth:`id_number`) and, given a
        ``status``, end it now; a no-op once the ring has dropped the span,
        which no reader (export, :meth:`render`, checkpoint) can see."""
        with self._lock:
            slot = self._slot_of(span_id)
            if slot >= 0:
                self._write(slot, attributes, status, None)

    def set_parent(self, span: SpanRef, parent_id: str) -> None:
        """Hang the open *span* under *parent_id*."""
        span.parent_id = parent_id
        with self._lock:
            slot = self._ring.slot(span._position)
            if slot >= 0:
                self._ring.columns[_PARENT][slot] = parent_id

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
    ) -> SpanRef:
        """Record an already-finished (possibly zero-length) span."""
        if start is None:
            start = self._clock()
        return self._open(
            name, trace_id, parent, attributes, start, start if end is None else end, status,
            False,
        )

    # -- ambient context -----------------------------------------------

    def current_span(self) -> Optional[SpanRef]:
        stack = self._active.stack
        return stack[-1] if stack else None

    def adopt_current_trace(self, trace_id: str) -> List[str]:
        """Re-home every open span on this thread's stack onto ``trace_id``.

        Returns the original trace ids that were replaced (deduplicated,
        outermost first) so callers can record the join in attributes.
        """
        replaced: List[str] = []
        columns = self._ring.columns
        with self._lock:
            for span in self._active.stack:
                old = span.trace_id
                if old == trace_id:
                    continue
                if old not in replaced:
                    replaced.append(old)
                span.trace_id = trace_id
                slot = self._ring.slot(span._position)
                if slot >= 0:
                    columns[_TRACE][slot] = trace_id
                    if "adopted_from" not in columns[_KEYS][slot]:
                        self._write(slot, {"adopted_from": old}, None, None)
        return replaced

    # -- queries -------------------------------------------------------

    def spans(self, trace_id: Optional[str] = None, *, name_prefix: str = "") -> List[Span]:
        """Every retained span, oldest first, or those of ``trace_id`` /
        whose name starts with ``name_prefix``; each a fresh ``Span``."""
        with self._lock:
            _, columns = self._ring.window()
        rows: Iterable[Tuple[Any, ...]] = zip(*columns)
        if trace_id is not None:
            rows = compress(rows, map(eq, columns[_TRACE], repeat(trace_id)))
        if name_prefix:
            rows = (row for row in rows if row[0].startswith(name_prefix))
        return list(starmap(self._span, rows))

    def _span(
        self, name: str, trace_id: str, number: Union[int, str], parent_id: Optional[str],
        start: float, end: Optional[float], status: str,
        keys: Tuple[str, ...], values: Tuple[Any, ...],
    ) -> Span:
        span = Span(name, trace_id, self.render_id(number), parent_id, start)  # type: ignore[arg-type]
        span.end = end
        span.status = status
        span.attributes = dict(zip(keys, values))
        return span

    def __len__(self) -> int:
        return len(self._ring)  # len() is atomic under the GIL

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
            ((f"{i:012d}", s.to_wire()) for i, s in enumerate(self.spans())),
        )

    def load_from(self, store: "StateStore") -> int:
        """Replace the span store from ``observability.tracing``.

        Returns the number of spans restored; live task/job traces re-link
        to them by id through :meth:`update`.  Nothing lands on any active
        stack — restored spans are data, not open work on this thread —
        and a :class:`SpanRef` opened before the restore no longer writes.
        """
        from repro.store.registry import OBSERVABILITY_TRACING

        fields = [
            (
                row["name"], row["trace_id"], self.id_number(row["span_id"]), row["parent_id"],
                row["start"], row["end"], row["status"], *payload(row["attributes"]),
            )
            for _, row in store.items(OBSERVABILITY_TRACING)
        ]
        with self._lock:
            self._ring.replace(fields, self._ring.appended + len(fields))
            return len(self._ring)


class _SpanHandle:
    __slots__ = ("_tracer", "_name", "_trace_id", "_parent", "_attributes", "span")

    def __init__(self, tracer, name, trace_id, parent, attributes) -> None:
        self._tracer = tracer
        self._name = name
        self._trace_id = trace_id
        self._parent = parent
        self._attributes = attributes
        self.span: Optional[SpanRef] = None

    def __enter__(self) -> SpanRef:
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
    are ordered by start time, then by their order in *spans* (a tracer's
    and an export's are creation order); orphans (parent outside the
    slice, e.g. evicted from the bounded store) are promoted to roots.
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
        kids.sort(key=lambda s: s["start"])  # stable: ties keep creation order

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
