"""The simulation clock and event loop.

:class:`Simulator` owns a :class:`~repro.gridsim.events.EventQueue` and a
:class:`SimClock` and exposes the three operations every other module builds
on: ``schedule`` (relative), ``at`` (absolute) and ``run_until``/``run``.

Periodic activities use :meth:`Simulator.every`, which re-arms itself until
the returned :class:`PeriodicHandle` is cancelled.  A ``name`` registers the
cadence with the simulator, which reports its :meth:`~Simulator.phase` for a
checkpoint and, in a restore's :meth:`~Simulator.rejoin` block, arms it at
the recorded phase: the one rule by which every cadence survives a restart.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Mapping, Optional

from repro.gridsim.events import EventHandle, EventQueue, SimulationError, TraceEntry


class SimClock:
    """Monotonic simulated-time clock.

    Time is a float number of seconds since the start of the simulation.
    Only the owning :class:`Simulator` may advance it.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        #: Listeners called with the new time whenever the clock actually
        #: moves forward (the read-cache "clock" epoch hangs off this).
        self.on_advance: List[Callable[[float], None]] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def _advance_to(self, t: float) -> None:
        if t < self._now:
            raise SimulationError(
                f"clock may not move backwards ({t:.6g} < {self._now:.6g})"
            )
        if t > self._now:
            self._now = t
            for listener in self.on_advance:
                listener(t)
        else:
            self._now = t

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimClock(now={self._now:.6g})"


class PeriodicHandle:
    """Controls a repeating activity created with :meth:`Simulator.every`."""

    __slots__ = ("_current", "_cancelled")

    def __init__(self) -> None:
        self._current: Optional[EventHandle] = None
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def next_time(self) -> Optional[float]:
        """Fire time of the pending occurrence (``None`` once cancelled)."""
        if self._cancelled or self._current is None:
            return None
        return self._current.time

    def cancel(self) -> None:
        """Stop the periodic activity; the pending firing is cancelled too."""
        self._cancelled = True
        if self._current is not None:
            self._current.cancel()


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    start:
        Initial clock value (seconds).
    trace:
        When true, every executed event is appended to :attr:`trace_log`,
        which integration tests use to assert exact interleavings.
    """

    def __init__(self, start: float = 0.0, trace: bool = False) -> None:
        self.clock = SimClock(start)
        self.queue = EventQueue()
        self.trace_enabled = trace
        self.trace_log: List[TraceEntry] = []
        self._running = False
        self._executed = 0
        #: Named cadences; inside a :meth:`rejoin` block, its phases not
        #: yet taken and the first firings it queues on exit.
        self._cadences: Dict[str, PeriodicHandle] = {}
        self._recorded: Dict[str, float] = {}
        self._rejoining: Optional[List[tuple]] = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    @property
    def executed_events(self) -> int:
        """Number of events executed so far."""
        return self._executed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self.queue)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> EventHandle:
        """Schedule *action* to run *delay* seconds from now.

        ``delay`` must be non-negative; zero-delay events run after every
        event already scheduled for the current instant.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.queue.push(self.now + delay, action, label)

    def at(self, time: float, action: Callable[[], None], label: str = "") -> EventHandle:
        """Schedule *action* at absolute simulated *time* (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past (t={time:.6g} < now={self.now:.6g})"
            )
        return self.queue.push(time, action, label)

    def every(
        self,
        interval: float,
        action: Callable[[], None],
        label: str = "",
        first_delay: Optional[float] = None,
        first_at: Optional[float] = None,
        name: Optional[str] = None,
    ) -> PeriodicHandle:
        """Run *action* every *interval* seconds until cancelled.

        The first firing happens after ``first_delay`` (defaults to
        ``interval``) seconds, or at the absolute time ``first_at`` (at
        once if that has passed) — how a restored owner re-joins the
        cadence its checkpoint recorded.  The action runs *before* the
        next firing is armed, so an action that cancels the handle stops
        the cycle cleanly.

        A *name* (also the default *label*) registers the cadence: arming
        a name that is armed raises :class:`SimulationError`, and a phase
        :meth:`rejoin` recorded for the name is taken as ``first_at``.
        """
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval!r}")
        if name is not None:
            if self.armed(name):
                raise SimulationError(f"periodic {name!r} is already armed")
            first_at = self._recorded.pop(name, first_at)
            label = label or name
        if first_at is not None:
            first = max(first_at, self.now)
        else:
            first = self.now + (interval if first_delay is None else first_delay)
        handle = PeriodicHandle()

        def fire() -> None:
            if handle._cancelled:
                return
            action()
            if not handle._cancelled:
                handle._current = self.schedule(interval, fire, label)

        if self._rejoining is None:
            handle._current = self.queue.push(first, fire, label)
        else:
            self._rejoining.append((first, first - interval, fire, label, handle))
        if name is not None:
            self._cadences[name] = handle
        return handle

    def armed(self, name: str) -> bool:
        """Whether the cadence *name* is armed (and not cancelled)."""
        handle = self._cadences.get(name)
        return handle is not None and not handle.cancelled

    def phase(self, name: str) -> Optional[float]:
        """When the cadence *name* fires next (armed, or a phase the
        :meth:`rejoin` block holds for it), else ``None``."""
        if self.armed(name):
            return self._cadences[name].next_time
        return self._recorded.get(name)

    def cancel(self, name: str) -> None:
        """Cancel the cadence *name* and free the name (idempotent)."""
        handle = self._cadences.pop(name, None)
        if handle is not None:
            handle.cancel()

    @contextmanager
    def rejoin(self, phases: Mapping[str, Optional[float]]) -> Iterator[None]:
        """Inside the block each recorded phase (``None``: not armed) is
        the ``first_at`` of its name's :meth:`every`.  The block's first
        firings queue on exit as the original queue held them — by fire
        time, then previous firing (when it was armed), then arming order
        — so cadences due at one instant fire in the original's order."""
        self._recorded = {n: at for n, at in phases.items() if at is not None}
        self._rejoining = []
        try:
            yield
        finally:
            deferred = sorted(self._rejoining, key=lambda item: item[:2])
            self._recorded, self._rejoining = {}, None
            for first, _, fire, label, handle in deferred:
                handle._current = self.queue.push(first, fire, label)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the single next event.  Returns False if none remain."""
        head = self.queue.peek()
        if head is None:
            return False
        self.queue.pop()
        self.clock._advance_to(head.time)
        if self.trace_enabled:
            self.trace_log.append(TraceEntry(time=head.time, seq=head.seq, label=head.label))
        self._executed += 1
        head.action()
        return True

    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        """Run events with timestamps <= *time*; returns events executed.

        The clock lands exactly on *time* afterwards even if the last event
        fired earlier, so callers can interleave ``run_until`` with direct
        state inspection at known instants.
        """
        if time < self.now:
            raise SimulationError(
                f"run_until target {time:.6g} is in the past (now={self.now:.6g})"
            )
        executed = 0
        while True:
            if max_events is not None and executed >= max_events:
                break
            head = self.queue.peek()
            if head is None or head.time > time:
                break
            self.step()
            executed += 1
        self.clock._advance_to(time)
        return executed

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until the event queue drains; returns events executed.

        ``max_events`` is a runaway guard: exceeding it raises
        :class:`SimulationError` instead of looping forever (e.g. when a
        periodic activity was never cancelled).
        """
        executed = 0
        while self.step():
            executed += 1
            if executed >= max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events; "
                    "did a periodic activity never get cancelled?"
                )
        return executed
