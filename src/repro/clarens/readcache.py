"""Epoch-keyed read-path caching for the Clarens RPC surface.

The GAE's services are read-dominated: clients and the steering Optimizer
poll ``job_status``, queue positions, and runtime/queue estimates far more
often than state actually changes.  Following the MonALISA cached-snapshot
serving model, repeat reads are served from **versioned snapshots that are
invalidated by state-change events, not TTLs**:

- every mutating subsystem (simulation clock, scheduler, per-site Condor
  pools, monitoring DB, task history, at-submission estimates, accounting,
  MonALISA) bumps a named **epoch counter** in an :class:`EpochRegistry`
  whenever its state changes (see :func:`wire_epochs`);
- read methods declare, at registration time, which epochs their answer
  depends on (``@clarens_method(cache=ReadPolicy(depends_on=(...)))``);
- the host's call path (:meth:`repro.clarens.server.ClarensHost.call`),
  right after authentication and the ACL, serves a repeat call whose
  ``(method, canonical-args, epoch-vector)`` key is unchanged straight
  from the :class:`ReadCache` (the caller joins the args of a method that
  is passed one).  Faults are never cached; a hit is recorded as
  ``served_from="cache"``.

Because a cached entry is the *post-marshalling* wire value stored under
the exact epoch vector it was computed at, a hit is **bit-identical** to
what re-executing the method would have produced: any state change that
could alter the answer bumps a depended-on epoch, which changes the key
and forces re-execution.  There is no staleness window.

Cached wire values are shared, not copied — both transports already copy
on receipt (``from_wire`` rebuilds every container) and marshalled results
are treated as immutable everywhere in this codebase.

The same cache also backs **request coalescing**: ``system.multicall``
deduplicates identical read-policy sub-calls within one batch (executing
once, answering many).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # annotation only: importing the package here closes an import cycle
    from repro.observability.metrics import MetricsRegistry

__all__ = [
    "CANONICAL_EPOCHS",
    "EpochRegistry",
    "ReadCache",
    "ReadPolicy",
    "canonical_args",
    "wire_epochs",
]

#: The canonical epoch taxonomy the full GAE wiring registers
#: (:func:`wire_epochs`).  ``tools/check_docs.py`` verifies every name is
#: documented in docs/ARCHITECTURE.md's epoch table.  ``pool:<site>`` is a
#: per-site family: one epoch per execution site, named ``pool:siteA`` etc.
CANONICAL_EPOCHS: Tuple[Tuple[str, str], ...] = (
    ("clock", "simulated time advanced (elapsed runtimes may differ)"),
    ("scheduler", "job planned/submitted/completed or staging progressed"),
    ("pool:<site>", "a site pool's job ads changed (state, priority, flock)"),
    ("monitoring", "monitoring DB upserted a task record"),
    ("history", "a completed-task record entered the estimator history"),
    ("estimates", "an at-submission runtime estimate was recorded"),
    ("accounting", "a quota was set, reserved, committed, or released"),
    ("monalisa", "a metric sample or job-state event was published"),
)


class EpochRegistry:
    """Named, monotonically increasing epoch counters (thread-safe).

    An epoch is bumped by its owning subsystem on every state change; a
    read's cache key embeds the current values of every epoch it depends
    on, so bumping any of them invalidates the cached answer by key
    mismatch.  Registering a new epoch (e.g. a site joining) also changes
    every wildcard-expanded vector, conservatively invalidating dependents.
    """

    def __init__(self) -> None:
        self._epochs: Dict[str, int] = {}
        self._lock = threading.Lock()
        # name-prefix -> sorted matching names, rebuilt when the name set
        # changes; lets vector() expand "pool:*" without rescanning.
        self._prefix_cache: Dict[str, Tuple[str, ...]] = {}

    def register(self, name: str) -> None:
        """Ensure *name* exists (at 0).  Idempotent."""
        with self._lock:
            if name not in self._epochs:
                self._epochs[name] = 0
                self._prefix_cache.clear()

    def bump(self, name: str) -> int:
        """Increment an epoch (auto-registering it); returns the new value."""
        with self._lock:
            value = self._epochs.get(name)
            if value is None:
                self._prefix_cache.clear()
                value = 0
            self._epochs[name] = value + 1
            return value + 1

    def bumper(self, name: str) -> Callable[..., None]:
        """A listener-friendly closure that bumps *name*, ignoring arguments.

        Registers the epoch immediately so introspection sees it before the
        first event fires.
        """
        self.register(name)

        def bump(*_args: Any, **_kwargs: Any) -> None:
            self.bump(name)

        return bump

    def get(self, name: str) -> int:
        """Current value of an epoch (0 when never registered)."""
        with self._lock:
            return self._epochs.get(name, 0)

    def names(self) -> List[str]:
        """Every registered epoch name, sorted."""
        with self._lock:
            return sorted(self._epochs)

    def snapshot(self) -> Dict[str, int]:
        """All epochs as a plain dict (wire-safe)."""
        with self._lock:
            return dict(self._epochs)

    def vector(self, depends_on: Sequence[str]) -> Tuple[int, ...]:
        """The current values of the named epochs, as a hashable tuple.

        A name ending in ``*`` expands to every registered epoch with that
        prefix, in sorted name order — ``pool:*`` covers all site pools.
        Unregistered exact names read as 0 (they invalidate correctly once
        the subsystem registers and starts bumping).
        """
        with self._lock:
            out: List[int] = []
            for name in depends_on:
                if name.endswith("*"):
                    prefix = name[:-1]
                    matches = self._prefix_cache.get(prefix)
                    if matches is None:
                        matches = tuple(
                            sorted(n for n in self._epochs if n.startswith(prefix))
                        )
                        self._prefix_cache[prefix] = matches
                    # Vector length changes when a new member registers, so
                    # every dependent key conservatively misses.
                    out.extend(self._epochs[n] for n in matches)
                else:
                    out.append(self._epochs.get(name, 0))
            return tuple(out)


@dataclass(frozen=True)
class ReadPolicy:
    """Declares a method read-only and names the epochs its answer reads.

    ``depends_on`` entries are epoch names; a trailing ``*`` is a prefix
    wildcard (``pool:*`` = every site pool).  Over-declaring dependencies
    costs only hit rate; *under*-declaring would serve stale answers, so
    when in doubt a method should depend on more epochs, not fewer.
    """

    depends_on: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.depends_on:
            raise ValueError("ReadPolicy needs at least one epoch dependency")
        for name in self.depends_on:
            if not name or name == "*":
                raise ValueError(f"invalid epoch dependency {name!r}")


_UNCACHEABLE = object()


def canonical_args(params: Sequence[Any]) -> Any:
    """A hashable canonical form of a call's positional parameters.

    Lists/tuples become tuples, dicts become sorted item tuples (all wire
    structs are string-keyed), scalars pass through.  Returns ``None`` for
    parameter sets with no canonical form (unhashable leaves) — the caller
    bypasses the cache for those.
    """
    frozen = _freeze(params)
    return None if frozen is _UNCACHEABLE else frozen


def _freeze(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, (list, tuple)):
        out = []
        for v in value:
            f = _freeze(v)
            if f is _UNCACHEABLE:
                return _UNCACHEABLE
            out.append(f)
        return tuple(out)
    if isinstance(value, dict):
        items = []
        try:
            keys = sorted(value)
        except TypeError:
            return _UNCACHEABLE
        for k in keys:
            f = _freeze(value[k])
            if f is _UNCACHEABLE:
                return _UNCACHEABLE
            items.append((k, f))
        return ("__dict__", tuple(items))
    return _UNCACHEABLE


#: What a lookup (or multicall deduplication) did, as the ``system.cache``
#: ``per_method`` keys and the ``gae_rpc_cache_<kind>_total`` counters.
_KINDS = ("hits", "misses", "invalidations", "coalesced")


class ReadCache:
    """The epoch-keyed result cache behind the host's read-policy calls.

    Entries live under ``(method, canonical-args)`` and remember the epoch
    vector they were computed at; a lookup whose current vector differs is
    an **invalidation** (the entry is dropped and recomputed), so stale
    results never accumulate.  Capacity is bounded by LRU eviction.  The
    counts live in *metrics* (the host's registry) and nowhere else.
    """

    _MISS = object()

    def __init__(
        self,
        epochs: EpochRegistry,
        metrics: MetricsRegistry,
        capacity: int = 4096,
        enabled: bool = True,
    ) -> None:
        if capacity < 1:
            raise ValueError("read-cache capacity must be positive")
        self.epochs = epochs
        self.capacity = capacity
        self.enabled = enabled
        self._entries: "OrderedDict[Tuple[str, Any], Tuple[Tuple[int, ...], Any]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self._counts = {
            kind: metrics.counter(
                f"gae_rpc_cache_{kind}_total", f"read-cache {kind} by method"
            )
            for kind in _KINDS
        }
        #: method -> {kind: that series, bound}: label keys are built once.
        self._bound: Dict[str, Dict[str, Any]] = {}
        self._evictions = metrics.counter(
            "gae_rpc_cache_evictions_total", "read-cache LRU evictions"
        )

    def _count(self, method: str, kind: str) -> None:
        bound = self._bound.get(method)
        if bound is None:
            bound = self._bound[method] = {
                k: counter.bind(method=method) for k, counter in self._counts.items()
            }
        bound[kind].inc()

    def note_coalesced(self, method: str) -> None:
        """Record that a multicall sub-call was answered by deduplication."""
        self._count(method, "coalesced")

    @property
    def evictions(self) -> int:
        """Entries dropped by the LRU bound so far."""
        return int(self._evictions.total())

    # ------------------------------------------------------------------
    # the cache proper
    # ------------------------------------------------------------------
    def lookup(self, method: str, args_key: Any, vector: Tuple[int, ...]) -> Any:
        """The cached value, or :attr:`ReadCache._MISS`.

        Counts a hit, a miss, or an invalidation (entry present but
        computed under an older epoch vector — dropped here, overwritten
        by the recompute's :meth:`store`).
        """
        key = (method, args_key)
        kind = "misses"
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if entry[0] == vector:
                    self._entries.move_to_end(key)
                    kind = "hits"
                else:
                    del self._entries[key]
                    kind = "invalidations"
        self._count(method, kind)
        return entry[1] if kind == "hits" else ReadCache._MISS

    def store(self, method: str, args_key: Any, vector: Tuple[int, ...], value: Any) -> None:
        """Remember a freshly computed wire value under its epoch vector."""
        key = (method, args_key)
        with self._lock:
            self._entries[key] = (vector, value)
            self._entries.move_to_end(key)
            evicted = 0
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            self._evictions.inc(evicted)

    def clear(self) -> int:
        """Drop every entry; returns how many were held."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> Dict[str, Any]:
        """Wire-safe introspection struct (the ``system.cache`` payload)."""
        per_method: Dict[str, Dict[str, int]] = {}
        for kind, counter in self._counts.items():
            for labels, value in counter.series():
                counts = per_method.setdefault(labels["method"], dict.fromkeys(_KINDS, 0))
                counts[kind] = int(value)
        return {
            "enabled": self.enabled,
            "capacity": self.capacity,
            "entries": len(self),
            "evictions": self.evictions,
            "per_method": per_method,
            "epochs": self.epochs.snapshot(),
        }


# ----------------------------------------------------------------------
# epoch wiring
# ----------------------------------------------------------------------
def wire_epochs(
    epochs: EpochRegistry,
    *,
    sim: Any = None,
    scheduler: Any = None,
    pools: Optional[Dict[str, Any]] = None,
    db_manager: Any = None,
    history: Any = None,
    estimate_db: Any = None,
    quotas: Any = None,
    monalisa: Any = None,
) -> EpochRegistry:
    """Subscribe epoch bumps to every mutating subsystem's event seams.

    Everything is optional so partial rigs (a bare host in a unit test)
    can wire just what they have.  The epoch names are the canonical
    taxonomy in :data:`CANONICAL_EPOCHS`; per-site pool epochs are named
    ``pool:<site>``.  Duck-typed on the listener seams each subsystem
    already exposes, so this module needs no imports from the rest of the
    GAE.
    """
    if sim is not None:
        # Any clock advance can change elapsed runtimes (and everything
        # derived from them), even when no event fired — run_until lands
        # the clock on its target regardless.
        sim.clock.on_advance.append(epochs.bumper("clock"))
    if scheduler is not None:
        bump = epochs.bumper("scheduler")
        scheduler.plan_listeners.append(bump)
        scheduler.submission_listeners.append(bump)
        scheduler.completion_listeners.append(bump)
        scheduler.staging_listeners.append(bump)
    for name, pool in sorted((pools or {}).items()):
        bump = epochs.bumper(f"pool:{name}")
        pool.on_state_change.append(bump)
        pool.on_complete.append(bump)
        pool.on_failed.append(bump)
        pool.on_forwarded.append(bump)
    if db_manager is not None:
        db_manager.update_listeners.append(epochs.bumper("monitoring"))
    if history is not None:
        history.listeners.append(epochs.bumper("history"))
    if estimate_db is not None:
        estimate_db.subscribe(epochs.bumper("estimates"))
    if quotas is not None:
        quotas.listeners.append(epochs.bumper("accounting"))
    if monalisa is not None:
        bump = epochs.bumper("monalisa")
        monalisa.subscribe_metrics(bump)
        monalisa.subscribe_job_states(bump)
    return epochs
