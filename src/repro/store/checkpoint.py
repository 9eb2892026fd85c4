"""GAE-wide checkpoint/restore: one file format, one path each way.

A checkpoint is one SQLite file (written through a
:class:`~repro.store.sqlite.SqliteStore`) taken at a *barrier event* — a
scheduled simulation instant, so the snapshot runs between events while
the system is quiescent.  Every file holds

- ``checkpoint.meta``: format, barrier time, grid spec, id counters,
  policy, build parameters, users, the journal ``head_seq`` at the
  barrier and ``base_seq`` (below);
- the *runtime state*: scheduler, pools, catalog, RNG streams, periodic
  phases, steering, accounting, spans, metric values, telemetry;
- *journal rows* (``observability.journal``): what ``gae.events.journal``
  retains — nothing on an ``observability=False`` build;
- optionally the *consumer namespaces* (:data:`CONSUMER_NAMESPACES`) —
  the materialised state of the journal consumers, which are pure folds
  over the journal, written and read back by each consumer's own
  ``save`` / ``load``.

A **self-contained** file (``base_seq`` is ``None``) holds the consumer
namespaces as of its own ``head_seq`` and every retained journal row.  A
**continuation** (``Checkpointer.checkpoint(path, base=...)``) is cut
against a self-contained base: it omits the consumer namespaces, records
the base's head as ``base_seq`` and stores only the journal rows with
``seq > base_seq``, which the journal must still retain.  Restoring is
the same either way — consumer state is loaded from whichever file holds
it and the journal events past the seq that state is valid at are folded
quietly on top; for a self-contained file that tail is empty.

:func:`restore_gae` rebuilds the grid from its declarative spec, rewires
a fresh GAE through :func:`repro.gae.build_gae`, and rehydrates every
layer *without firing listeners*: a restore replays state, not events.
The restored system's estimator answers, monitoring answers, MonALISA
series, Backup & Recovery failed-set, and ``system.observability``
report are identical to the pre-snapshot system at the checkpoint
instant, and running it to completion finishes every in-flight job.
Restoring only reads: the checkpoint files are loaded into memory
through :func:`~repro.store.sqlite.read_store_file` and never opened for
writing.

Restore ordering matters and is documented inline; the broad strokes:

1. id counters and RNG streams first (nothing may draw before they are
   re-seeded),
2. the grid substrate from its spec, clock started at the checkpoint time,
3. ``build_gae`` with the saved build parameters and policy,
4. store-backed layers (every journal consumer's ``load``, the journal),
   then the quiet journal-tail replay that brings consumer state to the
   barrier,
5. scheduler entries, then pools (ads resolve task ids against the
   restored jobs), then incremental queue accounting reseeded from the
   restored queues,
6. steering/accounting state and the publishers' resume phases,
7. the periodic activities re-armed via :meth:`repro.gae.GAE.start`.
"""

from __future__ import annotations

import inspect
import sqlite3
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.events.core import CONSUMER_NAMESPACES
from repro.store.base import StateStore, StoreError
from repro.store.memory import MemoryStore
from repro.store.registry import (
    ACCOUNTING_STATE,
    CHECKPOINT_GRIDSIM,
    CHECKPOINT_META,
    OBSERVABILITY_JOURNAL,
    STEERING_STATE,
    register_all,
)
from repro.store.sqlite import SqliteStore, read_store_file

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gae import GAE
    from repro.gridsim.events import EventHandle

#: Bump when the overall checkpoint layout (not an individual namespace)
#: changes incompatibly.
CHECKPOINT_FORMAT = 2

#: ``build_gae`` keywords an older checkpoint may still record, each with
#: the constant the build now wires in its place.  A file recording that
#: value restores; any other value is a build this one cannot reproduce.
RETIRED_BUILD_PARAMS: Dict[str, Any] = {
    "telemetry": True,
    "record_history": True,
    "service_metrics_period_s": 60.0,
    "transfer_cache_ttl_s": 300.0,
}

#: Periodic phases an older checkpoint's ``publishers`` record may still
#: hold for an activity this build no longer runs; read and dropped.
RETIRED_PHASES = ("service_metrics",)


class CheckpointError(StoreError):
    """Raised for unreadable, incomplete, or incompatible checkpoints."""


@dataclass(frozen=True)
class CheckpointInfo:
    """Summary of a written checkpoint."""

    path: str
    time: float
    jobs: int
    tasks: int
    #: Journal head sequence at the barrier.
    head_seq: int
    #: ``head_seq`` of the base this file continues; ``None`` for a
    #: self-contained checkpoint.
    base_seq: Optional[int] = None


class Checkpointer:
    """Snapshots a running :class:`~repro.gae.GAE` into a state store."""

    def __init__(self, gae: "GAE") -> None:
        self.gae = gae
        #: The most recent :meth:`checkpoint` result; lets callers of
        #: :meth:`checkpoint_at` read the outcome after the event fires.
        self.last_info: Optional[CheckpointInfo] = None
        # path -> head_seq of every self-contained file written so far:
        # the bases a continuation may name.
        self._bases: Dict[str, int] = {}

    def checkpoint(self, path: str, *, base: Optional[str] = None) -> CheckpointInfo:
        """Write a checkpoint to the SQLite file at *path*.

        With *base* — the path of a self-contained checkpoint this
        instance wrote earlier — the file is a continuation of it (see
        the module docstring); restore it with
        ``restore_gae(path, base=base)``.

        Raises :class:`CheckpointError` when *base* names no such
        checkpoint, and for the conditions :meth:`write_state` checks.
        """
        path = str(path)
        base_seq = None
        if base is not None:
            base_seq = self._bases.get(str(base))
            if base_seq is None:
                raise CheckpointError(
                    f"no base for {path!r}: {str(base)!r} is not a "
                    "self-contained checkpoint written by this Checkpointer"
                )
            self._require_tail(base_seq)  # before the file is created
        with SqliteStore(path) as store:
            self.write_state(store, base_seq=base_seq)
        head_seq = self.gae.events.journal.head_seq
        if base is None:
            self._bases[path] = head_seq
        jobs = self.gae.scheduler.jobs()
        self.last_info = CheckpointInfo(
            path=path,
            time=self.gae.sim.now,
            jobs=len(jobs),
            tasks=sum(len(j.tasks) for j in jobs),
            head_seq=head_seq,
            base_seq=base_seq,
        )
        return self.last_info

    def checkpoint_at(
        self, time: float, path: str, *, base: Optional[str] = None
    ) -> "EventHandle":
        """Schedule :meth:`checkpoint` as a barrier event at simulated *time*.

        The snapshot runs between other events at that instant, so it
        observes a quiescent system — exactly what a kill-and-restore
        test interrupts.
        """
        return self.gae.sim.at(
            time,
            lambda: self.checkpoint(path, base=base),
            label=f"gae.checkpoint:{path}",
        )

    def _require_tail(self, base_seq: int) -> None:
        journal = self.gae.events.journal
        if not journal.covers(base_seq):
            raise CheckpointError(
                f"journal retention ({journal.capacity} rows, head {journal.head_seq}) "
                f"no longer reaches base {base_seq}: checkpoint against a later base"
            )

    def write_state(self, store: StateStore, *, base_seq: Optional[int] = None) -> None:
        """Write every layer's state into *store* (any backend).

        With *base_seq* — the journal head of a self-contained base — the
        consumer namespaces are left out and only journal rows past
        *base_seq* are written.  That needs a retained window that still
        reaches the base; :class:`CheckpointError` otherwise.
        """
        from repro.gridsim.job import snapshot_id_counters

        gae = self.gae
        grid = gae.grid
        obs = gae.observability
        journal = gae.events.journal
        if base_seq is not None:
            self._require_tail(base_seq)
        register_all(store)
        store.put(
            CHECKPOINT_META,
            "meta",
            {
                "format": CHECKPOINT_FORMAT,
                "time": gae.sim.now,
                "grid_spec": grid.spec,
                "id_counters": list(snapshot_id_counters()),
                "policy": asdict(gae.steering.policy),
                "build_params": dict(gae.build_params),
                "observability_tracking": (
                    obs.export_tracking() if obs is not None else None
                ),
                "users": gae.host.users.export_state(),
                "head_seq": journal.head_seq,
                "base_seq": base_seq,
            },
        )

        # Consumer state, unless the base holds it; then the journal (the
        # rows past the base) and the observability layer.
        if base_seq is None:
            for consumer in gae.events.consumers.values():
                consumer.save(store)
        journal.save_to(store, since=-1 if base_seq is None else base_seq)
        if obs is not None:
            obs.save_to(store)

        # The gridsim substrate.  Pool snapshots sync running accruals to
        # the barrier instant themselves.
        store.put(CHECKPOINT_GRIDSIM, "scheduler", gae.scheduler.snapshot_state())
        for name in sorted(grid.sites):
            store.put(
                CHECKPOINT_GRIDSIM,
                f"pool:{name}",
                grid.sites[name].pool.snapshot_state(),
            )
        store.put(CHECKPOINT_GRIDSIM, "catalog", grid.catalog.snapshot_files())
        if gae.estimators.transfer is not None:
            store.put(
                CHECKPOINT_GRIDSIM,
                "transfer_cache",
                gae.estimators.transfer.export_cache_state(),
            )
        store.put(CHECKPOINT_GRIDSIM, "rng", grid.rngs.export_states())
        store.put(
            CHECKPOINT_GRIDSIM,
            "services",
            {
                name: grid.execution_services[name].failed
                for name in sorted(grid.execution_services)
            },
        )
        # Periodic-activity phases: a restore re-joins every original
        # cadence, so a resumed run fires the load publisher, the steering
        # poll, the B&R sweep, and monitoring snapshots at the same
        # instants the uninterrupted run would have.
        store.put(
            CHECKPOINT_GRIDSIM,
            "publishers",
            {name: activity.next_fire_time for name, activity in _periodic(gae).items()},
        )

        # Steering and accounting.
        store.put(STEERING_STATE, "subscriber", gae.steering.subscriber.export_state())
        store.put(
            STEERING_STATE,
            "backup_recovery",
            gae.steering.backup_recovery.export_state(),
        )
        store.put(ACCOUNTING_STATE, "quotas", gae.accounting.quotas.export_state())


def restore_gae(
    path: str, *, base: Optional[str] = None, store: Optional[StateStore] = None
) -> "GAE":
    """Rehydrate a runnable :class:`~repro.gae.GAE` from a checkpoint.

    A continuation needs *base*, the self-contained checkpoint it was cut
    against: consumer state and the older journal rows come from there,
    everything else from *path*.  *store* becomes the restored system's
    live state store (a fresh in-memory store when omitted).  Neither
    file is written to, so either can be restored from repeatedly.  The
    returned GAE's periodic activities are armed; ``gae.sim.run()``
    resumes the workload.

    Raises :class:`CheckpointError` for a file that is missing, not a
    readable checkpoint or of another format, build parameters this
    ``build_gae`` cannot reproduce (:data:`RETIRED_BUILD_PARAMS`), a
    ``publishers`` record that lacks a periodic phase or names one this
    build does not run (:data:`RETIRED_PHASES` aside), a continuation
    given no base (or a self-contained file given one), and a
    base that is itself a continuation or whose head is not the one *path*
    was cut against.
    """
    path = str(path)
    source, meta = _read(path)
    base_seq = meta["base_seq"]
    if base_seq is None and base is not None:
        raise CheckpointError(
            f"{path!r} is self-contained: it has no base, but {str(base)!r} was given"
        )
    if base_seq is not None:
        if base is None:
            raise CheckpointError(
                f"{path!r} continues a base checkpoint (journal head "
                f"{base_seq}): pass that file as base="
            )
        base = str(base)
        merged, base_meta = _read(base)
        if base_meta["base_seq"] is not None:
            raise CheckpointError(
                f"{base!r} is itself a continuation: {path!r} must be "
                "restored against a self-contained checkpoint"
            )
        if base_meta["head_seq"] != base_seq:
            raise CheckpointError(
                f"{path!r} was cut against journal head {base_seq} "
                f"but {base!r} stops at {base_meta['head_seq']}"
            )
        # Base + continuation = the self-contained file the barrier would
        # have written: the base's consumer state and journal rows, the
        # continuation's rows after them, everything else the continuation's.
        for ns in source.namespaces():
            if ns.name in CONSUMER_NAMESPACES:
                continue
            if ns.name != OBSERVABILITY_JOURNAL:
                merged.clear(ns.name)
            merged.put_many(ns.name, source.items(ns.name))
        source = merged
    return _restore(path, meta, source, store)


def _read(path: str) -> Tuple[MemoryStore, Dict[str, Any]]:
    """The checkpoint file at *path*, in memory, and its validated meta."""
    try:
        source = read_store_file(path)
        meta = source.get(CHECKPOINT_META, "meta", default=None)
    except (sqlite3.DatabaseError, StoreError, ValueError) as exc:
        raise CheckpointError(
            f"{path!r} is not a readable checkpoint file: {exc}"
        ) from exc
    if meta is None:
        raise CheckpointError(f"{path!r} holds no checkpoint metadata")
    if meta["format"] != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path!r}: checkpoint format {meta['format']} unsupported "
            f"(this build reads format {CHECKPOINT_FORMAT})"
        )
    if meta["head_seq"] is None:  # written by a build that had no journal
        meta["head_seq"] = -1
    meta["build_params"] = _build_params(path, meta["build_params"])
    return source, meta


def _build_params(path: str, recorded: Dict[str, Any]) -> Dict[str, Any]:
    """The recorded ``build_params`` as keywords this ``build_gae`` takes:
    retired keys holding their constant dropped, anything else refused."""
    from repro.gae import build_gae

    params = dict(recorded)
    for key, constant in RETIRED_BUILD_PARAMS.items():
        if key in params and params.pop(key) != constant:
            raise CheckpointError(
                f"{path!r}: build_params {key}={recorded[key]!r} cannot be "
                f"rebuilt (this build always wires {constant!r})"
            )
    # restore passes the grid, policy and store itself.
    taken = set(inspect.signature(build_gae).parameters) - {"grid", "policy", "store"}
    unknown = sorted(set(params) - taken)
    if unknown:
        raise CheckpointError(
            f"{path!r}: build_params names {', '.join(unknown)}, "
            "which build_gae does not take"
        )
    return params


def _periodic(gae: "GAE") -> Dict[str, Any]:
    """Each periodic activity by its ``publishers`` phase name; each has a
    ``next_fire_time`` to save and a ``resume_at`` to restore it into."""
    return {
        "site_load": gae.load_publisher,
        "steering_loop": gae.steering,
        "backup_recovery": gae.steering.backup_recovery,
        "monitor_snapshots": gae.monitoring,
    }


def _phases(path: str, recorded: Dict[str, Any], activities: Dict[str, Any]) -> Dict[str, Any]:
    """The recorded ``publishers`` phases, retired ones dropped: one per
    activity in *activities*, or a :class:`CheckpointError` naming the odd key."""
    phases = {name: at for name, at in recorded.items() if name not in RETIRED_PHASES}
    missing = sorted(set(activities) - set(phases))
    if missing:
        raise CheckpointError(
            f"{path!r}: the publishers record lacks {', '.join(missing)}"
        )
    unknown = sorted(set(phases) - set(activities))
    if unknown:
        raise CheckpointError(
            f"{path!r}: the publishers record names {', '.join(unknown)}, "
            "which this build does not run"
        )
    return phases


def _restore(
    path: str, meta: Dict[str, Any], source: StateStore, store: Optional[StateStore]
) -> "GAE":
    """Rebuild *path*'s GAE from *source*, which holds every namespace."""
    from repro.core.steering.optimizer import SteeringPolicy
    from repro.gae import build_gae
    from repro.gridsim.grid import GridBuilder
    from repro.gridsim.job import restore_id_counters

    # 1. Allocators and streams before anything may draw from them.
    restore_id_counters(*meta["id_counters"])

    # 2. The substrate, clock starting at the barrier instant.
    grid = GridBuilder.from_spec(meta["grid_spec"], start_time=meta["time"]).build()
    grid.rngs.restore_states(source.get(CHECKPOINT_GRIDSIM, "rng"))

    # 3. The same wiring the original had.
    gae = build_gae(
        grid,
        policy=SteeringPolicy(**meta["policy"]),
        store=store,
        **meta["build_params"],
    )

    # 4. Store-backed layers: direct loads, no listener traffic.  The
    # journal tail is folded quietly on top, BEFORE queue accounting
    # reseeds (step 5) so the reseed sees post-tail estimates exactly as
    # the live run did.
    for consumer in gae.events.consumers.values():
        consumer.load(source)
    journal = gae.events.journal
    journal.load_from(source, head_seq=meta["head_seq"])
    if gae.observability is not None:
        gae.observability.load_from(source, tracking=meta["observability_tracking"])
    # Consumer state is valid at the base's head, or — in a
    # self-contained file — at the file's own: an empty tail.
    consumers_at = meta["head_seq"] if meta["base_seq"] is None else meta["base_seq"]
    gae.events.replay_tail(journal.events_since(consumers_at))

    # 5. Scheduler before pools: pool ads resolve task ids against the
    # restored job entries.  Queue accounting reseeds from the restored
    # queues afterwards (its incremental sums saw none of the restores).
    gae.scheduler.restore_state(source.get(CHECKPOINT_GRIDSIM, "scheduler"))
    for name in sorted(grid.sites):
        grid.sites[name].pool.restore_state(
            source.get(CHECKPOINT_GRIDSIM, f"pool:{name}"), gae.scheduler.task
        )
    for name in sorted(grid.execution_services):
        accounting = grid.execution_services[name].queue_accounting
        if accounting is not None:
            accounting.reseed()
    for name, failed in source.get(CHECKPOINT_GRIDSIM, "services").items():
        grid.execution_services[name].restore_availability(failed)
    grid.catalog.restore_files(source.get(CHECKPOINT_GRIDSIM, "catalog"))
    transfer_cache = source.get(CHECKPOINT_GRIDSIM, "transfer_cache", default=None)
    if transfer_cache is not None and gae.estimators.transfer is not None:
        gae.estimators.transfer.import_cache_state(transfer_cache)

    # 6. Steering, accounting, publisher resume phases.
    gae.steering.subscriber.import_state(
        source.get(STEERING_STATE, "subscriber"), gae.scheduler.job
    )
    gae.steering.backup_recovery.import_state(
        source.get(STEERING_STATE, "backup_recovery")
    )
    gae.accounting.quotas.import_state(source.get(ACCOUNTING_STATE, "quotas"))
    gae.host.users.import_state(meta["users"])
    activities = _periodic(gae)
    phases = _phases(path, source.get(CHECKPOINT_GRIDSIM, "publishers", default={}), activities)
    for name, activity in activities.items():
        activity.resume_at = phases[name]

    # Consumers now hold barrier state; re-anchor their baselines so
    # verify()/rebuild() fold only post-restore events.
    gae.events.rebaseline_all()

    # 7. Re-arm the periodic activities; the caller just runs.
    return gae.start()
