"""GAE-wide checkpoint/restore: one file format, one path each way.

A checkpoint is one SQLite file (written through a file-backed
:class:`~repro.store.base.StateStore`) taken at a *barrier event* — a
scheduled simulation instant, so the snapshot runs between events while
the system is quiescent.  Every file holds

- ``checkpoint.meta``: format, barrier time, grid spec (the seed and the
  encoded :class:`~repro.config.GridConfig`), id counters,
  policy, build parameters, users, the journal ``head_seq`` at the
  barrier and ``base_seq`` (below);
- the *runtime state*: scheduler (jobs and their plan histories), pools,
  catalog, RNG streams, periodic phases, Backup & Recovery, accounting,
  spans, metric values, telemetry;
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

:func:`restore_gae` rebuilds the grid from its declaration, rewires
a fresh GAE through :func:`repro.gae.build_gae`, and rehydrates every
layer *without firing listeners*: a restore replays state, not events.
The restored system's estimator answers, monitoring answers, MonALISA
series, Backup & Recovery failed-set, and ``system.observability``
report are identical to the pre-snapshot system at the checkpoint
instant, and running it to completion finishes every in-flight job.
Restoring only reads: the checkpoint files are loaded into memory
through :func:`~repro.store.base.read_store_file` and never opened for
writing.

Restore ordering matters and is documented inline; the broad strokes:

1. id counters and RNG streams first (nothing may draw before they are
   re-seeded),
2. the grid substrate from its declaration, clock started at the
   checkpoint time,
3. ``build_gae`` with the saved build parameters and policy,
4. store-backed layers (every journal consumer's ``load``, the journal),
   then the quiet journal-tail replay that brings consumer state to the
   barrier,
5. scheduler entries and their plan histories, then pools (ads resolve
   task ids against the restored jobs), then incremental queue accounting
   reseeded from the restored queues,
6. Backup & Recovery and accounting state,
7. :meth:`repro.gae.GAE.start` inside the simulator's ``rejoin`` block
   over the ``publishers`` phases: each named cadence and the telemetry
   tick re-arm at their recorded phase, in the original's order.
"""

from __future__ import annotations

import contextlib
import inspect
import sqlite3
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional, Tuple

from repro.declare import decode, encode
from repro.events.core import CONSUMER_NAMESPACES
from repro.gridsim.condor import CondorError
from repro.gridsim.scheduler import SchedulingError
from repro.store.base import StateStore, StoreError, read_store_file
from repro.store.registry import (
    ACCOUNTING_STATE,
    CHECKPOINT_GRIDSIM,
    CHECKPOINT_META,
    OBSERVABILITY_JOURNAL,
    STEERING_STATE,
    register_all,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import GridConfig
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

#: Builder-only keys an older checkpoint's ``grid_spec`` may still record,
#: read and dropped as :data:`RETIRED_BUILD_PARAMS` are (``load_profile``
#: is a key of each site).  Its ``start_time`` is dropped whatever it
#: holds: a restore has always started the clock at the barrier instead.
RETIRED_GRID_KEYS: Dict[str, Any] = {"trace": False, "output_file_size_mb": 1.0}
RETIRED_SITE_KEYS: Dict[str, Any] = {"load_profile": None}

#: The named simulator cadences whose phases (``None``: not armed) the
#: ``publishers`` record holds.
PHASES = ("site_load", "steering_loop", "backup_recovery", "monitor_snapshots")

#: Periodic phases an older checkpoint's ``publishers`` record may still
#: hold for an activity this build no longer runs; read and dropped.
RETIRED_PHASES = ("service_metrics",)

#: An older checkpoint's plan histories (its scheduler row records only each
#: job's ``plan``): read, checked to end at that plan, and dropped.
RETIRED_PLAN_ROW = (STEERING_STATE, "subscriber")


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
        with StateStore(path) as store:
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
        """Write every layer's state into *store* (in memory or on file).

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
                "grid_spec": {"seed": grid.rngs.seed, **encode(grid.config)},
                "id_counters": list(snapshot_id_counters()),
                "policy": encode(gae.steering.policy),
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
        # cadence, so a resumed run fires each one at the same instants
        # the uninterrupted run would have.
        store.put(
            CHECKPOINT_GRIDSIM,
            "publishers",
            {name: gae.sim.phase(name) for name in PHASES},
        )

        # Backup & Recovery and accounting.
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
    readable checkpoint or of another format, a grid or policy the
    declaration codec refuses (every field recorded, none unknown; the
    retired keys of :data:`RETIRED_GRID_KEYS` and
    :data:`RETIRED_SITE_KEYS` at their constants), build parameters this
    ``build_gae`` cannot reproduce (:data:`RETIRED_BUILD_PARAMS`), a
    ``publishers`` record that lacks a periodic phase or names one this
    build does not run (:data:`RETIRED_PHASES` aside), a gridsim, steering
    or accounting row this build cannot apply (named ``namespace/key``; a
    :data:`RETIRED_PLAN_ROW` that disagrees with the scheduler row among
    them), a continuation given no base (or a self-contained file given
    one), and a base that is itself a continuation or whose head is not
    the one *path* was cut against.
    """
    path = str(path)
    with contextlib.ExitStack() as opened:
        source, meta = _read(path, opened)
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
            merged, base_meta = _read(base, opened)
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


def _read(path: str, opened: contextlib.ExitStack) -> Tuple[StateStore, Dict[str, Any]]:
    """The checkpoint file at *path*, in memory (closed with *opened*), and
    its validated meta."""
    try:
        source = opened.enter_context(read_store_file(path))
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


def _retire(path: str, where: str, recorded: Any, retired: Dict[str, Any]) -> Any:
    """*recorded* without the *retired* keys holding their constant; a
    retired key holding anything else is refused, named after *where*.
    A value that is no dict is left for the codec to refuse."""
    if not isinstance(recorded, dict):
        return recorded
    kept = dict(recorded)
    for key, constant in retired.items():
        if key in kept and kept.pop(key) != constant:
            raise CheckpointError(
                f"{path!r}: {where}{key}={recorded[key]!r} cannot be "
                f"rebuilt (this build always wires {constant!r})"
            )
    return kept


def _build_params(path: str, recorded: Dict[str, Any]) -> Dict[str, Any]:
    """The recorded ``build_params`` as keywords this ``build_gae`` takes:
    retired keys holding their constant dropped, anything else refused."""
    from repro.gae import build_gae

    params = _retire(path, "build_params ", recorded, RETIRED_BUILD_PARAMS)
    # restore passes the grid, policy and store itself.
    taken = set(inspect.signature(build_gae).parameters) - {"grid", "policy", "store"}
    unknown = sorted(set(params) - taken)
    if unknown:
        raise CheckpointError(
            f"{path!r}: build_params names {', '.join(unknown)}, "
            "which build_gae does not take"
        )
    return params


def _grid(path: str, recorded: Any) -> Tuple[int, "GridConfig"]:
    """The recorded ``grid_spec`` as its seed and grid declaration, read
    by the declaration codec after the retired builder keys are dropped."""
    from repro.config import GridConfig

    spec = _retire(path, "grid_spec.", recorded, RETIRED_GRID_KEYS)
    seed = spec.pop("seed", None) if isinstance(spec, dict) else None
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise CheckpointError(f"{path!r}: grid_spec.seed: expected an integer, got {seed!r}")
    spec.pop("start_time", None)
    if isinstance(spec.get("sites"), list):
        spec["sites"] = [
            _retire(path, f"grid_spec.sites[{i}].", site, RETIRED_SITE_KEYS)
            for i, site in enumerate(spec["sites"])
        ]
    return seed, decode(GridConfig, spec, f"{path!r}: grid_spec", CheckpointError, defaults=False)


def _phases(path: str, recorded: Dict[str, Any]) -> Dict[str, Any]:
    """The recorded ``publishers`` phases, retired ones dropped: one per
    name in :data:`PHASES`, or a :class:`CheckpointError` naming the odd key."""
    phases = {name: at for name, at in recorded.items() if name not in RETIRED_PHASES}
    missing = sorted(set(PHASES) - set(phases))
    if missing:
        raise CheckpointError(
            f"{path!r}: the publishers record lacks {', '.join(missing)}"
        )
    unknown = sorted(set(phases) - set(PHASES))
    if unknown:
        raise CheckpointError(
            f"{path!r}: the publishers record names {', '.join(unknown)}, "
            "which this build does not run"
        )
    return phases


@contextlib.contextmanager
def _row(
    path: str, source: StateStore, namespace: str, key: str, *default: Any
) -> Iterator[Any]:
    """*source*'s ``namespace/key`` row (or *default*), for the block that
    applies it.  A row that is missing, or that the block cannot apply, is
    a :class:`CheckpointError` naming *path* and the row."""
    try:
        yield source.get(namespace, key, *default)
    except (
        LookupError, TypeError, ValueError, AttributeError, CondorError, SchedulingError
    ) as exc:
        raise CheckpointError(
            f"{path!r}: {namespace}/{key} cannot be restored: {type(exc).__name__}: {exc}"
        ) from exc


def _plan_histories(path: str, state: Dict[str, Any], retired: Dict[str, Any]) -> Dict[str, Any]:
    """The scheduler row *state*, every job holding its ``plan_history``:
    an older file's jobs record only their ``plan``, and *retired* (job id
    -> history, off :data:`RETIRED_PLAN_ROW`) must end at it for each."""
    if not retired:
        return state
    where = "/".join(RETIRED_PLAN_ROW)
    for wire in state["jobs"]:
        job_id = wire["job"]["job_id"]
        history = retired.pop(job_id, None) or [None]
        if history[-1] != wire.pop("plan"):
            raise CheckpointError(
                f"{path!r}: {where}: the plan history of {job_id!r} does not "
                "end at the scheduler row's plan"
            )
        wire["plan_history"] = history
    if retired:
        raise CheckpointError(
            f"{path!r}: {where}: names {', '.join(sorted(retired))}, "
            "which the scheduler row does not hold"
        )
    return state


def _restore(
    path: str, meta: Dict[str, Any], source: StateStore, store: Optional[StateStore]
) -> "GAE":
    """Rebuild *path*'s GAE from *source*, which holds every namespace."""
    from repro.core.steering.optimizer import SteeringPolicy
    from repro.gae import build_gae
    from repro.gridsim.grid import build_grid
    from repro.gridsim.job import restore_id_counters

    # The declarations first: a refused one changes nothing.
    seed, config = _grid(path, meta["grid_spec"])
    policy = decode(
        SteeringPolicy, meta["policy"], f"{path!r}: policy", CheckpointError, defaults=False
    )

    # 1. Allocators and streams before anything may draw from them.
    restore_id_counters(*meta["id_counters"])

    # 2. The substrate, clock starting at the barrier instant.
    grid = build_grid(config, seed=seed, start_time=meta["time"])
    with _row(path, source, CHECKPOINT_GRIDSIM, "rng") as states:
        grid.rngs.restore_states(states)

    # 3. The same wiring the original had.
    gae = build_gae(grid, policy=policy, store=store, **meta["build_params"])

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
    with _row(path, source, *RETIRED_PLAN_ROW, []) as retired:
        histories = {wire["job_id"]: wire["plan_history"] for wire in retired}
    with _row(path, source, CHECKPOINT_GRIDSIM, "scheduler") as state:
        gae.scheduler.restore_state(_plan_histories(path, state, histories))
    for name in sorted(grid.sites):
        with _row(path, source, CHECKPOINT_GRIDSIM, f"pool:{name}") as state:
            grid.sites[name].pool.restore_state(state, gae.scheduler.task)
    for name in sorted(grid.execution_services):
        accounting = grid.execution_services[name].queue_accounting
        if accounting is not None:
            accounting.reseed()
    with _row(path, source, CHECKPOINT_GRIDSIM, "services") as services:
        for name, failed in services.items():
            grid.execution_services[name].restore_availability(failed)
    with _row(path, source, CHECKPOINT_GRIDSIM, "catalog") as files:
        grid.catalog.restore_files(files)
    with _row(path, source, CHECKPOINT_GRIDSIM, "transfer_cache", None) as cache:
        if cache is not None and gae.estimators.transfer is not None:
            gae.estimators.transfer.import_cache_state(cache)

    # 6. Backup & Recovery and accounting.
    with _row(path, source, STEERING_STATE, "backup_recovery") as state:
        gae.steering.backup_recovery.import_state(state)
    with _row(path, source, ACCOUNTING_STATE, "quotas") as state:
        gae.accounting.quotas.import_state(state)
    gae.host.users.import_state(meta["users"])
    with _row(path, source, CHECKPOINT_GRIDSIM, "publishers", {}) as recorded:
        phases = _phases(path, recorded)

    # Consumers now hold barrier state; re-anchor their baselines so
    # verify()/rebuild() fold only post-restore events.
    gae.events.rebaseline_all()

    # 7. Re-arm the periodic activities on their recorded phases; the
    # caller just runs.
    with gae.sim.rejoin(phases):
        return gae.start()
