"""Property-based tests: event-sourced core fold/replay identity.

Invariants of the journal-first write path, for random workloads,
random fault schedules and random checkpoint barriers:

1. every registered consumer's state is a pure fold over the journal —
   ``rebuild(baseline + tail)`` is bit-identical to the live store at
   any instant the simulation can pause on;
2. restoring a continuation against its base (base snapshot + quiet
   journal-tail replay) answers exactly like restoring a self-contained
   checkpoint of the same barrier, and both match the live answers
   captured at that barrier — they are one restore path and produce one
   system: equal re-checkpointed state, equal run-to-completion results;
3. a continuation file holds exactly the journal tail past its base and
   no consumer namespace;
4. the journal is the write path of every build: an ``observability=False``
   GAE (no tracer, no lifecycle events, nothing retained) ends a run with
   exactly the stores of its instrumented twin;
5. a consumer's fingerprint is exactly its rows of a self-contained
   checkpoint;
6. the journal's lifecycle events alone reconstruct the §6.2 queue-time
   books: ``fold_queue_books`` below, the reference fold production no
   longer runs, equals the live ``QueueAccounting`` at every barrier.
"""

import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clarens.errors import ClarensFault
from repro.events.core import CONSUMER_NAMES
from repro.events.journal import EventType
from repro.gridsim.job import reset_id_counters
from repro.store import StateStore
from repro.store.checkpoint import CONSUMER_NAMESPACES, Checkpointer, restore_gae
from repro.store.registry import CHECKPOINT_META, OBSERVABILITY_JOURNAL
from repro.store.base import read_store_file

from tests.property.test_properties_checkpoint import (
    answers,
    barrier_times,
    build_workload,
    fault_schedules,
    work_lists,
)

# Base barriers strictly before every delta barrier, so a continuation
# always has a self-contained checkpoint to build on.
base_times = st.sampled_from([105.0, 125.0, 145.0])
delta_times = st.sampled_from([185.0, 205.0, 265.0])


_LEAVES_THE_QUEUE = frozenset(
    {
        EventType.STARTED,
        EventType.RESUMED,
        EventType.PAUSED,
        EventType.MOVED,
        EventType.KILLED,
        EventType.FAILED,
        EventType.COMPLETED,
        EventType.FLOCK_FORWARDED,
    }
)


def fold_queue_books(events, fallback_runtime_s):
    """The reference fold of the per-site queue-time books (§6.2) from the
    journal's lifecycle events alone: ``dispatched`` files a task under
    its priority band with ``max(0, estimate - elapsed)`` (the payload
    carries the frozen priority/elapsed), ``priority-changed`` re-files
    it, a late ``estimate-recorded`` refreshes it, and every event that
    takes a task out of the idle queue drops it.  Mirrors the insertion
    order of ``QueueAccounting._upsert`` / ``_discard``.

    Returns ``({site: {band: [(task, contribution), ...]}},
    {(site, band, task) filed without an estimate})``.
    """
    estimates = {}  # task -> at-submission estimate
    queued = {}  # task -> (site, band, elapsed frozen at dispatch)
    books = {}  # site -> band -> {task: contribution}
    missing = set()

    def discard(task_id):
        if task_id not in queued:
            return
        site, band, _ = queued.pop(task_id)
        del books[site][band][task_id]
        missing.discard((site, band, task_id))
        if not books[site][band]:  # an emptied band vanishes
            del books[site][band]

    def upsert(site, task_id, band, elapsed):
        discard(task_id)
        estimated = estimates.get(task_id, fallback_runtime_s)
        entries = books.setdefault(site, {}).setdefault(band, {})
        if estimated is None:
            entries[task_id] = 0.0
            missing.add((site, band, task_id))
        else:
            entries[task_id] = max(0.0, estimated - elapsed)
        queued[task_id] = (site, band, elapsed)

    for event in events:
        task_id, attrs = event.task_id, event.attributes
        if event.type is EventType.ESTIMATE_RECORDED:
            estimates[task_id] = float(attrs["value"])
            if task_id in queued:
                site, band, elapsed = queued[task_id]
                books[site][band][task_id] = max(0.0, estimates[task_id] - elapsed)
                missing.discard((site, band, task_id))
        elif event.type is EventType.DISPATCHED:
            upsert(event.site, task_id, int(attrs["priority"]), float(attrs["elapsed"]))
        elif event.type is EventType.PRIORITY_CHANGED:
            if task_id in queued:  # else nothing is filed to re-file
                site, _, elapsed = queued[task_id]
                upsert(site, task_id, int(attrs["new"]), elapsed)
        elif event.type in _LEAVES_THE_QUEUE:
            discard(task_id)
    return (
        {
            site: {band: list(entries.items()) for band, entries in bands.items()}
            for site, bands in books.items()
            if bands
        },
        missing,
    )


def live_queue_books(gae):
    """The books production keeps, in :func:`fold_queue_books`' shape."""
    books, missing = {}, set()
    for site, service in gae.grid.execution_services.items():
        accounting = service.queue_accounting
        if accounting._bands:
            books[site] = {
                band: list(entries.items()) for band, entries in accounting._bands.items()
            }
        missing |= {
            (site, band, task_id)
            for band, tasks in accounting._missing.items()
            for task_id in tasks
        }
    return books, missing


class TestEventCoreProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        works=work_lists,
        t_stop=barrier_times,
        fault=fault_schedules(),
    )
    @settings(max_examples=10, deadline=None)
    def test_fold_from_journal_matches_live_state(self, seed, works, t_stop, fault):
        """rebuild(journal) == live fingerprint for every consumer."""
        gae, _ = build_workload(seed, works, fault)
        gae.sim.run_until(t_stop)
        reports = gae.observability.eventcore.verify_all()
        assert {r["consumer"] for r in reports} == set(CONSUMER_NAMES)
        for report in reports:
            assert report["covered"], report
            assert report["identical"], report

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        works=work_lists,
        t_stop=barrier_times,
        fault=fault_schedules(),
        observability=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_a_fingerprint_is_the_consumers_checkpoint_rows(
        self, seed, works, t_stop, fault, observability
    ):
        """What ``verify`` compares is exactly what a self-contained
        checkpoint holds in the consumer's namespaces — no second
        serialisation."""
        gae, _ = build_workload(seed, works, fault, observability=observability)
        gae.sim.run_until(t_stop)
        state = StateStore()
        Checkpointer(gae).write_state(state)
        consumers = gae.events.consumers.values()
        for consumer in consumers:
            rows = {ns: state.items(ns) for ns in consumer.namespaces}
            assert any(rows.values()), consumer.name
            assert consumer.fingerprint() == rows, consumer.name
        assert sorted(ns for c in consumers for ns in c.namespaces) == sorted(
            CONSUMER_NAMESPACES
        )

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        works=work_lists,
        fault=fault_schedules(),
    )
    @settings(max_examples=8, deadline=None)
    def test_lifecycle_events_alone_reconstruct_the_queue_books(self, seed, works, fault):
        """At every barrier the §6.2 books folded from the journal equal
        the live ``QueueAccounting`` books, entry for entry in insertion
        order; once every task is terminal both are empty."""
        gae, job = build_workload(seed, works, fault)
        fallback = gae.estimators.queue_time.fallback_runtime_s
        while True:
            folded = fold_queue_books(gae.events.journal.events(), fallback)
            assert folded == live_queue_books(gae), gae.sim.now
            if all(t.state.is_terminal for t in job.tasks):
                break
            assert gae.sim.now < 20_000.0, "workload never finished"
            gae.sim.run_until(gae.sim.now + 35.0)
        assert folded == ({}, set())

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        works=work_lists,
        t_base=base_times,
        t_delta=delta_times,
        fault=fault_schedules(),
    )
    @settings(max_examples=8, deadline=None)
    def test_snapshot_plus_tail_replay_equals_full_replay(
        self, seed, works, t_base, t_delta, fault
    ):
        """Incremental restore == full restore == live barrier answers."""
        with tempfile.TemporaryDirectory() as tmp:
            base = os.path.join(tmp, "base.sqlite")
            delta = os.path.join(tmp, "delta.sqlite")
            full = os.path.join(tmp, "full.sqlite")

            gae, job = build_workload(seed, works, fault)
            incremental_ckpt = Checkpointer(gae)
            incremental_ckpt.checkpoint_at(t_base, base)
            incremental_ckpt.checkpoint_at(t_delta, delta, base=base)
            Checkpointer(gae).checkpoint_at(t_delta, full)

            captured = {}
            gae.sim.at(t_delta, lambda: captured.update(answers(gae, job)))
            gae.sim.run_until(t_delta)

            reset_id_counters()
            restored = restore_gae(delta, base=base)
            restored_answers = answers(restored, restored.scheduler.jobs()[0])
            assert restored_answers == captured
            # The replayed tail must leave the consumers rebuildable too.
            for report in restored.observability.eventcore.verify_all():
                assert report["identical"], report

            reset_id_counters()
            control = restore_gae(full)
            assert answers(control, control.scheduler.jobs()[0]) == captured

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        works=work_lists,
        t_base=base_times,
        t_delta=delta_times,
        fault=fault_schedules(),
    )
    @settings(max_examples=6, deadline=None)
    def test_continuation_and_self_contained_restore_to_one_system(
        self, seed, works, t_base, t_delta, fault
    ):
        with tempfile.TemporaryDirectory() as tmp:
            base = os.path.join(tmp, "base.sqlite")
            delta = os.path.join(tmp, "delta.sqlite")
            full = os.path.join(tmp, "full.sqlite")

            gae, _ = build_workload(seed, works, fault)
            ckpt = Checkpointer(gae)
            ckpt.checkpoint_at(t_base, base)
            ckpt.checkpoint_at(t_delta, delta, base=base)
            Checkpointer(gae).checkpoint_at(t_delta, full)
            gae.sim.run_until(t_delta)

            # The files: a continuation is exactly the tail past its base
            # and no consumer state; a self-contained file has no tail.
            delta_store, full_store = read_store_file(delta), read_store_file(full)
            delta_meta = delta_store.get(CHECKPOINT_META, "meta")
            full_meta = full_store.get(CHECKPOINT_META, "meta")
            base_head = read_store_file(base).get(CHECKPOINT_META, "meta")["head_seq"]
            assert delta_meta["base_seq"] == base_head
            assert delta_meta["head_seq"] == full_meta["head_seq"]
            assert [
                row["seq"] for row in delta_store.values(OBSERVABILITY_JOURNAL)
            ] == list(range(base_head + 1, delta_meta["head_seq"] + 1))
            for ns in CONSUMER_NAMESPACES:
                assert delta_store.count(ns) == 0, ns
            assert full_meta["base_seq"] is None
            assert (
                full_store.values(OBSERVABILITY_JOURNAL)[-1]["seq"]
                == full_meta["head_seq"]
            )

            # The systems: same state, same answers, same future.
            reset_id_counters()
            from_full = observe(restore_gae(full))
            reset_id_counters()
            from_delta = observe(restore_gae(delta, base=base))
            assert from_delta == from_full


steering_verbs = st.lists(
    st.tuples(
        st.sampled_from(["set_priority", "pause", "resume", "kill", "move"]),
        st.integers(min_value=0, max_value=5),  # which task (mod the job's size)
        st.floats(min_value=5.0, max_value=300.0, allow_nan=False),  # when
    ),
    max_size=6,
)


def run_and_dump_stores(observability, seed, works, fault, verbs, snapshot_period_s):
    """Run the workload with the scripted verbs to completion; every
    journal-fed store, every MonALISA series included.

    The job gets one task more than ``works``, which no verb targets: a
    task paused before its first snapshot and never resumed publishes
    nothing, so a script pausing every steered task would otherwise
    leave the comparison empty."""
    gae, job = build_workload(
        seed, list(works) + [50.0], fault,
        observability=observability, monitor_snapshot_period_s=snapshot_period_s,
    )
    steering = gae.client("alice", "pw").service("steering")
    outcomes = []

    def steer(verb, task_id):
        args = (7,) if verb == "set_priority" else ()
        if verb == "move":
            at_b = gae.grid.sites["siteB"].pool.has_task(task_id)
            args = ("siteA" if at_b else "siteB",)
        try:
            outcomes.append(getattr(steering, verb)(task_id, *args))
        except ClarensFault as exc:
            outcomes.append(str(exc))

    for verb, index, when in verbs:
        task_id = job.tasks[index % len(works)].task_id
        gae.sim.at(when, lambda verb=verb, task_id=task_id: steer(verb, task_id))
    gae.sim.run_until(3_000.0)
    gae.stop()
    gae.sim.run()
    return {
        "verbs": outcomes,
        "states": {t.task_id: t.state.value for t in job.tasks},
        "monitoring": gae.monitoring.db_manager.export_state(),
        "job_events": gae.monalisa.job_events(),
        "series": {key: series.samples() for key, series in gae.monalisa._series.items()},
        "estimates": gae.estimators.estimate_db.as_dict(),
        "history": gae.history.records(),
    }


class TestOneWritePath:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        works=work_lists,
        fault=fault_schedules(),
        verbs=steering_verbs,
        snapshot_period_s=st.sampled_from([None, 20.0, 30.0]),
    )
    @settings(max_examples=10, deadline=None)
    def test_bare_and_instrumented_builds_write_the_same_stores(
        self, seed, works, fault, verbs, snapshot_period_s
    ):
        bare = run_and_dump_stores(False, seed, works, fault, verbs, snapshot_period_s)
        full = run_and_dump_stores(True, seed, works, fault, verbs, snapshot_period_s)
        assert bare["job_events"], "the run published nothing"
        assert bare == full


def observe(gae):
    """Everything two restores of one barrier must agree on: the state a
    re-checkpoint would write, the consumer/observability RPC answers,
    and the results of running to completion."""
    state = StateStore()
    Checkpointer(gae).write_state(state)
    client = gae.client("alice", "pw")
    at_barrier = {
        "state": json.dumps({ns.name: state.items(ns.name) for ns in state.namespaces()}),
        "observability": client.call("system.observability"),
        "consumers": client.call("system.consumers"),
    }
    gae.sim.run_until(gae.sim.now + 3_000.0)
    gae.stop()
    gae.sim.run()
    tasks = [t for job in gae.scheduler.jobs() for t in job.tasks]
    return {
        **at_barrier,
        "final_states": {t.task_id: t.state.value for t in tasks},
        "final_status": {
            t.task_id: client.call("jobmon.job_status", t.task_id) for t in tasks
        },
        "final_observability": client.call("system.observability"),
    }
