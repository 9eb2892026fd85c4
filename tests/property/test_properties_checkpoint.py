"""Property-based tests: checkpoint/restore barrier-instant identity.

For random workloads, random checkpoint instants and random fault
schedules, a GAE restored from its checkpoint answers ``job_status``,
``estimator.estimate_runtime`` and ``system.observability`` exactly as
the original did *at the barrier instant* (captured by a callback
scheduled immediately after the checkpoint event, so same-time periodic
events armed later do not contaminate the reference answers).

The restored journal is the live ring row for row — also when the ring
has evicted and the file is a continuation of a base — and every file
:func:`restore_gae` or the writer refuses is refused with a
:class:`CheckpointError` naming that file.
"""

import os
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.gae
from repro.clarens.errors import ClarensFault
from repro.gae import build_gae
from repro.gridsim import GridBuilder
from repro.gridsim.job import TaskSpec, bag_of_tasks, reset_id_counters
from repro.events.journal import EventJournal
from repro.store import SqliteStore
from repro.store.checkpoint import CheckpointError, Checkpointer, restore_gae
from repro.store.registry import CHECKPOINT_META, register_all

# Odd multiples of 5 s that are not multiples of any periodic activity
# (20/30/60 s): the barrier never coincides with a periodic event, and
# when it does coincide with task events the capture-at-barrier pattern
# still pins the comparison point.
barrier_times = st.sampled_from([105.0, 125.0, 145.0, 185.0, 205.0, 215.0, 265.0])
work_lists = st.lists(
    st.floats(min_value=50.0, max_value=500.0, allow_nan=False),
    min_size=2,
    max_size=6,
)


@st.composite
def fault_schedules(draw, t_max=100.0):
    """None, or (site, t_fail, t_recover-or-None) strictly before t_max."""
    if not draw(st.booleans()):
        return None
    site = draw(st.sampled_from(["siteA", "siteB"]))
    t_fail = draw(st.floats(min_value=10.0, max_value=t_max - 20.0, allow_nan=False))
    t_recover = None
    if draw(st.booleans()):
        t_recover = draw(
            st.floats(min_value=t_fail + 1.0, max_value=t_max - 1.0, allow_nan=False)
        )
    return (site, t_fail, t_recover)


def build_workload(seed, works, fault, **build_kwargs):
    reset_id_counters()
    grid = (
        GridBuilder(seed=seed)
        .site("siteA", nodes=2, background_load=0.3)
        .site("siteB", nodes=2, background_load=1.0)
        .link("siteA", "siteB", capacity_mbps=100.0, latency_s=0.05)
        .file("in.dat", size_mb=50.0, at="siteA")
        .build()
    )
    build_kwargs.setdefault("monitor_snapshot_period_s", 20.0)
    gae = build_gae(grid, **build_kwargs).start()
    gae.add_user("alice", "pw")
    specs = [TaskSpec(owner="alice", input_files=("in.dat",)) for _ in works]
    job = bag_of_tasks(specs, list(works), owner="alice")
    gae.scheduler.submit_job(job)
    if fault is not None:
        site, t_fail, t_recover = fault
        service = gae.grid.execution_services[site]
        gae.sim.at(t_fail, service.fail)
        if t_recover is not None:
            gae.sim.at(t_recover, service.recover)
    return gae, job


def answers(gae, job):
    client = gae.client("alice", "pw")
    # Before any task completes the estimator legitimately faults
    # ("history holds no successful task records"); the fault is then
    # part of the answer the restored GAE must reproduce.
    try:
        est = client.call(
            "estimator.estimate_runtime", {"owner": "alice", "nodes": 1}
        )
    except ClarensFault as exc:
        est = ("fault", str(exc))
    return {
        "status": {
            t.task_id: client.call("jobmon.job_status", t.task_id)
            for t in job.tasks
        },
        "obs": client.call("system.observability"),
        "est": est,
    }


class TestCheckpointProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        works=work_lists,
        t_ckpt=barrier_times,
        fault=fault_schedules(),
    )
    @settings(max_examples=12, deadline=None)
    def test_restored_answers_match_barrier_instant(self, seed, works, t_ckpt, fault):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ckpt.sqlite")
            gae, job = build_workload(seed, works, fault)
            Checkpointer(gae).checkpoint_at(t_ckpt, path)

            captured = {}
            gae.sim.at(t_ckpt, lambda: captured.update(answers(gae, job)))
            gae.sim.run_until(t_ckpt)

            reset_id_counters()
            restored = restore_gae(path)
            restored_job = restored.scheduler.jobs()[0]
            assert answers(restored, restored_job) == captured

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        works=work_lists,
        t_ckpt=barrier_times,
    )
    @settings(max_examples=8, deadline=None)
    def test_restore_is_deterministic(self, seed, works, t_ckpt):
        """Two restores of one checkpoint give identical answers."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ckpt.sqlite")
            gae, _ = build_workload(seed, works, fault=None)
            Checkpointer(gae).checkpoint_at(t_ckpt, path)
            gae.sim.run_until(t_ckpt)

            reset_id_counters()
            first = restore_gae(path)
            first_answers = answers(first, first.scheduler.jobs()[0])
            reset_id_counters()
            second = restore_gae(path)
            assert answers(second, second.scheduler.jobs()[0]) == first_answers


def journal_capacity(ring):
    """Every GAE built inside the block — live or restored — gets a
    journal ring of *ring* events (``build_gae`` fixes it at 100 000)."""
    return mock.patch.object(
        repro.gae, "EventJournal", lambda clock, capacity: EventJournal(clock, ring)
    )


def journal_rows(gae):
    return [e.to_wire() for e in gae.observability.journal.events()]


DEMO_WORKS = [120.0, 240.0, 360.0, 480.0, 150.0, 90.0]


class TestRestoredJournalProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        works=work_lists,
        capacity=st.sampled_from([8, 24, 40, 64, 100_000]),
        t_delta=st.sampled_from([185.0, 205.0, 265.0]),
    )
    # By t=145 s this workload has journalled 78 events and adds 26 by
    # t=205 s: a ring of 40 has evicted yet still holds the tail; a ring
    # of 8 has lost it, so the continuation must be refused.
    @example(seed=11, works=DEMO_WORKS, capacity=40, t_delta=205.0)
    @example(seed=11, works=DEMO_WORKS, capacity=8, t_delta=205.0)
    @settings(max_examples=8, deadline=None)
    def test_restored_journal_is_the_live_ring_row_for_row(
        self, seed, works, capacity, t_delta
    ):
        with tempfile.TemporaryDirectory() as tmp, journal_capacity(capacity):
            base = os.path.join(tmp, "base.sqlite")
            delta = os.path.join(tmp, "delta.sqlite")
            gae, _ = build_workload(seed, works, fault=None)
            ckpt = Checkpointer(gae)

            gae.sim.run_until(145.0)
            ckpt.checkpoint(base)
            live_at_base = journal_rows(gae)
            gae.sim.run_until(t_delta)
            live_at_delta = journal_rows(gae)
            assert len(live_at_delta) <= capacity

            tail_len = gae.observability.journal.head_seq - ckpt.last_info.head_seq
            refused = tail_len > capacity  # the ring no longer reaches the base
            if refused:
                with pytest.raises(CheckpointError, match="retention"):
                    ckpt.checkpoint(delta, base=base)
                assert not os.path.exists(delta)
            else:
                ckpt.checkpoint(delta, base=base)

            reset_id_counters()
            assert journal_rows(restore_gae(base)) == live_at_base
            if not refused:
                reset_id_counters()
                assert journal_rows(restore_gae(delta, base=base)) == live_at_delta


class TestRefusalProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000), works=work_lists)
    @settings(max_examples=4, deadline=None)
    def test_every_refusal_is_typed_and_names_the_file(self, seed, works):
        with tempfile.TemporaryDirectory() as tmp:
            base = os.path.join(tmp, "base.sqlite")
            later = os.path.join(tmp, "later.sqlite")
            delta = os.path.join(tmp, "delta.sqlite")
            gae, _ = build_workload(seed, works, fault=None)
            ckpt = Checkpointer(gae)
            gae.sim.run_until(125.0)
            ckpt.checkpoint(base)
            gae.sim.run_until(185.0)
            ckpt.checkpoint(later)
            ckpt.checkpoint(delta, base=base)

            # Writing: the base must be a self-contained file this
            # Checkpointer wrote — not a continuation, not a stranger.
            for bad_base in (delta, os.path.join(tmp, "never-written.sqlite")):
                with pytest.raises(CheckpointError, match=os.path.basename(bad_base)):
                    ckpt.checkpoint(os.path.join(tmp, "x.sqlite"), base=bad_base)
            assert not os.path.exists(os.path.join(tmp, "x.sqlite"))

            # Reading.
            with pytest.raises(CheckpointError, match="delta.sqlite.*base="):
                restore_gae(delta)  # continuation without its base
            with pytest.raises(CheckpointError, match="delta.sqlite.*continuation"):
                restore_gae(delta, base=delta)  # base is itself a continuation
            with pytest.raises(CheckpointError, match="later.sqlite.*stops at"):
                restore_gae(delta, base=later)  # not the head it was cut against
            with pytest.raises(CheckpointError, match="base.sqlite.*self-contained"):
                restore_gae(base, base=later)  # self-contained: no base applies

            old = os.path.join(tmp, "format1.sqlite")
            with SqliteStore(old) as store:
                register_all(store)
                store.put(CHECKPOINT_META, "meta", {"format": 1, "incremental": None})
            with pytest.raises(CheckpointError, match="format1.sqlite.*format 1"):
                restore_gae(old)
