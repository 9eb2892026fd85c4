"""Unit tests for the event-sourced core (journal-first write path)."""

import os
import tempfile

import pytest

from repro.cli import checkpoint_demo_workload
from repro.gridsim.job import reset_id_counters
from repro.observability.eventbus import CONSUMER_NAMES
from repro.observability.journal import EventJournal, EventType, OutOfOrderError
from repro.store.memory import MemoryStore
from repro.store.checkpoint import CheckpointError, Checkpointer, restore_gae


def demo_at(t=300.0):
    gae, job = checkpoint_demo_workload()
    gae.sim.run_until(t)
    return gae, job


class TestJournalFirstWritePath:
    def test_all_consumers_registered_in_order(self):
        gae, _ = demo_at(0.0)
        core = gae.observability.eventcore
        names = list(core.consumers)
        assert tuple(names) == CONSUMER_NAMES
        # Monitoring must fold before monalisa: the derived job-state
        # publish reads the row the SQL upsert just wrote.
        assert names.index("monitoring") < names.index("monalisa")

    def test_every_consumer_rebuilds_bit_identically(self):
        gae, _ = demo_at()
        for report in gae.observability.eventcore.verify_all():
            assert report["covered"], report
            assert report["identical"], report

    def test_cursors_track_journal_head(self):
        gae, _ = demo_at()
        core = gae.observability.eventcore
        head = gae.observability.journal.head_seq
        assert head > 0
        assert core.cursors() == {name: head for name in CONSUMER_NAMES}

    def test_system_consumers_rpc_reports_cursors_and_lag(self):
        gae, _ = demo_at()
        with gae.client("demo", "demo") as client:
            snap = client.call("system.consumers")
        assert snap["enabled"]
        rows = {row["name"]: row for row in snap["consumers"]}
        assert set(rows) == set(CONSUMER_NAMES)
        for row in rows.values():
            assert row["cursor"] == snap["journal_head_seq"]
            assert row["lag"] == 0

    def test_snapshot_is_restore_invariant(self):
        """Process-local diagnostics stay out of the RPC snapshot."""
        gae, _ = demo_at()
        snap = gae.observability.eventcore.snapshot()
        for row in snap["consumers"]:
            assert "events_applied" not in row
            assert "baseline_seq" not in row

    def test_cursor_and_lag_gauges_bound(self):
        gae, _ = demo_at()
        metrics = gae.observability.metrics.snapshot()
        head = float(gae.observability.journal.head_seq)
        for name in CONSUMER_NAMES:
            cursor = metrics[f"gae_consumer_{name}_cursor"]
            lag = metrics[f"gae_consumer_{name}_lag"]
            assert cursor["kind"] == "gauge"
            assert cursor["values"][""] == head
            assert lag["kind"] == "gauge"
            assert lag["values"][""] == 0.0


class TestOutOfOrderRejection:
    def test_load_from_rejects_non_monotonic_seq(self):
        source = EventJournal(clock=lambda: 0.0)
        source.record(EventType.SUBMITTED, "task-a")
        source.record(EventType.STARTED, "task-a")
        store = MemoryStore()
        source.save_to(store)
        # Splice the rows so seq order reverses.
        from repro.store.registry import OBSERVABILITY_JOURNAL

        rows = [store.get(OBSERVABILITY_JOURNAL, k) for k in ("000000000000", "000000000001")]
        rows[0]["seq"], rows[1]["seq"] = rows[1]["seq"], rows[0]["seq"]
        store.put(OBSERVABILITY_JOURNAL, "000000000000", rows[0])
        store.put(OBSERVABILITY_JOURNAL, "000000000001", rows[1])
        target = EventJournal(clock=lambda: 0.0)
        with pytest.raises(OutOfOrderError):
            target.load_from(store)


class TestIncrementalCheckpointGuards:
    def test_incremental_without_prior_full_is_rejected(self):
        gae, _ = demo_at(100.0)
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(CheckpointError):
                Checkpointer(gae).checkpoint(
                    os.path.join(tmp, "delta.sqlite"),
                    base=os.path.join(tmp, "base.sqlite"),
                )

    def test_restore_gae_rejects_incremental_file(self):
        """A continuation restored without its base is refused."""
        gae, _ = demo_at(100.0)
        with tempfile.TemporaryDirectory() as tmp:
            base = os.path.join(tmp, "base.sqlite")
            delta = os.path.join(tmp, "delta.sqlite")
            ckpt = Checkpointer(gae)
            ckpt.checkpoint(base)
            gae.sim.run_until(150.0)
            ckpt.checkpoint(delta, base=base)
            reset_id_counters()
            with pytest.raises(CheckpointError):
                restore_gae(delta)
