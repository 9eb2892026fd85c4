"""GAE-wide checkpoint/restore: round-trips, identity, kill-and-recover.

The workload used throughout is a mixed-length bag of tasks over a
two-site grid; around t=205 s it is part-completed, part-running,
part-queued, so a checkpoint there captures every interesting state.
Identity is always compared *at the barrier instant*: events scheduled
at the same simulated time but after the checkpoint event still run in
the original, so the original's answers are captured by a callback
scheduled immediately after the checkpoint.
"""

import hashlib
import json
import os

import pytest

from repro.gae import SteeringPolicy, build_gae
from repro.gridsim import GridBuilder
from repro.gridsim.job import Job, Task, TaskSpec, bag_of_tasks, reset_id_counters
from repro.store import MemoryStore, SqliteStore
from repro.store.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    Checkpointer,
    restore_gae,
)
from repro.store.registry import CHECKPOINT_META, OBSERVABILITY_JOURNAL, register_all
from repro.store.sqlite import read_store_file

T_CHECKPOINT = 205.0  # not a multiple of any periodic (20/30/60 s)
WORKS = [120.0, 240.0, 360.0, 480.0, 150.0, 90.0]


def build_workload(seed=11, **build_kwargs):
    reset_id_counters()
    grid = (
        GridBuilder(seed=seed)
        .site("siteA", nodes=2, background_load=0.3)
        .site("siteB", nodes=2, background_load=1.0)
        .link("siteA", "siteB", capacity_mbps=100.0, latency_s=0.05)
        .file("in.dat", size_mb=50.0, at="siteA")
        .build()
    )
    gae = build_gae(grid, monitor_snapshot_period_s=20.0, **build_kwargs).start()
    gae.add_user("alice", "pw")
    specs = [TaskSpec(owner="alice", input_files=("in.dat",)) for _ in WORKS]
    job = bag_of_tasks(specs, WORKS, owner="alice")
    gae.scheduler.submit_job(job)
    return gae, job


def run_to_completion(gae, horizon=20000.0):
    gae.sim.run_until(gae.sim.now + horizon)
    gae.stop()
    gae.sim.run()
    return {t.task_id: t.state.value for j in gae.scheduler.jobs() for t in j.tasks}


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestFiveStoreRoundTrip:
    def test_all_namespaces_bit_identical_across_backends(self, tmp_path):
        """One checkpoint written through both backends reads back equal."""
        gae, _ = build_workload()
        gae.sim.run_until(T_CHECKPOINT)
        ckpt = Checkpointer(gae)

        memory = MemoryStore()
        ckpt.write_state(memory)
        with SqliteStore(str(tmp_path / "ckpt.sqlite")) as sqlite_store:
            ckpt.write_state(sqlite_store)
            for ns in memory.namespaces():
                assert json.dumps(memory.items(ns.name)) == json.dumps(
                    sqlite_store.items(ns.name)
                ), f"namespace {ns.name} differs across backends"
                assert memory.count(ns.name) == sqlite_store.count(ns.name)

    def test_migrated_stores_reload_identically(self, tmp_path):
        """The five migrated stores reload the same from either backend."""
        from repro.core.estimators.history import HistoryRepository
        from repro.core.estimators.queue_time import RuntimeEstimateDB
        from repro.core.monitoring.db_manager import DBManager
        from repro.events import EventCore, EventJournal
        from repro.monalisa.repository import MonALISARepository
        from repro.store.registry import MONITORING_JOBS

        def dump(obj):
            scratch = MemoryStore()
            obj.save_to(scratch)
            return {ns.name: scratch.items(ns.name) for ns in scratch.namespaces()}

        gae, _ = build_workload()
        gae.sim.run_until(T_CHECKPOINT)
        ckpt = Checkpointer(gae)
        memory = MemoryStore()
        ckpt.write_state(memory)
        sqlite_store = SqliteStore(str(tmp_path / "ckpt.sqlite"))
        ckpt.write_state(sqlite_store)

        for source in (memory, sqlite_store):
            history = HistoryRepository.load_from(source)
            assert history.records() == gae.history.records()

            estimates = RuntimeEstimateDB()
            estimates.load_from(source)
            assert dump(estimates) == dump(gae.estimators.estimate_db)

            journal = EventJournal(clock=lambda: 0.0)
            journal.load_from(source)
            assert dump(journal) == dump(gae.events.journal)

            core = EventCore(journal)
            with DBManager(core.emit_monitoring) as db:
                db.import_state(source.get(MONITORING_JOBS, "state"))
                assert db.export_state() == gae.monitoring.db_manager.export_state()

            monalisa = MonALISARepository(core.emit_metric)
            monalisa.load_from(source)
            assert dump(monalisa) == dump(gae.monalisa)
        sqlite_store.close()


class TestBarrierIdentity:
    def test_restored_answers_match_barrier_instant(self, tmp_path):
        """job_status / observability / estimates identical after restore."""
        path = str(tmp_path / "ckpt.sqlite")
        gae, job = build_workload()
        Checkpointer(gae).checkpoint_at(T_CHECKPOINT, path)

        captured = {}

        def capture():
            client = gae.client("alice", "pw")
            captured["status"] = {
                t.task_id: client.call("jobmon.job_status", t.task_id)
                for t in job.tasks
            }
            captured["obs"] = client.call("system.observability")
            captured["est"] = client.call(
                "estimator.estimate_runtime", {"owner": "alice", "nodes": 1}
            )

        gae.sim.at(T_CHECKPOINT, capture)  # runs right after the checkpoint
        gae.sim.run_until(T_CHECKPOINT)

        reset_id_counters()
        restored = restore_gae(path)
        client = restored.client("alice", "pw")
        restored_job = restored.scheduler.jobs()[0]
        assert {
            t.task_id: client.call("jobmon.job_status", t.task_id)
            for t in restored_job.tasks
        } == captured["status"]
        assert client.call("system.observability") == captured["obs"]
        assert client.call(
            "estimator.estimate_runtime", {"owner": "alice", "nodes": 1}
        ) == captured["est"]

    def test_restore_does_not_mutate_checkpoint_file(self, tmp_path):
        path = str(tmp_path / "ckpt.sqlite")
        gae, _ = build_workload()
        Checkpointer(gae).checkpoint_at(T_CHECKPOINT, path)
        gae.sim.run_until(T_CHECKPOINT)
        before = file_digest(path)

        reset_id_counters()
        first = run_to_completion(restore_gae(path))
        reset_id_counters()
        second = run_to_completion(restore_gae(path))
        assert first == second
        # Not one byte written, and no -wal/-shm side files left behind.
        assert file_digest(path) == before
        assert os.listdir(tmp_path) == ["ckpt.sqlite"]


class TestKillAndRestore:
    def test_recovery_resumes_and_completes_every_job(self, tmp_path):
        """Kill mid-workload; the restored GAE finishes with the same
        per-job final statuses as the uninterrupted run."""
        gae, _ = build_workload()
        reference = run_to_completion(gae)
        assert set(reference.values()) == {"completed"}

        path = str(tmp_path / "ckpt.sqlite")
        victim, _ = build_workload()
        Checkpointer(victim).checkpoint_at(T_CHECKPOINT, path)
        victim.sim.run_until(T_CHECKPOINT)
        mid_states = {
            t.task_id: t.state.value
            for j in victim.scheduler.jobs()
            for t in j.tasks
        }
        assert "completed" in mid_states.values()  # genuinely mid-workload
        assert set(mid_states.values()) != {"completed"}
        del victim  # the "kill": the process state is gone, only the file survives

        reset_id_counters()
        restored = restore_gae(path)
        assert run_to_completion(restored) == reference

    def test_recovery_with_failed_site_preserves_backup_recovery(self, tmp_path):
        """A site crash before the barrier: the failed-set, resubmissions
        and final statuses survive the kill."""
        t_fail = 150.0

        def run_with_failure():
            gae, job = build_workload()
            gae.sim.run_until(t_fail)
            gae.grid.execution_services["siteB"].fail()
            return gae, job

        gae, _ = run_with_failure()
        reference = run_to_completion(gae)
        assert set(reference.values()) == {"completed"}

        path = str(tmp_path / "ckpt.sqlite")
        victim, _ = run_with_failure()
        Checkpointer(victim).checkpoint_at(T_CHECKPOINT, path)
        barrier = {}
        victim.sim.at(
            T_CHECKPOINT,
            lambda: barrier.update(victim.steering.backup_recovery.export_state()),
        )
        victim.sim.run_until(T_CHECKPOINT)
        del victim

        reset_id_counters()
        restored = restore_gae(path)
        assert restored.grid.execution_services["siteB"].failed is True
        assert restored.steering.backup_recovery.export_state() == barrier
        assert run_to_completion(restored) == reference

    def test_a_run_phase_the_span_ring_dropped_keeps_its_start(self, tmp_path):
        """Four 500 s tasks start at t=5, then ~8 400 admission spans push
        their ``run@`` phases out of the 8 192-span ring before the
        checkpoint; the restored host still observes 500 s run times."""
        reset_id_counters()
        grid = (
            GridBuilder(seed=5)
            .site("siteA", nodes=2, cpus_per_node=1, background_load=0.0)
            .site("siteB", nodes=2, cpus_per_node=1, background_load=0.0)
            .link("siteA", "siteB", capacity_mbps=622.0, latency_s=0.05)
            .probe_noise(0.0)
            .build()
        )
        gae = build_gae(grid, policy=SteeringPolicy(auto_move=False, poll_interval_s=3_600.0))
        gae.start()
        gae.sim.run_until(5.0)
        for work in [500.0] * 4 + [1.0] * 2_100:
            task = Task(spec=TaskSpec(owner="u"), work_seconds=work)
            gae.scheduler.submit_job(Job(tasks=[task], owner="u"))
        path = str(tmp_path / "ckpt.sqlite")
        Checkpointer(gae).checkpoint_at(20.0, path)
        gae.sim.run_until(20.0)
        ring = {s.name for s in gae.observability.tracer.spans()}
        assert not ring & {"run@siteA", "run@siteB"}

        def run_times(host):
            host.sim.run_until(3_000.0)
            histogram = host.observability.metrics.get("gae_task_run_seconds")
            return {
                site: {k: histogram.summary(site=site)[k] for k in ("count", "max", "sum")}
                for site in ("siteA", "siteB")
            }

        live, restored = run_times(gae), run_times(restore_gae(path))
        assert restored == live
        assert live["siteA"]["max"] == live["siteB"]["max"] == 500.0

    def test_tracking_rows_without_phase_start_take_it_from_the_restored_ring(self):
        """``fixtures/format2_full.sqlite`` predates ``phase_start`` in the
        tracking rows: an open phase the restored ring holds starts where
        its span does."""
        path = os.path.join(os.path.dirname(__file__), "fixtures", "format2_full.sqlite")
        meta = read_store_file(path).get(CHECKPOINT_META, "meta")
        assert not any("phase_start" in row for _, row in meta["observability_tracking"]["tasks"])
        reset_id_counters()
        obs = restore_gae(path).observability
        ring = {span.span_id: span.start for span in obs.tracer.spans()}
        starts = {tt.phase_id: tt.phase_start for tt in obs._tasks.values() if tt.phase_id}
        assert max(starts.values()) > 0.0
        assert starts == {phase_id: ring[phase_id] for phase_id in starts}


class TestBareBuild:
    """``observability=False``: no tracer, no lifecycle events, nothing
    retained — and the same journal-first write path, so the same
    checkpoints."""

    @staticmethod
    def answers(gae, job):
        client = gae.client("alice", "pw")
        tasks = [t.task_id for t in job.tasks]
        return {
            "info": {t: client.call("jobmon.job_info", t) for t in tasks},
            "progress": {t: client.call("jobmon.progress_history", t) for t in tasks},
            "runtime": client.call(
                "estimator.estimate_runtime", {"owner": "alice", "nodes": 1}
            ),
            "history_size": client.call("estimator.history_size"),
            "consumers": client.call("system.consumers"),
            "observability": client.call("system.observability"),
        }

    def test_self_contained_checkpoint_round_trips(self, tmp_path):
        path = str(tmp_path / "bare.sqlite")
        gae, job = build_workload(observability=False)
        ckpt = Checkpointer(gae)
        ckpt.checkpoint_at(T_CHECKPOINT, path)
        captured = {}
        gae.sim.at(T_CHECKPOINT, lambda: captured.update(self.answers(gae, job)))
        gae.sim.run_until(T_CHECKPOINT)
        head = ckpt.last_info.head_seq
        assert head > 0 and len(gae.events.journal) == 0
        assert read_store_file(path).count(OBSERVABILITY_JOURNAL) == 0
        assert captured["observability"] == {"enabled": False}

        reset_id_counters()
        restored = restore_gae(path)
        assert restored.observability is None
        restored_job = restored.scheduler.jobs()[0]
        assert self.answers(restored, restored_job) == captured
        assert restored.events.journal.head_seq == head
        assert set(restored.events.cursors().values()) == {head}

        resumed = []
        restored.events.observe = resumed.append  # a bare build's observer is free
        assert run_to_completion(restored) == run_to_completion(gae)
        assert resumed[0].seq == head + 1
        assert self.answers(restored, restored_job) == self.answers(gae, job)

    def test_journal_less_format_2_file_restores_with_a_fresh_journal(self, tmp_path):
        """What an ``observability=False`` build wrote before every build
        had a journal: ``head_seq`` null."""
        path = str(tmp_path / "old.sqlite")
        gae, job = build_workload(observability=False)
        gae.sim.run_until(T_CHECKPOINT)
        Checkpointer(gae).checkpoint(path)
        with SqliteStore(path) as store:
            meta = store.get(CHECKPOINT_META, "meta")
            store.put(CHECKPOINT_META, "meta", dict(meta, head_seq=None))
        reset_id_counters()
        restored = restore_gae(path)
        assert restored.events.journal.head_seq == -1
        assert run_to_completion(restored) == run_to_completion(gae)

    def test_continuation_is_refused_once_the_journal_has_moved_on(self, tmp_path):
        base, delta = str(tmp_path / "base.sqlite"), str(tmp_path / "delta.sqlite")
        gae, job = build_workload(observability=False)
        ckpt = Checkpointer(gae)
        gae.sim.run_until(T_CHECKPOINT)
        base_seq = ckpt.checkpoint(base).head_seq

        # Nothing journalled since the base: the empty tail is the whole tail.
        ckpt.checkpoint(delta, base=base)
        reset_id_counters()
        from_delta = restore_gae(delta, base=base)
        assert self.answers(from_delta, from_delta.scheduler.jobs()[0]) == self.answers(
            gae, job
        )
        os.remove(delta)

        gae.sim.run_until(T_CHECKPOINT + 60.0)
        assert gae.events.journal.head_seq > base_seq
        with pytest.raises(CheckpointError, match="retention"):
            ckpt.checkpoint(delta, base=base)
        assert os.listdir(tmp_path) == ["base.sqlite"]
        untouched = MemoryStore()
        with pytest.raises(CheckpointError, match="retention"):
            ckpt.write_state(untouched, base_seq=base_seq)
        assert untouched.namespaces() == []


class TestCheckpointErrors:
    def test_restore_of_non_checkpoint_raises(self, tmp_path):
        path = str(tmp_path / "empty.sqlite")
        SqliteStore(path).close()
        with pytest.raises(CheckpointError):
            restore_gae(path)

    def test_restore_of_missing_file_raises_and_creates_nothing(self, tmp_path):
        path = str(tmp_path / "nope.sqlite")
        with pytest.raises(CheckpointError, match="nope.sqlite"):
            restore_gae(path)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("keep", ["half", "100 bytes", "garbage"])
    def test_restore_of_damaged_file_raises_typed(self, tmp_path, keep):
        good = str(tmp_path / "good.sqlite")
        gae, _ = build_workload()
        gae.sim.run_until(T_CHECKPOINT)
        Checkpointer(gae).checkpoint(good)
        with open(good, "rb") as fh:
            data = fh.read()
        damaged = {
            "half": data[: len(data) // 2],
            "100 bytes": data[:100],
            "garbage": b"this is not an SQLite database\n" * 64,
        }[keep]
        path = str(tmp_path / "damaged.sqlite")
        with open(path, "wb") as fh:
            fh.write(damaged)
        with pytest.raises(CheckpointError, match="damaged.sqlite"):
            restore_gae(path)
        assert file_digest(path) == hashlib.sha256(damaged).hexdigest()
        assert sorted(os.listdir(tmp_path)) == ["damaged.sqlite", "good.sqlite"]

    def test_cli_restore_of_unreadable_file_exits_1_without_litter(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "junk.sqlite").write_bytes(b"junk" * 300)
        for name in ("nope.sqlite", "junk.sqlite"):
            assert main(["restore", name]) == 1
            assert f"error: '{name}'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["junk.sqlite"]

    def test_restore_of_future_format_raises(self, tmp_path):
        path = str(tmp_path / "future.sqlite")
        with SqliteStore(path) as store:
            register_all(store)
            store.put(CHECKPOINT_META, "meta", {"format": CHECKPOINT_FORMAT + 1})
        with pytest.raises(CheckpointError, match="format"):
            restore_gae(path)

    def test_checkpoint_info_counts(self, tmp_path):
        path = str(tmp_path / "info.sqlite")
        gae, job = build_workload()
        gae.sim.run_until(T_CHECKPOINT)
        info = Checkpointer(gae).checkpoint(path)
        assert info.path == path
        assert info.time == T_CHECKPOINT
        assert info.jobs == 1
        assert info.tasks == len(job.tasks)
