"""Unit tests for the SQLite-backed DBManager."""

import pytest

from repro.core.monitoring.db_manager import DBManager
from repro.core.monitoring.records import MonitoringRecord
from repro.monalisa.repository import MonALISARepository
from tests.conftest import bare_core


def make_record(task_id="t1", job_id="j1", owner="alice", status="running", **kw):
    defaults = dict(
        site="s", elapsed_time_s=10.0, estimated_run_time_s=100.0,
        remaining_time_s=90.0, progress=0.1, queue_position=-1, priority=0,
        submission_time=0.0, execution_time=1.0, completion_time=None,
        cpu_time_used_s=10.0, input_io_mb=0.0, output_io_mb=0.0,
        environment={"KEY": "VAL"}, snapshot_time=10.0,
    )
    defaults.update(kw)
    return MonitoringRecord(task_id=task_id, job_id=job_id, owner=owner, status=status, **defaults)


def make_db(**kwargs):
    """A DBManager on its own tiny core."""
    core = bare_core()
    db = DBManager(core.emit_monitoring, **kwargs)
    core.register_stores(db_manager=db)
    return db


def make_db_and_monalisa():
    """A DBManager and the repository its updates are published to."""
    core = bare_core()
    db, repo = DBManager(core.emit_monitoring), MonALISARepository(core.emit_metric)
    core.register_stores(db_manager=db, monalisa=repo)
    return db, repo


@pytest.fixture
def db():
    return make_db()


class TestCrud:
    def test_get_missing_returns_none(self, db):
        assert db.get("ghost") is None

    def test_update_then_get_round_trips(self, db):
        record = make_record()
        db.update(record)
        assert db.get("t1") == record

    def test_upsert_replaces(self, db):
        db.update(make_record(status="running"))
        db.update(make_record(status="completed", completion_time=50.0))
        assert db.get("t1").status == "completed"
        assert len(db) == 1

    def test_environment_json_round_trip(self, db):
        db.update(make_record(environment={"A": "1", "B": "2"}))
        assert db.get("t1").environment == {"A": "1", "B": "2"}

    def test_none_times_preserved(self, db):
        db.update(make_record(execution_time=None, completion_time=None))
        got = db.get("t1")
        assert got.execution_time is None
        assert got.completion_time is None


class TestQueries:
    def test_for_job(self, db):
        db.update(make_record(task_id="t1", job_id="j1"))
        db.update(make_record(task_id="t2", job_id="j1"))
        db.update(make_record(task_id="t3", job_id="j2"))
        assert [r.task_id for r in db.for_job("j1")] == ["t1", "t2"]

    def test_for_owner(self, db):
        db.update(make_record(task_id="t1", owner="alice"))
        db.update(make_record(task_id="t2", owner="bob"))
        assert [r.task_id for r in db.for_owner("alice")] == ["t1"]

    def test_task_ids_sorted(self, db):
        db.update(make_record(task_id="b"))
        db.update(make_record(task_id="a"))
        assert db.task_ids() == ["a", "b"]


class TestLifecycle:
    def test_close_is_idempotent(self, db):
        db.close()
        db.close()  # must not raise

    def test_update_after_close_raises(self, db):
        db.update(make_record())
        db.close()
        with pytest.raises(Exception):
            db.update(make_record(task_id="t2"))

    def test_context_manager_closes(self):
        with make_db() as db:
            db.update(make_record())
            assert len(db) == 1
        with pytest.raises(Exception):
            db.update(make_record(task_id="t2"))

    def test_store_backed_close_leaves_shared_connection_open(self):
        from repro.store import StateStore

        store = StateStore()
        db = make_db(store=store)
        db.update(make_record())
        db.close()
        # The store owns the connection; it must survive the manager.
        conn = store.sql_connection()
        assert conn.execute("SELECT COUNT(*) FROM monitoring").fetchone() == (1,)
        store.close()


class TestStateRoundTrip:
    def test_export_import_round_trips_both_tables(self):
        source = make_db()
        for i in range(3):
            source.update(make_record(task_id="t1", progress=i / 3, snapshot_time=10.0 * i))
        source.update(make_record(task_id="t2"))

        target = make_db()
        target.import_state(source.export_state())
        assert target.export_state() == source.export_state()
        assert target.progress_history("t1") == source.progress_history("t1")

    def test_import_does_not_republish_to_monalisa(self):
        source = make_db()
        source.update(make_record())
        target, repo = make_db_and_monalisa()
        target.import_state(source.export_state())
        assert repo.job_events(task_id="t1") == []

    def test_history_seq_continues_after_import(self):
        source = make_db()
        source.update(make_record(snapshot_time=1.0))
        source.update(make_record(snapshot_time=2.0))
        target = make_db()
        target.import_state(source.export_state())
        target.update(make_record(snapshot_time=3.0))
        times = [row[0] for row in target.progress_history("t1")]
        assert times == [1.0, 2.0, 3.0]


class TestMonalisaPublication:
    def test_update_publishes_job_state(self):
        db, repo = make_db_and_monalisa()
        db.update(make_record(status="completed", progress=1.0))
        [event] = repo.job_events(task_id="t1")
        assert event.state == "completed"
        assert event.progress == 1.0

    def test_every_update_publishes(self):
        db, repo = make_db_and_monalisa()
        db.update(make_record(status="running"))
        db.update(make_record(task_id="t2", status="queued"))
        db.update(make_record(status="completed"))
        assert [e.state for e in repo.job_events(task_id="t1")] == ["running", "completed"]
        assert [e.state for e in repo.job_events(task_id="t2")] == ["queued"]
