"""The DBManager (§5.4): the monitoring service's database repository.

"Each Job Monitoring Service instance has a database repository.  The
access to this repository is controlled by the DBManager.  The DBManager
publishes the job monitoring information to MonALISA."

Backed by SQLite (stdlib), in-memory by default, file-backed on request —
a real queryable repository, as in the deployed system, not a dict.

Both halves happen in the journal consumers (:mod:`repro.events.core`):
:meth:`DBManager.update` emits ``monitoring-updated``, ``monitoring`` folds
it into the tables and ``monalisa`` then performs the §5.4 publish.

Since the state-store refactor the relational tables can also live
*inside* a :class:`~repro.store.base.StateStore` (pass ``store=``): the
schema stays SQL-queryable and every read is bit-identical to the
stand-alone layout, but the rows share the store's file (or memory)
lifetime, which is how a GAE checkpoint carries its monitoring answers.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from typing import Any, Callable, Dict, List, Optional

from repro.core.monitoring.records import MonitoringRecord
from repro.store.base import StateStore
from repro.store.registry import MONITORING_JOBS, namespace_record

_SCHEMA = """
CREATE TABLE IF NOT EXISTS monitoring (
    task_id            TEXT PRIMARY KEY,
    job_id             TEXT NOT NULL,
    site               TEXT NOT NULL,
    status             TEXT NOT NULL,
    elapsed_time_s     REAL NOT NULL,
    estimated_run_time_s REAL NOT NULL,
    remaining_time_s   REAL NOT NULL,
    progress           REAL NOT NULL,
    queue_position     INTEGER NOT NULL,
    priority           INTEGER NOT NULL,
    submission_time    REAL NOT NULL,
    execution_time     REAL,
    completion_time    REAL,
    cpu_time_used_s    REAL NOT NULL,
    input_io_mb        REAL NOT NULL,
    output_io_mb       REAL NOT NULL,
    owner              TEXT NOT NULL,
    environment        TEXT NOT NULL,
    snapshot_time      REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_monitoring_job ON monitoring (job_id);
CREATE INDEX IF NOT EXISTS idx_monitoring_owner ON monitoring (owner);
CREATE TABLE IF NOT EXISTS monitoring_history (
    seq            INTEGER PRIMARY KEY AUTOINCREMENT,
    task_id        TEXT NOT NULL,
    snapshot_time  REAL NOT NULL,
    status         TEXT NOT NULL,
    progress       REAL NOT NULL,
    elapsed_time_s REAL NOT NULL,
    site           TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_history_task ON monitoring_history (task_id);
"""

_COLUMNS = (
    "task_id", "job_id", "site", "status", "elapsed_time_s",
    "estimated_run_time_s", "remaining_time_s", "progress", "queue_position",
    "priority", "submission_time", "execution_time", "completion_time",
    "cpu_time_used_s", "input_io_mb", "output_io_mb", "owner", "environment",
    "snapshot_time",
)

_HISTORY_COLUMNS = (
    "task_id", "snapshot_time", "status", "progress", "elapsed_time_s", "site",
)


def _record_values(record: MonitoringRecord) -> tuple:
    return (
        record.task_id, record.job_id, record.site, record.status,
        record.elapsed_time_s, record.estimated_run_time_s,
        record.remaining_time_s, record.progress, record.queue_position,
        record.priority, record.submission_time, record.execution_time,
        record.completion_time, record.cpu_time_used_s,
        record.input_io_mb, record.output_io_mb, record.owner,
        json.dumps(dict(record.environment)), record.snapshot_time,
    )


def _history_values(record: MonitoringRecord) -> tuple:
    return (
        record.task_id, record.snapshot_time, record.status,
        record.progress, record.elapsed_time_s, record.site,
    )


_UPSERT_SQL = (
    f"INSERT OR REPLACE INTO monitoring ({', '.join(_COLUMNS)}) "
    f"VALUES ({', '.join('?' for _ in _COLUMNS)})"
)
_HISTORY_SQL = (
    f"INSERT INTO monitoring_history ({', '.join(_HISTORY_COLUMNS)}) "
    f"VALUES ({', '.join('?' for _ in _HISTORY_COLUMNS)})"
)


class DBManager:
    """SQLite-backed store of the latest monitoring record per task.

    Writes through ``emit`` (``EventCore.emit_monitoring``).  Usable as a
    context manager; :meth:`close` is idempotent and safe against a
    concurrent fold.  When ``store`` is given, the tables live on the
    store's SQL connection (and the connection's lifetime belongs to the
    store, so ``close()`` becomes a no-op for the shared connection).
    """

    def __init__(
        self,
        emit: Callable[[MonitoringRecord], None],
        path: str = ":memory:",
        store: Optional[StateStore] = None,
    ) -> None:
        # The threaded XML-RPC front end serves monitoring queries from
        # worker threads; one connection guarded by a lock keeps SQLite
        # happy without a connection pool.
        self.store = store
        if store is not None:
            store.register_namespace(namespace_record(MONITORING_JOBS))
            self._conn = store.sql_connection()
            self._owns_conn = False
        else:
            self._conn = sqlite3.connect(path, check_same_thread=False)
            self._owns_conn = True
        self._lock = threading.Lock()
        self._closed = False
        with self._lock:
            self._conn.executescript(_SCHEMA)
        self.emit = emit
        #: Called with each record after it is upserted — the read-cache
        #: "monitoring" epoch (and any other watcher) hangs here.
        self.update_listeners: list = []

    def close(self) -> None:
        """Idempotently close the underlying database connection.

        Taken under the same lock as :meth:`apply_record`, so a
        concurrent writer can never race the closing connection.  A
        store-owned connection is left open (the store manages its
        lifetime).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._owns_conn:
                self._conn.close()

    def __enter__(self) -> "DBManager":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def update(self, record: MonitoringRecord) -> None:
        """Journal a task's latest record (``monitoring-updated``)."""
        self.emit(record)

    def apply_record(self, record: MonitoringRecord, notify: bool = True) -> None:
        """The SQL half of an update: upsert + append-only history row.

        The journal consumers' fold primitive — no MonALISA publish (the
        monalisa consumer owns the derived event), and ``notify=False``
        keeps update listeners quiet during tail replay.
        """
        with self._lock:
            self._conn.execute(_UPSERT_SQL, _record_values(record))
            # Append-only history row: the raw material of progress-vs-time
            # charts like Figure 7, queryable long after the task is gone.
            self._conn.execute(_HISTORY_SQL, _history_values(record))
            self._conn.commit()
        if notify:
            for listener in self.update_listeners:
                listener(record)

    # ------------------------------------------------------------------
    def _row_to_record(self, row: tuple) -> MonitoringRecord:
        data = dict(zip(_COLUMNS, row))
        data["environment"] = json.loads(data["environment"])
        return MonitoringRecord(**data)  # type: ignore[arg-type]

    def get(self, task_id: str) -> Optional[MonitoringRecord]:
        """The stored record for a task, or None."""
        with self._lock:
            cur = self._conn.execute(
                f"SELECT {', '.join(_COLUMNS)} FROM monitoring WHERE task_id = ?",
                (task_id,),
            )
            row = cur.fetchone()
        return self._row_to_record(row) if row is not None else None

    def for_job(self, job_id: str) -> List[MonitoringRecord]:
        """All stored records of a job, ordered by task id."""
        with self._lock:
            cur = self._conn.execute(
                f"SELECT {', '.join(_COLUMNS)} FROM monitoring "
                "WHERE job_id = ? ORDER BY task_id",
                (job_id,),
            )
            rows = cur.fetchall()
        return [self._row_to_record(r) for r in rows]

    def for_owner(self, owner: str) -> List[MonitoringRecord]:
        """All stored records owned by a user, ordered by task id."""
        with self._lock:
            cur = self._conn.execute(
                f"SELECT {', '.join(_COLUMNS)} FROM monitoring "
                "WHERE owner = ? ORDER BY task_id",
                (owner,),
            )
            rows = cur.fetchall()
        return [self._row_to_record(r) for r in rows]

    def task_ids(self) -> List[str]:
        """Every task id with a stored record, sorted."""
        with self._lock:
            cur = self._conn.execute("SELECT task_id FROM monitoring ORDER BY task_id")
            return [r[0] for r in cur.fetchall()]

    def progress_history(self, task_id: str) -> List[tuple]:
        """Every stored snapshot of a task as
        ``(snapshot_time, status, progress, elapsed_time_s, site)`` rows,
        in arrival order."""
        with self._lock:
            cur = self._conn.execute(
                "SELECT snapshot_time, status, progress, elapsed_time_s, site "
                "FROM monitoring_history WHERE task_id = ? ORDER BY seq",
                (task_id,),
            )
            return cur.fetchall()

    def __len__(self) -> int:
        with self._lock:
            cur = self._conn.execute("SELECT COUNT(*) FROM monitoring")
            return int(cur.fetchone()[0])

    # ------------------------------------------------------------------
    # persistence (checkpoint/restore)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        """Both tables as plain rows (history keeps explicit ``seq``)."""
        with self._lock:
            monitoring = self._conn.execute(
                f"SELECT {', '.join(_COLUMNS)} FROM monitoring ORDER BY rowid"
            ).fetchall()
            history = self._conn.execute(
                f"SELECT seq, {', '.join(_HISTORY_COLUMNS)} "
                "FROM monitoring_history ORDER BY seq"
            ).fetchall()
        return {
            "monitoring": [list(row) for row in monitoring],
            "history": [list(row) for row in history],
        }

    def import_state(self, state: Dict[str, Any]) -> None:
        """Replace both tables from :meth:`export_state` output.

        ``seq`` values are inserted explicitly so ``progress_history``
        order — and the AUTOINCREMENT continuation point — match the
        exporting manager exactly.  MonALISA is *not* notified: a
        restore replays state, not events.
        """
        with self._lock:
            self._conn.execute("DELETE FROM monitoring")
            self._conn.execute("DELETE FROM monitoring_history")
            self._conn.executemany(
                _UPSERT_SQL, [tuple(row) for row in state["monitoring"]]
            )
            self._conn.executemany(
                f"INSERT INTO monitoring_history (seq, {', '.join(_HISTORY_COLUMNS)}) "
                f"VALUES ({', '.join('?' for _ in range(len(_HISTORY_COLUMNS) + 1))})",
                [tuple(row) for row in state["history"]],
            )
            self._conn.commit()
        for listener in self.update_listeners:
            listener(None)
