"""SQLite :class:`StateStore` backend.

One file holds every namespace: a ``gae_store`` key/value table (with a
monotonic ``seq`` column so iteration preserves first-insertion order
even across upserts), a ``gae_store_ns`` table recording each
namespace's schema version, and — via :meth:`SqliteStore.sql_connection`
— whatever relational tables the monitoring DBManager creates, so a
checkpoint is a single ordinary SQLite file.

Durability/throughput knobs follow the usual embedded-store recipe:
WAL journaling (readers don't block the writer) and batched upserts
(:meth:`put_many` is one ``executemany`` inside one transaction).
"""

from __future__ import annotations

import contextlib
import sqlite3
import threading
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple

from repro.store.base import (
    Namespace,
    StateStore,
    UnknownNamespaceError,
    check_registration,
    decode_value,
    encode_value,
)
from repro.store.memory import MemoryStore

__all__ = ["SqliteStore", "read_store_file"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS gae_store_ns (
    name        TEXT PRIMARY KEY,
    version     INTEGER NOT NULL,
    description TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS gae_store (
    namespace TEXT NOT NULL,
    key       TEXT NOT NULL,
    value     TEXT NOT NULL,
    seq       INTEGER NOT NULL,
    PRIMARY KEY (namespace, key)
);
CREATE INDEX IF NOT EXISTS idx_gae_store_ns_seq ON gae_store (namespace, seq);
"""

# Upsert that keeps the row's original seq, so first-insertion order
# survives overwrites (dict semantics, matching MemoryStore).
_UPSERT = (
    "INSERT INTO gae_store (namespace, key, value, seq) VALUES (?, ?, ?, ?) "
    "ON CONFLICT (namespace, key) DO UPDATE SET value = excluded.value"
)


class SqliteStore(StateStore):
    """File-backed store; WAL journaling, batched upserts, shared file."""

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._closed = False
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            self._conn.commit()
            row = self._conn.execute("SELECT COALESCE(MAX(seq), 0) FROM gae_store").fetchone()
            self._seq = int(row[0])
            self._namespaces: Dict[str, Namespace] = {
                name: Namespace(name=name, version=version, description=description)
                for name, version, description in self._conn.execute(
                    "SELECT name, version, description FROM gae_store_ns ORDER BY rowid"
                )
            }

    # -- namespace management ------------------------------------------

    def register_namespace(self, namespace: Namespace) -> Namespace:
        with self._lock:
            surviving = check_registration(self._namespaces.get(namespace.name), namespace)
            if namespace.name not in self._namespaces:
                self._conn.execute(
                    "INSERT INTO gae_store_ns (name, version, description) VALUES (?, ?, ?)",
                    (namespace.name, namespace.version, namespace.description),
                )
                self._conn.commit()
            self._namespaces[namespace.name] = surviving
            return surviving

    def namespaces(self) -> List[Namespace]:
        with self._lock:
            return list(self._namespaces.values())

    def _check(self, namespace: str) -> str:
        if namespace not in self._namespaces:
            raise UnknownNamespaceError(namespace)
        return namespace

    # -- key/value ------------------------------------------------------

    def put(self, namespace: str, key: str, value: Any) -> None:
        encoded = encode_value(value)
        with self._lock:
            self._check(namespace)
            self._seq += 1
            self._conn.execute(_UPSERT, (namespace, key, encoded, self._seq))
            self._conn.commit()

    def put_many(self, namespace: str, items: Iterable[Tuple[str, Any]]) -> int:
        encoded = [(key, encode_value(value)) for key, value in items]
        with self._lock:
            self._check(namespace)
            base = self._seq
            rows = [
                (namespace, key, raw, base + i + 1) for i, (key, raw) in enumerate(encoded)
            ]
            self._seq = base + len(rows)
            self._conn.executemany(_UPSERT, rows)
            self._conn.commit()
        return len(encoded)

    def get(self, namespace: str, key: str, default: Any = StateStore._missing()) -> Any:
        with self._lock:
            self._check(namespace)
            row = self._conn.execute(
                "SELECT value FROM gae_store WHERE namespace = ? AND key = ?",
                (namespace, key),
            ).fetchone()
        if row is None:
            return self._resolve_default(key, default)
        return decode_value(row[0])

    def keys(self, namespace: str) -> List[str]:
        with self._lock:
            self._check(namespace)
            return [
                key
                for (key,) in self._conn.execute(
                    "SELECT key FROM gae_store WHERE namespace = ? ORDER BY seq", (namespace,)
                )
            ]

    def items(self, namespace: str) -> List[Tuple[str, Any]]:
        with self._lock:
            self._check(namespace)
            rows = self._conn.execute(
                "SELECT key, value FROM gae_store WHERE namespace = ? ORDER BY seq",
                (namespace,),
            ).fetchall()
        return [(key, decode_value(raw)) for key, raw in rows]

    def delete(self, namespace: str, key: str) -> bool:
        with self._lock:
            self._check(namespace)
            cur = self._conn.execute(
                "DELETE FROM gae_store WHERE namespace = ? AND key = ?", (namespace, key)
            )
            self._conn.commit()
            return cur.rowcount > 0

    def clear(self, namespace: str) -> int:
        with self._lock:
            self._check(namespace)
            cur = self._conn.execute(
                "DELETE FROM gae_store WHERE namespace = ?", (namespace,)
            )
            self._conn.commit()
            return cur.rowcount

    def count(self, namespace: str) -> int:
        with self._lock:
            self._check(namespace)
            row = self._conn.execute(
                "SELECT COUNT(*) FROM gae_store WHERE namespace = ?", (namespace,)
            ).fetchone()
            return int(row[0])

    # -- relational escape hatch ---------------------------------------

    def sql_connection(self) -> sqlite3.Connection:
        with self._lock:
            if self._closed:
                raise RuntimeError("store is closed")
            return self._conn

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._conn.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SqliteStore(path={self.path!r}, namespaces={len(self._namespaces)})"


def read_store_file(path: str) -> MemoryStore:
    """Load every namespace of the store file at *path* into memory.

    The file is opened read-only and immutable, so reading never creates
    it, never writes its schema and never leaves ``-wal``/``-shm`` side
    files next to it — what a restore needs, where :class:`SqliteStore`
    (which opens for writing) would do all three.  A missing, truncated
    or non-SQLite file raises :class:`sqlite3.DatabaseError`.
    """
    store = MemoryStore()
    uri = Path(path).resolve().as_uri() + "?mode=ro&immutable=1"
    with contextlib.closing(sqlite3.connect(uri, uri=True)) as conn:
        for name, version, description in conn.execute(
            "SELECT name, version, description FROM gae_store_ns ORDER BY rowid"
        ):
            store.register_namespace(Namespace(name, version, description))
        for namespace, key, raw in conn.execute(
            "SELECT namespace, key, value FROM gae_store ORDER BY seq"
        ):
            store.put(namespace, key, decode_value(raw))
    return store
