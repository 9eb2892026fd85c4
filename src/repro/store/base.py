"""The state store every GAE service persists through.

The paper's services are explicitly stateful and recoverable: the Job
Monitoring Service owns "a database repository" behind a DBManager
(§5.4) and Backup & Recovery (§4.2.4) must outlive any single Execution
Service.  This module gives all of that state one home: a
:class:`StateStore` is a namespaced key/value store with *typed,
versioned namespaces* and an escape hatch (:meth:`StateStore.sql_connection`)
for the one service whose public API is genuinely relational.

A store is one SQLite database: ``StateStore()`` in memory (what
``build_gae`` threads through a GAE, and every scratch store), or
``StateStore(path)`` on file (a checkpoint).  The DBManager's tables sit
on the same connection, so a GAE never holds a second copy of its
state, and :func:`read_store_file` loads a file by copying its pages
into a fresh in-memory store.  Every value runs through one JSON codec
— tuples become lists, floats round-trip exactly (``repr``-based JSON
float encoding is lossless for IEEE doubles), dict key order is
preserved — which is what lets checkpoint/restore promise bit-identical
estimator and monitoring answers.

Namespaces are registered before use (:meth:`StateStore.register_namespace`)
with an integer schema version; reading or writing an unregistered
namespace raises :class:`UnknownNamespaceError`, and re-registering a
namespace at a different version raises :class:`NamespaceVersionError` —
the guard that future schema migrations hang off.
"""

from __future__ import annotations

import contextlib
import json
import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple

__all__ = [
    "Namespace",
    "NamespaceVersionError",
    "StateStore",
    "StoreError",
    "UnknownNamespaceError",
    "decode_value",
    "encode_value",
    "read_store_file",
]


class StoreError(RuntimeError):
    """Base class for state-store failures."""


class UnknownNamespaceError(StoreError, KeyError):
    """A namespace was used before being registered.

    Subclasses :class:`KeyError` so callers treating namespaces as a
    mapping keep working.
    """

    def __init__(self, namespace: str) -> None:
        super().__init__(f"namespace {namespace!r} is not registered")
        self.namespace = namespace

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]


class NamespaceVersionError(StoreError):
    """A namespace was re-registered at an incompatible schema version."""

    def __init__(self, namespace: str, registered: int, requested: int) -> None:
        super().__init__(
            f"namespace {namespace!r} is at schema version {registered}, "
            f"cannot open as version {requested}"
        )
        self.namespace = namespace
        self.registered = registered
        self.requested = requested


@dataclass(frozen=True)
class Namespace:
    """A typed, versioned bucket of keys inside a :class:`StateStore`."""

    name: str
    version: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("namespace name must be non-empty")
        if self.version < 1:
            raise ValueError(f"namespace version must be >= 1, got {self.version}")


def encode_value(value: Any) -> str:
    """The one JSON encoding of a stored value.

    ``sort_keys`` is deliberately off: dict insertion order is part of
    several stores' semantics (e.g. MonALISA series registration order).
    """
    return json.dumps(value, separators=(",", ":"), allow_nan=True)


def decode_value(raw: str) -> Any:
    """Inverse of :func:`encode_value`."""
    return json.loads(raw)


_MISSING = object()

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

# Upsert that keeps the row's original seq, so keys iterate in
# first-insertion order across overwrites (dict semantics).
_UPSERT = (
    "INSERT INTO gae_store (namespace, key, value, seq) VALUES (?, ?, ?, ?) "
    "ON CONFLICT (namespace, key) DO UPDATE SET value = excluded.value"
)


class StateStore:
    """Namespaced key/value persistence with versioned schemas.

    One SQLite database: ``:memory:`` by default, else the file at
    *path*.  A ``gae_store`` key/value table carries a monotonic ``seq``
    column, so keys within a namespace iterate in **first-insertion
    order** — an overwrite keeps the key's original position; a
    ``gae_store_ns`` table records each namespace's schema version; and
    :meth:`sql_connection` hands out the same connection for the
    relational tables the monitoring DBManager creates, so a checkpoint
    is a single ordinary SQLite file.  On file, the journal is WAL
    (readers don't block the writer); :meth:`put_many` is one
    ``executemany`` inside one transaction.  Thread-safe.
    """

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
            self._load()

    def _load(self) -> None:
        """Read the sequence head and the namespace records back."""
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
        """Idempotently register a namespace; version mismatch raises."""
        with self._lock:
            registered = self._namespaces.get(namespace.name)
            if registered is not None:
                if registered.version != namespace.version:
                    raise NamespaceVersionError(
                        namespace.name, registered.version, namespace.version
                    )
                return registered
            self._conn.execute(
                "INSERT INTO gae_store_ns (name, version, description) VALUES (?, ?, ?)",
                (namespace.name, namespace.version, namespace.description),
            )
            self._conn.commit()
            self._namespaces[namespace.name] = namespace
            return namespace

    def namespaces(self) -> List[Namespace]:
        """All registered namespaces, in registration order."""
        with self._lock:
            return list(self._namespaces.values())

    def namespace(self, name: str) -> Namespace:
        """One registered namespace by name."""
        with self._lock:
            if name not in self._namespaces:
                raise UnknownNamespaceError(name)
            return self._namespaces[name]

    def _check(self, namespace: str) -> None:
        if namespace not in self._namespaces:
            raise UnknownNamespaceError(namespace)

    # -- key/value ------------------------------------------------------

    def put(self, namespace: str, key: str, value: Any) -> None:
        """Insert or overwrite one value."""
        encoded = encode_value(value)
        with self._lock:
            self._check(namespace)
            self._seq += 1
            self._conn.execute(_UPSERT, (namespace, key, encoded, self._seq))
            self._conn.commit()

    def put_many(self, namespace: str, items: Iterable[Tuple[str, Any]]) -> int:
        """Batched upsert in one transaction; returns the item count."""
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

    def get(self, namespace: str, key: str, default: Any = _MISSING) -> Any:
        """One value; *default* when the key is absent, else KeyError."""
        with self._lock:
            self._check(namespace)
            row = self._conn.execute(
                "SELECT value FROM gae_store WHERE namespace = ? AND key = ?",
                (namespace, key),
            ).fetchone()
        if row is not None:
            return decode_value(row[0])
        if default is _MISSING:
            raise KeyError(key)
        return default

    def keys(self, namespace: str) -> List[str]:
        """Keys in first-insertion order."""
        with self._lock:
            self._check(namespace)
            return [
                key
                for (key,) in self._conn.execute(
                    "SELECT key FROM gae_store WHERE namespace = ? ORDER BY seq", (namespace,)
                )
            ]

    def items(self, namespace: str) -> List[Tuple[str, Any]]:
        """(key, value) pairs in first-insertion order."""
        with self._lock:
            self._check(namespace)
            rows = self._conn.execute(
                "SELECT key, value FROM gae_store WHERE namespace = ? ORDER BY seq",
                (namespace,),
            ).fetchall()
        return [(key, decode_value(raw)) for key, raw in rows]

    def values(self, namespace: str) -> List[Any]:
        return [v for _, v in self.items(namespace)]

    def delete(self, namespace: str, key: str) -> bool:
        """Remove one key; True when it existed."""
        with self._lock:
            self._check(namespace)
            cur = self._conn.execute(
                "DELETE FROM gae_store WHERE namespace = ? AND key = ?", (namespace, key)
            )
            self._conn.commit()
            return cur.rowcount > 0

    def clear(self, namespace: str) -> int:
        """Remove every key in the namespace; returns how many."""
        with self._lock:
            self._check(namespace)
            cur = self._conn.execute(
                "DELETE FROM gae_store WHERE namespace = ?", (namespace,)
            )
            self._conn.commit()
            return cur.rowcount

    def count(self, namespace: str) -> int:
        """Number of keys in the namespace."""
        with self._lock:
            self._check(namespace)
            row = self._conn.execute(
                "SELECT COUNT(*) FROM gae_store WHERE namespace = ?", (namespace,)
            ).fetchone()
            return int(row[0])

    # -- relational escape hatch ---------------------------------------

    def sql_connection(self) -> sqlite3.Connection:
        """The store's own SQLite connection.

        This is how the monitoring :class:`~repro.core.monitoring.db_manager.DBManager`
        keeps its SQL-queryable schema while sharing the store's file (or
        memory) lifetime.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("store is closed")
            return self._conn

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Idempotently release the connection."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._conn.close()

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateStore(path={self.path!r}, namespaces={len(self._namespaces)})"


def read_store_file(path: str) -> StateStore:
    """A fresh in-memory :class:`StateStore` holding the file at *path*.

    The file's pages are copied whole (``sqlite3.Connection.backup``),
    so every table, ``seq`` and raw value string arrives as written.  The
    file is opened read-only and immutable, so reading never creates it,
    never writes its schema and never leaves ``-wal``/``-shm`` side files
    next to it — what a restore needs, where ``StateStore(path)`` (which
    opens for writing) would do all three.  A missing, truncated or
    non-SQLite file raises :class:`sqlite3.DatabaseError`.
    """
    store = StateStore()
    uri = Path(path).resolve().as_uri() + "?mode=ro&immutable=1"
    try:
        with contextlib.closing(sqlite3.connect(uri, uri=True)) as source, store._lock:
            source.backup(store._conn)
            store._load()
    except BaseException:
        store.close()
        raise
    return store
