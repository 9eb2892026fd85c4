"""Unified pluggable state-store layer (persistence & recovery substrate).

Public surface:

- :class:`StateStore` protocol with :class:`MemoryStore` and
  :class:`SqliteStore` backends (same JSON value codec → bit-identical
  reads across backends);
- the canonical namespace registry (:data:`NAMESPACES`, ``register_all``);
- GAE-wide checkpoint/restore in :mod:`repro.store.checkpoint`: one file
  format written by :class:`Checkpointer` (self-contained, or a
  continuation of a base) and one reader, :func:`restore_gae`.
"""

from repro.store.base import (
    Namespace,
    NamespaceVersionError,
    StateStore,
    StoreError,
    UnknownNamespaceError,
)
from repro.store.memory import MemoryStore
from repro.store.registry import NAMESPACES, namespace_names, register_all
from repro.store.sqlite import SqliteStore

__all__ = [
    "CheckpointError",
    "CheckpointInfo",
    "Checkpointer",
    "MemoryStore",
    "NAMESPACES",
    "Namespace",
    "NamespaceVersionError",
    "SqliteStore",
    "StateStore",
    "StoreError",
    "UnknownNamespaceError",
    "namespace_names",
    "register_all",
    "restore_gae",
]

_CHECKPOINT_EXPORTS = ("CheckpointError", "CheckpointInfo", "Checkpointer", "restore_gae")


def __getattr__(name: str):
    # The checkpoint module imports repro.gae (the whole wiring), which in
    # turn imports repro.store.base — loading it eagerly here would be a
    # cycle.  Resolve the checkpoint names on first touch instead.
    if name in _CHECKPOINT_EXPORTS:
        from repro.store import checkpoint

        return getattr(checkpoint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
