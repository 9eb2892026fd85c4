"""The state store (persistence & recovery substrate).

Public surface:

- :class:`StateStore`, one SQLite database — ``StateStore()`` in memory,
  ``StateStore(path)`` on file — and :func:`read_store_file`, which
  loads a file into a fresh in-memory store without writing to it;
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
    read_store_file,
)
from repro.store.registry import NAMESPACES, namespace_names, register_all

__all__ = [
    "CheckpointError",
    "CheckpointInfo",
    "Checkpointer",
    "NAMESPACES",
    "Namespace",
    "NamespaceVersionError",
    "StateStore",
    "StoreError",
    "UnknownNamespaceError",
    "namespace_names",
    "read_store_file",
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
