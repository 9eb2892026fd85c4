"""Attribute payloads as a ``values`` tuple over a shared ``keys`` tuple.

The journal's rows and the tracer's spans both keep their attributes so,
not as a dict each: every payload of one shape shares one interned keys
tuple.  :func:`payload` makes one from a mapping, :func:`updated` writes
more attributes into one (how a span's slot takes its later fields).
:func:`shared` hands out one object per distinct value (the journal's
payloads, the tasks' specs).  This module needs only the standard
library, so all of them can import it without a cycle.
"""

from __future__ import annotations

import marshal
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = ["SHARED_MAX", "payload", "shared", "updated"]

#: One ``keys`` tuple per payload shape, shared by every row of that shape.
#: The shapes are the producers' keyword sets (and those of the rows a
#: checkpoint restores), a few dozen at most.  An interning table: what it
#: holds changes no row's value, only which of two equal tuples a row keeps.
_KEYSETS: Dict[Tuple[str, ...], Tuple[str, ...]] = {}


def payload(
    attributes: Optional[Mapping[str, Any]],
) -> Tuple[Tuple[str, ...], Tuple[Any, ...]]:
    """``(keys, values)`` of a payload, the keys tuple interned."""
    if not attributes:
        return (), ()
    keys = tuple(attributes)
    return _KEYSETS.setdefault(keys, keys), tuple(attributes.values())


def updated(
    keys: Tuple[str, ...], values: Tuple[Any, ...], attributes: Mapping[str, Any],
) -> Tuple[Tuple[str, ...], Tuple[Any, ...]]:
    """``(keys, values)`` of that payload updated with *attributes*, as a
    dict would be: a key it has keeps its place and takes the new value,
    a new key goes at the end."""
    if attributes.keys().isdisjoint(keys):  # the common case: only new keys
        keys += tuple(attributes)
        return _KEYSETS.setdefault(keys, keys), values + tuple(attributes.values())
    merged = dict(zip(keys, values))
    merged.update(attributes)
    return payload(merged)


#: The most values one :func:`shared` table holds: a full table that meets
#: a new value starts over, so it follows the values a run repeats now.
SHARED_MAX = 128
#: Immutable types whose ``marshal`` bytes tell apart values that are
#: equal but not alike: ``1``, ``1.0`` and ``True``; ``0.0`` and ``-0.0``.
_ATOMS = frozenset({str, int, float, bool, type(None)})


def shared(table: Dict[bytes, Any], value: Any, fields: Tuple[Any, ...]) -> Any:
    """The object *table* holds for *fields* (what *value* is made of),
    else *value*, which it then holds.  Keyed by ``marshal`` bytes (format
    2 writes no back-references: the bytes depend on the values alone), so
    a value only stands for one alike in type and sign; *fields* holding
    anything but atoms keep *value* unshared."""
    if not _ATOMS.issuperset(map(type, fields)):
        return value
    key = marshal.dumps(fields, 2)
    held = table.get(key)
    if held is None:
        if len(table) >= SHARED_MAX:
            table.clear()
        held = table[key] = value
    return held
