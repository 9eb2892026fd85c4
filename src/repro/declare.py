"""One codec for declarations: dataclasses read from and written to
JSON-shaped dicts by their own fields and annotations.

The grid config, a scenario's parts, health rules, steering-policy
overrides and the §6 ``TaskSpec`` a client sends all arrive as dicts, and
:func:`decode` reads every one of them by the same rules:

- a value that is not an object, a key that names no field (a ``_type``
  tag naming the class, as ``to_wire`` adds, excepted) and a missing
  field without a default (with ``defaults=False``, as a checkpoint
  reads what it recorded: any missing field) are refused;
- a ``str``, ``int`` or ``bool`` field takes only that type, and a bool
  never counts as a number; a ``float`` field also takes an int and
  stores ``float(value)``, and refuses NaN and ±Infinity;
- nested declarations, ``List`` / ``Tuple`` (stored as a tuple) and
  ``Dict`` / ``Mapping`` are read item by item; ``object`` takes anything.

A refusal is the *error* class the caller names (the family's own:
``ConfigError``, ``ScenarioError``, ``HealthRuleError``, or ``ValueError``
for a ``TaskSpec``), its message starting with the path of what it
refuses.  Domain rules stay in each class's ``__post_init__``, their
messages starting with the class's own root name (``rule.kind: …``,
``rule: …``), which :func:`decode` swaps for the path it decodes at.
:func:`encode` is the inverse: untagged, and every leaf (a big int, an
enum) kept as it is.  It walks a record by :func:`field_names`, the one
cached field plan of a class, as ``repro.clarens.serialization.to_wire``
does for its tagged wire form.  This module needs only the standard
library.

Doctest — one round trip and one path-qualified refusal::

    >>> from repro.config import ConfigError, GridConfig
    >>> grid = decode(GridConfig, {"sites": [{"name": "siteA", "background_load": 1}]},
    ...               "grid", ConfigError)
    >>> grid.sites[0]
    SiteConfig(name='siteA', nodes=1, cpus_per_node=1, background_load=1.0, cpu_hour_rate=1.0, idle_hour_rate=0.1)
    >>> encode(grid)["sites"]
    [{'name': 'siteA', 'nodes': 1, 'cpus_per_node': 1, 'background_load': 1.0, 'cpu_hour_rate': 1.0, 'idle_hour_rate': 0.1}]
    >>> decode(GridConfig, encode(grid), "grid", ConfigError) == grid
    True
    >>> decode(GridConfig, {"sites": [{"name": "siteA", "nodes": True}]}, "grid", ConfigError)
    Traceback (most recent call last):
        ...
    repro.config.ConfigError: grid.sites[0].nodes: expected an integer, got True
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from collections.abc import Mapping
from typing import Any, Optional, Tuple, Type, TypeVar

__all__ = ["decode", "encode", "field_names"]

T = TypeVar("T")

_MISSING = dataclasses.MISSING

#: What a scalar field's refusal says it expected.
_EXPECTED = {str: "a string", int: "an integer", bool: "a bool", float: "a number"}

#: Exact types :func:`encode` writes inline instead of recursing into.
_LEAVES = frozenset({str, int, float, bool, type(None)})


@functools.lru_cache(maxsize=None)
def field_names(cls: type) -> Optional[Tuple[str, ...]]:
    """*cls*'s field names in declaration order (None for no dataclass): a
    record's one field plan.  Names only, never annotations, so a record
    annotated with ``TYPE_CHECKING``-only types lowers all the same."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(f.name for f in dataclasses.fields(cls))


@functools.lru_cache(maxsize=None)
def _fields(cls: type) -> Tuple[Tuple[str, Any, bool], ...]:
    """``(name, annotation, required)`` per field, annotations resolved."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name], f.default is _MISSING and f.default_factory is _MISSING)
        for f in dataclasses.fields(cls)
    )


def decode(
    cls: Type[T], data: Any, path: str, error: Type[Exception], defaults: bool = True
) -> T:
    """Build a *cls* from the dict *data*, refusing with *error* at *path*.

    With *defaults* false a missing field is refused even where it has a
    default, at every depth: a recorded declaration must hold each one.
    """
    if not isinstance(data, dict):
        raise error(f"{path}: expected an object, got {type(data).__name__}")
    fields = _fields(cls)
    unknown = set(data).difference(name for name, _, _ in fields)
    if data.get("_type") == cls.__name__:
        unknown.discard("_type")
    if unknown:
        raise error(f"{path}: unknown keys {sorted(unknown, key=str)}")
    values = {}
    for name, annotation, required in fields:
        if name in data:
            values[name] = _value(annotation, data[name], f"{path}.{name}", error, defaults)
        elif required or not defaults:
            raise error(f"{path}.{name}: required")
    try:
        return cls(**values)
    except ValueError as exc:  # a domain rule of __post_init__
        raise error(_rooted(str(exc), path)) from None


def _rooted(message: str, path: str) -> str:
    """*message* with its leading root name swapped for *path*."""
    end = min((i for i in map(message.find, ".:[") if i >= 0), default=len(message))
    if message[:end].isidentifier():
        return path + message[end:]
    return f"{path}: {message}"


def _value(
    annotation: Any, value: Any, path: str, error: Type[Exception], defaults: bool
) -> Any:
    if annotation in _EXPECTED:
        accepted = (int, float) if annotation is float else annotation
        if not isinstance(value, accepted) or (
            isinstance(value, bool) and annotation is not bool
        ):
            raise error(f"{path}: expected {_EXPECTED[annotation]}, got {value!r}")
        if annotation is not float:
            return value
        try:
            number = float(value)
        except OverflowError:  # an int beyond every float
            number = math.inf
        if not math.isfinite(number):
            raise error(f"{path}: expected a finite number, got {value!r}")
        return number
    if dataclasses.is_dataclass(annotation):
        return decode(annotation, value, path, error, defaults)
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if origin in (dict, Mapping):
        if not isinstance(value, dict):
            raise error(f"{path}: expected an object, got {value!r}")
        return {
            key: _value(args[1], item, f"{path}.{key}", error, defaults)
            for key, item in value.items()
        }
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise error(f"{path}: expected a list, got {value!r}")
        if origin is list or args[-1] is Ellipsis:
            items = [args[0]] * len(value)
        elif len(value) != len(args):
            raise error(f"{path}: expected {len(args)} items, got {len(value)}")
        else:
            items = list(args)
        decoded = [
            _value(item, element, f"{path}[{i}]", error, defaults)
            for i, (item, element) in enumerate(zip(items, value))
        ]
        return decoded if origin is list else tuple(decoded)
    return value  # ``object`` / ``Any``: taken as it is


def encode(obj: Any) -> Any:
    """A declaration as the JSON-shaped dict :func:`decode` reads back."""
    names = field_names(type(obj))
    if names is not None:
        obj = {name: getattr(obj, name) for name in names}
    elif isinstance(obj, (list, tuple)):
        return [item if type(item) in _LEAVES else encode(item) for item in obj]
    elif not isinstance(obj, (dict, Mapping)):  # a dict skips the ABC's check
        return obj
    return {key: item if type(item) in _LEAVES else encode(item) for key, item in obj.items()}
