"""Service and method registration.

A Clarens host serves many *services*, each exposing a set of *methods*.
Services are ordinary Python objects; which methods are exposed is decided,
in order of precedence, by

1. an explicit ``methods=`` list at registration time,
2. ``@clarens_method`` decorations on the class, or
3. the fallback: every public callable attribute.

Each exposed method carries metadata (docstring, whether anonymous callers
are allowed) used by the dispatcher and by the introspection methods
(``system.listMethods`` and friends).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.clarens.errors import MethodNotFound, ServiceNotFound

_CLARENS_ATTR = "_clarens_exposed"


def clarens_method(
    func: Optional[Callable] = None,
    *,
    anonymous: bool = False,
    pass_principal: bool = False,
    pass_context: bool = False,
    cache: Optional[Any] = None,
) -> Callable:
    """Mark a method for exposure through a Clarens host.

    Parameters
    ----------
    anonymous:
        When true the method may be called without a session token (e.g.
        ``ping`` or a public lookup).
    pass_principal:
        When true the dispatcher injects the authenticated
        :class:`~repro.clarens.auth.Principal` as the first argument —
        how the steering service learns *who* is steering (§4.2.5).
    pass_context:
        When true the dispatcher injects the full in-flight
        :class:`~repro.clarens.middleware.CallContext` instead — how
        ``system.multicall`` propagates one trace id over a whole batch.
        Takes precedence over ``pass_principal``.
    cache:
        A :class:`~repro.clarens.readcache.ReadPolicy` declaring the
        method read-only and naming the epochs its answer depends on.
        Policy-bearing methods are served by ``ReadCacheMiddleware`` and
        are eligible for multicall coalescing.  Leave ``None`` (the
        default) for anything that mutates state or draws randomness.
    """

    def mark(f: Callable) -> Callable:
        setattr(f, _CLARENS_ATTR, {
            "anonymous": anonymous,
            "pass_principal": pass_principal,
            "pass_context": pass_context,
            "cache": cache,
        })
        return f

    if func is not None:
        return mark(func)
    return mark


@dataclass
class MethodEntry:
    """One exposed method."""

    name: str
    func: Callable[..., Any]
    #: The dotted ``service.method`` path it is served under.
    path: str
    doc: str = ""
    anonymous: bool = False
    pass_principal: bool = False
    pass_context: bool = False
    #: ReadPolicy when the method is a cacheable read, else None.
    cache: Optional[Any] = None
    #: Its calls' ``rpc:`` span name, built once here: every served call
    #: of the method shares this string and ``path`` instead of copies.
    span_name: str = field(init=False)

    def __post_init__(self) -> None:
        self.span_name = f"rpc:{self.path}"

    def signature(self) -> str:
        """Human-readable call signature for introspection."""
        try:
            return f"{self.name}{inspect.signature(self.func)}"
        except (TypeError, ValueError):  # pragma: no cover - builtins
            return f"{self.name}(...)"


@dataclass
class ServiceEntry:
    """One registered service and its exposed methods."""

    name: str
    instance: Any
    methods: Dict[str, MethodEntry] = field(default_factory=dict)
    description: str = ""

    def method(self, method_name: str) -> MethodEntry:
        try:
            return self.methods[method_name]
        except KeyError:
            raise MethodNotFound(
                f"service {self.name!r} has no method {method_name!r}"
            ) from None


class ServiceRegistry:
    """The name → service map a Clarens host dispatches against."""

    def __init__(self) -> None:
        self._services: Dict[str, ServiceEntry] = {}

    def register(
        self,
        name: str,
        instance: Any,
        methods: Optional[List[str]] = None,
        description: str = "",
    ) -> ServiceEntry:
        """Register *instance* as service *name*.

        See the module docstring for how the exposed method set is chosen.
        Registering the same name twice is an error (use :meth:`unregister`
        first) — silently replacing a live service is how 2005-era grids
        got spoofed.
        """
        if name in self._services:
            raise ValueError(f"service {name!r} already registered")
        entry = ServiceEntry(name=name, instance=instance, description=description)
        if methods is not None:
            selected = methods
        else:
            decorated = [
                attr
                for attr in dir(instance)
                if not attr.startswith("_")
                and callable(getattr(instance, attr, None))
                and hasattr(getattr(instance, attr), _CLARENS_ATTR)
            ]
            if decorated:
                selected = decorated
            else:
                selected = [
                    attr
                    for attr in dir(instance)
                    if not attr.startswith("_") and callable(getattr(instance, attr, None))
                ]
        for method_name in selected:
            func = getattr(instance, method_name, None)
            if func is None or not callable(func):
                raise ValueError(
                    f"service {name!r}: {method_name!r} is not a callable attribute"
                )
            meta = getattr(func, _CLARENS_ATTR, {})
            entry.methods[method_name] = MethodEntry(
                name=method_name,
                func=func,
                path=f"{name}.{method_name}",
                doc=inspect.getdoc(func) or "",
                anonymous=bool(meta.get("anonymous", False)),
                pass_principal=bool(meta.get("pass_principal", False)),
                pass_context=bool(meta.get("pass_context", False)),
                cache=meta.get("cache"),
            )
        self._services[name] = entry
        return entry

    def unregister(self, name: str) -> None:
        """Remove a service (ServiceNotFound if absent)."""
        if name not in self._services:
            raise ServiceNotFound(f"no service {name!r}")
        del self._services[name]

    def service(self, name: str) -> ServiceEntry:
        """Look a service up (ServiceNotFound if absent)."""
        try:
            return self._services[name]
        except KeyError:
            raise ServiceNotFound(f"no service {name!r}") from None

    def has(self, name: str) -> bool:
        """Whether a service with this name is registered."""
        return name in self._services

    def names(self) -> List[str]:
        """Registered service names, sorted."""
        return sorted(self._services)

    def resolve(self, method_path: str) -> MethodEntry:
        """Resolve a dotted ``service.method`` path to its entry."""
        if "." not in method_path:
            raise MethodNotFound(
                f"method path {method_path!r} must look like 'service.method'"
            )
        service_name, method_name = method_path.rsplit(".", 1)
        return self.service(service_name).method(method_name)
