"""Service registry: the schema catalogue queries are compiled against.

The registry stores service marts, their registered service interfaces,
and the connection patterns between marts.  The query compiler uses it to

* resolve service atoms (which may name a mart *or* a specific interface —
  Section 3.1 allows queries "with exactly the same syntax and semantics,
  either over service marts or over service interfaces");
* expand connection-pattern atoms into join predicates;
* enumerate candidate interfaces per mart during the optimizer's phase 1
  (access-pattern / interface selection).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError
from repro.model.connections import ConnectionPattern, _PatternIndex
from repro.model.service import ServiceInterface, ServiceMart

__all__ = ["ServiceRegistry"]


@dataclass
class ServiceRegistry:
    """Catalogue of marts, interfaces, and connection patterns."""

    _marts: dict[str, ServiceMart] = field(default_factory=dict)
    _interfaces: dict[str, ServiceInterface] = field(default_factory=dict)
    _by_mart: dict[str, list[str]] = field(default_factory=dict)
    _patterns: _PatternIndex = field(default_factory=_PatternIndex)

    # -- registration ---------------------------------------------------------

    def register_mart(self, mart: ServiceMart) -> ServiceMart:
        """Register a mart; re-registering the identical object is a no-op."""
        existing = self._marts.get(mart.name)
        if existing is not None:
            if existing is mart or existing == mart:
                return mart
            raise SchemaError(f"mart {mart.name!r} already registered differently")
        self._marts[mart.name] = mart
        self._by_mart.setdefault(mart.name, [])
        return mart

    def register_interface(self, interface: ServiceInterface) -> ServiceInterface:
        """Register an interface, registering its mart on the fly."""
        if interface.name in self._interfaces:
            raise SchemaError(f"interface {interface.name!r} already registered")
        if interface.name in self._marts:
            raise SchemaError(
                f"interface name {interface.name!r} collides with a mart name"
            )
        self.register_mart(interface.mart)
        self._interfaces[interface.name] = interface
        self._by_mart[interface.mart.name].append(interface.name)
        return interface

    def register_pattern(self, pattern: ConnectionPattern) -> ConnectionPattern:
        self.register_mart(pattern.source)
        self.register_mart(pattern.target)
        self._patterns.add(pattern)
        return pattern

    # -- lookup ----------------------------------------------------------------

    def mart(self, name: str) -> ServiceMart:
        if name not in self._marts:
            raise SchemaError(f"unknown service mart {name!r}")
        return self._marts[name]

    def interface(self, name: str) -> ServiceInterface:
        if name not in self._interfaces:
            raise SchemaError(f"unknown service interface {name!r}")
        return self._interfaces[name]

    def has_interface(self, name: str) -> bool:
        return name in self._interfaces

    def interfaces_of(self, mart_name: str) -> tuple[ServiceInterface, ...]:
        """All interfaces registered for a mart, in registration order."""
        if mart_name not in self._marts:
            raise SchemaError(f"unknown service mart {mart_name!r}")
        return tuple(self._interfaces[n] for n in self._by_mart[mart_name])

    def pattern(self, name: str) -> ConnectionPattern:
        return self._patterns.get(name)

    def has_pattern(self, name: str) -> bool:
        return name in self._patterns.by_name

    def patterns_between(self, mart_a: str, mart_b: str) -> tuple[ConnectionPattern, ...]:
        return self._patterns.between(mart_a, mart_b)

    def resolve_atom(self, name: str) -> tuple[ServiceMart, ServiceInterface | None]:
        """Resolve a query atom naming either an interface or a mart.

        Returns ``(mart, interface)`` where ``interface`` is ``None`` when
        the atom names a mart (interface selection is then deferred to the
        optimizer's phase 1).
        """
        if name in self._interfaces:
            iface = self._interfaces[name]
            return iface.mart, iface
        if name in self._marts:
            return self._marts[name], None
        raise SchemaError(f"{name!r} names neither an interface nor a mart")

    # -- introspection ----------------------------------------------------------

    @property
    def interface_names(self) -> tuple[str, ...]:
        return tuple(self._interfaces)

    @property
    def pattern_names(self) -> tuple[str, ...]:
        return tuple(self._patterns.by_name)

    def describe(self) -> str:
        """Multi-line human-readable catalogue listing."""
        lines = ["Service registry:"]
        for mart_name in self._marts:
            lines.append(f"  mart {mart_name}")
            for iface_name in self._by_mart.get(mart_name, ()):
                lines.append(f"    {self._interfaces[iface_name].describe()}")
        for pattern in self._patterns.by_name.values():
            lines.append(f"  pattern {pattern}")
        return "\n".join(lines)
