"""Service marts, service interfaces, and access-pattern adornments.

This module implements the service model that queries are expressed over
(Sections 3 and 5.6 of the chapter):

* A :class:`ServiceMart` is the abstract schema of an information source:
  a name plus attributes (atomic attributes and repeating groups).
* A :class:`ServiceInterface` is a concrete invokable implementation of a
  mart.  It decorates every attribute with an *adornment* — ``I`` (input:
  must be bound to invoke), ``O`` (output), or ``R`` (ranked output, i.e.
  the attribute contributes to the relevance order) — exactly as in the
  Section 5.6 listing, e.g. ``Theatre1(Name^O, UAddress^I, ...)``.
* Interfaces are classified as **exact** or **search** services.  Search
  services are always *proliferative* (more output than input tuples) and
  *chunked*; exact services may be chunked or not and are *selective* when
  their average cardinality is below one tuple per invocation.

Interfaces also carry the statistics the optimizer's cost model consumes:
average cardinality, chunk size, per-call latency and monetary cost, and
the scoring-function shape of ranked services.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from repro.errors import SchemaError
from repro.model.attributes import (
    Attribute,
    AttributePath,
    RepeatingGroup,
    parse_path,
)
from repro.model.scoring import ConstantScoring, ScoringFunction

__all__ = [
    "Adornment",
    "ServiceKind",
    "AccessPattern",
    "ServiceMart",
    "ServiceStats",
    "ServiceInterface",
]


class Adornment(Enum):
    """Binding-pattern adornment of one attribute in a service interface."""

    INPUT = "I"
    OUTPUT = "O"
    RANKED = "R"

    @property
    def is_output(self) -> bool:
        """Ranked attributes are outputs too: they appear in result tuples."""
        return self in (Adornment.OUTPUT, Adornment.RANKED)


class ServiceKind(Enum):
    """Exact ("relational" behaviour) vs. search (ranked, chunked) services."""

    EXACT = "exact"
    SEARCH = "search"


@dataclass(frozen=True)
class ServiceMart:
    """Abstract schema of an information source.

    Attribute names (including repeating-group names) must be unique within
    the mart.  Marts are identified by name in the registry; connection
    patterns are defined between marts.
    """

    name: str
    attributes: tuple[Attribute | RepeatingGroup, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("service mart needs a name")
        seen: set[str] = set()
        for attr in self.attributes:
            if attr.name in seen:
                raise SchemaError(
                    f"duplicate attribute {attr.name!r} in mart {self.name!r}"
                )
            seen.add(attr.name)

    def attribute(self, name: str) -> Attribute | RepeatingGroup:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise SchemaError(f"mart {self.name!r} has no attribute {name!r}")

    def has_attribute(self, name: str) -> bool:
        return any(attr.name == name for attr in self.attributes)

    def resolve(self, path: AttributePath | str) -> Attribute:
        """Resolve a path to the atomic attribute it addresses.

        ``"Title"`` resolves to an atomic attribute; ``"Openings.Date"``
        resolves to the ``Date`` sub-attribute of the ``Openings`` group.
        Addressing a repeating group without a sub-attribute, or a
        sub-attribute of an atomic attribute, raises :class:`SchemaError`.
        """
        if isinstance(path, str):
            path = parse_path(path)
        if path.group is None:
            attr = self.attribute(path.name)
            if isinstance(attr, RepeatingGroup):
                raise SchemaError(
                    f"{self.name}.{path.name} is a repeating group; "
                    "address one of its sub-attributes"
                )
            return attr
        group = self.attribute(path.group)
        if not isinstance(group, RepeatingGroup):
            raise SchemaError(f"{self.name}.{path.group} is not a repeating group")
        return group.sub_attribute(path.name)

    def paths(self) -> tuple[AttributePath, ...]:
        """All atomic paths of the mart, groups expanded to sub-attributes."""
        out: list[AttributePath] = []
        for attr in self.attributes:
            if isinstance(attr, RepeatingGroup):
                out.extend(
                    AttributePath(attr.name, sub.name) for sub in attr.sub_attributes
                )
            else:
                out.append(AttributePath(attr.name))
        return tuple(out)


@dataclass(frozen=True)
class AccessPattern:
    """Adornment of every atomic path of a mart.

    Paths omitted from ``adornments`` default to ``OUTPUT``.  At least the
    declared input paths must be bound (by constants, INPUT variables, or
    piped join values) before the interface can be invoked.
    """

    adornments: Mapping[str, Adornment] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "adornments", dict(self.adornments))

    def adornment_of(self, path: AttributePath | str) -> Adornment:
        key = str(path)
        return self.adornments.get(key, Adornment.OUTPUT)

    def input_paths(self) -> tuple[str, ...]:
        return tuple(
            sorted(k for k, v in self.adornments.items() if v is Adornment.INPUT)
        )

    @classmethod
    def from_spec(cls, spec: Mapping[str, str]) -> "AccessPattern":
        """Build from ``{"path": "I" | "O" | "R"}`` shorthand."""
        return cls({key: Adornment(value) for key, value in spec.items()})


@dataclass(frozen=True)
class ServiceStats:
    """Statistics the cost model needs about one interface.

    Parameters
    ----------
    avg_cardinality:
        Expected number of result tuples per invocation (before chunking).
        Exact services with ``avg_cardinality < 1`` are *selective*.
    chunk_size:
        Tuples per fetch for chunked services; ``None`` means the service
        returns all its results in a single response.
    latency:
        Expected virtual-time cost of one request-response round trip.
    per_tuple_latency:
        Additional virtual time per returned tuple (transfer cost).
    invocation_fee:
        Monetary/charged cost per call, consumed by the sum cost metric.
    """

    avg_cardinality: float = 10.0
    chunk_size: int | None = None
    latency: float = 1.0
    per_tuple_latency: float = 0.0
    invocation_fee: float = 1.0

    def __post_init__(self) -> None:
        if self.avg_cardinality < 0:
            raise SchemaError("avg_cardinality cannot be negative")
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise SchemaError("chunk_size must be positive when set")
        if self.latency < 0 or self.per_tuple_latency < 0 or self.invocation_fee < 0:
            raise SchemaError("costs cannot be negative")


@dataclass(frozen=True)
class ServiceInterface:
    """A concrete, invokable implementation of a service mart.

    The interface couples the mart schema with an access pattern, a service
    kind, cost statistics, and (for ranked services) a scoring-function
    shape.  It enforces the chapter's classification rules:

    * search services are always chunked (a default chunk size of 10 is
      applied when none is given) and always ranked;
    * exact services use a constant scoring function.
    """

    name: str
    mart: ServiceMart
    access_pattern: AccessPattern = field(default_factory=AccessPattern)
    kind: ServiceKind = ServiceKind.EXACT
    stats: ServiceStats = field(default_factory=ServiceStats)
    scoring: ScoringFunction = field(default_factory=ConstantScoring)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("service interface needs a name")
        valid = {str(path) for path in self.mart.paths()}
        for key in self.access_pattern.adornments:
            if key not in valid:
                raise SchemaError(
                    f"interface {self.name!r} adorns unknown path {key!r} "
                    f"of mart {self.mart.name!r}"
                )
        if self.kind is ServiceKind.SEARCH:
            if self.stats.chunk_size is None:
                object.__setattr__(
                    self,
                    "stats",
                    ServiceStats(
                        avg_cardinality=self.stats.avg_cardinality,
                        chunk_size=10,
                        latency=self.stats.latency,
                        per_tuple_latency=self.stats.per_tuple_latency,
                        invocation_fee=self.stats.invocation_fee,
                    ),
                )
            if isinstance(self.scoring, ConstantScoring):
                raise SchemaError(
                    f"search service {self.name!r} needs a decaying scoring function"
                )

    # -- classification -----------------------------------------------------

    @property
    def is_search(self) -> bool:
        return self.kind is ServiceKind.SEARCH

    @property
    def is_chunked(self) -> bool:
        return self.stats.chunk_size is not None

    @property
    def chunk_size(self) -> int:
        """Chunk size, treating unchunked services as one chunk per call."""
        if self.stats.chunk_size is not None:
            return self.stats.chunk_size
        return max(1, round(self.stats.avg_cardinality))

    @property
    def is_ranked(self) -> bool:
        ranked = Adornment.RANKED in self.access_pattern.adornments.values()
        return self.is_search or ranked

    # -- schema helpers ------------------------------------------------------

    def input_paths(self) -> tuple[str, ...]:
        return self.access_pattern.input_paths()

    def adornment_of(self, path: AttributePath | str) -> Adornment:
        return self.access_pattern.adornment_of(path)

    def describe(self) -> str:
        """Render the interface in the chapter's adornment notation."""
        parts = []
        for path in self.mart.paths():
            parts.append(f"{path}^{self.access_pattern.adornment_of(path).value}")
        return f"{self.name}({', '.join(parts)})"
