"""Attribute and domain model for service marts.

The Search Computing service model (book Chapter 9, summarised in the
reproduced Chapter 10, Section 3.1) describes each service mart by a flat
list of *attributes*.  An attribute is either

* an **atomic attribute** — single-valued, typed; or
* a **repeating group** — a multi-valued collection of sub-tuples over a
  non-empty set of atomic *sub-attributes* that collectively describe one
  property of the object (e.g. ``Openings(Country, Date)`` of a movie).

Attributes are addressed by dotted *paths*: ``Title`` addresses an atomic
attribute, ``Openings.Date`` addresses the sub-attribute ``Date`` of the
repeating group ``Openings``.

Domains carry a logical type used for type-compatibility checks between
joined attributes and between attributes and constants, plus an optional
cardinality hint used by the synthetic data generator to control join
selectivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.errors import SchemaError

__all__ = [
    "DataType",
    "Domain",
    "Attribute",
    "RepeatingGroup",
    "AttributePath",
    "parse_path",
]


class DataType(Enum):
    """Logical type of an atomic attribute.

    Only type-compatible attribute pairs can appear in a join predicate and
    only type-compatible constants in a selection predicate.  ``ANY`` is
    compatible with everything and is used for opaque values such as URLs.
    """

    STRING = "string"
    INTEGER = "integer"
    FLOAT = "float"
    DATE = "date"
    BOOLEAN = "boolean"
    ANY = "any"

    def is_compatible(self, other: "DataType") -> bool:
        """Return True when values of the two types may be compared."""
        if self is DataType.ANY or other is DataType.ANY:
            return True
        if {self, other} <= {DataType.INTEGER, DataType.FLOAT}:
            return True
        return self is other


@dataclass(frozen=True)
class Domain:
    """A typed value domain for an atomic attribute.

    Parameters
    ----------
    name:
        Human-readable domain name.  Domains with the same name are treated
        as the *same abstract domain*, which matters for query augmentation
        and for the synthetic data generator (two attributes drawn from the
        same domain share a value universe, so equijoins between them have
        non-trivial selectivity).
    dtype:
        Logical type of the values.
    size:
        Optional number of distinct values in the domain.  Used by the data
        generator: an equijoin between two uniform attributes over a domain
        of ``size`` *n* has selectivity ``1/n``.
    """

    name: str
    dtype: DataType = DataType.STRING
    size: int | None = None

    def __post_init__(self) -> None:
        if self.size is not None and self.size <= 0:
            raise SchemaError(f"domain {self.name!r} must have positive size")

    def is_compatible(self, other: "Domain") -> bool:
        """Domains are comparable when their logical types are."""
        return self.dtype.is_compatible(other.dtype)


@dataclass(frozen=True)
class Attribute:
    """An atomic, single-valued attribute of a service mart."""

    name: str
    domain: Domain = field(default_factory=lambda: Domain("generic"))

    def __post_init__(self) -> None:
        if not self.name or "." in self.name:
            raise SchemaError(f"invalid attribute name {self.name!r}")

    @property
    def dtype(self) -> DataType:
        return self.domain.dtype


@dataclass(frozen=True)
class RepeatingGroup:
    """A multi-valued attribute: a named set of atomic sub-attributes.

    The value of a repeating group in a tuple is a (possibly empty) sequence
    of sub-tuples over the sub-attributes.  Query semantics over repeating
    groups follows the *witness* rule of Section 3.1: a single sub-tuple must
    satisfy every predicate that mentions the group.
    """

    name: str
    sub_attributes: tuple[Attribute, ...]
    #: Typical number of member sub-tuples per object; ``None`` lets the
    #: data generator draw a small random count.  Groups that participate
    #: in join predicates should pin this so join selectivities stay
    #: faithful to the declared domain sizes.
    avg_members: int | None = None

    def __post_init__(self) -> None:
        if not self.name or "." in self.name:
            raise SchemaError(f"invalid repeating group name {self.name!r}")
        if not self.sub_attributes:
            raise SchemaError(
                f"repeating group {self.name!r} must have at least one sub-attribute"
            )
        if self.avg_members is not None and self.avg_members <= 0:
            raise SchemaError(
                f"repeating group {self.name!r} needs positive avg_members"
            )
        seen: set[str] = set()
        for sub in self.sub_attributes:
            if sub.name in seen:
                raise SchemaError(
                    f"duplicate sub-attribute {sub.name!r} in group {self.name!r}"
                )
            seen.add(sub.name)

    def sub_attribute(self, name: str) -> Attribute:
        """Return the sub-attribute called ``name``.

        Raises :class:`SchemaError` when the group has no such sub-attribute.
        """
        for sub in self.sub_attributes:
            if sub.name == name:
                return sub
        raise SchemaError(f"group {self.name!r} has no sub-attribute {name!r}")


@dataclass(frozen=True)
class AttributePath:
    """Dotted address of an atomic attribute or sub-attribute.

    ``AttributePath("Title")`` addresses an atomic attribute;
    ``AttributePath("Openings", "Date")`` addresses a sub-attribute of a
    repeating group.  The path never includes the service alias — pairing a
    path with an alias is the job of the query layer's ``AttrRef``.
    """

    group: str | None
    name: str

    def __init__(self, first: str, second: str | None = None) -> None:
        if second is None:
            object.__setattr__(self, "group", None)
            object.__setattr__(self, "name", first)
        else:
            object.__setattr__(self, "group", first)
            object.__setattr__(self, "name", second)

    @property
    def is_nested(self) -> bool:
        """True when the path addresses a sub-attribute of a repeating group."""
        return self.group is not None

    def _sort_key(self) -> tuple[str, str]:
        return (self.group or "", self.name)

    def __lt__(self, other: "AttributePath") -> bool:
        return self._sort_key() < other._sort_key()

    def __le__(self, other: "AttributePath") -> bool:
        return self._sort_key() <= other._sort_key()

    def __gt__(self, other: "AttributePath") -> bool:
        return self._sort_key() > other._sort_key()

    def __ge__(self, other: "AttributePath") -> bool:
        return self._sort_key() >= other._sort_key()

    def __str__(self) -> str:
        if self.group is None:
            return self.name
        return f"{self.group}.{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AttributePath({str(self)!r})"


def parse_path(text: str) -> AttributePath:
    """Parse ``"A"`` or ``"R.A"`` into an :class:`AttributePath`.

    Raises :class:`SchemaError` for empty segments or more than two levels
    of nesting (the model only allows one level of repeating groups).
    """
    parts = text.split(".")
    if any(not part for part in parts):
        raise SchemaError(f"invalid attribute path {text!r}")
    if len(parts) == 1:
        return AttributePath(parts[0])
    if len(parts) == 2:
        return AttributePath(parts[0], parts[1])
    raise SchemaError(
        f"attribute path {text!r} has {len(parts)} segments; at most 2 allowed"
    )
