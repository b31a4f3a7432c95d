"""Connection patterns between service marts.

A connection pattern (book Chapter 9; used throughout the reproduced
chapter) is a named, pre-registered join specification between two service
marts: a conjunction of comparison predicates over pairs of their
attributes.  Queries may mention a pattern — e.g. ``Shows(M, T)`` — instead
of spelling out the join predicates, and the query compiler expands the
pattern into the equivalent predicate list (Section 3.1 shows both
formulations of the running example).

Patterns carry an estimated *selectivity*: the probability that a random
pair of tuples from the two marts satisfies the join.  Section 5.6
estimates ``Shows`` at 2% and ``DinnerPlace`` at 40%; the annotation and
cost model consume these numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError
from repro.model.attributes import AttributePath, parse_path
from repro.model.service import ServiceMart

__all__ = ["AttributePair", "ConnectionPattern"]


@dataclass(frozen=True)
class AttributePair:
    """One comparison ``source.path op target.path`` inside a pattern."""

    source_path: AttributePath
    target_path: AttributePath
    comparator: str = "="

    _VALID = ("=", "<", "<=", ">", ">=", "like")

    def __post_init__(self) -> None:
        if self.comparator not in self._VALID:
            raise SchemaError(f"invalid comparator {self.comparator!r}")

    @classmethod
    def parse(cls, source: str, target: str, comparator: str = "=") -> "AttributePair":
        return cls(parse_path(source), parse_path(target), comparator)

    def __str__(self) -> str:
        return f"{self.source_path} {self.comparator} {self.target_path}"


@dataclass(frozen=True)
class ConnectionPattern:
    """A named join specification between two service marts.

    Parameters
    ----------
    name:
        Pattern name as used in queries, e.g. ``Shows``.
    source, target:
        The two marts connected by the pattern.  The pattern is directional
        only in that the pairs name source paths first; queries may traverse
        it in either direction.
    pairs:
        Non-empty conjunction of attribute comparisons.
    selectivity:
        Estimated probability that a random (source, target) tuple pair
        joins; must lie in ``(0, 1]``.
    """

    name: str
    source: ServiceMart
    target: ServiceMart
    pairs: tuple[AttributePair, ...]
    selectivity: float = 0.1
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("connection pattern needs a name")
        if not self.pairs:
            raise SchemaError(f"pattern {self.name!r} needs at least one pair")
        if not 0.0 < self.selectivity <= 1.0:
            raise SchemaError(f"pattern {self.name!r} selectivity outside (0, 1]")
        for pair in self.pairs:
            src = self.source.resolve(pair.source_path)
            dst = self.target.resolve(pair.target_path)
            if not src.domain.is_compatible(dst.domain):
                raise SchemaError(
                    f"pattern {self.name!r}: incompatible domains for {pair}"
                )

    def connects(self, mart_a: str, mart_b: str) -> bool:
        """True when the pattern links the two named marts, either way round."""
        names = {self.source.name, self.target.name}
        return names == {mart_a, mart_b} or (
            mart_a == mart_b and len(names) == 1
        )

    def oriented_pairs(
        self, from_mart: str
    ) -> tuple[tuple[AttributePath, str, AttributePath], ...]:
        """Pairs as ``(from_path, comparator, to_path)`` seen from ``from_mart``.

        Traversing the pattern backwards flips the comparator of ordered
        comparisons (``<`` becomes ``>`` and so on).
        """
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "like": "like"}
        if from_mart == self.source.name:
            return tuple(
                (p.source_path, p.comparator, p.target_path) for p in self.pairs
            )
        if from_mart == self.target.name:
            return tuple(
                (p.target_path, flipped[p.comparator], p.source_path)
                for p in self.pairs
            )
        raise SchemaError(
            f"pattern {self.name!r} does not involve mart {from_mart!r}"
        )

    def __str__(self) -> str:
        body = " and ".join(str(pair) for pair in self.pairs)
        return f"{self.name}({self.source.name}, {self.target.name}): {body}"


@dataclass
class _PatternIndex:
    """Internal helper indexing patterns by name and by mart pair."""

    by_name: dict[str, ConnectionPattern] = field(default_factory=dict)

    def add(self, pattern: ConnectionPattern) -> None:
        if pattern.name in self.by_name:
            raise SchemaError(f"duplicate connection pattern {pattern.name!r}")
        self.by_name[pattern.name] = pattern

    def get(self, name: str) -> ConnectionPattern:
        if name not in self.by_name:
            raise SchemaError(f"unknown connection pattern {name!r}")
        return self.by_name[name]
