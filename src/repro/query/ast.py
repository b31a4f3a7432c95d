"""Abstract syntax of conjunctive queries over service marts/interfaces.

Section 3.1 defines a query as a set of service atoms (with renaming), a
set of selection predicates ``A op const``, and a set of join predicates
``A op B``, where operands are atomic attributes or sub-attributes and
``op`` ranges over ``{=, <, <=, >, >=, like}``.  Join conditions may be
abbreviated by connection-pattern atoms such as ``Shows(M, T)``.  Constants
may be replaced by ``INPUT``-prefixed variables bound at execution time.
A query additionally carries a ranking function (per-atom weights) and the
number ``k`` of desired answers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping

from repro.errors import QueryError
from repro.model.attributes import AttributePath, parse_path

__all__ = [
    "Comparator",
    "AttrRef",
    "InputRef",
    "SelectionPredicate",
    "JoinPredicate",
    "ConnectionAtom",
    "ServiceAtom",
    "Query",
]


class Comparator(Enum):
    """Comparison operators admitted in predicates."""

    EQ = "="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    LIKE = "like"

    def apply(self, left: Any, right: Any) -> bool:
        """Evaluate the comparator on two values.

        ``like`` interprets the right operand as a SQL LIKE pattern
        (``%`` any run, ``_`` any character), case-insensitively.  ``None``
        operands never satisfy any comparator (SQL-style null semantics).
        """
        if left is None or right is None:
            return False
        if self is Comparator.EQ:
            return left == right
        if self is Comparator.LIKE:
            pattern = re.escape(str(right))
            pattern = pattern.replace(re.escape("%"), ".*").replace(
                re.escape("_"), "."
            )
            return re.fullmatch(pattern, str(left), re.IGNORECASE) is not None
        try:
            if self is Comparator.LT:
                return left < right
            if self is Comparator.LE:
                return left <= right
            if self is Comparator.GT:
                return left > right
            if self is Comparator.GE:
                return left >= right
        except TypeError as exc:
            raise QueryError(
                f"cannot compare {left!r} {self.value} {right!r}"
            ) from exc
        raise AssertionError(f"unhandled comparator {self}")  # pragma: no cover

    @property
    def flipped(self) -> "Comparator":
        """The comparator with operands swapped (``a < b`` iff ``b > a``)."""
        table = {
            Comparator.LT: Comparator.GT,
            Comparator.LE: Comparator.GE,
            Comparator.GT: Comparator.LT,
            Comparator.GE: Comparator.LE,
        }
        return table.get(self, self)


@dataclass(frozen=True, order=True)
class AttrRef:
    """A (sub-)attribute of one query atom: ``alias.path``."""

    alias: str
    path: AttributePath

    @classmethod
    def parse(cls, text: str) -> "AttrRef":
        """Parse ``"M.Title"`` or ``"M.Openings.Date"``."""
        parts = text.split(".", 1)
        if len(parts) != 2 or not parts[0]:
            raise QueryError(f"attribute reference {text!r} needs an alias prefix")
        return cls(parts[0], parse_path(parts[1]))

    def __str__(self) -> str:
        return f"{self.alias}.{self.path}"


@dataclass(frozen=True)
class InputRef:
    """An ``INPUT``-prefixed variable bound by the user at execution time."""

    name: str

    def __post_init__(self) -> None:
        if not self.name.upper().startswith("INPUT"):
            raise QueryError(f"input variable {self.name!r} must start with INPUT")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class SelectionPredicate:
    """``attr op const`` or ``attr op INPUTi``."""

    attr: AttrRef
    comparator: Comparator
    operand: Any

    @property
    def binds(self) -> bool:
        """True when the predicate can *bind* its attribute.

        Only equality with a constant or an INPUT variable provides a value
        that can feed a service's input attribute (reachability rule of
        Section 3.1).
        """
        return self.comparator is Comparator.EQ

    def resolved_operand(self, inputs: Mapping[str, Any]) -> Any:
        """Operand value with INPUT variables substituted from ``inputs``."""
        if isinstance(self.operand, InputRef):
            if self.operand.name not in inputs:
                raise QueryError(f"missing binding for {self.operand.name}")
            return inputs[self.operand.name]
        return self.operand

    def __str__(self) -> str:
        operand = (
            str(self.operand)
            if isinstance(self.operand, InputRef)
            else repr(self.operand)
        )
        return f"{self.attr} {self.comparator.value} {operand}"


@dataclass(frozen=True)
class JoinPredicate:
    """``left.attr op right.attr`` between two (possibly equal) atoms."""

    left: AttrRef
    comparator: Comparator
    right: AttrRef
    # Selectivity estimate; populated by pattern expansion or the estimator.
    selectivity: float | None = None
    # Name of the connection pattern this predicate was expanded from.
    pattern: str | None = None

    def __post_init__(self) -> None:
        if self.left.alias == self.right.alias and self.left.path == self.right.path:
            raise QueryError(f"degenerate join predicate over {self.left}")

    def __hash__(self) -> int:
        # The generated hash, kept like ``ServiceTuple``'s: the optimizer
        # tests a predicate against realised sets once per child it prices.
        memo = self.__dict__
        if "_hash" not in memo:
            memo["_hash"] = hash(
                (self.left, self.comparator, self.right, self.selectivity, self.pattern)
            )
        return memo["_hash"]

    def __getstate__(self) -> dict[str, Any]:
        # Copies and pickles carry the fields, never the memo: a string
        # hash is wrong in another process.
        return {name: self.__dict__[name] for name in self.__dataclass_fields__}

    @property
    def aliases(self) -> frozenset[str]:
        return frozenset((self.left.alias, self.right.alias))

    def oriented_from(self, alias: str) -> tuple[AttrRef, Comparator, AttrRef]:
        """The predicate seen with ``alias`` on the left."""
        if self.left.alias == alias:
            return self.left, self.comparator, self.right
        if self.right.alias == alias:
            return self.right, self.comparator.flipped, self.left
        raise QueryError(f"join predicate {self} does not involve alias {alias!r}")

    def __str__(self) -> str:
        return f"{self.left} {self.comparator.value} {self.right}"


@dataclass(frozen=True)
class ConnectionAtom:
    """A connection-pattern atom ``Pattern(left, right)`` in the WHERE clause."""

    pattern: str
    left_alias: str
    right_alias: str

    def __str__(self) -> str:
        return f"{self.pattern}({self.left_alias}, {self.right_alias})"


@dataclass(frozen=True)
class ServiceAtom:
    """One service occurrence in the query: ``source AS alias``.

    ``source`` names a service interface or a service mart; the same source
    may occur several times under different aliases (self-joins).
    """

    alias: str
    source: str

    def __post_init__(self) -> None:
        if not self.alias or not self.source:
            raise QueryError("service atom needs both a source and an alias")

    def __str__(self) -> str:
        return f"{self.source} AS {self.alias}"


@dataclass(frozen=True)
class Query:
    """A conjunctive select-join query over service atoms.

    The AST is registry-independent: connection atoms are unexpanded and
    atom sources unresolved.  :func:`repro.query.compile.compile_query`
    binds the query to a :class:`~repro.model.registry.ServiceRegistry`.
    """

    atoms: tuple[ServiceAtom, ...]
    connections: tuple[ConnectionAtom, ...] = ()
    selections: tuple[SelectionPredicate, ...] = ()
    joins: tuple[JoinPredicate, ...] = ()
    ranking_weights: Mapping[str, float] = field(default_factory=dict)
    k: int = 10

    def __post_init__(self) -> None:
        if not self.atoms:
            raise QueryError("a query needs at least one service atom")
        if self.k <= 0:
            raise QueryError("k must be positive")
        aliases = [atom.alias for atom in self.atoms]
        if len(set(aliases)) != len(aliases):
            raise QueryError("duplicate aliases in query")
        known = set(aliases)
        object.__setattr__(self, "ranking_weights", dict(self.ranking_weights))
        for conn in self.connections:
            for alias in (conn.left_alias, conn.right_alias):
                if alias not in known:
                    raise QueryError(f"{conn} references unknown alias {alias!r}")
        for sel in self.selections:
            if sel.attr.alias not in known:
                raise QueryError(f"{sel} references unknown alias")
        for join in self.joins:
            for alias in join.aliases:
                if alias not in known:
                    raise QueryError(f"{join} references unknown alias {alias!r}")
        for alias in self.ranking_weights:
            if alias not in known:
                raise QueryError(f"ranking weight for unknown alias {alias!r}")

    @property
    def aliases(self) -> tuple[str, ...]:
        return tuple(atom.alias for atom in self.atoms)

    def atom(self, alias: str) -> ServiceAtom:
        for atom in self.atoms:
            if atom.alias == alias:
                return atom
        raise QueryError(f"no atom with alias {alias!r}")

    def selections_on(self, alias: str) -> tuple[SelectionPredicate, ...]:
        return tuple(s for s in self.selections if s.attr.alias == alias)


    def __str__(self) -> str:
        parts = [f"SELECT {', '.join(str(a) for a in self.atoms)}"]
        conds = [str(c) for c in self.connections]
        conds += [str(s) for s in self.selections]
        conds += [str(j) for j in self.joins]
        if conds:
            parts.append("WHERE " + " AND ".join(conds))
        if self.ranking_weights:
            weights = ", ".join(
                f"{w}*{alias}" for alias, w in self.ranking_weights.items()
            )
            parts.append(f"RANK BY {weights}")
        parts.append(f"LIMIT {self.k}")
        return " ".join(parts)
