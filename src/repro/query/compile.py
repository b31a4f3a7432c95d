"""Query compilation: bind the AST to a service registry.

Compilation resolves service atoms against the registry (an atom may name a
mart, deferring interface selection to the optimizer's phase 1, or a
specific interface, fixing it), expands connection-pattern atoms into their
join-predicate conjunctions (Section 3.1 shows the two equivalent
formulations of the running example), validates that every referenced
attribute path exists and that compared operands are type-compatible, and
attaches the query's ranking function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

from repro.errors import QueryError
from repro.model.attributes import DataType
from repro.model.registry import ServiceRegistry
from repro.model.service import ServiceInterface, ServiceMart
from repro.model.tuples import RankingFunction
from repro.query.ast import (
    AttrRef,
    Comparator,
    InputRef,
    JoinPredicate,
    Query,
    SelectionPredicate,
)
from repro.query.predicates import (
    PredicateCheck,
    compile_predicates,
    group_occurrences,
)

__all__ = ["CompiledAtom", "CompiledQuery", "compile_query"]


@dataclass(frozen=True)
class CompiledAtom:
    """A service atom bound to its mart and, possibly, a fixed interface."""

    alias: str
    mart: ServiceMart
    interface: ServiceInterface | None = None

    @property
    def is_interface_fixed(self) -> bool:
        return self.interface is not None


@dataclass(frozen=True)
class CompiledQuery:
    """A validated query bound to a registry, patterns expanded.

    ``joins`` contains both explicit join predicates and those expanded
    from connection atoms; the latter carry their pattern name and
    selectivity, which the estimator treats as one group per pattern.
    """

    registry: ServiceRegistry
    atoms: tuple[CompiledAtom, ...]
    selections: tuple[SelectionPredicate, ...]
    joins: tuple[JoinPredicate, ...]
    ranking: RankingFunction
    k: int
    source: Query | None = field(default=None, compare=False, repr=False)
    #: Lowered predicate subsets, by value: a plan node's check is built
    #: the first time any execution of this query reaches it.
    _checks: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    #: :func:`~repro.core.optimizer.plan_signature` of this query, by
    #: ``(metric name, k, join kernel)``: a plan-cache lookup per request.
    _signatures: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @property
    def aliases(self) -> tuple[str, ...]:
        return tuple(atom.alias for atom in self.atoms)

    def predicate_check(
        self,
        selections: Sequence[SelectionPredicate] = (),
        joins: Sequence[JoinPredicate] = (),
    ) -> PredicateCheck:
        """The lowered joint-witness check of a predicate subset.

        :func:`~repro.query.predicates.compile_predicates`, memoised on
        the compiled query: a serving runtime keeps one compiled query per
        template and one plan per signature, so every request after the
        first reuses the closures its plan nodes need.
        """
        key = (tuple(selections), tuple(joins))
        try:
            check = self._checks.get(key)
        except TypeError:  # an unhashable constant: lower without keeping
            return compile_predicates(*key)
        if check is None:
            check = self._checks[key] = compile_predicates(*key)
        return check

    def final_predicates(self, staged: tuple) -> tuple[str, tuple, tuple]:
        """``(label, selections, joins)`` the output node must still check.

        ``staged`` holds the ``(selections, joins)`` subset each plan node
        checked under its own witnesses.  When no repeating-group
        occurrence is mentioned by two subsets — the residual, what no node
        staged, included — one joint witness exists iff each subset has
        one, so only the residual is left: ``residual(n)`` / ``elided``.
        Otherwise the full set: ``full(shared_group)``.  Memoised beside
        the lowered checks (DESIGN.md, "The row's life").
        """
        full = ("full(shared_group)", self.selections, self.joins)
        try:
            if ("final", staged) in self._checks:
                return self._checks["final", staged]
            checked = {pred for subset in staged for part in subset for pred in part}
        except TypeError:  # an unhashable constant: no shortcut
            return ("full(unhashable)", *full[1:])
        residual = (
            tuple(sel for sel in self.selections if sel not in checked),
            tuple(join for join in self.joins if join not in checked),
        )
        count = len(residual[0]) + len(residual[1])
        final = (f"residual({count})" if count else "elided", *residual)
        owner: dict = {}
        for index, subset in enumerate((*staged, residual)):
            for occurrence in group_occurrences(*subset):
                if owner.setdefault(occurrence, index) != index:
                    final = full
        self._checks["final", staged] = final
        return final

    # The optimizer asks the lookups below tens of thousands of times per
    # search; each index is built on first use (``cached_property`` writes
    # the instance ``__dict__`` directly, which a frozen dataclass allows).

    @cached_property
    def _atoms_by_alias(self) -> dict[str, CompiledAtom]:
        return {atom.alias: atom for atom in self.atoms}

    @cached_property
    def _selections_by_alias(self) -> dict[str, tuple[SelectionPredicate, ...]]:
        return _grouped((sel.attr.alias, sel) for sel in self.selections)

    @cached_property
    def _joins_by_alias(self) -> dict[str, tuple[JoinPredicate, ...]]:
        return _grouped(
            (alias, join) for join in self.joins for alias in join.aliases
        )

    @cached_property
    def _joins_by_pair(self) -> dict[frozenset[str], tuple[JoinPredicate, ...]]:
        return _grouped((join.aliases, join) for join in self.joins)

    def atom(self, alias: str) -> CompiledAtom:
        try:
            return self._atoms_by_alias[alias]
        except KeyError:
            raise QueryError(f"no atom with alias {alias!r}") from None

    def selections_on(self, alias: str) -> tuple[SelectionPredicate, ...]:
        return self._selections_by_alias.get(alias, ())

    def joins_between(self, alias_a: str, alias_b: str) -> tuple[JoinPredicate, ...]:
        return self._joins_by_pair.get(frozenset((alias_a, alias_b)), ())

    def joins_involving(self, alias: str) -> tuple[JoinPredicate, ...]:
        return self._joins_by_alias.get(alias, ())

    def join_graph(self) -> dict[frozenset[str], tuple[JoinPredicate, ...]]:
        """Join predicates grouped by the unordered pair of aliases."""
        return dict(self._joins_by_pair)

    def input_names(self) -> tuple[str, ...]:
        names: list[str] = []
        for sel in self.selections:
            if isinstance(sel.operand, InputRef) and sel.operand.name not in names:
                names.append(sel.operand.name)
        return tuple(names)


def _grouped(pairs) -> dict:
    """``key -> tuple of values`` in first-appearance / input order."""
    groups: dict = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return {key: tuple(values) for key, values in groups.items()}


def _resolve_attr(
    atoms: Mapping[str, CompiledAtom], ref: AttrRef
) -> DataType:
    """Resolve an attribute reference, returning its data type."""
    if ref.alias not in atoms:
        raise QueryError(f"unknown alias in reference {ref}")
    attr = atoms[ref.alias].mart.resolve(ref.path)
    return attr.dtype


def _check_constant(dtype: DataType, value: object, context: str) -> None:
    """Check a constant's Python type against the attribute's data type."""
    expected: tuple[type, ...]
    if dtype is DataType.STRING or dtype is DataType.DATE:
        expected = (str,)
    elif dtype is DataType.INTEGER:
        expected = (int,)
    elif dtype is DataType.FLOAT:
        expected = (int, float)
    elif dtype is DataType.BOOLEAN:
        expected = (bool,)
    else:
        return
    if not isinstance(value, expected) or (
        dtype in (DataType.INTEGER, DataType.FLOAT) and isinstance(value, bool)
    ):
        raise QueryError(
            f"{context}: constant {value!r} incompatible with {dtype.value} attribute"
        )


def compile_query(query: Query, registry: ServiceRegistry) -> CompiledQuery:
    """Bind and validate ``query`` against ``registry``.

    Raises :class:`~repro.errors.QueryError` on unknown atoms, unknown
    attribute paths, type-incompatible comparisons, or patterns that do not
    connect the marts of their argument aliases.
    """
    atoms: dict[str, CompiledAtom] = {}
    for atom in query.atoms:
        mart, interface = registry.resolve_atom(atom.source)
        atoms[atom.alias] = CompiledAtom(atom.alias, mart, interface)

    joins: list[JoinPredicate] = []
    for conn in query.connections:
        pattern = registry.pattern(conn.pattern)
        left_mart = atoms[conn.left_alias].mart.name
        right_mart = atoms[conn.right_alias].mart.name
        if not pattern.connects(left_mart, right_mart):
            raise QueryError(
                f"{conn}: pattern links {pattern.source.name}/{pattern.target.name}, "
                f"not {left_mart}/{right_mart}"
            )
        # Orient the pattern so its pairs read left-alias first.
        per_pair = pattern.selectivity ** (1.0 / len(pattern.pairs))
        for from_path, comparator, to_path in pattern.oriented_pairs(left_mart):
            joins.append(
                JoinPredicate(
                    left=AttrRef(conn.left_alias, from_path),
                    comparator=Comparator(comparator),
                    right=AttrRef(conn.right_alias, to_path),
                    selectivity=per_pair,
                    pattern=pattern.name,
                )
            )
    joins.extend(query.joins)

    # Validate every reference and comparison.
    for sel in query.selections:
        dtype = _resolve_attr(atoms, sel.attr)
        if not isinstance(sel.operand, InputRef):
            _check_constant(dtype, sel.operand, str(sel))
    for join in joins:
        left_type = _resolve_attr(atoms, join.left)
        right_type = _resolve_attr(atoms, join.right)
        if not left_type.is_compatible(right_type):
            raise QueryError(
                f"{join}: incompatible types {left_type.value} vs {right_type.value}"
            )

    weights = dict(query.ranking_weights)
    if not weights:
        # Default: uniform weights over ranked atoms, zero elsewhere
        # (Section 3.1 sets the weight of unranked services to zero).
        for alias, atom in atoms.items():
            if atom.interface is not None:
                weights[alias] = 1.0 if atom.interface.is_ranked else 0.0
            else:
                candidates = registry.interfaces_of(atom.mart.name)
                ranked = any(iface.is_ranked for iface in candidates)
                weights[alias] = 1.0 if ranked else 0.0
    else:
        for alias, atom in atoms.items():
            weights.setdefault(alias, 0.0)

    return CompiledQuery(
        registry=registry,
        atoms=tuple(atoms.values()),
        selections=tuple(query.selections),
        joins=tuple(joins),
        ranking=RankingFunction(weights),
        k=query.k,
        source=query,
    )
