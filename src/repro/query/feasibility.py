"""Reachability and feasibility analysis under access limitations.

Section 3.1: a service is *reachable* if every input (sub-)attribute of its
chosen interface is covered by an equality selection (with a constant or
INPUT variable) or by an equality join with an attribute of a reachable
service; a query is *feasible* when all its services are reachable.

Beyond the boolean check, the optimizer needs the full structure:

* for every (alias, input path), the set of possible :class:`Provider`\\ s —
  constants/INPUT bindings and join-fed bindings;
* the set of *binding choices* — one provider per input such that the
  induced I/O dependency graph is acyclic — each of which fixes the pipe
  dependencies that constrain phase-2 topology enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping

from repro.errors import QueryError, UnfeasibleQueryError
from repro.model.attributes import AttributePath
from repro.model.service import ServiceInterface
from repro.query.ast import Comparator, JoinPredicate, SelectionPredicate
from repro.query.compile import CompiledQuery

__all__ = [
    "ProviderKind",
    "Provider",
    "BindingChoice",
    "FeasibilityResult",
    "input_providers",
    "check_feasibility",
    "require_feasible",
    "enumerate_binding_choices",
]

InterfaceAssignment = Mapping[str, ServiceInterface]


class ProviderKind(Enum):
    """How an input attribute gets its value."""

    CONSTANT = "constant"  # equality selection with a constant or INPUT var
    JOIN = "join"  # piped from an output attribute of another service


@dataclass(frozen=True)
class Provider:
    """One way of binding a specific input path of a specific alias."""

    alias: str
    path: AttributePath
    kind: ProviderKind
    selection: SelectionPredicate | None = None
    join: JoinPredicate | None = None
    source_alias: str | None = None
    source_path: AttributePath | None = None

    def __str__(self) -> str:
        if self.kind is ProviderKind.CONSTANT:
            return f"{self.alias}.{self.path} <- {self.selection}"
        return f"{self.alias}.{self.path} <- {self.source_alias}.{self.source_path}"


@dataclass(frozen=True)
class BindingChoice:
    """A concrete provider per input attribute, with an acyclic dependency graph.

    ``dependencies`` maps each alias to the frozen set of aliases it is
    piped from; *sources* are aliases with no dependencies (all inputs bound
    by constants/INPUT variables).
    """

    providers: tuple[Provider, ...]

    @property
    def dependencies(self) -> dict[str, frozenset[str]]:
        deps: dict[str, set[str]] = {}
        for provider in self.providers:
            deps.setdefault(provider.alias, set())
            if provider.kind is ProviderKind.JOIN and provider.source_alias:
                deps[provider.alias].add(provider.source_alias)
        return {alias: frozenset(sources) for alias, sources in deps.items()}

    def dependencies_over(self, aliases: tuple[str, ...]) -> dict[str, frozenset[str]]:
        """Dependency map covering every query alias (defaulting to none)."""
        deps = self.dependencies
        return {alias: deps.get(alias, frozenset()) for alias in aliases}


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the reachability fixpoint over all providers."""

    feasible: bool
    order: tuple[str, ...]  # one reachability (topological) order
    unreachable: tuple[str, ...]
    providers: Mapping[tuple[str, str], tuple[Provider, ...]] = field(
        default_factory=dict
    )


def _interface_of(
    query: CompiledQuery, assignment: InterfaceAssignment, alias: str
) -> ServiceInterface:
    atom = query.atom(alias)
    if atom.interface is not None:
        return atom.interface
    if alias not in assignment:
        raise QueryError(
            f"atom {alias!r} is mart-level; an interface assignment is required"
        )
    return assignment[alias]


def input_providers(
    query: CompiledQuery, assignment: InterfaceAssignment | None = None
) -> dict[tuple[str, str], tuple[Provider, ...]]:
    """All potential providers per (alias, input path), ignoring reachability.

    A join predicate provides a binding when it is an equality; the far
    side may be any attribute of the far service — an output shipped in its
    result tuples, or one of its own (already bound, hence known and
    echoed) input attributes.  This mirrors the chapter's reachability rule,
    which only requires "a (sub-)attribute of a reachable service".

    A selection predicate over an input path provides a binding with *any*
    comparator, not just equality: the chapter's own running example covers
    the input attribute ``Movie.Openings.Date`` with ``Date > INPUT3`` and
    declares the query feasible — services accept range constraints in
    their input forms and apply them server-side.
    """
    assignment = dict(assignment or {})
    result: dict[tuple[str, str], tuple[Provider, ...]] = {}
    for alias in query.aliases:
        interface = _interface_of(query, assignment, alias)
        for path_text in interface.input_paths():
            options: list[Provider] = []
            for sel in query.selections_on(alias):
                if str(sel.attr.path) == path_text:
                    options.append(
                        Provider(
                            alias=alias,
                            path=sel.attr.path,
                            kind=ProviderKind.CONSTANT,
                            selection=sel,
                        )
                    )
            for join in query.joins_involving(alias):
                if join.comparator is not Comparator.EQ:
                    continue
                here, _, there = join.oriented_from(alias)
                if str(here.path) != path_text or here.alias != alias:
                    continue
                options.append(
                    Provider(
                        alias=alias,
                        path=here.path,
                        kind=ProviderKind.JOIN,
                        join=join,
                        source_alias=there.alias,
                        source_path=there.path,
                    )
                )
            result[(alias, path_text)] = tuple(options)
    return result


def check_feasibility(
    query: CompiledQuery, assignment: InterfaceAssignment | None = None
) -> FeasibilityResult:
    """Run the reachability fixpoint of Section 3.1.

    A service joins the reachable set once every one of its input paths has
    a constant provider or a join provider rooted at an already-reachable
    service.  The returned order is one valid reachability order.
    """
    providers = input_providers(query, assignment)
    reachable: list[str] = []
    remaining = set(query.aliases)
    changed = True
    while changed and remaining:
        changed = False
        for alias in sorted(remaining):
            needed = [key for key in providers if key[0] == alias]
            ok = True
            for key in needed:
                options = providers[key]
                covered = any(
                    opt.kind is ProviderKind.CONSTANT
                    or (opt.source_alias in reachable)
                    for opt in options
                )
                if not covered:
                    ok = False
                    break
            if ok:
                reachable.append(alias)
                remaining.discard(alias)
                changed = True
    return FeasibilityResult(
        feasible=not remaining,
        order=tuple(reachable),
        unreachable=tuple(sorted(remaining)),
        providers=providers,
    )


def require_feasible(
    query: CompiledQuery, assignment: InterfaceAssignment | None = None
) -> FeasibilityResult:
    """As :func:`check_feasibility` but raising on unfeasible queries."""
    result = check_feasibility(query, assignment)
    if not result.feasible:
        raise UnfeasibleQueryError(
            "query is not feasible: unreachable services "
            + ", ".join(result.unreachable),
            unreachable=result.unreachable,
        )
    return result


def _is_acyclic(deps: Mapping[str, frozenset[str]]) -> bool:
    """Kahn-style cycle check over the dependency map."""
    indegree = {alias: 0 for alias in deps}
    for alias, sources in deps.items():
        for source in sources:
            indegree[alias] = indegree.get(alias, 0)
        indegree[alias] = len([s for s in sources if s in deps])
    queue = [alias for alias, deg in indegree.items() if deg == 0]
    seen = 0
    consumers: dict[str, list[str]] = {}
    for alias, sources in deps.items():
        for source in sources:
            consumers.setdefault(source, []).append(alias)
    while queue:
        node = queue.pop()
        seen += 1
        for consumer in consumers.get(node, ()):  # decrement consumers
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                queue.append(consumer)
    return seen == len(deps)


def enumerate_binding_choices(
    query: CompiledQuery,
    assignment: InterfaceAssignment | None = None,
    limit: int | None = None,
) -> Iterator[BindingChoice]:
    """Yield every acyclic provider selection (phase-1 branch points).

    Choices are generated in a deterministic order, constants preferred
    first (the chapter's "bound is better" intuition is handled by the
    optimizer's heuristics; here we only fix iteration order).  ``limit``
    caps the number of yielded choices.
    """
    providers = input_providers(query, assignment)
    keys = sorted(providers, key=lambda key: (key[0], key[1]))
    option_lists: list[tuple[Provider, ...]] = []
    for key in keys:
        options = providers[key]
        if not options:
            return  # some input can never be bound: no choice exists
        ordered = tuple(
            sorted(
                options,
                key=lambda p: (p.kind is not ProviderKind.CONSTANT, str(p)),
            )
        )
        option_lists.append(ordered)

    count = 0
    aliases = query.aliases
    for combo in itertools.product(*option_lists):
        if limit is not None and count >= limit:
            return
        choice = BindingChoice(providers=tuple(combo))
        deps = choice.dependencies_over(aliases)
        if not _is_acyclic(deps):
            continue
        yield choice
        count += 1
