"""Node types of query plans (the graphical elements of Fig. 1).

A plan DAG contains:

* one **input node** — reads the INPUT variables and starts execution;
* **service invocation nodes** — exact or search service calls, optionally
  carrying pushed-down selection predicates and the binding providers that
  feed their input attributes (a consumer whose providers include another
  service's outputs realises a *pipe join*, drawn simply as a cascade);
* **parallel join nodes** — explicit nodes marked with the join strategy;
* **selection nodes** — residual predicates evaluated on intermediate
  results "immediately after the service call that makes [them] evaluable";
* one **output node** — returns tuples to the query interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import PlanError
from repro.joins.spec import JoinMethodSpec
from repro.model.service import ServiceInterface
from repro.query.ast import JoinPredicate, SelectionPredicate
from repro.query.feasibility import Provider

__all__ = [
    "PlanNode",
    "InputNode",
    "OutputNode",
    "ServiceNode",
    "ParallelJoinNode",
    "SelectionNode",
]


@dataclass(frozen=True)
class PlanNode:
    """Base class for plan nodes; identified by a plan-unique id."""

    node_id: str

    def __post_init__(self) -> None:
        if not self.node_id:
            raise PlanError("plan node needs an id")

    @property
    def kind(self) -> str:
        return type(self).__name__

    def signature(self) -> str:
        """Structural signature used for plan deduplication."""
        return self.kind

    def label(self) -> str:
        """Short human-readable label for renderers."""
        return self.node_id


@dataclass(frozen=True)
class InputNode(PlanNode):
    """Query input: the single user-provided input tuple."""

    node_id: str = "input"

    def label(self) -> str:
        return "INPUT"


@dataclass(frozen=True)
class OutputNode(PlanNode):
    """Query output: emits composite tuples to the query interface."""

    node_id: str = "output"

    def label(self) -> str:
        return "OUTPUT"


@dataclass(frozen=True)
class ServiceNode(PlanNode):
    """Invocation of a service interface for one query atom.

    Parameters
    ----------
    alias:
        Query alias the invocation serves.
    interface:
        The selected service interface.
    providers:
        Binding providers for the interface's input paths (constants, INPUT
        variables, and piped join attributes).  Join providers whose source
        is a service appearing upstream make this node the consumer end of
        a pipe join.
    pushed_selections:
        Non-binding selection predicates over this alias, evaluated on the
        invocation results (e.g. ``M.Openings.Date > INPUT3``).
    """

    alias: str = ""
    interface: ServiceInterface | None = None
    providers: tuple[Provider, ...] = ()
    pushed_selections: tuple[SelectionPredicate, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.alias or self.interface is None:
            raise PlanError(f"service node {self.node_id!r} needs alias and interface")

    @cached_property
    def pipe_sources(self) -> tuple[str, ...]:
        """Aliases whose outputs feed this node's inputs (pipe producers)."""
        sources = []
        for provider in self.providers:
            if provider.source_alias and provider.source_alias not in sources:
                sources.append(provider.source_alias)
        return tuple(sources)

    def signature(self) -> str:
        assert self.interface is not None
        return f"Service[{self.alias}={self.interface.name}]"

    def label(self) -> str:
        assert self.interface is not None
        kind = "search" if self.interface.is_search else "exact"
        return f"{self.alias}:{self.interface.name} ({kind})"


@dataclass(frozen=True)
class ParallelJoinNode(PlanNode):
    """Explicit parallel-join node joining two upstream branches."""

    predicates: tuple[JoinPredicate, ...] = ()
    method: JoinMethodSpec = field(default_factory=JoinMethodSpec)

    def signature(self) -> str:
        preds = ",".join(sorted(str(p) for p in self.predicates))
        return f"Join[{preds}]"

    def label(self) -> str:
        return f"JOIN {self.method.label}"


@dataclass(frozen=True)
class SelectionNode(PlanNode):
    """Residual predicate evaluation over intermediate composite tuples.

    Holds selection predicates and/or join predicates that could not be
    realised by service bindings or parallel joins (footnote 4 of
    Section 3.2).
    """

    selections: tuple[SelectionPredicate, ...] = ()
    join_filters: tuple[JoinPredicate, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.selections and not self.join_filters:
            raise PlanError(f"selection node {self.node_id!r} has no predicates")

    def signature(self) -> str:
        preds = ",".join(
            sorted(
                [str(p) for p in self.selections] + [str(p) for p in self.join_filters]
            )
        )
        return f"Select[{preds}]"

    def label(self) -> str:
        count = len(self.selections) + len(self.join_filters)
        return f"SELECT ({count} pred)"
