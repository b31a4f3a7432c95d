"""The six optimizer heuristics (Sections 5.3-5.5).

Each branch-and-bound phase comes with two alternative heuristics that
order (or propose) branches; the optimizer explores the full space either
way, but a good heuristic finds a cheap incumbent early, which makes the
pruning step bite:

* Phase 1 (access-pattern / interface selection):
  **bound-is-better** — prefer interfaces with many input attributes (more
  bound inputs, smaller answer sets, faster services); **unbound-is-easier**
  — prefer few inputs (easier to reach feasibility).
* Phase 2 (topology): **selective-first** — build long linear paths
  ordered by decreasing selectivity; **parallel-is-better** — always make
  the choice that maximises parallelism.
* Phase 3 (fetch counts): **greedy** — increment the fetch factor with the
  highest marginal results-per-cost sensitivity; **square-is-better** —
  increment every factor proportionally to its chunk size so all chunked
  services explore about the same number of tuples (binary join search
  spaces stay square).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.core.annotate import annotate
from repro.model.service import ServiceInterface
from repro.plans.plan import QueryPlan
from repro.query.compile import CompiledQuery
from repro.stats.estimate import Estimator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cost import CostMetric
    from repro.core.topology import Move, TopologyBuilder

#: What phase-3 heuristics price a fetch vector with:
#: ``price(fetches) -> (estimated results, cost)``.
PriceFn = Callable[[Mapping[str, int]], "tuple[float, float]"]


def _default_price(
    plan: QueryPlan, query: CompiledQuery, estimator: Estimator, metric: "CostMetric"
) -> PriceFn:
    """Plain full re-annotation and costing, no memo (no pricer passed)."""

    def price(fetches: Mapping[str, int]) -> tuple[float, float]:
        annotations = annotate(plan, query, fetches=fetches, estimator=estimator)
        return annotations.estimated_results(plan), metric.cost(plan, annotations)

    return price

__all__ = [
    "PriceFn",
    "Phase1Heuristic",
    "BoundIsBetter",
    "UnboundIsEasier",
    "Phase2Heuristic",
    "SelectiveFirst",
    "ParallelIsBetter",
    "Phase3Heuristic",
    "GreedyFetch",
    "SquareIsBetter",
    "fetch_cap",
]


# --------------------------------------------------------------------------- #
# Phase 1
# --------------------------------------------------------------------------- #


class Phase1Heuristic:
    """Orders candidate interfaces for one query atom."""

    name = "abstract"

    def order_interfaces(
        self, alias: str, candidates: Sequence[ServiceInterface]
    ) -> list[ServiceInterface]:
        raise NotImplementedError


@dataclass
class BoundIsBetter(Phase1Heuristic):
    """Prefer access patterns with many input attributes.

    "The more attributes are bound to a given input, the smaller is the
    answer set, and therefore the service is faster in producing results."
    """

    name = "bound-is-better"

    def order_interfaces(
        self, alias: str, candidates: Sequence[ServiceInterface]
    ) -> list[ServiceInterface]:
        return sorted(
            candidates, key=lambda i: (-len(i.input_paths()), i.name)
        )


@dataclass
class UnboundIsEasier(Phase1Heuristic):
    """Prefer access patterns with few input attributes.

    "With many input attributes it is more difficult to find an assignment
    that makes the query feasible."
    """

    name = "unbound-is-easier"

    def order_interfaces(
        self, alias: str, candidates: Sequence[ServiceInterface]
    ) -> list[ServiceInterface]:
        return sorted(candidates, key=lambda i: (len(i.input_paths()), i.name))


# --------------------------------------------------------------------------- #
# Phase 2
# --------------------------------------------------------------------------- #


class Phase2Heuristic:
    """Orders the available topology-construction moves."""

    name = "abstract"

    def order_moves(
        self, builder: "TopologyBuilder", moves: Sequence["Move"]
    ) -> list["Move"]:
        raise NotImplementedError

    @staticmethod
    def _selectivity_rank(builder: "TopologyBuilder", alias: str) -> float:
        """Expected output tuples per input tuple: lower is more selective."""
        interface = builder.interface_of(alias)
        return interface.stats.avg_cardinality


@dataclass
class SelectiveFirst(Phase2Heuristic):
    """Long linear paths, most selective services first.

    Extends are preferred over merges and starts (chains over bushiness);
    within extends, the most selective service goes first.
    """

    name = "selective-first"

    def order_moves(
        self, builder: "TopologyBuilder", moves: Sequence["Move"]
    ) -> list["Move"]:
        def key(move: "Move"):
            if move.kind == "extend":
                return (0, self._selectivity_rank(builder, move.alias or ""))
            if move.kind == "start":
                # Starting a branch is unavoidable for the first service
                # but otherwise ranks behind chaining.
                penalty = 0 if not builder.placed else 1
                return (penalty, self._selectivity_rank(builder, move.alias or ""))
            if move.kind == "fork":
                # Forks create parallel branches: the opposite of chaining.
                return (3, self._selectivity_rank(builder, move.alias or ""))
            return (2, 0.0)

        return sorted(moves, key=key)


@dataclass
class ParallelIsBetter(Phase2Heuristic):
    """Maximise parallelism: starts first, merges next, extends last.

    "In absence of access limitations, this gives the optimal solution, as
    proved in [22]" — for time-oriented metrics.
    """

    name = "parallel-is-better"

    def order_moves(
        self, builder: "TopologyBuilder", moves: Sequence["Move"]
    ) -> list["Move"]:
        def key(move: "Move"):
            if move.kind == "start":
                return (0, self._selectivity_rank(builder, move.alias or ""))
            if move.kind == "fork":
                # A fork mounts a piped consumer on its own branch: the
                # parallelism-maximising placement for dependent services.
                return (1, self._selectivity_rank(builder, move.alias or ""))
            if move.kind == "extend":
                return (3, self._selectivity_rank(builder, move.alias or ""))
            return (2, 0.0)

        return sorted(moves, key=key)


# --------------------------------------------------------------------------- #
# Phase 3
# --------------------------------------------------------------------------- #


def fetch_cap(interface: ServiceInterface) -> int:
    """Largest useful fetch factor: beyond it the service is exhausted."""
    if not interface.is_chunked:
        return 1
    return max(1, math.ceil(interface.stats.avg_cardinality / interface.chunk_size))


class Phase3Heuristic:
    """Proposes successor fetch vectors for an under-producing plan."""

    name = "abstract"

    def propose(
        self,
        plan: QueryPlan,
        query: CompiledQuery,
        fetches: Mapping[str, int],
        estimator: Estimator,
        metric: "CostMetric",
        k: int,
        price: "PriceFn | None" = None,
    ) -> list[dict[str, int]]:
        """Candidate next vectors, best first.  Empty when saturated.

        ``price(fetches)`` — when provided — replaces direct calls to
        :func:`~repro.core.annotate.annotate` and ``metric.cost``: the
        optimizer passes its phase-3 memo, which prices each vector of a
        plan once per search (derived from ``fetches``' annotations, only
        the changed cone recomputed) and reuses the price when the
        candidate is enqueued.
        """
        raise NotImplementedError

    @staticmethod
    def _chunked_aliases(plan: QueryPlan) -> list:
        return [
            node
            for node in plan.service_nodes()
            if node.interface is not None and node.interface.is_chunked
        ]


@dataclass
class GreedyFetch(Phase3Heuristic):
    """Increment the factor with the best marginal results-per-cost.

    "The Fi to be incremented is the one that corresponds to the node in
    the plan with the highest sensitivity with respect to the increase in
    the number of tuples in the query result per cost unit."
    """

    name = "greedy"

    def propose(
        self,
        plan: QueryPlan,
        query: CompiledQuery,
        fetches: Mapping[str, int],
        estimator: Estimator,
        metric: "CostMetric",
        k: int,
        price: "PriceFn | None" = None,
    ) -> list[dict[str, int]]:
        if price is None:
            price = _default_price(plan, query, estimator, metric)
        base_results, base_cost = price(fetches)
        scored: list[tuple[float, dict[str, int]]] = []
        for node in self._chunked_aliases(plan):
            assert node.interface is not None
            alias = node.alias
            current = fetches.get(alias, 1)
            if current >= fetch_cap(node.interface):
                continue
            child = dict(fetches)
            child[alias] = current + 1
            results, cost = price(child)
            gain = results - base_results
            extra = cost - base_cost
            sensitivity = gain / max(extra, 1e-9)
            scored.append((sensitivity, child))
        scored.sort(key=lambda pair: -pair[0])
        return [child for _, child in scored]


@dataclass
class SquareIsBetter(Phase3Heuristic):
    """Increment every factor proportionally to keep search spaces square.

    "Each Fi is incremented by a value that is proportional to its chunk
    size ... all chunked services will have explored about the same number
    of tuples."  Since the increment is proportional to the *tuples per
    step*, small-chunk services get proportionally more fetches.
    """

    name = "square-is-better"

    def propose(
        self,
        plan: QueryPlan,
        query: CompiledQuery,
        fetches: Mapping[str, int],
        estimator: Estimator,
        metric: "CostMetric",
        k: int,
        price: "PriceFn | None" = None,
    ) -> list[dict[str, int]]:
        nodes = self._chunked_aliases(plan)
        if not nodes:
            return []
        max_chunk = max(n.interface.chunk_size for n in nodes)  # type: ignore[union-attr]
        child = dict(fetches)
        moved = False
        for node in nodes:
            assert node.interface is not None
            alias = node.alias
            current = child.get(alias, 1)
            cap = fetch_cap(node.interface)
            if current >= cap:
                continue
            step = max(1, round(max_chunk / node.interface.chunk_size))
            child[alias] = min(cap, current + step)
            moved = True
        return [child] if moved else []


# --------------------------------------------------------------------------- #
# Join-method suggestion (Section 4.3's strategy-selection rule)
# --------------------------------------------------------------------------- #


def suggest_join_methods(scoring_x, scoring_y, chunk_size_x: int = 10):
    """Join-method specs fitting the branches' score distributions.

    Section 4.3: "The choice of invocation strategy depends on the
    distribution of the ranking of the results and the cost of service
    invocation" — nested-loop when the first service exhibits a clear
    step, merge-scan otherwise.  Returns the sensible candidates, most
    recommended first:

    * a step-scored X side adds nested-loop/rectangular with ``h`` set
      from the step position (the optimizer explores it alongside the
      default);
    * otherwise only merge-scan/triangular is proposed.

    Opaque rankings (``OpaqueScoring``) report ``has_step = False``, so
    they fall back to merge-scan — the chapter's own remark that with an
    opaque function "classifying services and determining h ... is more
    difficult".
    """
    from repro.joins.spec import (
        CompletionStrategy,
        InvocationStrategy,
        JoinMethodSpec,
    )

    suggestions = []
    if getattr(scoring_x, "has_step", False):
        step_chunks = 1
        step_fn = getattr(scoring_x, "step_chunks", None)
        if callable(step_fn):
            step_chunks = step_fn(max(1, chunk_size_x))
        suggestions.append(
            JoinMethodSpec(
                invocation=InvocationStrategy.NESTED_LOOP,
                completion=CompletionStrategy.RECTANGULAR,
                step_chunks=step_chunks,
            )
        )
    suggestions.append(JoinMethodSpec())  # merge-scan + triangular default
    return suggestions
