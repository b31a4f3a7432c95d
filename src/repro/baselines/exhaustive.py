"""Exhaustive optimizer: ground truth for branch-and-bound optimality.

Enumerates the complete solution space — every interface assignment, every
acyclic binding choice, every topology (deduplicated by cost signature),
every fetch vector on a bounded grid — prices each fully instantiated plan
with the metric, and returns the cheapest plan that reaches ``k`` expected
results.  Exponential by construction; usable for the small queries the
benchmarks check the branch-and-bound optimizer against (E12/E17).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.annotate import annotate
from repro.core.cost import CostMetric, ExecutionTimeMetric
from repro.core.heuristics import fetch_cap
from repro.core.optimizer import BINDING_CHOICE_LIMIT, PlanCandidate
from repro.core.topology import enumerate_topologies
from repro.plans.plan import QueryPlan
from repro.query.compile import CompiledQuery
from repro.query.feasibility import enumerate_binding_choices
from repro.stats.estimate import Estimator

__all__ = ["ExhaustiveResult", "exhaustive_optimum"]


@dataclass
class ExhaustiveResult:
    """Cheapest candidate plus enumeration accounting."""

    best: PlanCandidate | None
    plans_enumerated: int = 0
    candidates_priced: int = 0
    assignments: int = 0
    topologies: int = 0

    @property
    def found(self) -> bool:
        return self.best is not None


def _assignments(query: CompiledQuery) -> Iterator[dict]:
    """Every interface assignment for the query's mart-level atoms."""
    open_aliases = [a.alias for a in query.atoms if a.interface is None]
    if not open_aliases:
        yield {}
        return
    pools = [
        list(query.registry.interfaces_of(query.atom(alias).mart.name))
        for alias in open_aliases
    ]
    for combo in itertools.product(*pools):
        yield dict(zip(open_aliases, combo))


def _fetch_grid(
    plan: QueryPlan, max_factor: int | None
) -> Iterator[dict[str, int]]:
    """Cartesian grid of fetch vectors over the plan's chunked services."""
    chunked = [
        node
        for node in plan.service_nodes()
        if node.interface is not None and node.interface.is_chunked
    ]
    if not chunked:
        yield {}
        return
    ranges = []
    for node in chunked:
        assert node.interface is not None
        cap = fetch_cap(node.interface)
        if max_factor is not None:
            cap = min(cap, max_factor)
        ranges.append(range(1, cap + 1))
    for combo in itertools.product(*ranges):
        yield {node.alias: f for node, f in zip(chunked, combo)}


def exhaustive_optimum(
    query: CompiledQuery,
    metric: CostMetric | None = None,
    k: int | None = None,
    max_fetch: int | None = 8,
) -> ExhaustiveResult:
    """Enumerate everything; return the cheapest k-satisfying candidate.

    When no fetch vector on the grid reaches ``k`` expected results, the
    highest-yield candidate is returned with ``satisfies_k=False`` (the
    same best-effort contract as the branch-and-bound optimizer).
    """
    metric = metric or ExecutionTimeMetric()
    k = query.k if k is None else k
    estimator = Estimator(query)
    result = ExhaustiveResult(best=None)

    best_key: tuple[bool, float] | None = None
    for assignment in _assignments(query):
        result.assignments += 1
        for choice in enumerate_binding_choices(
            query, assignment, limit=BINDING_CHOICE_LIMIT
        ):
            for plan in enumerate_topologies(query, assignment, choice):
                result.topologies += 1
                for fetches in _fetch_grid(plan, max_fetch):
                    result.candidates_priced += 1
                    annotations = annotate(
                        plan, query, fetches=fetches, estimator=estimator
                    )
                    results_est = annotations.estimated_results(plan)
                    cost = metric.cost(plan, annotations)
                    satisfies = results_est >= k
                    key = (satisfies, -cost)
                    if best_key is None or key > best_key:
                        best_key = key
                        result.best = PlanCandidate(
                            plan=plan,
                            fetches=dict(fetches),
                            annotations=annotations,
                            cost=cost,
                            estimated_results=results_est,
                            satisfies_k=satisfies,
                            assignment=dict(assignment),
                        )
    result.plans_enumerated = result.candidates_priced
    return result
