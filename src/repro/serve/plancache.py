"""Plan cache: optimizer reuse across requests with the same signature.

The branch-and-bound optimizer is deterministic — the same compiled
query under the same cost metric always yields the same
:class:`~repro.core.optimizer.PlanCandidate` — so a serving runtime can
pay the search once per *query shape* and reuse the plan for every
request that differs only in its INPUT bindings.
:func:`~repro.core.optimizer.plan_signature` provides the key: it
normalises alias order, join direction, and INPUT references (name only,
never the bound value), so two requests instantiating the same template
with different keywords map to one cache entry.

Signatures do not identify the *registry* the interface names resolve
in, so callers scope keys by schema name (see
:meth:`PlanCache.key_for`).  Cached candidates are shared by reference:
plans and annotations are read-only to the executor, and sessions copy
the fetch vector before mutating it.

The cache is LRU-bounded (``max_size``; ``None`` keeps it unbounded, the
historical default): a long-lived server exposed to an open-ended
population of query shapes must not grow a plan per shape forever.
Eviction order is recency of *use*, so the hot templates of a skewed
workload stay resident; evictions are counted in the stats.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.optimizer import (
    Optimizer,
    OptimizerConfig,
    PlanCandidate,
    plan_signature,
)
from repro.engine.executor import InvocationCacheStats
from repro.errors import ExecutionError, OptimizationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.query.compile import CompiledQuery

__all__ = ["PlanCache"]


@dataclass
class PlanCache:
    """Normalised-signature → optimized-plan memo for a serving runtime.

    ``max_size`` bounds the number of resident plans with LRU eviction
    (both hits and fresh inserts refresh recency); ``None`` is
    unbounded.
    """

    max_size: int | None = None
    #: Hits, misses and evictions: the invocation cache's counter type.
    stats: InvocationCacheStats = field(default_factory=InvocationCacheStats)
    _plans: "OrderedDict[tuple, PlanCandidate]" = field(
        default_factory=OrderedDict, repr=False
    )

    def __post_init__(self) -> None:
        if self.max_size is not None and self.max_size <= 0:
            raise ExecutionError("plan cache max_size must be positive")

    @staticmethod
    def key_for(
        schema: str, query: "CompiledQuery", config: OptimizerConfig
    ) -> tuple:
        """Scope the plan signature by schema and cost metric."""
        return (schema, plan_signature(query, metric=config.metric))

    def plan(
        self,
        schema: str,
        query: "CompiledQuery",
        config: OptimizerConfig | None = None,
    ) -> PlanCandidate:
        """The optimized plan for ``query``, searched at most once per key."""
        config = config or OptimizerConfig()
        key = self.key_for(schema, query, config)
        candidate = self._plans.get(key)
        if candidate is not None:
            self.stats.hits += 1
            self._plans.move_to_end(key)
            return candidate
        self.stats.misses += 1
        outcome = Optimizer(query, config).optimize()
        if outcome.best is None:
            raise OptimizationError("no feasible plan found")
        self._insert(key, outcome.best)
        return outcome.best

    def adopt(self, schema: str, query: "CompiledQuery", config, candidate) -> None:
        """Hold ``candidate`` — the plan a resume rebuilt for ``query`` — as
        if searched here: neither hit nor miss, and a held plan is kept."""
        key = self.key_for(schema, query, config)
        if key not in self._plans:
            self._insert(key, candidate)

    def _insert(self, key: tuple, candidate: PlanCandidate) -> None:
        self._plans[key] = candidate
        if self.max_size is not None and len(self._plans) > self.max_size:
            self._plans.popitem(last=False)
            self.stats.evictions += 1
