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
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ExecutionError

from repro.core.optimizer import (
    Optimizer,
    OptimizerConfig,
    PlanCandidate,
    plan_signature,
)
from repro.errors import OptimizationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.query.compile import CompiledQuery

__all__ = ["PlanCache", "PlanCacheStats"]


@dataclass
class PlanCacheStats:
    """Hit/miss accounting for plan reuse."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def snapshot(self) -> dict[str, float]:
        """Run-start baseline for :meth:`delta` (monotone counters only)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def delta(self, baseline: Mapping[str, float] | None) -> dict[str, float]:
        """This run's traffic only, differenced against a run-start snapshot.

        A cache shared across shards or successive serving runs
        accumulates *lifetime* totals on one stats object — the single
        source of truth.  Reports must not re-claim traffic that another
        run (or an earlier run on the same cache) already reported, so
        they snapshot at start and difference here; the hit rate is
        recomputed from the differenced counters.
        """
        base_hits = int(baseline.get("hits", 0)) if baseline else 0
        base_misses = int(baseline.get("misses", 0)) if baseline else 0
        base_evictions = int(baseline.get("evictions", 0)) if baseline else 0
        hits = self.hits - base_hits
        misses = self.misses - base_misses
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "evictions": self.evictions - base_evictions,
            "hit_rate": hits / total if total else 0.0,
        }


@dataclass
class PlanCache:
    """Normalised-signature → optimized-plan memo for a serving runtime.

    ``max_size`` bounds the number of resident plans with LRU eviction
    (both hits and fresh inserts refresh recency); ``None`` is
    unbounded.
    """

    max_size: int | None = None
    stats: PlanCacheStats = field(default_factory=PlanCacheStats)
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

    def __len__(self) -> int:
        return len(self._plans)
