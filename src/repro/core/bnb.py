"""Generic best-first branch-and-bound engine (Section 5.2, Fig. 8).

The chapter's optimizer is "an incremental construction of query plans ...
Each choice in any of the three phases determines a subdivision of the
search space into non-overlapping subsets, which is an ideal branching.
Then, thanks to the mentioned monotonicity, each subset can be assigned a
lower bound for the cost by calculating the cost on the partially
constructed plan. ... if the lower bound for some class A is greater than
the upper bound for some other class B, then A ... may be safely
discarded."

This module hosts the problem-independent engine: a best-first exploration
over abstract states with

* ``expand(state, cutoff)`` — ``(children, bounded)``: a non-leaf
  state's children, less those the callee can tell unbuilt would reach
  ``cutoff`` (the incumbent's cost while pruning can bite, else ``inf``),
  and how many it left out — counted as ``pruned``, as on arrival, and
  as ``moves_bounded``;
* ``leaf_value(state)`` — ``(cost, payload, satisfies)`` for leaves, where
  ``satisfies`` marks leaves that meet the goal (k results); incumbent
  preference is "satisfying, then cheapest", and pruning compares lower
  bounds against the best *satisfying* incumbent only;
* ``lower_bound(state)`` — a monotone optimistic cost;
* ``signature_of(state)`` — optional canonical signature: two states with
  the same signature root identical subtrees, so only the first one
  *actually enqueued* claims it (hash-consing; ``stats.deduped`` counts
  the drops).  It is asked only of a state that survives its bound (so a
  state that is both prunable and a duplicate counts as ``pruned``, and a
  caller whose signatures are costly to build never builds one for a
  state pruned on arrival).  Signatures of states rejected by pruning or
  dominance are not recorded — a later equivalent push must be re-judged,
  because the rejected state was never going to be explored;
* ``dominance_of(state)`` — optional ``(group, vector)``: a state whose
  (bound, \\*vector) is componentwise >= that of a state **currently in
  the open queue** of the same group explores a subset of that state's
  completions at no lower cost, so it is dropped (``stats.dominated``).
  The frontier holds only queued states — an entry is retired when its
  state is popped — because a popped state has already spent its one
  expansion and no longer stands in for its subtree; keeping its entry
  would let a parent dominate its own children and wedge the search.
  Only sound when every completion of the dominated state is reachable
  from the dominating one and the metric is monotone — the caller asserts
  that by supplying the callback.

The search is **anytime** (Section 5.2: "the search for the optimal plan
can be stopped at any time, and it will nevertheless return a valid
solution"): a node budget bounds expansions, and the incumbent trace
records every improvement with the expansion count at which it occurred.
"""

from __future__ import annotations

import heapq
import itertools
from math import inf
from operator import le
from dataclasses import dataclass, field
from typing import Callable, Generic, Hashable, Iterable, TypeVar

from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer, coerce_tracer

__all__ = ["BnBStats", "BnBOutcome", "BranchAndBound"]

S = TypeVar("S")  # search state
P = TypeVar("P")  # leaf payload

#: Pareto-frontier entries kept per dominance group; past this the check
#: degrades gracefully to "record nothing new" rather than growing without
#: bound.
_MAX_FRONTIER = 64


@dataclass
class BnBStats:
    """Exploration accounting."""

    expanded: int = 0
    pruned: int = 0
    leaves: int = 0
    incumbent_updates: int = 0
    enqueued: int = 0
    #: States dropped because an identical-signature state was enqueued.
    deduped: int = 0
    #: States dropped because a same-group state dominates them.
    dominated: int = 0
    #: Of ``pruned``: moves ``expand`` left out on the cutoff, unbuilt.
    moves_bounded: int = 0
    budget_exhausted: bool = False
    #: Filled in by the caller that owns the states (the engine cannot see
    #: them): phase-2 children derived from ``(parent state, move)``, those
    #: of them whose leaves and signature were built, and plan objects
    #: actually built — the gaps are what pricing a child before building
    #: it saved.
    children_priced: int = 0
    children_built: int = 0
    plans_materialised: int = 0


@dataclass
class BnBOutcome(Generic[P]):
    """Search result: best payload plus statistics and incumbent history."""

    payload: P | None
    cost: float
    satisfies: bool
    stats: BnBStats
    # (expansions at improvement, cost, satisfies) per incumbent update.
    incumbents: list[tuple[int, float, bool]] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.payload is not None


class BranchAndBound(Generic[S, P]):
    """Best-first branch and bound over user-supplied callbacks.

    Parameters
    ----------
    expand:
        ``(children, bounded)`` of a non-leaf state under a cutoff.
    is_leaf:
        Leaf predicate.
    leaf_value:
        ``(cost, payload, satisfies)`` of a leaf.
    lower_bound:
        Monotone optimistic cost of any completion of the state.
    prune:
        Enable the bounding/pruning step (disable for ablation E12).
    depth_of:
        Optional depth function; deeper states win ties so the search
        dives to a first incumbent quickly (quasi-greedy warm start).
    signature_of:
        Optional canonical signature; ``None`` results exempt a state from
        deduplication.  See module docstring.
    dominance_of:
        Optional ``(group, vector)`` for dominance pruning; ``None``
        results exempt a state.  See module docstring.
    tracer:
        Observability context; every node expansion becomes a
        ``bnb.expand`` span (with its bound, depth, and child count) and
        every leaf evaluation a ``bnb.leaf`` span.  The default no-op
        tracer keeps the hot loop free of tracing work.
    describe:
        Optional short label for a state (e.g. its phase); recorded as
        the expansion span's ``kind`` attribute.
    """

    def __init__(
        self,
        expand: Callable[[S, float], tuple[Iterable[S], int]],
        is_leaf: Callable[[S], bool],
        leaf_value: Callable[[S], tuple[float, P, bool]],
        lower_bound: Callable[[S], float],
        prune: bool = True,
        depth_of: Callable[[S], int] | None = None,
        signature_of: Callable[[S], Hashable | None] | None = None,
        dominance_of: (
            Callable[[S], tuple[Hashable, tuple[float, ...]] | None] | None
        ) = None,
        tracer: "Tracer | NullTracer | None" = None,
        describe: Callable[[S], str] | None = None,
    ) -> None:
        self._expand = expand
        self._is_leaf = is_leaf
        self._leaf_value = leaf_value
        self._lower_bound = lower_bound
        self._prune = prune
        self._depth_of = depth_of or (lambda state: 0)
        self._signature_of = signature_of
        self._dominance_of = dominance_of
        self._tracer = coerce_tracer(tracer)
        self._describe = describe

    def run(
        self,
        root: S,
        budget: int | None = None,
        initial: tuple[float, P, bool] | None = None,
    ) -> BnBOutcome[P]:
        """Search from ``root``; ``initial`` seeds the incumbent (e.g. from
        a greedy heuristic dive), enabling pruning from the first pop."""
        stats = BnBStats()
        incumbents: list[tuple[int, float, bool]] = []
        best_payload: P | None = None
        best_cost = inf
        best_satisfies = False
        if initial is not None:
            best_cost, best_payload, best_satisfies = initial
            incumbents.append((0, best_cost, best_satisfies))
        counter = itertools.count()

        heap: list[tuple[float, int, int, S]] = []
        seen: set[Hashable] = set()
        frontiers: dict[Hashable, list[tuple[float, ...]]] = {}

        def frontier_entry(
            state: S, bound: float
        ) -> tuple[Hashable, tuple[float, ...]] | None:
            if self._dominance_of is None:
                return None
            entry = self._dominance_of(state)
            if entry is None:
                return None
            group, vector = entry
            return group, (bound, *vector)

        def retire(state: S, bound: float) -> None:
            """Drop a popped state's frontier entry: it no longer stands
            in for its (now materialised) subtree."""
            entry = frontier_entry(state, bound)
            if entry is None:
                return
            group, full = entry
            frontier = frontiers.get(group)
            if frontier and full in frontier:
                frontier.remove(full)

        def push(state: S) -> None:
            """Enqueue unless prunable, deduplicated, or dominated."""
            bound = self._lower_bound(state)
            if self._prune and best_satisfies and bound >= best_cost:
                stats.pruned += 1
                return
            signature = (
                self._signature_of(state)
                if self._signature_of is not None
                else None
            )
            if signature is not None and signature in seen:
                stats.deduped += 1
                return
            entry = frontier_entry(state, bound)
            if entry is not None:
                group, full = entry
                frontier = frontiers.setdefault(group, [])
                for other in frontier:
                    if len(other) == len(full) and all(map(le, other, full)):
                        stats.dominated += 1
                        return
                if len(frontier) < _MAX_FRONTIER:
                    frontier.append(full)
            if signature is not None:
                seen.add(signature)
            heapq.heappush(
                heap, (bound, -self._depth_of(state), next(counter), state)
            )
            stats.enqueued += 1

        def consider_leaf(state: S) -> None:
            nonlocal best_payload, best_cost, best_satisfies
            cost, payload, satisfies = self._leaf_value(state)
            stats.leaves += 1
            better = (satisfies, -cost) > (best_satisfies, -best_cost)
            if best_payload is None or better:
                best_payload = payload
                best_cost = cost
                best_satisfies = satisfies
                stats.incumbent_updates += 1
                incumbents.append((stats.expanded, cost, satisfies))

        push(root)
        while heap:
            if budget is not None and stats.expanded >= budget:
                stats.budget_exhausted = True
                break
            bound, _, _, state = heapq.heappop(heap)
            retire(state, bound)
            if self._prune and best_satisfies and bound >= best_cost:
                stats.pruned += 1
                continue
            tracer = self._tracer
            if self._is_leaf(state):
                if tracer.enabled:
                    with tracer.span(
                        "bnb.leaf", bound=bound, depth=self._depth_of(state)
                    ):
                        consider_leaf(state)
                else:
                    consider_leaf(state)
                continue
            stats.expanded += 1
            cutoff = best_cost if self._prune and best_satisfies else inf
            if tracer.enabled:
                with tracer.span(
                    "bnb.expand",
                    bound=bound,
                    depth=self._depth_of(state),
                    kind=(
                        self._describe(state) if self._describe else "state"
                    ),
                ) as span:
                    children, bounded = self._expand(state, cutoff)
                    children = list(children)
                    span.set("children", len(children))
                    span.set("moves_bounded", bounded)
            else:
                children, bounded = self._expand(state, cutoff)
            stats.pruned += bounded
            stats.moves_bounded += bounded
            for child in children:
                push(child)

        return BnBOutcome(
            payload=best_payload,
            cost=best_cost,
            satisfies=best_satisfies,
            stats=stats,
            incumbents=incumbents,
        )
