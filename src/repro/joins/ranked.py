"""Lazy ranked enumeration of multiway joins (any-k, top-k without tiles).

The guaranteed rank join of :mod:`repro.joins.topk` buffers *every*
candidate pair it discovers before the threshold proves the top-k; the
binary cascade materializes whole intermediate relations.  This module
is the third style (Tziavelis et al., "Optimal Join Algorithms Meet
Top-k"): a **priority queue over partial join prefixes**, made lazy in
*work* — not only in rows — by three linear preprocessing steps.

**Reducer.**  After the self-equality filter, one forward and one
backward semi-join sweep over the relations — every pair sharing join
variables, on the full shared key vector — removes dangling tuples
before any index exists.  Along a join tree that is Yannakakis' full
reducer; on cyclic graphs it is what keeps a sparse closing variable
from being discovered one dead-end prefix at a time.

**Level order.**  Relations are then searched most-constrained-next:
the next level is the relation sharing the most already-bound join
variables (smaller *reduced* relation, then caller order, on ties), so
a cycle's closing relation is reached before the cross product around
it is enumerated.  The order is internal (``stats.level_order``); rows
come out through :func:`~repro.joins.wcoj.finalize_rows` whatever it is.

**Completion bound.**  Each level hangs below the earlier level it
shares the most variables with; the forest is a spanning tree of the
join graph.  A bottom-up pass gives every tuple its *completion value*

``value(t) = w * score(t) + sum(best[child][key_child(t)])``

where ``best[level][key]`` is the highest value among the level's tuples
with that parent key (a tuple with no partner in some child is dropped).
A prefix is bounded by the chosen tuples' scores plus the ``best`` of
every subtree still hanging off them, which the queue keeps
incrementally: extending a prefix with candidate ``t`` lowers its bound
by the candidate's *deficit* ``best[level][key] - value(t)``.  Candidate
lists are sorted by deficit, so sibling bounds are non-increasing, and
the bound never underestimates a completion: equalities the tree does
not carry are simply not required of the suffix, which only loosens an
upper bound.  When every level's bound variables all lie in its parent
(``bound == "exact"``, always the case on acyclic graphs) the tree join
*is* the join, bounds are attained, no popped prefix is a dead end, and
the k-th row arrives within ``levels * k`` pops (row scores pairwise
distinct; rows tied at the k-th score are all enumerated).  Otherwise
(``"spanning_tree"``) the bound is an over-estimate and dead ends are
limited to what the dropped equalities let through; when k exceeds the
join the search is exhaustive by definition.

Popping in bound order discovers complete rows in score order; the
enumerator stops once the best open bound is strictly below the k-th
best complete score.  Candidates come from one hash index per level on
the variables the prefix binds, each list sorted on first use.

Determinism: completed rows are scored through
:func:`~repro.joins.wcoj.score_components` and finalized through
:func:`~repro.joins.wcoj.finalize_rows`, the same contract as the wcoj
and cascade kernels, so equal-score rows come out in the same order
under all three.  Tuples may arrive in any order: every bound is a
maximum taken over the reduced relations, never ``tuples[0]``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Sequence

from repro.errors import ExecutionError
from repro.joins.wcoj import (
    JoinGraph,
    JoinedRow,
    Relation,
    canonical_tuple_key,
    finalize_rows,
    orderable_key,
    score_components,
)
from repro.model.scoring import fold
from repro.model.tuples import RankingFunction, ServiceTuple

__all__ = ["RankedEnumerationStatistics", "RankedEnumerator", "RankedResult"]

#: Strictness margin of the stopping rule: wide enough to absorb the
#: rounding difference between a prefix bound (top value minus deficits)
#: and the finalizer's alias-sorted score, narrow enough that genuinely
#: lower-scored rows can never displace a tie.
_EPS = 1e-12

#: A tuple paired with its key vector (one ``orderable_key`` per join
#: variable of its relation).
_Row = tuple[ServiceTuple, tuple]


@dataclass
class RankedEnumerationStatistics:
    """Laziness accounting: how much of the join was *not* done."""

    pq_pops: int = 0
    pq_pushes: int = 0
    max_heap: int = 0
    #: Complete rows actually assembled — the materialization the lazy
    #: enumerator admits to; compare against the full join cardinality.
    materialized_rows: int = 0
    #: Tuples scanned by the reducer's sweeps plus candidate-list entries
    #: sorted — the linear preprocessing and the sorted accesses.
    candidate_rows: int = 0
    #: Levels whose hash index was built (never more than #relations).
    index_builds: int = 0
    results: int = 0
    #: Dangling tuples the reducer and the completion pass removed.
    reduced_rows: int = 0
    #: Aliases in the order the search binds them.
    level_order: tuple[str, ...] = ()
    #: ``"exact"`` when the completion bound is attained (acyclic graphs),
    #: ``"spanning_tree"`` when some equality is left out of it.
    bound: str = "exact"

    def as_dict(self) -> dict:
        return {
            "pq_pops": self.pq_pops,
            "pq_pushes": self.pq_pushes,
            "max_heap": self.max_heap,
            "materialized_rows": self.materialized_rows,
            "candidate_rows": self.candidate_rows,
            "index_builds": self.index_builds,
            "results": self.results,
            "reduced_rows": self.reduced_rows,
            "level_order": list(self.level_order),
            "bound": self.bound,
        }


@dataclass
class RankedResult:
    rows: list[JoinedRow]
    stats: RankedEnumerationStatistics


def _picker(positions: Sequence[int]) -> Callable[[tuple], object]:
    """Projection of a key vector; two pickers of equal arity agree on shape."""
    return itemgetter(*positions) if positions else (lambda vector: ())


@dataclass
class _Level:
    """One relation's place in the search: its surviving rows, its parent
    in the spanning tree, and the key projections the search reads."""

    alias: str
    weight: float
    variables: tuple[int, ...]
    rows: list[_Row]
    #: The earlier level this one hangs below (``None``: a tree root).
    parent: int | None = None
    #: Own key vector -> key on the variables shared with the parent.
    parent_key: Callable[[tuple], object] = _picker(())
    #: Own key vector / concatenated prefix vectors -> key on every
    #: variable an earlier level binds.
    own_key: Callable[[tuple], object] = _picker(())
    prefix_key: Callable[[tuple], object] = _picker(())
    #: ``(child level, own key vector -> the child's parent key)``.
    children: list[tuple[int, Callable[[tuple], object]]] = field(
        default_factory=list
    )


class RankedEnumerator:
    """Global top-k of a multiway equi-join, enumerated lazily.

    Parameters
    ----------
    relations / graph:
        As for :class:`~repro.joins.wcoj.MultiwayJoinExecutor`.  The
        alias order is the caller's contract for the output only; the
        search order is chosen internally (``stats.level_order``).
        Tuples need not be sorted by score.
    ranking:
        Weighted-sum ranking (uniform by default).  Weights must be
        non-negative — the bound's monotonicity depends on it.
    k:
        Rows to return.
    max_pops:
        Safety bound on queue pops (defends against adversarial inputs
        in serving contexts); ``None`` means unbounded.  A capped run
        returns only rows proven final, a prefix of the uncapped ranking.
    """

    def __init__(
        self,
        relations: Sequence[Relation],
        graph: JoinGraph,
        ranking: RankingFunction | None = None,
        k: int = 10,
        max_pops: int | None = None,
    ) -> None:
        if tuple(r.alias for r in relations) != graph.aliases:
            raise ExecutionError("relations must match the graph's aliases")
        if k <= 0:
            raise ExecutionError("k must be positive")
        self.relations = tuple(relations)
        self.graph = graph
        self.ranking = ranking or RankingFunction.uniform(graph.aliases)
        if any(self.ranking.weight(a) < 0 for a in graph.aliases):
            raise ExecutionError("ranking weights must be non-negative")
        self.k = k
        self.max_pops = max_pops
        #: Per relation, caller order: the join variables it carries
        #: (indexes into ``graph.variables``) and the attribute read for each.
        self._columns = [graph.attrs_of(r.alias) for r in self.relations]
        #: ``(i, j, picker over i, picker over j)`` per pair sharing variables.
        self._links = []
        for j, columns in enumerate(self._columns):
            own = [var for var, _ in columns]
            for i in range(j):
                other = [var for var, _ in self._columns[i]]
                shared = [var for var in own if var in other]
                if shared:
                    self._links.append(
                        (
                            i,
                            j,
                            _picker([other.index(var) for var in shared]),
                            _picker([own.index(var) for var in shared]),
                        )
                    )

    # -- preprocessing -------------------------------------------------------

    def _reduce(self, stats: RankedEnumerationStatistics) -> list[list[_Row]]:
        """Self-equality filter, then the forward and backward semi-join sweeps."""
        rows: list[list[_Row]] = []
        for relation, columns in zip(self.relations, self._columns):
            attrs = [attr for _, attr in columns]
            rows.append(
                [
                    (tup, tuple([orderable_key(tup.values.get(a)) for a in attrs]))
                    for tup in self.graph.self_consistent(
                        relation.alias, relation.tuples
                    )
                ]
            )

        def semijoin(target: int, pick, source: int, pick_source) -> None:
            partners = {pick_source(vector) for _, vector in rows[source]}
            kept = [row for row in rows[target] if pick(row[1]) in partners]
            stats.candidate_rows += len(rows[source]) + len(rows[target])
            stats.reduced_rows += len(rows[target]) - len(kept)
            rows[target] = kept

        # Forward: each relation against the earlier ones; backward: each
        # against the (already reduced) later ones.
        for i, j, pick_i, pick_j in self._links:
            semijoin(j, pick_j, i, pick_i)
        for i, j, pick_i, pick_j in reversed(self._links):
            semijoin(i, pick_i, j, pick_j)
        return rows

    def _plan(self, rows: list[list[_Row]]) -> tuple[list[_Level], bool]:
        """Level order on the reduced sizes, spanning tree, key projections."""
        pending = [
            _Level(
                alias=relation.alias,
                weight=self.ranking.weight(relation.alias),
                variables=tuple(var for var, _ in columns),
                rows=kept,
            )
            for relation, columns, kept in zip(self.relations, self._columns, rows)
        ]
        # Most-constrained-next; min() keeps caller order on full ties.
        levels: list[_Level] = []
        bound_at: dict[int, int] = {}  # variable -> position in the prefix
        offsets: list[int] = []
        width = 0
        while pending:
            level = min(
                pending,
                key=lambda lv: (
                    -sum(var in bound_at for var in lv.variables),
                    len(lv.rows),
                ),
            )
            pending.remove(level)
            levels.append(level)
            offsets.append(width)
            for position, var in enumerate(level.variables):
                bound_at.setdefault(var, width + position)
            width += len(level.variables)
        exact = True
        for j, level in enumerate(levels):
            own = level.variables
            bound = [var for var in own if bound_at[var] < offsets[j]]
            level.own_key = _picker([own.index(var) for var in bound])
            level.prefix_key = _picker([bound_at[var] for var in bound])
            # Parent: most shared variables, earliest level on ties.
            widest: list[int] = []
            for i, other in enumerate(levels[:j]):
                shared = [var for var in own if var in other.variables]
                if len(shared) > len(widest):
                    widest, level.parent = shared, i
            if level.parent is not None:
                parent = levels[level.parent]
                level.parent_key = _picker([own.index(var) for var in widest])
                parent.children.append(
                    (j, _picker([parent.variables.index(var) for var in widest]))
                )
                exact = exact and set(bound) <= set(parent.variables)
        return levels, exact

    def _index(
        self, levels: list[_Level], stats: RankedEnumerationStatistics
    ) -> tuple[list[dict], list[dict]]:
        """Bottom-up completion values, grouped for candidate access.

        Returns ``(best, index)`` per level: ``best[j][parent key]`` is
        the highest completion value under that key, ``index[j][key on
        the bound variables]`` the ``(value, tuple, key vector)`` entries.
        """
        best: list[dict] = [{} for _ in levels]
        index: list[dict] = [{} for _ in levels]
        for j in range(len(levels) - 1, -1, -1):
            level = levels[j]
            best_j, index_j, weight = best[j], index[j], level.weight
            for tup, vector in level.rows:
                value = weight * tup.score
                for child, child_key in level.children:
                    suffix = best[child].get(child_key(vector))
                    if suffix is None:
                        stats.reduced_rows += 1
                        break
                    value += suffix
                else:
                    key = level.parent_key(vector)
                    if value > best_j.get(key, -1.0):
                        best_j[key] = value
                    index_j.setdefault(level.own_key(vector), []).append(
                        (value, tup, vector)
                    )
        stats.index_builds = len(levels)
        return best, index

    # -- enumeration ---------------------------------------------------------

    def run(self) -> RankedResult:
        stats = RankedEnumerationStatistics()
        levels, exact = self._plan(self._reduce(stats))
        aliases = stats.level_order = tuple(level.alias for level in levels)
        stats.bound = "exact" if exact else "spanning_tree"
        best, index = self._index(levels, stats)
        ready: list[dict] = [{} for _ in levels]

        def candidates(j: int, key: object) -> list[tuple[float, ServiceTuple, tuple]]:
            """``(deficit, tuple, key vector)`` entries, best value first."""
            entries = ready[j].get(key)
            if entries is None:
                raw = index[j].get(key)
                if raw is None:
                    return []
                raw.sort(key=lambda e: (-e[0], canonical_tuple_key(e[1])))
                top = best[j][levels[j].parent_key(raw[0][2])]
                entries = ready[j][key] = [
                    (top - value, tup, vector) for value, tup, vector in raw
                ]
                stats.candidate_rows += len(entries)
            return entries

        # Heap entries: (-bound, seq, prefix tuples, prefix key vectors,
        # prefix bound, candidate list, cursor) — the prefix extended by
        # ``candidates[cursor]``.  Popping one pushes its sibling (next
        # candidate, same prefix) and its child (next level, first
        # candidate): every combination is generated exactly once.
        heap: list[tuple] = []
        seq = itertools.count()

        def push(chosen, vectors, bound, entries, cursor) -> None:
            heapq.heappush(
                heap,
                (entries[cursor][0] - bound, next(seq), chosen, vectors,
                 bound, entries, cursor),
            )
            stats.pq_pushes += 1
            if len(heap) > stats.max_heap:
                stats.max_heap = len(heap)

        if all(index):
            roots = candidates(0, ())
            # Every tree root's best value: the score no row can exceed.
            top = fold(
                best[j][()] for j, level in enumerate(levels) if level.parent is None
            )
            push((), (), top, roots, 0)

        complete: list[JoinedRow] = []
        leaders: list[float] = []  # min-heap of the k best complete scores
        capped = False
        while heap:
            bound = -heap[0][0]
            if len(leaders) >= self.k and bound < leaders[0] - _EPS:
                break
            if self.max_pops is not None and stats.pq_pops >= self.max_pops:
                capped = True
                break
            _, _, chosen, vectors, above, entries, cursor = heapq.heappop(heap)
            stats.pq_pops += 1
            if cursor + 1 < len(entries):
                push(chosen, vectors, above, entries, cursor + 1)
            _, tup, vector = entries[cursor]
            chosen += (tup,)
            if len(chosen) == len(levels):
                components = dict(zip(aliases, chosen))
                row = JoinedRow(
                    components=components,
                    score=score_components(self.ranking, components),
                )
                complete.append(row)
                stats.materialized_rows += 1
                heapq.heappush(leaders, row.score)
                if len(leaders) > self.k:
                    heapq.heappop(leaders)
            else:
                vectors += vector
                j = len(chosen)
                entries = candidates(j, levels[j].prefix_key(vectors))
                if entries:
                    push(chosen, vectors, bound, entries, 0)

        if capped:
            # Only rows above every open bound are in their final place.
            limit = -heap[0][0] + _EPS
            complete = [row for row in complete if row.score > limit]
        rows = finalize_rows(complete, self.k)
        stats.results = len(rows)
        return RankedResult(rows=rows, stats=stats)
