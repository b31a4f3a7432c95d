"""Top-k rank join with correctness guarantees (the chapter's pointer to
"top-k join methods, described in the next chapter").

The methods of Section 4 are fast but "do not guarantee top-k results".
This module supplies the guaranteed variant as an extension feature: a
hash-rank-join (HRJN-style) executor over two ranked chunked sources with
a weighted-sum combination score.

Invariant: a candidate combination may be emitted only when its combined
score is at least the *threshold*

``T = max(wx * top_x + wy * bot_y,  wx * bot_x + wy * top_y)``

where ``top``/``bot`` are the best/last-seen scores per source — no
not-yet-seen combination can ever score above ``T``, so emission order is
provably the global top-k order.  The pull strategy is HRJN*'s: fetch next
from the source whose bound dominates the threshold, which realises a
merge-scan with a *variable* inter-service ratio driven by the score
distributions (the Chapter 11 behaviour the reproduced chapter brackets).

Since the wcoj/ranked kernel subsystem landed, this module is also the
**kernel facade**: :func:`topk_join` runs one multiway top-k join under
any of the three kernels (``binary`` cascade, ``wcoj`` leapfrog,
``ranked`` lazy enumeration) with the shared determinism contract —
scores summed alias-sorted, ties broken by canonical row key — so equal-
score tuples enumerate in the same order whichever kernel ran.  The
:class:`RankJoinExecutor` itself now finalizes under the same contract
(collect until the threshold is strictly below the k-th best, then sort
by ``(-score, canonical key)``), and :func:`tile_trace` maps any
kernel's emission order back onto chunk tiles so the Section 4.1
extraction-optimality analysers apply to the new kernels unchanged.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ExecutionError
from repro.joins.methods import ChunkSource, JoinedPair, JoinResult, JoinStatistics
from repro.joins.ranked import RankedEnumerator
from repro.joins.searchspace import Tile
from repro.joins.strategies import Axis
from repro.joins.wcoj import (
    BinaryCascadeExecutor,
    JoinGraph,
    JoinedRow,
    MultiwayJoinExecutor,
    Relation,
    canonical_tuple_key,
)
from repro.model.tuples import RankingFunction, ServiceTuple

__all__ = [
    "RankJoinExecutor",
    "TopKJoinOutcome",
    "canonical_pair_key",
    "tile_trace",
    "topk_join",
]

_EPS = 1e-9


def canonical_pair_key(pair: JoinedPair) -> tuple:
    """Deterministic tie-break identity of one joined pair."""
    return (canonical_tuple_key(pair.left), canonical_tuple_key(pair.right))


@dataclass
class _SourceState:
    """Buffered tuples and score bounds for one side of the rank join."""

    buffer: list[tuple[ServiceTuple, int]]  # (tuple, chunk index)
    top: float | None = None
    bottom: float | None = None
    exhausted: bool = False
    chunks: int = 0

    def absorb(self, chunk: list[ServiceTuple]) -> list[tuple[ServiceTuple, int]]:
        new = [(tup, self.chunks) for tup in chunk]
        self.buffer.extend(new)
        if self.top is None and chunk:
            self.top = chunk[0].score
        if chunk:
            self.bottom = chunk[-1].score
        self.chunks += 1
        return new


class RankJoinExecutor:
    """Guaranteed top-k join of two ranked sources under a weighted sum.

    Parameters
    ----------
    source_x, source_y:
        Chunked ranked sources.
    predicate:
        Join predicate over tuple pairs.
    weight_x, weight_y:
        Non-negative weights of the combination score
        ``wx * score_x + wy * score_y``.
    k:
        Number of top combinations to produce.
    max_calls:
        Safety bound on total fetches.
    """

    def __init__(
        self,
        source_x: ChunkSource,
        source_y: ChunkSource,
        predicate: Callable[[ServiceTuple, ServiceTuple], bool],
        weight_x: float = 0.5,
        weight_y: float = 0.5,
        k: int = 10,
        max_calls: int = 10_000,
    ) -> None:
        if weight_x < 0 or weight_y < 0:
            raise ExecutionError("weights must be non-negative")
        if k <= 0:
            raise ExecutionError("k must be positive")
        self.source_x = source_x
        self.source_y = source_y
        self.predicate = predicate
        self.weight_x = weight_x
        self.weight_y = weight_y
        self.k = k
        self.max_calls = max_calls

    def _score(self, left: ServiceTuple, right: ServiceTuple) -> float:
        return self.weight_x * left.score + self.weight_y * right.score

    def run(self) -> JoinResult:
        state_x = _SourceState(buffer=[])
        state_y = _SourceState(buffer=[])
        stats = JoinStatistics()
        # Max-heap of candidates: (-score, sequence, pair).
        heap: list[tuple[float, int, JoinedPair]] = []
        counter = itertools.count()

        def fetch(axis: Axis) -> None:
            source = self.source_x if axis is Axis.X else self.source_y
            state = state_x if axis is Axis.X else state_y
            chunk = source.next_chunk()
            if chunk is None or not chunk:
                state.exhausted = True
                return
            if axis is Axis.X:
                stats.calls_x += 1
            else:
                stats.calls_y += 1
            new = state.absorb(chunk)
            other = state_y if axis is Axis.X else state_x
            for tup, chunk_index in new:
                for other_tup, other_chunk in other.buffer:
                    left, right = (
                        (tup, other_tup) if axis is Axis.X else (other_tup, tup)
                    )
                    stats.candidates += 1
                    if self.predicate(left, right):
                        tile = (
                            Tile(chunk_index, other_chunk)
                            if axis is Axis.X
                            else Tile(other_chunk, chunk_index)
                        )
                        pair = JoinedPair(left, right, self._score(left, right), tile)
                        heapq.heappush(heap, (-pair.score, next(counter), pair))

        def threshold() -> float:
            if state_x.top is None or state_y.top is None:
                return float("inf")
            bot_x = 0.0 if state_x.exhausted else (state_x.bottom or 0.0)
            bot_y = 0.0 if state_y.exhausted else (state_y.bottom or 0.0)
            term_x = self.weight_x * state_x.top + self.weight_y * bot_y
            term_y = self.weight_x * bot_x + self.weight_y * state_y.top
            if state_x.exhausted and state_y.exhausted:
                return -float("inf")
            return max(term_x, term_y)

        # Prime both sources so both tops are known.
        fetch(Axis.X)
        fetch(Axis.Y)

        # Deterministic emission (the cross-kernel tie-break contract):
        # collect provable candidates until the threshold sits *strictly*
        # below the k-th best collected score — every potential tie is in
        # hand — then sort by (-score, canonical key) and cut to k.  The
        # heap's discovery order never shows in the output.
        collected: list[JoinedPair] = []

        def kth_score() -> float:
            if len(collected) < self.k:
                return -float("inf")
            return heapq.nlargest(self.k, (p.score for p in collected))[-1]

        while True:
            # Collect every candidate already provably in the top-k range.
            while heap and -heap[0][0] >= threshold() - _EPS:
                _, _, pair = heapq.heappop(heap)
                collected.append(pair)
            if len(collected) >= self.k and threshold() < kth_score() - _EPS:
                break
            if state_x.exhausted and state_y.exhausted:
                bar = kth_score()
                while heap and -heap[0][0] >= bar - _EPS:
                    _, _, pair = heapq.heappop(heap)
                    collected.append(pair)
                break
            if stats.total_calls >= self.max_calls:
                break
            # HRJN*-style pull: fetch from the side whose term dominates the
            # threshold (its bound is the looser one, so tightening it makes
            # the fastest progress).
            bot_x = 0.0 if state_x.exhausted else (state_x.bottom or 0.0)
            bot_y = 0.0 if state_y.exhausted else (state_y.bottom or 0.0)
            term_x = (
                self.weight_x * (state_x.top or 0.0) + self.weight_y * bot_y
            )
            term_y = (
                self.weight_x * bot_x + self.weight_y * (state_y.top or 0.0)
            )
            if state_x.exhausted:
                fetch(Axis.Y)
            elif state_y.exhausted:
                fetch(Axis.X)
            elif term_x >= term_y:
                fetch(Axis.Y)
            else:
                fetch(Axis.X)

        emitted = sorted(
            collected, key=lambda p: (-p.score, canonical_pair_key(p))
        )[: self.k]
        stats.results = len(emitted)
        stats.tiles_processed = state_x.chunks * state_y.chunks
        return JoinResult(pairs=emitted, stats=stats)


# ----------------------------------------------------------------------------- #
# Kernel facade: one top-k join, three kernels, identical answers
# ----------------------------------------------------------------------------- #


@dataclass
class TopKJoinOutcome:
    """One kernel's answer to a multiway top-k join, plus its work stats."""

    kernel: str
    rows: list[JoinedRow]
    stats: object

    def row_keys(self) -> list[tuple]:
        """Score + canonical identity per row — the cross-kernel digest."""
        return [(row.score, row.key()) for row in self.rows]


#: Kernels :func:`topk_join` dispatches over (``auto`` is a plan-level
#: notion and resolves before reaching the joins layer).
TOPK_JOIN_KERNELS = ("binary", "wcoj", "ranked")


def topk_join(
    relations: Sequence[Relation],
    graph: JoinGraph,
    ranking: RankingFunction | None = None,
    k: int = 10,
    kernel: str = "binary",
) -> TopKJoinOutcome:
    """Top-k multiway equi-join under the chosen kernel.

    All kernels honour the shared determinism contract (alias-sorted
    score summation, ``(-score, canonical row key)`` emission order), so
    the returned rows are identical — including tie order — whichever
    kernel ran; only ``stats`` differs.  A non-positive ``k`` is an
    :class:`~repro.errors.ExecutionError` under every kernel.
    """
    if kernel == "binary":
        outcome = BinaryCascadeExecutor(
            relations, graph, ranking=ranking, k=k
        ).run()
    elif kernel == "wcoj":
        outcome = MultiwayJoinExecutor(
            relations, graph, ranking=ranking, k=k
        ).run()
    elif kernel == "ranked":
        outcome = RankedEnumerator(
            relations, graph, ranking=ranking, k=k
        ).run()
    else:
        raise ExecutionError(
            f"unknown top-k join kernel {kernel!r}; "
            f"expected one of {TOPK_JOIN_KERNELS}"
        )
    return TopKJoinOutcome(kernel=kernel, rows=outcome.rows, stats=outcome.stats)


def tile_trace(
    rows: Sequence[JoinedRow], relation_x: Relation, relation_y: Relation
) -> list[Tile]:
    """Map a two-way kernel's emission order onto chunk tiles.

    Each emitted row came from one ``(chunk_x, chunk_y)`` tile (recorded
    when the relations were drained from chunk sources); the resulting
    tile sequence is what the Section 4.1 extraction-optimality
    analysers (:mod:`repro.joins.extraction`) consume, which is how the
    new kernels plug into the existing optimality machinery.
    """
    trace: list[Tile] = []
    for row in rows:
        tx = row.components[relation_x.alias]
        ty = row.components[relation_y.alias]
        tile = Tile(
            relation_x.chunk_of.get(tx.position, 0),
            relation_y.chunk_of.get(ty.position, 0),
        )
        if not trace or trace[-1] != tile:
            trace.append(tile)
    return trace
