"""Executable join methods over chunked ranked sources (Sections 4.2-4.5).

This module turns the strategy/completion building blocks into runnable
binary joins:

* :class:`ListChunkSource` — a chunk source over a pre-ranked tuple list
  (the shape simulated services expose);
* :class:`ParallelJoinExecutor` — a parallel join: fetches chunks from the
  two sources following an invocation schedule, hands tiles to the join in
  completion-policy order, and emits scored result pairs until ``k``
  results are produced (or the sources are exhausted);
* :class:`PipeJoinExecutor` — a pipe join: for every upstream tuple,
  invokes the downstream service with piped bindings and fetches a fixed
  number of chunks ("retrieving the same number of fetches from the second
  service for each invocation originating from each tuple in output from
  the first service" — nested loop with rectangular completion);
* :func:`make_executor` — builds the executor configuration matching a
  :class:`~repro.joins.spec.JoinMethodSpec`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.errors import ExecutionError, RetryExhaustedError

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.engine.retry import Retrier
from repro.joins.completion import (
    CompletionPolicy,
    RectangularCompletion,
    TileScheduler,
    TriangularCompletion,
)
from repro.joins.extraction import JoinEvent
from repro.joins.searchspace import SearchSpace, Tile
from repro.joins.spec import (
    CompletionStrategy,
    InvocationStrategy,
    JoinMethodSpec,
)
from repro.joins.strategies import (
    Axis,
    InvocationSchedule,
    MergeScanSchedule,
    NestedLoopSchedule,
)
from repro.model.scoring import ScoringFunction
from repro.model.tuples import ServiceTuple
from repro.obs.tracer import NullTracer, Tracer, coerce_tracer

__all__ = [
    "ChunkSource",
    "ListChunkSource",
    "JoinedPair",
    "JoinStatistics",
    "JoinResult",
    "ParallelJoinExecutor",
    "PipeJoinExecutor",
    "make_executor",
    "product_score",
]


class ChunkSource:
    """Protocol-ish base: a ranked service seen as a stream of chunks."""

    scoring: ScoringFunction
    chunk_size: int

    def next_chunk(self) -> list[ServiceTuple] | None:
        """Fetch the next chunk; ``None`` once exhausted."""
        raise NotImplementedError

    @property
    def calls(self) -> int:
        raise NotImplementedError


@dataclass
class ListChunkSource(ChunkSource):
    """Chunk source over a pre-ranked in-memory tuple list."""

    tuples: Sequence[ServiceTuple]
    chunk_size: int
    scoring: ScoringFunction
    _cursor: int = 0
    _calls: int = 0

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise ExecutionError("chunk_size must be positive")
        scores = [t.score for t in self.tuples]
        if any(a < b - 1e-9 for a, b in zip(scores, scores[1:])):
            raise ExecutionError("source tuples must be in ranking order")

    def next_chunk(self) -> list[ServiceTuple] | None:
        if self._cursor >= len(self.tuples):
            return None
        chunk = list(self.tuples[self._cursor : self._cursor + self.chunk_size])
        self._cursor += self.chunk_size
        self._calls += 1
        return chunk

    @property
    def calls(self) -> int:
        return self._calls


@dataclass(frozen=True)
class JoinedPair:
    """One join result: the contributing tuples, score, and source tile."""

    left: ServiceTuple
    right: ServiceTuple
    score: float
    tile: Tile


@dataclass
class JoinStatistics:
    """Accounting of one join execution."""

    calls_x: int = 0
    calls_y: int = 0
    tiles_processed: int = 0
    #: Logical candidate-pair count: the full tile area, independent of the
    #: pairing kernel.  This is the paper's "candidate combinations" figure.
    candidates: int = 0
    #: Pairs the kernel actually evaluated the predicate on (for the
    #: nested-loop tile kernel, ``candidates``).
    pairs_probed: int = 0
    results: int = 0
    trace: list[Tile] = field(default_factory=list)
    events: list[JoinEvent] = field(default_factory=list)

    @property
    def total_calls(self) -> int:
        return self.calls_x + self.calls_y


@dataclass
class JoinResult:
    """Join output plus execution statistics."""

    pairs: list[JoinedPair]
    stats: JoinStatistics

    def __iter__(self) -> Iterator[JoinedPair]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def product_score(left: ServiceTuple, right: ServiceTuple) -> float:
    """Default combination score: the product ``rho_X * rho_Y`` of
    Section 4.1's extraction-optimality definition."""
    return left.score * right.score


def _coerce_degradation(value: object) -> str:
    """Normalise a degradation mode (enum member or string) to its name."""
    mode = getattr(value, "value", value)
    if mode not in ("fail", "partial"):
        raise ExecutionError(
            f"unknown degradation mode {value!r}; expected 'fail' or 'partial'"
        )
    return str(mode)


def _fetch_chunk(
    source: ChunkSource, retry: "Retrier | None", degradation: str
) -> list[ServiceTuple] | None:
    """One (possibly retried) chunk fetch; ``None`` once the source is done.

    A source whose retries are exhausted is done under ``partial`` (the
    join goes on with what already arrived); under ``fail`` the
    :class:`~repro.errors.RetryExhaustedError` propagates.
    """
    try:
        return source.next_chunk() if retry is None else retry.call(source.next_chunk)
    except RetryExhaustedError:
        if degradation == "fail":
            raise
        return None


class ParallelJoinExecutor:
    """Parallel join of two chunked ranked sources.

    Parameters
    ----------
    source_x, source_y:
        The two chunk sources.
    predicate:
        Join predicate over a tuple pair.
    schedule:
        Invocation schedule (who gets called next).
    policy:
        Completion policy (which loaded tiles to process when).
    k:
        Stop once this many result pairs are emitted (must be positive);
        ``None`` runs to exhaustion.
    scorer:
        Combined score for emitted pairs (defaults to the ranking product).
    max_calls:
        Safety bound on total service calls.
    retry:
        Optional retry harness (:class:`~repro.engine.retry.Retrier`)
        wrapping every chunk fetch; failing calls are re-issued per its
        policy, with backoff on virtual time.
    degradation:
        Once a source's retries are exhausted: ``"partial"`` (default)
        treats that axis as exhausted and joins what arrived; ``"fail"``
        propagates :class:`~repro.errors.RetryExhaustedError`.
    tracer:
        Observability context; each processed tile becomes a
        ``join.tile`` span (its probe batch: candidates, pairs probed,
        matches) on virtual time.  ``None`` uses the shared no-op tracer.

    Each tile is joined by a nested loop over its two chunks.
    """

    def __init__(
        self,
        source_x: ChunkSource,
        source_y: ChunkSource,
        predicate: Callable[[ServiceTuple, ServiceTuple], bool],
        schedule: InvocationSchedule | None = None,
        policy: CompletionPolicy | None = None,
        k: int | None = None,
        scorer: Callable[[ServiceTuple, ServiceTuple], float] = product_score,
        max_calls: int = 10_000,
        retry: "Retrier | None" = None,
        degradation: str = "partial",
        tracer: "Tracer | NullTracer | None" = None,
    ) -> None:
        if k is not None and k <= 0:
            raise ExecutionError("k must be positive")
        self.source_x = source_x
        self.source_y = source_y
        self.predicate = predicate
        self.tracer = coerce_tracer(tracer)
        self.schedule = schedule or MergeScanSchedule()
        # A copy: the executor attaches its own space, and a triangular
        # flush raises the policy's slack, neither on the caller's object.
        self.policy = copy.copy(policy) if policy else TriangularCompletion()
        self.k = k
        self.scorer = scorer
        self.max_calls = max_calls
        self.retry = retry
        self.degradation = _coerce_degradation(degradation)
        self.space = SearchSpace(
            chunk_size_x=source_x.chunk_size,
            chunk_size_y=source_y.chunk_size,
            scoring_x=source_x.scoring,
            scoring_y=source_y.scoring,
        )
        # Let the completion policy order batches by representative score
        # (Section 4.4's local extraction-optimality).
        self.policy.space = self.space

    def run(self) -> JoinResult:
        chunks_x: list[list[ServiceTuple]] = []
        chunks_y: list[list[ServiceTuple]] = []
        scheduler = TileScheduler(policy=self.policy)
        stats = JoinStatistics()
        pairs: list[JoinedPair] = []
        exhausted = {Axis.X: False, Axis.Y: False}

        def fetch(axis: Axis) -> bool:
            """Fetch one chunk on ``axis``; False when that axis is done."""
            source = self.source_x if axis is Axis.X else self.source_y
            chunk = _fetch_chunk(source, self.retry, self.degradation)
            if not chunk:
                exhausted[axis] = True
                return False
            if axis is Axis.X:
                chunks_x.append(chunk)
                stats.calls_x += 1
            else:
                chunks_y.append(chunk)
                stats.calls_y += 1
            stats.events.append(JoinEvent.fetch(axis))
            for tile in scheduler.on_fetch(axis):
                self._process_tile(tile, chunks_x, chunks_y, stats, pairs)
            return True

        def done() -> bool:
            return self.k is not None and len(pairs) >= self.k

        for axis in self.schedule:
            if done():
                break
            if stats.total_calls >= self.max_calls:
                break
            if exhausted[Axis.X] and exhausted[Axis.Y]:
                break
            target = axis
            if exhausted[target]:
                target = target.other
                if exhausted[target]:
                    break
            fetch(target)

        if not done():
            # Drain deferred (triangular) tiles before reporting exhaustion.
            for tile in scheduler.flush():
                if done():
                    break
                self._process_tile(tile, chunks_x, chunks_y, stats, pairs)

        stats.results = len(pairs)
        if self.k is not None:
            pairs = pairs[: self.k]
            stats.results = len(pairs)
        return JoinResult(pairs=pairs, stats=stats)

    def _process_tile(
        self,
        tile: Tile,
        chunks_x: list[list[ServiceTuple]],
        chunks_y: list[list[ServiceTuple]],
        stats: JoinStatistics,
        pairs: list[JoinedPair],
    ) -> None:
        if self.tracer.enabled:
            before_probed = stats.pairs_probed
            before_results = len(pairs)
            with self.tracer.span(
                "join.tile", x=tile.x, y=tile.y
            ) as span:
                self._process_tile_inner(tile, chunks_x, chunks_y, stats, pairs)
                span.set("candidates", len(chunks_x[tile.x]) * len(chunks_y[tile.y]))
                span.set("pairs_probed", stats.pairs_probed - before_probed)
                span.set("matches", len(pairs) - before_results)
            return
        self._process_tile_inner(tile, chunks_x, chunks_y, stats, pairs)

    def _process_tile_inner(
        self,
        tile: Tile,
        chunks_x: list[list[ServiceTuple]],
        chunks_y: list[list[ServiceTuple]],
        stats: JoinStatistics,
        pairs: list[JoinedPair],
    ) -> None:
        stats.events.append(JoinEvent.process(tile))
        stats.trace.append(tile)
        stats.tiles_processed += 1
        chunk_x = chunks_x[tile.x]
        chunk_y = chunks_y[tile.y]
        area = len(chunk_x) * len(chunk_y)
        stats.candidates += area
        stats.pairs_probed += area
        predicate = self.predicate
        scorer = self.scorer
        matches = [
            JoinedPair(left, right, scorer(left, right), tile)
            for left in chunk_x
            for right in chunk_y
            if predicate(left, right)
        ]
        # Within a tile, emit best combinations first: results are then
        # presented "in the order in which they are computed, tile by tile".
        matches.sort(key=lambda pair: -pair.score)
        pairs.extend(matches)


class PipeJoinExecutor:
    """Pipe join: invoke the downstream service once per upstream tuple.

    ``invoke`` maps an upstream tuple to a fresh :class:`ChunkSource`
    (the downstream invocation with piped bindings); ``fetches`` chunks
    are drawn from each invocation — the nested-loop/rectangular shape the
    chapter prescribes for pipe joins.
    """

    def __init__(
        self,
        upstream: Iterable[ServiceTuple],
        invoke: Callable[[ServiceTuple], ChunkSource],
        fetches: int = 1,
        k: int | None = None,
        scorer: Callable[[ServiceTuple, ServiceTuple], float] = product_score,
        retry: "Retrier | None" = None,
        degradation: str = "partial",
    ) -> None:
        if fetches <= 0:
            raise ExecutionError("fetches must be positive")
        if k is not None and k <= 0:
            raise ExecutionError("k must be positive")
        self.upstream = upstream
        self.invoke = invoke
        self.fetches = fetches
        self.k = k
        self.scorer = scorer
        self.retry = retry
        self.degradation = _coerce_degradation(degradation)

    def run(self) -> JoinResult:
        stats = JoinStatistics()
        pairs: list[JoinedPair] = []
        for row, left in enumerate(self.upstream):
            if self.k is not None and len(pairs) >= self.k:
                break
            source = self.invoke(left)
            for fetch_index in range(self.fetches):
                chunk = _fetch_chunk(source, self.retry, self.degradation)
                if chunk is None:
                    break
                stats.calls_y += 1
                tile = Tile(row, fetch_index)
                stats.trace.append(tile)
                stats.tiles_processed += 1
                stats.candidates += len(chunk)
                stats.pairs_probed += len(chunk)
                for right in chunk:
                    pairs.append(
                        JoinedPair(left, right, self.scorer(left, right), tile)
                    )
        stats.results = len(pairs)
        if self.k is not None:
            pairs = pairs[: self.k]
            stats.results = len(pairs)
        return JoinResult(pairs=pairs, stats=stats)


def make_executor(
    spec: JoinMethodSpec,
    source_x: ChunkSource,
    source_y: ChunkSource,
    predicate: Callable[[ServiceTuple, ServiceTuple], bool],
    k: int | None = None,
    scorer: Callable[[ServiceTuple, ServiceTuple], float] = product_score,
    max_calls: int = 10_000,
    retry: "Retrier | None" = None,
    degradation: str = "partial",
    tracer: "Tracer | NullTracer | None" = None,
) -> ParallelJoinExecutor:
    """Instantiate a parallel-join executor from a method specification."""
    if spec.invocation is InvocationStrategy.NESTED_LOOP:
        schedule: InvocationSchedule = NestedLoopSchedule(spec.step_chunks)
    else:
        schedule = MergeScanSchedule(spec.ratio)
    if spec.completion is CompletionStrategy.RECTANGULAR:
        policy: CompletionPolicy = RectangularCompletion()
    else:
        policy = TriangularCompletion(
            r1=spec.ratio.numerator, r2=spec.ratio.denominator
        )
    return ParallelJoinExecutor(
        source_x=source_x,
        source_y=source_y,
        predicate=predicate,
        schedule=schedule,
        policy=policy,
        k=k,
        scorer=scorer,
        max_calls=max_calls,
        retry=retry,
        degradation=degradation,
        tracer=tracer,
    )
