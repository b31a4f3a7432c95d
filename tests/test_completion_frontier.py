"""The tile scheduler's frontier against the rescanning scheduler it replaced.

:class:`TileScheduler` keeps its loaded-but-unprocessed tiles as a list
that each fetch extends by the tiles it adds, and a triangular flush
relaxes straight to the lightest pending weight.  :class:`RescanScheduler`
below is the earlier scheduler, kept verbatim as an oracle: it rebuilds
the pending set from the whole loaded rectangle at every fetch and every
flush step, and relaxes the cutoff one unit at a time.  The two must hand
out identical batches, flushes, traces and slacks.

The extraction analysers are checked the same way against their earlier
quadratic bodies.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.joins import methods
from repro.joins.completion import (
    CompletionPolicy,
    RectangularCompletion,
    TileScheduler,
    TriangularCompletion,
)
from repro.joins.extraction import (
    JoinEvent,
    adjacency_rule_holds,
    count_local_violations,
)
from repro.joins.methods import ListChunkSource, make_executor
from repro.joins.searchspace import SearchSpace, Tile
from repro.joins.spec import CompletionStrategy, InvocationStrategy, JoinMethodSpec
from repro.joins.strategies import Axis, MergeScanSchedule
from repro.model.scoring import (
    ConstantScoring,
    LinearScoring,
    PowerLawScoring,
    StepScoring,
)
from repro.model.tuples import ServiceTuple

_EPS = 1e-9


@dataclass
class RescanScheduler:
    """The rescanning scheduler: pending tiles rebuilt on every drain."""

    policy: CompletionPolicy
    loaded_x: int = 0
    loaded_y: int = 0
    processed: list[Tile] = field(default_factory=list)
    _processed_set: set[Tile] = field(default_factory=set)

    def on_fetch(self, axis: Axis) -> list[Tile]:
        if axis is Axis.X:
            self.loaded_x += 1
        else:
            self.loaded_y += 1
        return self._drain()

    def flush(self) -> list[Tile]:
        out: list[Tile] = []
        guard = 0
        while self._pending():
            batch = self._drain()
            if batch:
                out.extend(batch)
                continue
            self.policy.relax()
            guard += 1
            if guard > 10_000:
                raise PlanError("completion policy failed to drain pending tiles")
        return out

    @property
    def pending_count(self) -> int:
        return len(self._pending())

    def _pending(self) -> list[Tile]:
        return [
            Tile(x, y)
            for x in range(self.loaded_x)
            for y in range(self.loaded_y)
            if Tile(x, y) not in self._processed_set
        ]

    def _drain(self) -> list[Tile]:
        pending = self._pending()
        if not pending:
            return []
        batch = self.policy.admissible(pending, self.loaded_x, self.loaded_y)
        for tile in batch:
            if tile in self._processed_set:
                raise PlanError(f"policy re-admitted processed tile {tile}")
            self._processed_set.add(tile)
            self.processed.append(tile)
        return list(batch)


def old_count_local_violations(events, space: SearchSpace) -> int:
    loaded_x = 0
    loaded_y = 0
    processed: set[Tile] = set()
    violations = 0
    for event in events:
        if event.kind == "fetch":
            if event.axis is Axis.X:
                loaded_x += 1
            else:
                loaded_y += 1
            continue
        tile = event.tile
        pending = [
            Tile(x, y)
            for x in range(loaded_x)
            for y in range(loaded_y)
            if Tile(x, y) not in processed
        ]
        if pending:
            best = max(space.representative_score(t) for t in pending)
            if space.representative_score(tile) < best - _EPS:
                violations += 1
        processed.add(tile)
    return violations


def old_adjacency_rule_holds(trace: Sequence[Tile]) -> bool:
    position = {tile: i for i, tile in enumerate(trace)}
    for tile, pos in position.items():
        for other, other_pos in position.items():
            if tile.is_adjacent(other) and tile.index_sum < other.index_sum:
                if other_pos < pos:
                    return False
    return True


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #

#: Scorings whose representative scores tie: a constant, a linear ramp that
#: bottoms out at zero after a few positions, and a step plateau.
tied_scorings = st.one_of(
    st.builds(ConstantScoring, value=st.sampled_from([0.0, 0.5, 1.0])),
    st.builds(LinearScoring, horizon=st.integers(1, 6)),
    st.builds(StepScoring, step_position=st.integers(1, 8), slope=st.just(0.0)),
)


@st.composite
def policy_factories(draw):
    """A zero-argument factory, so each scheduler owns a fresh policy."""
    if draw(st.booleans()):
        space = SearchSpace(
            draw(st.integers(1, 4)),
            draw(st.integers(1, 4)),
            draw(tied_scorings),
            draw(tied_scorings),
        )
    else:
        space = None
    if draw(st.booleans()):
        return lambda: RectangularCompletion(space=space)
    r1, r2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return lambda: TriangularCompletion(r1=r1, r2=r2, space=space)


#: One step of a drive: a run of fetches on one axis, optionally followed by
#: a flush.  Long runs make the loaded rectangle lopsided.
steps = st.lists(
    st.tuples(
        st.sampled_from([Axis.X, Axis.Y]),
        st.integers(1, 12),
        st.booleans(),
    ),
    min_size=1,
    max_size=6,
)


def _state(scheduler):
    return (
        list(scheduler.processed),
        scheduler.pending_count,
        scheduler.loaded_x,
        scheduler.loaded_y,
        getattr(scheduler.policy, "slack", None),
    )


@given(policy_factories(), steps, st.booleans())
@settings(max_examples=200, deadline=None)
def test_frontier_matches_rescanning_scheduler(make_policy, plan, final_flush):
    frontier = TileScheduler(policy=make_policy())
    oracle = RescanScheduler(policy=make_policy())
    fetched = 0
    for axis, run, flush in plan:
        for _ in range(run):
            if fetched >= 30:
                break
            fetched += 1
            assert frontier.on_fetch(axis) == oracle.on_fetch(axis)
            assert _state(frontier) == _state(oracle)
        if flush:
            assert frontier.flush() == oracle.flush()
            assert _state(frontier) == _state(oracle)
    if final_flush:
        assert frontier.flush() == oracle.flush()
        assert frontier.pending_count == 0
    assert _state(frontier) == _state(oracle)


# --------------------------------------------------------------------------- #
# Executor level: the whole join under either scheduler
# --------------------------------------------------------------------------- #


def _ranked(name: str, n: int, seed: int) -> list[ServiceTuple]:
    rng = random.Random(seed)
    scoring = PowerLawScoring(exponent=0.7)
    return [
        ServiceTuple(
            {"k": rng.randrange(5)},
            score=scoring.score_at(i),
            source=name,
            position=i,
        )
        for i in range(n)
    ]


def _same_key(a, b):
    return a.values["k"] == b.values["k"]


def _run_join(spec, chunk, k):
    scoring = PowerLawScoring(exponent=0.7)
    result = make_executor(
        spec,
        ListChunkSource(_ranked("X", 90, 11), chunk, scoring),
        ListChunkSource(_ranked("Y", 70, 12), chunk, scoring),
        _same_key,
        k=k,
    ).run()
    stats = result.stats
    return (
        [(p.left.position, p.right.position, p.score, p.tile) for p in result.pairs],
        stats.trace,
        stats.events,
        stats.candidates,
        stats.pairs_probed,
        stats.tiles_processed,
        stats.results,
        stats.calls_x,
        stats.calls_y,
    )


@pytest.mark.parametrize("chunk", [7, 20])
@pytest.mark.parametrize("k", [None, 1, 37])
@pytest.mark.parametrize(
    "spec",
    [
        JoinMethodSpec(invocation=invocation, completion=completion, ratio=ratio)
        for invocation in InvocationStrategy
        for completion in CompletionStrategy
        for ratio in (Fraction(1), Fraction(3, 5))
        if invocation is InvocationStrategy.MERGE_SCAN or ratio == 1
    ],
    ids=str,
)
def test_executor_matches_rescanning_scheduler(monkeypatch, spec, k, chunk):
    got = _run_join(spec, chunk, k)
    monkeypatch.setattr(methods, "TileScheduler", RescanScheduler)
    assert got == _run_join(spec, chunk, k)


# --------------------------------------------------------------------------- #
# Lopsided flushes
# --------------------------------------------------------------------------- #


def test_lopsided_flush_drains_every_tile():
    """300 X chunks against one Y chunk at ratio 50/50: the unit-step
    flush needed 12,451 relaxations and gave up at 10,000."""
    policy = TriangularCompletion(r1=50, r2=50)
    scheduler = TileScheduler(policy=policy)
    for _ in range(300):
        scheduler.on_fetch(Axis.X)
    # The starting cutoff r1*r2 = 2500 admits x < 50 at once.
    assert scheduler.on_fetch(Axis.Y) == [Tile(x, 0) for x in range(50)]
    started = time.perf_counter()
    rest = scheduler.flush()
    elapsed = time.perf_counter() - started
    assert scheduler.pending_count == 0
    assert len(scheduler.processed) == len(set(scheduler.processed)) == 300
    assert rest == [Tile(x, 0) for x in range(50, 300)]
    # Unit steps would stop at cutoff = heaviest weight + 1.
    assert policy.cutoff(300, 1) == policy.weight(Tile(299, 0)) + 1
    assert elapsed < 5.0


def test_flush_at_ratio_three_fifths_admits_one_weight_per_step():
    """40 x 40 chunks loaded at ratio 3/5: each relaxation admits exactly
    the lightest pending weight class, in (weight, index sum, x) order."""
    policy = TriangularCompletion(r1=3, r2=5)
    scheduler = TileScheduler(policy=policy)
    for axis in MergeScanSchedule(Fraction(3, 5)).prefix(40):
        scheduler.on_fetch(axis)
    while scheduler.loaded_x < 40:
        scheduler.on_fetch(Axis.X)
    while scheduler.loaded_y < 40:
        scheduler.on_fetch(Axis.Y)
    processed = set(scheduler.processed)
    pending = [
        Tile(x, y) for x in range(40) for y in range(40) if Tile(x, y) not in processed
    ]
    assert pending
    rest = scheduler.flush()
    assert rest == sorted(
        pending, key=lambda t: (policy.weight(t), t.index_sum, t.x)
    )
    assert scheduler.pending_count == 0
    assert len(set(scheduler.processed)) == 1600
    assert policy.cutoff(40, 40) == max(policy.weight(t) for t in pending) + 1


def test_relax_to_next_defaults_to_one_relax_step():
    class Stepwise(CompletionPolicy):
        def __init__(self):
            self.bound = 0

        def admissible(self, pending, loaded_x, loaded_y):
            return sorted(t for t in pending if t.index_sum < self.bound)

        def relax(self):
            self.bound += 1

    policy = Stepwise()
    scheduler = TileScheduler(policy=policy)
    for axis in (Axis.X, Axis.Y, Axis.X, Axis.Y):
        assert scheduler.on_fetch(axis) == []
    assert scheduler.flush() == [Tile(0, 0), Tile(0, 1), Tile(1, 0), Tile(1, 1)]
    assert policy.bound == 3


# --------------------------------------------------------------------------- #
# Analysers against their earlier bodies
# --------------------------------------------------------------------------- #

events = st.lists(
    st.one_of(
        st.sampled_from([Axis.X, Axis.Y]).map(JoinEvent.fetch),
        # Mostly inside the loaded rectangle, sometimes repeated or beyond it.
        st.builds(Tile, st.integers(0, 4), st.integers(0, 4)).map(JoinEvent.process),
    ),
    min_size=8,
    max_size=60,
)
any_scorings = st.one_of(
    tied_scorings, st.builds(PowerLawScoring, exponent=st.floats(0.1, 3.0))
)


@given(events, st.integers(1, 4), st.integers(1, 4), any_scorings, any_scorings)
@settings(max_examples=200, deadline=None)
def test_count_local_violations_matches_rescan(log, cx, cy, sx, sy):
    space = SearchSpace(cx, cy, sx, sy)
    assert count_local_violations(log, space) == old_count_local_violations(log, space)


@given(st.lists(st.builds(Tile, st.integers(0, 5), st.integers(0, 5)), max_size=40))
@settings(max_examples=300, deadline=None)
def test_adjacency_rule_matches_pairwise_scan(trace):
    assert adjacency_rule_holds(trace) == old_adjacency_rule_holds(trace)


@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.lists(st.sampled_from([Axis.X, Axis.Y]), min_size=2, max_size=24),
)
@settings(max_examples=100, deadline=None)
def test_analysers_agree_on_scheduler_traces(r1, r2, axes):
    space = SearchSpace(2, 3, LinearScoring(horizon=9), StepScoring(step_position=4))
    scheduler = TileScheduler(policy=TriangularCompletion(r1=r1, r2=r2, space=space))
    log: list[JoinEvent] = []
    for axis in axes:
        log.append(JoinEvent.fetch(axis))
        log.extend(JoinEvent.process(t) for t in scheduler.on_fetch(axis))
    log.extend(JoinEvent.process(t) for t in scheduler.flush())
    assert count_local_violations(log, space) == old_count_local_violations(log, space)
    trace = scheduler.processed
    assert adjacency_rule_holds(trace) == old_adjacency_rule_holds(trace)
