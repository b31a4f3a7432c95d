"""A completion policy passed to a join executor is the caller's template.

Each :class:`ParallelJoinExecutor` works on its own copy: it attaches its
own search space (the score order of its batches) and its triangular
flushes raise only that copy's ``slack``.  Reusing one policy object for
several joins gives each the pairs and tile order of a fresh policy, and
the caller's object still reads ``space=None`` and ``slack=0`` afterwards.
"""

from __future__ import annotations

import pytest

from repro.joins.completion import RectangularCompletion, TriangularCompletion
from repro.joins.methods import ListChunkSource, ParallelJoinExecutor
from repro.model.scoring import LinearScoring, StepScoring
from repro.model.tuples import ServiceTuple

LINEAR = LinearScoring(horizon=60)
STEP = StepScoring(step_position=8, slope=0.001)


def _source(name, chunk_size, scoring=LINEAR, n=60):
    tuples = [
        ServiceTuple(
            values={"k": i % 4}, score=scoring.score_at(i), source=name, position=i
        )
        for i in range(n)
    ]
    return ListChunkSource(tuples, chunk_size, scoring)


def _executor(policy, chunk_x, chunk_y, scoring_y=LINEAR, k=None):
    return ParallelJoinExecutor(
        _source("X", chunk_x),
        _source("Y", chunk_y, scoring_y),
        lambda left, right: left.values["k"] == right.values["k"],
        policy=policy,
        k=k,
    )


def _join(*args, **kwargs):
    return _executor(*args, **kwargs).run()


def _observed(result):
    pairs = [(p.left.position, p.right.position, p.score) for p in result.pairs]
    return pairs, result.stats.trace


def test_space_of_an_earlier_join_does_not_order_a_later_one():
    shared = TriangularCompletion(1, 1)
    _join(shared, 10, 10)
    later = _join(shared, 3, 5, scoring_y=STEP, k=20)
    fresh = _join(TriangularCompletion(1, 1), 3, 5, scoring_y=STEP, k=20)
    assert _observed(later) == _observed(fresh)
    assert shared.space is None and shared.slack == 0


def test_slack_of_a_flushing_join_does_not_reach_a_later_one():
    shared = TriangularCompletion(3, 5)
    flushing = _executor(shared, 2, 20)  # 30 x 3 chunks: the flush relaxes far
    assert flushing.run().stats.tiles_processed == 90
    assert flushing.policy.slack == 137
    later = _join(shared, 3, 5)
    fresh = _join(TriangularCompletion(3, 5), 3, 5)
    assert later.stats.tiles_processed == 240
    assert _observed(later) == _observed(fresh)
    assert shared.space is None and shared.slack == 0


@pytest.mark.parametrize(
    "policy", [RectangularCompletion(), TriangularCompletion(2, 3)], ids=repr
)
def test_executor_works_on_its_own_copy(policy):
    executor = ParallelJoinExecutor(
        _source("X", 5), _source("Y", 5), lambda left, right: True, policy=policy
    )
    assert executor.policy is not policy
    assert type(executor.policy) is type(policy)
    assert getattr(executor.policy, "r2", None) == getattr(policy, "r2", None)
    assert executor.policy.space is executor.space and policy.space is None
