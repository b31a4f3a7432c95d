"""Unit tests for runnable join methods (pipe + parallel executors)."""

import random
from fractions import Fraction

import pytest

from repro.errors import ExecutionError
from repro.joins.completion import RectangularCompletion, TriangularCompletion
from repro.joins.methods import (
    ListChunkSource,
    ParallelJoinExecutor,
    PipeJoinExecutor,
    make_executor,
    product_score,
)
from repro.joins.spec import (
    ALL_METHODS,
    CompletionStrategy,
    InvocationStrategy,
    JoinMethodSpec,
    JoinTopology,
)
from repro.joins.strategies import MergeScanSchedule, NestedLoopSchedule
from repro.model.scoring import LinearScoring, StepScoring
from repro.model.tuples import ServiceTuple


def ranked_tuples(n, key_space, scoring, source, seed=7):
    rng = random.Random(seed)
    return [
        ServiceTuple(
            values={"k": rng.randrange(key_space)},
            score=scoring.score_at(i),
            source=source,
            position=i,
        )
        for i in range(n)
    ]


def key_equal(a, b):
    return a.values["k"] == b.values["k"]


@pytest.fixture()
def sources():
    scoring = LinearScoring(horizon=60)
    x = ListChunkSource(ranked_tuples(50, 8, scoring, "X", seed=1), 5, scoring)
    y = ListChunkSource(ranked_tuples(50, 8, scoring, "Y", seed=2), 5, scoring)
    return x, y


class TestListChunkSource:
    def test_chunks_in_order(self, sources):
        x, _ = sources
        chunk = x.next_chunk()
        assert len(chunk) == 5
        assert x.calls == 1
        second = x.next_chunk()
        assert chunk[0].score >= second[0].score

    def test_exhaustion(self):
        scoring = LinearScoring(horizon=10)
        src = ListChunkSource(ranked_tuples(7, 5, scoring, "S"), 3, scoring)
        sizes = []
        while (chunk := src.next_chunk()) is not None:
            sizes.append(len(chunk))
        assert sizes == [3, 3, 1]
        assert src.next_chunk() is None

    def test_rejects_unranked_input(self):
        scoring = LinearScoring(horizon=10)
        tuples = [
            ServiceTuple({"k": 0}, score=0.2, source="S"),
            ServiceTuple({"k": 1}, score=0.9, source="S"),
        ]
        with pytest.raises(ExecutionError):
            ListChunkSource(tuples, 2, scoring)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ExecutionError):
            ListChunkSource([], 0, LinearScoring())


class TestParallelJoinExecutor:
    def test_produces_k_results(self, sources):
        x, y = sources
        result = ParallelJoinExecutor(x, y, key_equal, k=10).run()
        assert len(result) == 10
        assert result.stats.results == 10

    def test_results_match_predicate(self, sources):
        x, y = sources
        result = ParallelJoinExecutor(x, y, key_equal, k=20).run()
        assert all(key_equal(p.left, p.right) for p in result)

    def test_scores_are_products(self, sources):
        x, y = sources
        result = ParallelJoinExecutor(x, y, key_equal, k=5).run()
        for pair in result:
            assert pair.score == pytest.approx(pair.left.score * pair.right.score)

    def test_exhaustion_without_k_finds_everything(self, sources):
        x, y = sources
        result = ParallelJoinExecutor(x, y, key_equal, k=None).run()
        expected = sum(
            1 for a in x.tuples for b in y.tuples if key_equal(a, b)
        )
        assert len(result) == expected

    def test_stats_track_calls_and_tiles(self, sources):
        x, y = sources
        result = ParallelJoinExecutor(x, y, key_equal, k=10).run()
        stats = result.stats
        assert stats.calls_x >= 1 and stats.calls_y >= 1
        assert stats.tiles_processed == len(stats.trace)
        assert stats.candidates == stats.tiles_processed * 25

    def test_fewer_calls_than_exhaustion(self, sources):
        x, y = sources
        result = ParallelJoinExecutor(x, y, key_equal, k=5).run()
        assert result.stats.total_calls < 20  # 20 = full exhaustion

    def test_max_calls_bound(self, sources):
        x, y = sources
        executor = ParallelJoinExecutor(
            x, y, lambda a, b: False, k=1, max_calls=4
        )
        result = executor.run()
        assert result.stats.total_calls >= 4
        assert len(result) == 0

    def test_nested_loop_exhausts_step_first(self):
        scoring_x = StepScoring(step_position=10)
        scoring_y = LinearScoring(horizon=60)
        x = ListChunkSource(ranked_tuples(30, 6, scoring_x, "X", 3), 5, scoring_x)
        y = ListChunkSource(ranked_tuples(30, 6, scoring_y, "Y", 4), 5, scoring_y)
        executor = ParallelJoinExecutor(
            x,
            y,
            key_equal,
            schedule=NestedLoopSchedule(step_chunks=2),
            policy=RectangularCompletion(),
            k=8,
        )
        result = executor.run()
        assert len(result) == 8
        # The step service stops after its h=2 high chunks.
        assert result.stats.calls_x <= 2


class TestPipeJoinExecutor:
    def make_invoker(self, scoring):
        def invoke(left):
            # Downstream results echo the piped key: pipe joins are
            # consistent by construction.
            tuples = [
                ServiceTuple(
                    {"k": left.values["k"], "rank": i},
                    score=scoring.score_at(i),
                    source="D",
                    position=i,
                )
                for i in range(6)
            ]
            return ListChunkSource(tuples, 2, scoring)

        return invoke

    def test_fetches_per_input(self):
        scoring = LinearScoring(horizon=10)
        upstream = ranked_tuples(4, 100, scoring, "U")
        result = PipeJoinExecutor(
            upstream, self.make_invoker(scoring), fetches=2
        ).run()
        # 4 inputs x 2 fetches x chunk 2 = 16 pairs, 8 calls.
        assert len(result) == 16
        assert result.stats.calls_y == 8

    def test_k_stops_early(self):
        scoring = LinearScoring(horizon=10)
        upstream = ranked_tuples(10, 100, scoring, "U")
        result = PipeJoinExecutor(
            upstream, self.make_invoker(scoring), fetches=1, k=4
        ).run()
        assert len(result) == 4
        assert result.stats.calls_y <= 3

    def test_rejects_bad_fetches(self):
        with pytest.raises(ExecutionError):
            PipeJoinExecutor([], lambda t: None, fetches=0)

    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize("kind", ["parallel", "pipe"])
    def test_rejects_non_positive_k(self, sources, kind, k):
        # ``None`` runs to exhaustion; a non-positive k is an error, as for
        # the rank join, not a join that makes no call and returns nothing.
        x, y = sources
        with pytest.raises(ExecutionError, match="k must be positive"):
            if kind == "parallel":
                make_executor(JoinMethodSpec(), x, y, key_equal, k=k)
            else:
                PipeJoinExecutor([], lambda t: None, k=k)


class TestMakeExecutor:
    def test_method_spec_mapping(self, sources):
        x, y = sources
        spec = JoinMethodSpec(
            invocation=InvocationStrategy.NESTED_LOOP,
            completion=CompletionStrategy.RECTANGULAR,
            step_chunks=3,
        )
        executor = make_executor(spec, x, y, key_equal, k=5)
        assert isinstance(executor.schedule, NestedLoopSchedule)
        assert isinstance(executor.policy, RectangularCompletion)

    def test_merge_scan_ratio_propagates(self, sources):
        x, y = sources
        spec = JoinMethodSpec(ratio=Fraction(2, 3))
        executor = make_executor(spec, x, y, key_equal)
        assert isinstance(executor.schedule, MergeScanSchedule)
        assert executor.schedule.ratio == Fraction(2, 3)
        assert isinstance(executor.policy, TriangularCompletion)
        assert (executor.policy.r1, executor.policy.r2) == (2, 3)

    def test_all_eight_methods_run(self, sources):
        for spec in ALL_METHODS:
            x, y = sources
            # Fresh sources per run (they are stateful).
            scoring = LinearScoring(horizon=60)
            x = ListChunkSource(ranked_tuples(50, 8, scoring, "X", 1), 5, scoring)
            y = ListChunkSource(ranked_tuples(50, 8, scoring, "Y", 2), 5, scoring)
            result = make_executor(spec, x, y, key_equal, k=5).run()
            assert len(result) == 5, f"method {spec} failed"


class TestSpecClassification:
    def test_eight_combinations(self):
        assert len(ALL_METHODS) == 8

    def test_sensible_judgements(self):
        pipe_nl_rect = JoinMethodSpec(
            topology=JoinTopology.PIPE,
            invocation=InvocationStrategy.NESTED_LOOP,
            completion=CompletionStrategy.RECTANGULAR,
        )
        assert pipe_nl_rect.is_sensible()
        pipe_ms_tri = JoinMethodSpec(topology=JoinTopology.PIPE)
        assert not pipe_ms_tri.is_sensible()
        par_nl_tri = JoinMethodSpec(
            invocation=InvocationStrategy.NESTED_LOOP,
            completion=CompletionStrategy.TRIANGULAR,
        )
        assert not par_nl_tri.is_sensible()
        assert JoinMethodSpec().is_sensible()  # parallel MS/tri

    def test_labels(self):
        assert JoinMethodSpec().label == "MS/tri"
        assert (
            JoinMethodSpec(
                invocation=InvocationStrategy.NESTED_LOOP,
                completion=CompletionStrategy.RECTANGULAR,
            ).label
            == "NL/rect"
        )

    def test_product_score_helper(self):
        a = ServiceTuple({}, score=0.5)
        b = ServiceTuple({}, score=0.4)
        assert product_score(a, b) == pytest.approx(0.2)
