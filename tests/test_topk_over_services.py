"""Integration: the rank join running directly over simulated services.

``SimulatedInvocation`` is a :class:`~repro.joins.methods.ChunkSource`, so
the top-k rank join (and the fast parallel joins) can consume live
invocations — calls then show up in the pool's log and advance its clock.
"""

import pytest

from repro.joins.methods import ParallelJoinExecutor, make_executor
from repro.joins.spec import CompletionStrategy, InvocationStrategy, JoinMethodSpec
from repro.joins.topk import RankJoinExecutor
from repro.model.attributes import Attribute, DataType, Domain
from repro.model.registry import ServiceRegistry
from repro.model.scoring import LinearScoring
from repro.model.service import (
    AccessPattern,
    ServiceInterface,
    ServiceKind,
    ServiceMart,
    ServiceStats,
)
from repro.services.simulated import ServicePool


@pytest.fixture()
def pool():
    registry = ServiceRegistry()
    key = Domain("joinkey", DataType.INTEGER, size=6)
    for side in ("Left", "Right"):
        mart = ServiceMart(
            side,
            (Attribute("Topic"), Attribute("K", key), Attribute("Payload")),
        )
        registry.register_interface(
            ServiceInterface(
                name=f"{side}1",
                mart=mart,
                access_pattern=AccessPattern.from_spec({"Topic": "I"}),
                kind=ServiceKind.SEARCH,
                stats=ServiceStats(avg_cardinality=40, chunk_size=5, latency=1.0),
                scoring=LinearScoring(horizon=40),
            )
        )
    return ServicePool(registry, global_seed=17)


def key_equal(a, b):
    return a.values["K"] == b.values["K"]


class TestRankJoinOverServices:
    def test_topk_over_live_invocations(self, pool):
        left = pool.invoke("Left1", {"Topic": "t"}, alias="L")
        right = pool.invoke("Right1", {"Topic": "t"}, alias="R")
        result = RankJoinExecutor(left, right, key_equal, k=8).run()
        assert len(result.pairs) <= 8
        scores = [p.score for p in result.pairs]
        assert scores == sorted(scores, reverse=True)
        # Calls are accounted in the shared pool log.
        assert pool.log.total_calls() == result.stats.total_calls
        assert pool.clock.now > 0

    def test_topk_matches_brute_force_over_service_data(self, pool):
        left = pool.invoke("Left1", {"Topic": "t"}, alias="L")
        right = pool.invoke("Right1", {"Topic": "t"}, alias="R")
        left_data = list(left.results)
        right_data = list(right.results)
        result = RankJoinExecutor(left, right, key_equal, k=10).run()
        brute = sorted(
            (
                0.5 * a.score + 0.5 * b.score
                for a in left_data
                for b in right_data
                if key_equal(a, b)
            ),
            reverse=True,
        )[: len(result.pairs)]
        assert [p.score for p in result.pairs] == pytest.approx(brute)

    def test_fast_join_over_live_invocations(self, pool):
        left = pool.invoke("Left1", {"Topic": "t"}, alias="L")
        right = pool.invoke("Right1", {"Topic": "t"}, alias="R")
        result = ParallelJoinExecutor(left, right, key_equal, k=8).run()
        assert len(result.pairs) <= 8
        assert result.stats.total_calls < 16  # no exhaustion needed

    def test_fast_join_spec_over_live_invocations(self, pool):
        left = pool.invoke("Left1", {"Topic": "spec"}, alias="L")
        right = pool.invoke("Right1", {"Topic": "spec"}, alias="R")
        spec = JoinMethodSpec(
            invocation=InvocationStrategy.NESTED_LOOP,
            completion=CompletionStrategy.RECTANGULAR,
            step_chunks=2,
        )
        result = make_executor(spec, left, right, key_equal, k=8).run()
        assert 0 < len(result.pairs) <= 8
        assert all(key_equal(p.left, p.right) for p in result.pairs)
        assert result.stats.calls_x <= 2  # the h=2 step bound
        # The parallel join's calls are logged in the pool, per alias.
        assert pool.log.total_calls() == result.stats.total_calls
        assert set(pool.log.calls_by_alias()) == {"L", "R"}

    def test_fast_join_cheaper_or_equal_to_rank_join(self, pool):
        fast_left = pool.invoke("Left1", {"Topic": "fast"}, alias="L")
        fast_right = pool.invoke("Right1", {"Topic": "fast"}, alias="R")
        fast = ParallelJoinExecutor(fast_left, fast_right, key_equal, k=8).run()
        exact_left = pool.invoke("Left1", {"Topic": "fast"}, alias="L")
        exact_right = pool.invoke("Right1", {"Topic": "fast"}, alias="R")
        exact = RankJoinExecutor(exact_left, exact_right, key_equal, k=8).run()
        assert fast.stats.total_calls <= exact.stats.total_calls + 2
