"""Integration-grade unit tests for the three-phase B&B optimizer."""

import pytest

from repro.baselines.exhaustive import exhaustive_optimum
from repro.core.cost import DEFAULT_METRICS, CallCountMetric, ExecutionTimeMetric
from repro.core.heuristics import (
    BoundIsBetter,
    GreedyFetch,
    ParallelIsBetter,
    SelectiveFirst,
    SquareIsBetter,
    UnboundIsEasier,
)
from repro.core.optimizer import Optimizer, OptimizerConfig, optimize_query
from repro.errors import OptimizationError
from repro.query.compile import compile_query
from repro.query.parser import parse_query


class TestOptimality:
    @pytest.mark.parametrize("metric_name", sorted(DEFAULT_METRICS))
    def test_matches_exhaustive_on_movie_query(self, movie_query, metric_name):
        metric = DEFAULT_METRICS[metric_name]
        outcome = Optimizer(movie_query, OptimizerConfig(metric=metric)).optimize()
        truth = exhaustive_optimum(movie_query, metric=metric, max_fetch=8)
        assert outcome.best is not None and truth.best is not None
        assert outcome.best.cost == pytest.approx(truth.best.cost)

    @pytest.mark.parametrize("metric_name", ["execution-time", "call-count"])
    def test_matches_exhaustive_on_conference_query(
        self, conference_query, metric_name
    ):
        metric = DEFAULT_METRICS[metric_name]
        outcome = Optimizer(
            conference_query, OptimizerConfig(metric=metric)
        ).optimize()
        truth = exhaustive_optimum(conference_query, metric=metric, max_fetch=8)
        assert outcome.best.cost == pytest.approx(truth.best.cost)

    def test_best_plan_satisfies_k(self, movie_query):
        best = optimize_query(movie_query)
        assert best.satisfies_k
        assert best.estimated_results >= movie_query.k

    def test_fetch_vector_all_positive(self, movie_query):
        best = optimize_query(movie_query)
        assert all(f >= 1 for f in best.fetch_vector().values())


class TestPruningAndAnytime:
    def test_pruning_reduces_expansions(self, movie_query):
        config = OptimizerConfig(metric=ExecutionTimeMetric())
        pruned = Optimizer(movie_query, config).optimize()
        config_off = OptimizerConfig(metric=ExecutionTimeMetric(), prune=False)
        unpruned = Optimizer(movie_query, config_off).optimize()
        assert pruned.best.cost == pytest.approx(unpruned.best.cost)
        assert pruned.stats.expanded < unpruned.stats.expanded

    def test_budget_returns_valid_incumbent(self, movie_query):
        config = OptimizerConfig(metric=ExecutionTimeMetric(), budget=3)
        outcome = Optimizer(movie_query, config).optimize()
        # The greedy warm start guarantees an incumbent even at tiny budgets.
        assert outcome.best is not None
        assert outcome.best.satisfies_k

    def test_anytime_cost_never_below_optimum(self, movie_query):
        full = Optimizer(
            movie_query, OptimizerConfig(metric=ExecutionTimeMetric())
        ).optimize()
        for budget in (1, 5, 20, 100):
            limited = Optimizer(
                movie_query,
                OptimizerConfig(metric=ExecutionTimeMetric(), budget=budget),
            ).optimize()
            assert limited.best.cost >= full.best.cost - 1e-9

    def test_warm_start_can_be_disabled(self, movie_query):
        config = OptimizerConfig(metric=ExecutionTimeMetric(), warm_start=False)
        outcome = Optimizer(movie_query, config).optimize()
        assert outcome.best is not None

    def test_zero_budget_is_the_warm_start(self, movie_query):
        config = OptimizerConfig(metric=ExecutionTimeMetric(), budget=0)
        outcome = Optimizer(movie_query, config).optimize()
        assert outcome.stats.expanded == 0
        assert outcome.best is not None and outcome.best.satisfies_k

    def test_greedy_candidate_standalone(self, movie_query):
        candidate = Optimizer(
            movie_query, OptimizerConfig(metric=ExecutionTimeMetric())
        ).greedy_candidate()
        assert candidate is not None
        assert candidate.satisfies_k


class TestConfigValidation:
    """An ``OptimizerConfig`` that cannot describe a search is refused at
    construction, not carried into one."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("k", 0),
            ("k", -3),
            ("budget", -1),
        ],
    )
    def test_rejects(self, field, value):
        with pytest.raises(OptimizationError, match=field):
            OptimizerConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("k", None),
            ("k", 1),
            ("budget", None),
            ("budget", 0),
        ],
    )
    def test_accepts(self, field, value):
        assert getattr(OptimizerConfig(**{field: value}), field) == value


class TestHeuristicGrid:
    @pytest.mark.parametrize("phase1", [BoundIsBetter(), UnboundIsEasier()])
    @pytest.mark.parametrize("phase2", [SelectiveFirst(), ParallelIsBetter()])
    def test_greedy_fetch_combinations_reach_optimum(
        self, movie_query, phase1, phase2
    ):
        """Phase-1/2 heuristics change exploration order, not the
        reachable space; with the greedy fetch heuristic (which proposes
        every single-step increment) exhaustion lands on the optimum."""
        config = OptimizerConfig(
            metric=CallCountMetric(),
            phase1=phase1,
            phase2=phase2,
            phase3=GreedyFetch(),
        )
        outcome = Optimizer(movie_query, config).optimize()
        truth = exhaustive_optimum(movie_query, metric=CallCountMetric())
        assert outcome.best.cost == pytest.approx(truth.best.cost)

    @pytest.mark.parametrize("phase2", [SelectiveFirst(), ParallelIsBetter()])
    def test_square_is_valid_but_possibly_coarser(self, movie_query, phase2):
        """Square-is-better walks a single proportional trajectory through
        the fetch lattice: always a valid k-satisfying plan, but possibly
        costlier than the greedy-explored optimum (measured by E13)."""
        config = OptimizerConfig(
            metric=CallCountMetric(), phase2=phase2, phase3=SquareIsBetter()
        )
        outcome = Optimizer(movie_query, config).optimize()
        truth = exhaustive_optimum(movie_query, metric=CallCountMetric())
        assert outcome.best.satisfies_k
        assert outcome.best.cost >= truth.best.cost - 1e-9


class TestPhase1Selection:
    def test_mart_level_query_selects_an_interface(self, movie_registry):
        cq = compile_query(
            parse_query(
                "SELECT Movie AS M, Theatre AS T WHERE Shows(M, T) "
                "AND M.Genres.Genre = INPUT1 AND M.Openings.Country = INPUT2 "
                "AND M.Openings.Date > INPUT3 AND T.UAddress = INPUT4 "
                "AND T.UCity = INPUT5 AND T.UCountry = INPUT2 LIMIT 5"
            ),
            movie_registry,
        )
        best = optimize_query(cq)
        assert best.assignment["M"].name == "Movie1"
        assert best.assignment["T"].name == "Theatre1"

    def test_unfeasible_query_raises(self, movie_registry):
        cq = compile_query(parse_query("SELECT Restaurant1 AS R"), movie_registry)
        with pytest.raises(OptimizationError):
            optimize_query(cq)


class TestStats:
    def test_exploration_statistics_populated(self, movie_query):
        outcome = Optimizer(
            movie_query, OptimizerConfig(metric=ExecutionTimeMetric())
        ).optimize()
        stats = outcome.stats
        assert stats.expanded > 0
        assert stats.enqueued > stats.expanded
        assert stats.leaves >= 1
        assert outcome.incumbents

    def test_incumbent_costs_improve(self, conference_query):
        outcome = Optimizer(
            conference_query,
            OptimizerConfig(metric=ExecutionTimeMetric(), warm_start=False),
        ).optimize()
        satisfying = [c for _, c, ok in outcome.incumbents if ok]
        assert satisfying == sorted(satisfying, reverse=True)


class TestAutoJoinMethods:
    def test_auto_methods_explore_no_worse_plans(self, movie_query):
        base = Optimizer(
            movie_query, OptimizerConfig(metric=ExecutionTimeMetric())
        ).optimize()
        auto = Optimizer(
            movie_query,
            OptimizerConfig(metric=ExecutionTimeMetric(), auto_join_methods=True),
        ).optimize()
        # A superset of methods can only match or improve the optimum.
        assert auto.best.cost <= base.best.cost + 1e-9

    def test_auto_methods_add_nested_loop_for_step_services(self):
        """With a step-scored service, the auto option makes the optimizer
        consider (and possibly choose) an NL/rect parallel join."""
        from repro.joins.spec import InvocationStrategy
        from repro.model.attributes import Attribute, DataType, Domain
        from repro.model.connections import AttributePair, ConnectionPattern
        from repro.model.registry import ServiceRegistry
        from repro.model.scoring import LinearScoring, StepScoring
        from repro.model.service import (
            AccessPattern,
            ServiceInterface,
            ServiceKind,
            ServiceMart,
            ServiceStats,
        )

        registry = ServiceRegistry()
        key = Domain("kk", DataType.INTEGER, size=5)
        step_mart = ServiceMart("S", (Attribute("T"), Attribute("K", key)))
        flat_mart = ServiceMart("F", (Attribute("T"), Attribute("K", key)))
        registry.register_interface(
            ServiceInterface(
                name="Step1",
                mart=step_mart,
                access_pattern=AccessPattern.from_spec({"T": "I"}),
                kind=ServiceKind.SEARCH,
                stats=ServiceStats(avg_cardinality=30, chunk_size=5, latency=1.0),
                scoring=StepScoring(step_position=10),
            )
        )
        registry.register_interface(
            ServiceInterface(
                name="Flat1",
                mart=flat_mart,
                access_pattern=AccessPattern.from_spec({"T": "I"}),
                kind=ServiceKind.SEARCH,
                stats=ServiceStats(avg_cardinality=30, chunk_size=5, latency=1.0),
                scoring=LinearScoring(horizon=30),
            )
        )
        registry.register_pattern(
            ConnectionPattern(
                "Pairs",
                step_mart,
                flat_mart,
                (AttributePair.parse("K", "K"),),
                selectivity=0.2,
            )
        )
        query = compile_query(
            parse_query(
                "SELECT Step1 AS S, Flat1 AS F WHERE Pairs(S, F) "
                "AND S.T = INPUT1 AND F.T = INPUT1 LIMIT 5"
            ),
            registry,
        )
        outcome = Optimizer(
            query,
            OptimizerConfig(metric=ExecutionTimeMetric(), auto_join_methods=True),
        ).optimize()
        # The search space contains NL merges; more leaves were priced
        # than with the single default method.
        base = Optimizer(
            query, OptimizerConfig(metric=ExecutionTimeMetric())
        ).optimize()
        assert outcome.stats.leaves >= base.stats.leaves
        assert outcome.best.cost <= base.best.cost + 1e-9
