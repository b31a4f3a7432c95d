"""Integration tests for the plan execution engine."""

import pytest

from repro.core.annotate import annotate
from repro.core.optimizer import OptimizerConfig, Optimizer, optimize_query
from repro.core.topology import enumerate_topologies
from repro.engine.executor import InvocationCache, PlanExecutor, execute_plan
from repro.query.feasibility import enumerate_binding_choices
from repro.query.predicates import satisfies
from repro.services.marts import (
    CONFERENCE_INPUTS,
    RUNNING_EXAMPLE_INPUTS,
    RUNNING_EXAMPLE_QUERY,
)
from repro.services.simulated import ServicePool

FETCHES = {"M": 5, "T": 5, "R": 1}


@pytest.fixture(scope="module")
def movie_plans(movie_query):
    choice = next(enumerate_binding_choices(movie_query))
    return list(enumerate_topologies(movie_query, {}, choice))


def run(plan, query, registry, inputs, fetches=None, seed=42, **kwargs):
    pool = ServicePool(registry, global_seed=seed)
    return execute_plan(plan, query, pool, inputs, fetches=fetches, **kwargs)


class TestMovieExecution:
    def test_all_four_topologies_produce_k_results(
        self, movie_query, movie_registry, movie_plans
    ):
        for plan in movie_plans:
            result = run(
                plan, movie_query, movie_registry, RUNNING_EXAMPLE_INPUTS, FETCHES
            )
            assert len(result.tuples) == movie_query.k

    def test_results_satisfy_full_semantics(
        self, movie_query, movie_registry, movie_plans
    ):
        for plan in movie_plans:
            result = run(
                plan, movie_query, movie_registry, RUNNING_EXAMPLE_INPUTS, FETCHES
            )
            for composite in result.tuples:
                assert satisfies(
                    composite,
                    selections=movie_query.selections,
                    joins=movie_query.joins,
                    inputs=RUNNING_EXAMPLE_INPUTS,
                )

    def test_results_sorted_by_global_ranking(
        self, movie_query, movie_registry, movie_plans
    ):
        result = run(
            movie_plans[0], movie_query, movie_registry, RUNNING_EXAMPLE_INPUTS, FETCHES
        )
        scores = [t.score for t in result.tuples]
        assert scores == sorted(scores, reverse=True)

    def test_topologies_agree_modulo_fetch_truncation(
        self, movie_query, movie_registry, movie_plans
    ):
        """Different plans explore different portions of the services, but
        every returned combination is semantically valid under the same
        seed; plan choice affects cost, not correctness."""
        for plan in movie_plans:
            result = run(
                plan, movie_query, movie_registry, RUNNING_EXAMPLE_INPUTS, FETCHES
            )
            aliases = {tuple(sorted(t.aliases)) for t in result.tuples}
            assert aliases == {("M", "R", "T")}

    def test_execution_is_deterministic(
        self, movie_query, movie_registry, movie_plans
    ):
        a = run(movie_plans[0], movie_query, movie_registry, RUNNING_EXAMPLE_INPUTS, FETCHES)
        b = run(movie_plans[0], movie_query, movie_registry, RUNNING_EXAMPLE_INPUTS, FETCHES)
        assert [t.score for t in a.tuples] == [t.score for t in b.tuples]
        assert a.total_calls == b.total_calls
        assert a.execution_time == pytest.approx(b.execution_time)

    def test_call_accounting_matches_annotation_shape(
        self, movie_query, movie_registry, movie_plans
    ):
        """Actual call counts track the annotation estimates in shape:
        search services issue fetch-factor many calls per invocation."""
        for plan in movie_plans:
            if not plan.join_nodes():
                continue
            result = run(
                plan, movie_query, movie_registry, RUNNING_EXAMPLE_INPUTS, FETCHES
            )
            calls = result.calls_by_alias()
            assert calls["M"] == 5
            assert calls["T"] == 5

    def test_node_stats_populated(self, movie_query, movie_registry, movie_plans):
        result = run(
            movie_plans[0], movie_query, movie_registry, RUNNING_EXAMPLE_INPUTS, FETCHES
        )
        output_id = movie_plans[0].output_node.node_id
        assert result.node_stats[output_id].tout == len(result.tuples)
        assert result.execution_time > 0

    def test_serial_unpiped_service_invoked_once(
        self, movie_query, movie_registry, movie_plans
    ):
        """Invocation memoisation: in serial chains Movie is bound only by
        INPUT variables, so its invocation is shared across upstream
        tuples (fetch-factor calls in total)."""
        for plan in movie_plans:
            if plan.join_nodes():
                continue
            result = run(
                plan, movie_query, movie_registry, RUNNING_EXAMPLE_INPUTS, FETCHES
            )
            assert result.calls_by_alias()["M"] == 5


class TestConferenceExecution:
    def test_optimized_plan_executes(
        self, conference_query, conference_registry
    ):
        best = optimize_query(conference_query)
        result = run(
            best.plan,
            conference_query,
            conference_registry,
            CONFERENCE_INPUTS,
            best.fetch_vector(),
        )
        assert result.tuples
        for composite in result.tuples:
            assert set(composite.aliases) == {"C", "W", "F", "H"}

    def test_weather_filter_applied(self, conference_query, conference_registry):
        best = optimize_query(conference_query)
        result = run(
            best.plan,
            conference_query,
            conference_registry,
            CONFERENCE_INPUTS,
            best.fetch_vector(),
        )
        for composite in result.tuples:
            assert composite.component("W").values["AvgTemp"] > 26.0

    def test_shared_branch_components_consistent(
        self, conference_query, conference_registry
    ):
        """Parallel branches both contain C and W; the join must only pair
        composites stemming from the same conference row."""
        best = optimize_query(conference_query)
        result = run(
            best.plan,
            conference_query,
            conference_registry,
            CONFERENCE_INPUTS,
            best.fetch_vector(),
        )
        for composite in result.tuples:
            conf_city = composite.component("C").values["City"]
            assert composite.component("F").values["ToCity"] == conf_city
            assert composite.component("H").values["HCity"] == conf_city


class TestKnobs:
    def test_k_override(self, movie_query, movie_registry, movie_plans):
        result = run(
            movie_plans[0],
            movie_query,
            movie_registry,
            RUNNING_EXAMPLE_INPUTS,
            FETCHES,
            k=3,
        )
        assert len(result.tuples) == 3

    def test_final_semantic_check_toggle(
        self, movie_query, movie_registry, movie_plans
    ):
        pool = ServicePool(movie_registry, global_seed=42)
        executor = PlanExecutor(
            movie_plans[0],
            movie_query,
            pool,
            RUNNING_EXAMPLE_INPUTS,
            fetches=FETCHES,
            final_semantic_check=False,
        )
        unchecked = executor.run()
        checked = run(
            movie_plans[0], movie_query, movie_registry, RUNNING_EXAMPLE_INPUTS, FETCHES
        )
        # The guard can only remove (never add) combinations.
        assert len(checked.tuples) <= len(unchecked.tuples) or len(
            checked.tuples
        ) == movie_query.k


class TestMeasuredTimeToScreen:
    def test_time_to_screen_below_execution_time(
        self, movie_query, movie_registry, movie_plans
    ):
        for plan in movie_plans:
            result = run(
                plan, movie_query, movie_registry, RUNNING_EXAMPLE_INPUTS, FETCHES
            )
            assert 0 < result.time_to_screen <= result.execution_time + 1e-9

    def test_time_to_screen_tracks_metric_estimate(
        self, movie_query, movie_registry, movie_plans
    ):
        """The measured first-tuple path sits within jitter (+/-10% per
        call) of the TimeToScreenMetric estimate for the same plan."""
        from repro.core.annotate import annotate
        from repro.core.cost import TimeToScreenMetric

        for plan in movie_plans:
            result = run(
                plan, movie_query, movie_registry, RUNNING_EXAMPLE_INPUTS, FETCHES
            )
            annotations = annotate(plan, movie_query, fetches=FETCHES)
            estimate = TimeToScreenMetric().cost(plan, annotations)
            assert result.time_to_screen == pytest.approx(estimate, rel=0.25)


class TestVerdictsLiveWithTheCachedList:
    """What a selection check kept of a fetched list is kept beside the
    shared cache's entry: a later execution that meets the same list and
    reads the same INPUT values does not check it again.  Counted on the
    Movie alias, whose check reads INPUT1-3 (server-side, in the cache key
    too) and INPUT7 (client-side only)."""

    QUERY = RUNNING_EXAMPLE_QUERY.replace(
        " RANK BY", " AND M.Year > INPUT7 RANK BY"
    )
    INPUTS = {**RUNNING_EXAMPLE_INPUTS, "INPUT7": 0}

    @pytest.fixture
    def setup(self, movie_registry, monkeypatch):
        from collections import Counter

        from repro.query.compile import compile_query
        from repro.query.parser import parse_query

        query = compile_query(parse_query(self.QUERY), movie_registry)
        best = Optimizer(query, OptimizerConfig()).optimize().best
        calls: Counter = Counter()
        counting: dict = {}
        real = PlanExecutor._selection_check

        def selection_check(executor, alias):
            check = real(executor, alias)
            if check is not None and check not in counting:

                def counted(components, inputs, check=check, alias=alias):
                    calls[alias] += 1
                    return check(components, inputs)

                counting[check] = counted
            return counting.get(check)

        # One counting wrapper per memoised check, so it keys verdicts as
        # the check itself would; executions run their nodes, not a replay.
        monkeypatch.setattr(PlanExecutor, "_selection_check", selection_check)
        monkeypatch.setattr(PlanExecutor, "_RESULT_MEMO", False)

        def execute(cache, inputs=self.INPUTS, **options):
            calls.clear()
            result = PlanExecutor(
                best.plan, query, ServicePool(movie_registry, global_seed=42),
                inputs, best.fetch_vector(), invocation_cache=cache, **options,
            ).run()
            return calls["M"], result

        return execute

    @staticmethod
    def movie_entries(cache):
        return [(key, entry) for key, entry in cache._data.items() if key[1] == "M"]

    def test_a_second_execution_checks_nothing(self, setup):
        cache = InvocationCache(max_size=None)
        first, _ = setup(cache)
        # Each Movie list holds one verdict: the first execution's own.
        entries = self.movie_entries(cache)
        assert entries and all(
            len(cache.verdicts(key, tuples)) == 1 for key, (tuples, _) in entries
        )
        again, _ = setup(cache)
        # The second execution read those verdicts and checked nothing.
        assert first > 0 and again == 0
        assert self.movie_entries(cache) == entries

    def test_an_evicted_entry_takes_its_verdicts_along(self, setup):
        cache = InvocationCache(max_size=1)
        first, _ = setup(cache)
        again, _ = setup(cache)
        assert not self.movie_entries(cache)  # a later service's call won the slot
        assert again == first > 0  # every Movie list checked again

    def test_an_overwritten_entry_drops_its_verdicts(self, setup):
        cache = InvocationCache(max_size=None)
        first, _ = setup(cache)
        for key, (tuples, failed) in self.movie_entries(cache):
            cache.put(key, (list(tuples), failed))  # equal, but another list
        again, _ = setup(cache)
        assert again == first > 0

    def test_only_the_inputs_the_check_reads_key_its_verdicts(self, setup):
        cache = InvocationCache(max_size=None)
        first, _ = setup(cache)
        entries = len(cache)
        read, _ = setup(cache, {**self.INPUTS, "INPUT7": 1})
        # INPUT7 is no binding: the same lists, checked again.
        assert len(cache) == entries and read == first > 0
        unread, _ = setup(cache, {**self.INPUTS, "INPUT4": "address#3"})
        assert unread == 0  # a Theatre binding: Movie's verdicts stand

    def test_a_failed_outcome_shares_nothing(self, setup):
        from repro.engine.retry import Degradation

        cache = InvocationCache(max_size=None)
        first, _ = setup(cache)
        for key, (tuples, _) in self.movie_entries(cache):
            cache.put(key, (tuples, True))  # abandoned after these tuples
        partial = dict(degradation=Degradation.PARTIAL)
        for _ in range(2):
            again, result = setup(cache, **partial)
            assert result.failed_aliases == ("M",)
            assert again == first > 0
        assert not any(key[1] == "M" for key in cache._verdicts)


class TestInvocationCacheKey:
    """Regression: the memo key used ``repr(value)`` alone, conflating
    binding values of different types whose reprs coincide."""

    def test_identical_reprs_across_types_do_not_collide(self):
        from repro.engine.executor import invocation_cache_key

        class Impostor:
            def __repr__(self):
                return "1"

        key_int = invocation_cache_key("S", "A", 1, {"Key": 1})
        key_imp = invocation_cache_key("S", "A", 1, {"Key": Impostor()})
        assert repr(1) == repr(Impostor())  # the collision the bug needs
        assert key_int != key_imp

    def test_bool_and_int_bindings_are_distinct(self):
        from repro.engine.executor import invocation_cache_key

        assert invocation_cache_key(
            "S", "A", 1, {"Key": True}
        ) != invocation_cache_key("S", "A", 1, {"Key": 1})

    def test_equal_bindings_share_a_key_regardless_of_order(self):
        from repro.engine.executor import invocation_cache_key

        assert invocation_cache_key(
            "S", "A", 1, {"a": 1, "b": "x"}
        ) == invocation_cache_key("S", "A", 1, {"b": "x", "a": 1})


class TestFilterOncePerInvocationResult:
    """The alias's selection check runs once per fetched tuple list, not
    once per (upstream row x tuple); the output is the per-row filter's."""

    def test_rows_sharing_a_list_share_its_survivors(
        self, movie_query, movie_registry, movie_plans
    ):
        from repro.model.tuples import CompositeTuple
        from repro.plans.nodes import ServiceNode

        plan = movie_plans[0]
        pool = ServicePool(movie_registry, global_seed=42)
        executor = PlanExecutor(plan, movie_query, pool, RUNNING_EXAMPLE_INPUTS)
        node = next(
            n for n in (plan.node(i) for i in plan.topological_order())
            if isinstance(n, ServiceNode) and n.alias == "T"
        )
        tuples = pool.invoke(
            "Theatre1",
            {"UAddress": "address#17", "UCity": "city#4", "UCountry": "country#1"},
        ).results
        real = executor._selection_check("T")
        seen = []

        def check(components, inputs):
            seen.append(components["T"])
            # Every other tuple passes: some, but not all, survive.
            return components["T"].position % 2 == 0 and real(components, inputs)

        movies = pool.invoke(
            "Movie1",
            {"Genres.Genre": "genre#3", "Openings.Country": "country#1",
             "Openings.Date": None},
        ).results[:3]
        rows = [
            CompositeTuple({"M": m}, movie_query.ranking.score_composite({"M": m}))
            for m in movies
        ]
        out = []
        for row in rows:
            executor._compose_service_results(node, row, tuples, False, check, out)
        assert seen == list(tuples)  # one pass, in list order
        survivors = [t for t in tuples if t.position % 2 == 0]
        assert survivors and len(survivors) < len(tuples)
        assert [(c.components["M"], c.components["T"]) for c in out] == [
            (m, t) for m in movies for t in survivors
        ]
        # Service-node rows carry no score yet: a join or the output node
        # scores them when one is first read (tests/test_row_life.py).
        assert all(
            c.score is None and list(c.components) == ["M", "T"] for c in out
        )
        # An equal list that is another object is another invocation result.
        executor._compose_service_results(
            node, rows[0], list(tuples), False, check, out
        )
        assert len(seen) == 2 * len(tuples)
