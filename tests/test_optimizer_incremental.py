"""The memoized/deduped optimizer against the exhaustive optimum.

The hot-path layers (incremental annotation, cost memoization, state
dedup, dominance pruning) must be behaviour-preserving: the search's
chosen plan costs what :func:`~repro.baselines.exhaustive.exhaustive_optimum`
finds on every workload.  Fetch vectors and topologies may differ on
equal-cost ties (several vectors can price identically when a service
sits off the critical path), so the tests compare cost and
k-satisfaction, not raw plans.
"""

import pytest

from repro.baselines.exhaustive import exhaustive_optimum
from repro.core.annotate import (
    ANNOTATION_COUNTERS,
    annotate,
    annotate_delta,
)
from repro.core.cost import CallCountMetric, ExecutionTimeMetric
from repro.core.optimizer import Optimizer, OptimizerConfig
from repro.query.compile import compile_query
from repro.query.parser import parse_query
from repro.services.marts import (
    CONFERENCE_QUERY,
    RUNNING_EXAMPLE_QUERY,
    conference_trip_registry,
    movie_night_registry,
)
from repro.services.synth import chain_workload, mixed_workload, star_workload


def compiled(workload):
    return compile_query(parse_query(workload.query_text), workload.registry)


@pytest.fixture(scope="module")
def movie_query():
    return compile_query(
        parse_query(RUNNING_EXAMPLE_QUERY), movie_night_registry()
    )


@pytest.fixture(scope="module")
def conference_query():
    return compile_query(
        parse_query(CONFERENCE_QUERY), conference_trip_registry()
    )


def assert_equivalent(query, metric_factory=ExecutionTimeMetric):
    default = Optimizer(query, OptimizerConfig(metric=metric_factory())).optimize()
    truth = exhaustive_optimum(query, metric=metric_factory(), max_fetch=8)
    assert (default.best is None) == (truth.best is None)
    if default.best is None:
        return None
    assert default.best.cost == pytest.approx(truth.best.cost)
    assert default.best.satisfies_k == truth.best.satisfies_k
    return default


def test_fig10_equivalent_to_exhaustive(movie_query):
    default = assert_equivalent(movie_query)
    assert default.best.satisfies_k


def test_conference_equivalent_to_exhaustive(conference_query):
    assert_equivalent(conference_query)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "maker,size",
    [(chain_workload, 4), (star_workload, 3), (mixed_workload, 4)],
)
def test_equivalent_on_random_workloads(maker, size, seed):
    assert_equivalent(compiled(maker(size, seed=seed)))


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize(
    "maker,size",
    [(chain_workload, 6), (star_workload, 4), (mixed_workload, 6)],
)
def test_equivalence_stress_sweep(maker, size, seed):
    """Deeper randomized sweep of the same invariant (run with -m slow)."""
    assert_equivalent(compiled(maker(size, seed=seed)))


#: ``star_workload(3, seed)`` under ``CallCountMetric`` and ``budget=25``.
BUDGET_25_COSTS = {0: 11.0, 1: 21.0, 2: 11.0}


@pytest.mark.parametrize("seed", range(3))
def test_equivalent_under_budget_and_callcount(seed):
    # Anytime behaviour: a budget returns the best incumbent found so far
    # (pinned), which no plan undercuts.
    query = compiled(star_workload(3, seed=seed))
    metric = CallCountMetric()
    outcome = Optimizer(query, OptimizerConfig(metric=metric, budget=25)).optimize()
    assert outcome.best.cost == BUDGET_25_COSTS[seed]
    truth = exhaustive_optimum(query, metric=metric, max_fetch=8)
    assert outcome.best.cost >= truth.best.cost


@pytest.mark.parametrize("seed", range(4))
def test_deduped_matches_exhaustive_on_random_workloads(seed):
    query = compiled(star_workload(3, seed=seed))
    metric = CallCountMetric()
    outcome = Optimizer(query, OptimizerConfig(metric=metric)).optimize()
    truth = exhaustive_optimum(query, metric=metric, max_fetch=3)
    if truth.best.satisfies_k:
        assert outcome.best.satisfies_k
        assert outcome.best.cost == pytest.approx(truth.best.cost)


def test_dedup_and_dominance_counters_populate(movie_query):
    outcome = Optimizer(movie_query, OptimizerConfig()).optimize()
    stats = outcome.stats
    # Dominance/dedup drop states *before* they are queued: Fig. 10's
    # counts, pinned.
    assert (stats.deduped, stats.dominated, stats.enqueued) == (3, 175, 162)


def test_incremental_reduces_annotation_work(movie_query):
    ANNOTATION_COUNTERS.reset()
    Optimizer(movie_query, OptimizerConfig()).optimize()
    assert ANNOTATION_COUNTERS.delta_annotations > 0
    # Fig. 10's count, pinned (DESIGN.md, "Incremental annotation"); 754
    # before a service node below one parent was annotated once per search.
    assert ANNOTATION_COUNTERS.node_evals == 748


@pytest.mark.parametrize("seed", range(5))
def test_annotate_delta_matches_full_annotation(movie_query, seed):
    """Property: delta re-annotation from any base == full annotation."""
    import random

    rng = random.Random(seed)
    outcome = Optimizer(movie_query, OptimizerConfig()).optimize()
    plan = outcome.best.plan
    aliases = sorted(outcome.best.fetch_vector())
    base_fetches = {alias: rng.randint(1, 6) for alias in aliases}
    base = annotate(plan, movie_query, base_fetches)
    for _ in range(8):
        fetches = dict(base_fetches)
        for alias in rng.sample(aliases, rng.randint(1, len(aliases))):
            fetches[alias] = rng.randint(1, 8)
        incremental = annotate_delta(
            plan, movie_query, base, base_fetches, fetches
        )
        full = annotate(plan, movie_query, fetches)
        for node_id in plan.nodes:
            assert incremental.by_node[node_id] == full.by_node[node_id], (
                node_id,
                fetches,
            )
