"""Bounding a phase-2 move before its child is built.

:meth:`TopologyBuilder.move_bound` prices a start, extend or fork move by
the running cost once the move's service node is placed.  Two properties
hold it to its contract:

* it is a lower bound on the bound the optimizer reads from the built
  child (``builder.bound``, or the sealed topology's for a move that
  completes the plan), on random moves over the synthetic workloads under
  all six metrics;
* a search that bounds its moves makes exactly the search that builds
  every child and prunes it on arrival: the same expansions, prunes,
  enqueues, duplicates, dominated states and chosen plan.

Tier-1 draws a few dozen examples of each; the ``slow`` twins ten times as
many.  The phase-1 bound has its own regression here: a plan may call a
service less than once, so the interfaces alone bound a plan only by one
call to the cheapest of them.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.exhaustive import exhaustive_optimum
from repro.core.cost import DEFAULT_METRICS, ExecutionTimeMetric, SumCostMetric
from repro.core.optimizer import Optimizer, OptimizerConfig
from repro.core.topology import TopologyBuilder, topology_signature
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
from repro.query.compile import compile_query
from repro.query.feasibility import enumerate_binding_choices
from repro.query.parser import parse_query
from repro.services.synth import chain_workload, mixed_workload, star_workload

WORKLOADS = {
    "star": (star_workload, 3),
    "chain": (chain_workload, 3),
    "mixed": (mixed_workload, 4),
}

workloads = st.tuples(
    st.sampled_from(sorted(WORKLOADS)),
    st.integers(min_value=0, max_value=2),  # size above the family's least
    st.integers(min_value=0, max_value=5),  # seed
)
metrics = st.sampled_from(sorted(DEFAULT_METRICS))


def _query(family: str, extra: int, seed: int):
    make, least = WORKLOADS[family]
    workload = make(least + extra, seed)
    return compile_query(parse_query(workload.query_text), workload.registry)


def _built_bound(child: TopologyBuilder) -> float:
    """What the optimizer's ``_lower_bound`` reads for the child state."""
    return child.seal().bound if child.is_complete else child.bound


def check_move_bounds(family, extra, seed, metric_name, picks) -> None:
    query = _query(family, extra, seed)
    assignment = {
        atom.alias: query.registry.interfaces_of(atom.mart.name)[0]
        for atom in query.atoms
        if atom.interface is None
    }
    choice = next(enumerate_binding_choices(query, assignment, limit=1))
    builder = TopologyBuilder.initial(
        query, assignment, choice, metric=DEFAULT_METRICS[metric_name]
    )
    for pick in picks:
        moves = builder.available_moves()
        if not moves:
            return
        for move in moves:
            bound = builder.move_bound(move)
            if move.kind == "merge":
                assert bound is None
                continue
            child_bound = _built_bound(builder.apply(move))
            assert bound is not None and bound <= child_bound, (move, bound)
        builder = builder.apply(moves[pick % len(moves)])
        if builder.is_complete:
            return


@settings(max_examples=40, deadline=None)
@given(
    workload=workloads,
    metric=metrics,
    picks=st.lists(st.integers(min_value=0, max_value=50), max_size=12),
)
def test_a_move_bound_never_exceeds_its_built_child(workload, metric, picks):
    check_move_bounds(*workload, metric, picks)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(
    workload=workloads,
    metric=metrics,
    picks=st.lists(st.integers(min_value=0, max_value=50), max_size=12),
)
def test_a_move_bound_never_exceeds_its_built_child_at_length(
    workload, metric, picks
):
    check_move_bounds(*workload, metric, picks)


def _search(query, metric_name):
    outcome = Optimizer(
        query, OptimizerConfig(metric=DEFAULT_METRICS[metric_name])
    ).optimize()
    stats, best = outcome.stats, outcome.best
    return (
        stats.expanded,
        stats.pruned,
        stats.enqueued,
        stats.deduped,
        stats.dominated,
        best.cost,
        topology_signature(best.plan),
        best.fetch_vector(),
    ), stats


def check_same_search(family, extra, seed, metric_name) -> None:
    query = _query(family, extra, seed)
    bounded, stats = _search(query, metric_name)
    with mock.patch.object(TopologyBuilder, "move_bound", lambda self, move: None):
        unbounded, plain = _search(query, metric_name)
    assert bounded == unbounded
    assert plain.moves_bounded == 0
    assert stats.moves_bounded <= stats.pruned


@settings(max_examples=30, deadline=None)
@given(workload=workloads, metric=metrics)
def test_bounding_moves_leaves_the_search_unchanged(workload, metric):
    check_same_search(*workload, metric)


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(workload=workloads, metric=metrics)
def test_bounding_moves_leaves_the_search_unchanged_at_length(workload, metric):
    check_same_search(*workload, metric)


# -- phase 1: an interface need not be called even once ----------------------


def _selective_serial_query():
    """``Svc0`` (exact, 0.2 tuples a call, latency 0.5, fee 1) is fed by
    INPUT; ``Svc1`` (exact, unpiped, latency 5, fee 3) joins it on
    ``OutKey``.  Placed after ``Svc0``, ``Svc1`` is called 0.2 times, so the
    serial plan costs 1.5 (time) and 1.6 (fees), while the parallel plan the
    heuristics build first costs 5.0 and 4.0."""
    key = Domain("synthkey", DataType.INTEGER, size=12)
    registry = ServiceRegistry()
    for index, adornments, cardinality, latency, fee in (
        (0, {"InKey": "I", "Rank": "R"}, 0.2, 0.5, 1.0),
        (1, {"Rank": "R"}, 200.0, 5.0, 3.0),
    ):
        mart = ServiceMart(
            f"Mart{index}",
            (
                Attribute("InKey", key),
                Attribute("OutKey", key),
                Attribute("Rank", Domain("rank", DataType.FLOAT, size=10)),
            ),
        )
        registry.register_interface(
            ServiceInterface(
                name=f"Svc{index}",
                mart=mart,
                access_pattern=AccessPattern.from_spec(adornments),
                kind=ServiceKind.EXACT,
                stats=ServiceStats(
                    avg_cardinality=cardinality,
                    latency=latency,
                    invocation_fee=fee,
                ),
                scoring=LinearScoring(horizon=10),
            )
        )
    text = (
        "SELECT Svc0 AS A0, Svc1 AS A1 WHERE A0.InKey = INPUT1 "
        "AND A0.OutKey = A1.OutKey RANK BY 0.5*A0, 0.5*A1 LIMIT 1"
    )
    return compile_query(parse_query(text), registry)


@pytest.mark.parametrize(
    "metric,optimum",
    [(ExecutionTimeMetric, 1.5), (SumCostMetric, 1.6)],
    ids=["ExecutionTimeMetric", "SumCostMetric"],
)
def test_phase1_bound_admits_a_plan_that_calls_a_service_less_than_once(
    metric, optimum
):
    query = _selective_serial_query()
    optimizer = Optimizer(query, OptimizerConfig(metric=metric()))
    assert optimizer.greedy_candidate().cost > optimum
    truth = exhaustive_optimum(query, metric=metric())
    best = optimizer.optimize().best
    assert best.satisfies_k and truth.best.satisfies_k
    assert best.cost == pytest.approx(truth.best.cost) == pytest.approx(optimum)
