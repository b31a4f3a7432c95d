"""Property tests for the ranked (any-k) join kernel (ISSUE 13).

The reducer, the internal level order and the completion bounds may
change *how much work* the enumerator does, never *what it returns*:
on random chain / star / forest / cycle / clique graphs — dense and
dangling-heavy, with tied scores, ``None`` join values,
self-equalities, shuffled tuple order and zero weights — the ranked
kernel must emit exactly the rows of the leapfrog and cascade kernels,
and on acyclic graphs it must do so in about one pop per level per row.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins.ranked import RankedEnumerator
from repro.joins.topk import TOPK_JOIN_KERNELS, topk_join
from repro.joins.wcoj import (
    BinaryCascadeExecutor,
    EquiPredicate,
    JoinGraph,
    MultiwayJoinExecutor,
    Relation,
    triangle_graph,
)
from repro.model.tuples import RankingFunction, ServiceTuple

SHAPES = ("chain", "star", "forest", "cycle", "clique")


def graph_of(shape, count, shared_star_variable):
    """``(aliases, attrs per alias, predicates)`` of one join graph."""
    aliases = [f"R{i}" for i in range(count)]
    attrs = {alias: [] for alias in aliases}
    predicates = []

    def join(i, j, attr):
        for alias in (aliases[i], aliases[j]):
            if attr not in attrs[alias]:
                attrs[alias].append(attr)
        predicates.append(EquiPredicate(aliases[i], attr, aliases[j], attr))

    if shape == "chain":
        for i in range(count - 1):
            join(i, i + 1, f"x{i}")
    elif shape == "star":
        for i in range(1, count):
            join(0, i, "x" if shared_star_variable else f"x{i}")
    elif shape == "forest":
        # Disconnected: pairs joined, the components a cross product.
        for i in range(0, count - 1, 2):
            join(i, i + 1, f"x{i}")
    elif shape == "cycle":
        for i in range(count):
            join(i, (i + 1) % count, f"x{i}")
    else:
        for i in range(count):
            for j in range(i + 1, count):
                join(i, j, f"x{i}{j}")
    for alias in aliases:
        if not attrs[alias]:
            attrs[alias].append("solo")
    return aliases, attrs, predicates


@st.composite
def join_cases(draw, shapes=SHAPES, distinct_scores=False):
    """``(relations, graph, ranking)`` — small enough to run all kernels."""
    shape = draw(st.sampled_from(shapes))
    count = draw(st.integers(3 if shape in ("cycle", "clique") else 2, 4))
    aliases, attrs, predicates = graph_of(shape, count, draw(st.booleans()))
    if draw(st.booleans()):
        # A self-equality: one relation must agree with itself on two attrs.
        alias = draw(st.sampled_from(aliases))
        predicates.append(EquiPredicate(alias, attrs[alias][0], alias, "twin"))
        attrs[alias].append("twin")
    # Narrow domains make the join dense, wide ones leave most tuples dangling.
    domain = draw(st.sampled_from([2, 3, 8, 40]))
    values = st.one_of(st.none(), st.integers(0, domain - 1))
    if distinct_scores:
        # One base-16 digit per relation: every row score is a distinct sum,
        # exact in binary and far wider apart than the stopping margin.
        scores = st.permutations(range(1, 13))
    else:
        scores = st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=12, max_size=12
        )
    relations = []
    for number, alias in enumerate(aliases):
        size = draw(st.integers(0 if not distinct_scores else 1, 12))
        column = draw(scores)
        tuples = [
            ServiceTuple(
                {attr: draw(values) for attr in attrs[alias]},
                score=column[i] / (16.0 ** (number + 1) if distinct_scores else 1.0),
                source=alias,
                position=i,
            )
            for i in range(size)
        ]
        # Any arrival order: no kernel may rely on score-descending input.
        relations.append(Relation(alias=alias, tuples=draw(st.permutations(tuples))))
    if distinct_scores:
        ranking = RankingFunction.uniform(aliases)
    else:
        weights = {alias: draw(st.integers(0, 3)) for alias in aliases}
        if not any(weights.values()):
            weights[aliases[0]] = 1
        ranking = RankingFunction(weights)
    return relations, JoinGraph(tuple(aliases), tuple(predicates)), ranking


def keys_of(rows):
    return [(row.score, row.key()) for row in rows]


@given(join_cases(), st.sampled_from([1, 5, 10_000]))
@settings(max_examples=150, deadline=None)
def test_ranked_rows_equal_wcoj_and_binary(case, k):
    relations, graph, ranking = case
    outcomes = {
        kernel: topk_join(relations, graph, ranking=ranking, k=k, kernel=kernel)
        for kernel in TOPK_JOIN_KERNELS
    }
    assert outcomes["ranked"].row_keys() == outcomes["wcoj"].row_keys()
    assert outcomes["binary"].row_keys() == outcomes["wcoj"].row_keys()
    stats = outcomes["ranked"].stats
    assert stats.pq_pops <= stats.pq_pushes
    assert stats.results == len(outcomes["wcoj"].rows)
    assert sorted(stats.level_order) == sorted(graph.aliases)
    if not graph.is_cyclic():
        assert stats.bound == "exact"


@given(join_cases(), st.sampled_from([1, 5, 10_000]), st.integers(0, 40))
@settings(max_examples=100, deadline=None)
def test_capped_rows_are_a_prefix_of_the_ranking(case, k, max_pops):
    relations, graph, ranking = case
    full = RankedEnumerator(relations, graph, ranking=ranking, k=k).run()
    capped = RankedEnumerator(
        relations, graph, ranking=ranking, k=k, max_pops=max_pops
    ).run()
    assert capped.stats.pq_pops <= max_pops
    assert keys_of(capped.rows) == keys_of(full.rows)[: len(capped.rows)]
    if full.stats.pq_pops <= max_pops:
        assert keys_of(capped.rows) == keys_of(full.rows)


@given(
    join_cases(shapes=("chain", "star", "forest"), distinct_scores=True),
    st.sampled_from([1, 5, 10_000]),
)
@settings(max_examples=100, deadline=None)
def test_acyclic_work_is_linear_in_levels_times_k(case, k):
    """Exact bounds: no popped prefix is a dead end, so with pairwise
    distinct row scores the k-th row costs at most ``levels`` pops.
    (Rows tied at the k-th score would all have to be enumerated.)"""
    relations, graph, ranking = case
    outcome = RankedEnumerator(relations, graph, ranking=ranking, k=k).run()
    eager = MultiwayJoinExecutor(relations, graph, ranking=ranking, k=k).run()
    assert keys_of(outcome.rows) == keys_of(eager.rows)
    levels = len(relations)
    assert outcome.stats.bound == "exact"
    assert outcome.stats.pq_pops <= 2 * levels * k + levels
    assert outcome.stats.pq_pops <= levels * max(1, outcome.stats.results) + levels


# -- regressions ------------------------------------------------------------------


def shuffled_triangle(seed, n=30, a_dom=6, bc_dom=3):
    """A triangle whose tuples are *not* score-descending."""
    rng = random.Random(seed)

    def relation(alias, domains):
        return Relation(
            alias=alias,
            tuples=[
                ServiceTuple(
                    {attr: rng.randrange(dom) for attr, dom in domains.items()},
                    score=round(rng.random(), 9),
                    source=alias,
                    position=i,
                )
                for i in range(n)
            ],
        )

    return [
        relation("R", {"a": a_dom, "b": bc_dom}),
        relation("S", {"b": bc_dom, "c": bc_dom}),
        relation("T", {"c": bc_dom, "a": a_dom}),
    ]


@pytest.mark.parametrize("seed", range(30))
def test_unsorted_input_gets_the_true_topk(seed):
    """The old bound took ``tuples[0].score`` for a relation's top score,
    which is inadmissible on unsorted input: 28 of these 30 mismatched."""
    relations = shuffled_triangle(seed)
    eager = MultiwayJoinExecutor(relations, triangle_graph(), k=5).run()
    ranked = RankedEnumerator(relations, triangle_graph(), k=5).run()
    assert keys_of(ranked.rows) == keys_of(eager.rows)


def test_cascade_filters_self_equalities_of_its_first_relation():
    """Found by the property test above: the cascade applied a relation's
    self-equalities when it indexed it, so never to the first one."""
    r = Relation(
        alias="R",
        tuples=[
            ServiceTuple({"x": 1, "twin": 1}, score=0.9, source="R", position=0),
            ServiceTuple({"x": 1, "twin": 2}, score=0.8, source="R", position=1),
        ],
    )
    s = Relation(
        alias="S",
        tuples=[
            ServiceTuple({"x": 1}, score=0.5, source="S", position=0),
            ServiceTuple({"x": 2}, score=0.4, source="S", position=1),
        ],
    )
    graph = JoinGraph(
        ("R", "S"),
        (EquiPredicate("R", "x", "S", "x"), EquiPredicate("R", "x", "R", "twin")),
    )
    cascade = BinaryCascadeExecutor([r, s], graph).run()
    leapfrog = MultiwayJoinExecutor([r, s], graph).run()
    assert keys_of(cascade.rows) == keys_of(leapfrog.rows)
    assert len(cascade.rows) == 1


def test_statistics_name_the_order_the_bound_and_the_reduction():
    relations = shuffled_triangle(3, n=40, a_dom=200)
    stats = RankedEnumerator(relations, triangle_graph(), k=5).run().stats
    report = stats.as_dict()
    assert report["bound"] == "spanning_tree"
    assert sorted(report["level_order"]) == ["R", "S", "T"]
    # The sparse closing variable leaves most of R and T dangling.
    assert report["reduced_rows"] > 40
    # Every reducer scan is accounted for, not just the sorted lists.
    assert report["candidate_rows"] >= sum(len(r) for r in relations)
    kept = ("pq_pops", "pq_pushes", "results", "materialized_rows", "index_builds")
    assert all(name in report for name in kept)
