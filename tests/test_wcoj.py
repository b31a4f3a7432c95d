"""The worst-case-optimal multiway join kernel (ISSUE 10 tentpole).

Leapfrog triejoin must enumerate exactly the join a brute-force loop
would, with zero intermediate materialization, and finalize through the
shared deterministic order so its top-k is byte-identical to the binary
cascade's on every topology — cyclic or not.
"""

import random

import pytest

from repro.errors import ExecutionError
from repro.joins.extraction import JoinEvent
from repro.joins.methods import ListChunkSource
from repro.joins.topk import TOPK_JOIN_KERNELS, tile_trace, topk_join
from repro.joins.wcoj import (
    BinaryCascadeExecutor,
    EquiPredicate,
    JoinedRow,
    JoinGraph,
    MultiwayJoinExecutor,
    Relation,
    TrieIterator,
    canonical_row_key,
    finalize_rows,
    orderable_key,
    score_components,
    triangle_graph,
)
from repro.joins.ranked import RankedEnumerator
from repro.model.scoring import LinearScoring
from repro.model.tuples import RankingFunction, ServiceTuple


def make_relation(alias, n, domains, seed):
    rng = random.Random(seed)
    scores = sorted((rng.random() for _ in range(n)), reverse=True)
    return Relation(
        alias=alias,
        tuples=[
            ServiceTuple(
                {attr: rng.randrange(dom) for attr, dom in domains.items()},
                score=round(score, 9),
                source=alias,
                position=i,
            )
            for i, score in enumerate(scores)
        ],
    )


def brute_force(relations, graph, ranking=None, k=None):
    """Reference enumeration: nested loops + predicate checks."""
    ranking = ranking or RankingFunction.uniform(graph.aliases)
    rows = []

    def ok(components):
        for pred in graph.predicates:
            left = components.get(pred.left_alias)
            right = components.get(pred.right_alias)
            if left.values.get(pred.left_attr) != right.values.get(
                pred.right_attr
            ):
                return False
        return True

    def recurse(index, components):
        if index == len(relations):
            if ok(components):
                rows.append(
                    JoinedRow(
                        components=dict(components),
                        score=score_components(ranking, components),
                    )
                )
            return
        relation = relations[index]
        for tup in relation.tuples:
            components[relation.alias] = tup
            recurse(index + 1, components)
        components.pop(relation.alias, None)

    recurse(0, {})
    return finalize_rows(rows, k)


def row_keys(rows):
    return [(row.score, row.key()) for row in rows]


# -- ordering helpers ---------------------------------------------------------


def test_orderable_key_totally_orders_mixed_types():
    values = [None, False, True, -2, 0.5, 3, "a", "b", (1, "x"), (2,)]
    keyed = sorted(values, key=orderable_key)
    # Sorting twice is stable and never raises; type classes stay grouped.
    assert sorted(keyed, key=orderable_key) == keyed
    assert keyed[0] is None
    assert keyed.index(True) < keyed.index("a")


def test_canonical_row_key_is_alias_sorted():
    a = ServiceTuple({}, score=0.5, source="A", position=3)
    b = ServiceTuple({}, score=0.2, source="B", position=7)
    assert canonical_row_key({"B": b, "A": a}) == (
        ("A", "A", 3),
        ("B", "B", 7),
    )


# -- trie iterator ------------------------------------------------------------


def test_trie_iterator_walks_sorted_distinct_vectors():
    relation = make_relation("R", 50, {"x": 5, "y": 3}, seed=1)
    trie = TrieIterator(relation, ["x", "y"])
    vectors = []
    trie.open()
    while not trie.at_end:
        x = trie.key()
        trie.open()
        while not trie.at_end:
            vectors.append((x, trie.key()))
            group = trie.group()
            assert group, "leaf group must be non-empty"
            for index in group:
                tup = relation.tuples[index]
                assert orderable_key(tup.values["x"]) == x
                assert orderable_key(tup.values["y"]) == trie.key()
            trie.next()
        trie.up()
        trie.next()
    trie.up()
    expected = sorted(
        {
            (orderable_key(t.values["x"]), orderable_key(t.values["y"]))
            for t in relation.tuples
        }
    )
    assert vectors == expected


def test_trie_iterator_seek_lands_on_least_upper_bound():
    relation = Relation(
        alias="R",
        tuples=[
            ServiceTuple({"x": v}, score=1.0 - i / 10, source="R", position=i)
            for i, v in enumerate([1, 1, 4, 6, 6, 9])
        ],
    )
    trie = TrieIterator(relation, ["x"])
    trie.open()
    trie.seek(orderable_key(5))
    assert trie.key() == orderable_key(6)
    trie.seek(orderable_key(10))
    assert trie.at_end


# -- join graph ---------------------------------------------------------------


def test_join_graph_collapses_transitive_variables():
    graph = JoinGraph(
        ("A", "B", "C"),
        (
            EquiPredicate("A", "x", "B", "x"),
            EquiPredicate("B", "x", "C", "x"),
        ),
    )
    assert len(graph.variables) == 1
    assert graph.variables[0].aliases == ("A", "B", "C")
    assert not graph.is_cyclic()


def test_triangle_graph_is_cyclic_chain_is_not():
    assert triangle_graph().is_cyclic()
    chain = JoinGraph(
        ("A", "B", "C"),
        (
            EquiPredicate("A", "b", "B", "b"),
            EquiPredicate("B", "c", "C", "c"),
        ),
    )
    assert not chain.is_cyclic()


def test_join_graph_rejects_unknown_alias_and_duplicates():
    with pytest.raises(ExecutionError):
        JoinGraph(("A",), (EquiPredicate("A", "x", "B", "x"),))
    with pytest.raises(ExecutionError):
        JoinGraph(("A", "A"), ())


# -- leapfrog vs brute force --------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_triangle_matches_brute_force(seed):
    relations = [
        make_relation("R", 30, {"a": 12, "b": 4}, seed),
        make_relation("S", 30, {"b": 4, "c": 4}, seed + 50),
        make_relation("T", 30, {"c": 4, "a": 12}, seed + 100),
    ]
    graph = triangle_graph()
    result = MultiwayJoinExecutor(relations, graph).run()
    expected = brute_force(relations, graph)
    assert row_keys(result.rows) == row_keys(expected)
    assert result.stats.max_intermediate == 0
    assert result.stats.intermediate_rows == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_four_cycle_matches_brute_force(seed):
    relations = [
        make_relation("A", 16, {"a": 10, "b": 3}, seed),
        make_relation("B", 16, {"b": 3, "c": 3}, seed + 1),
        make_relation("C", 16, {"c": 3, "d": 3}, seed + 2),
        make_relation("D", 16, {"d": 3, "a": 10}, seed + 3),
    ]
    graph = JoinGraph(
        ("A", "B", "C", "D"),
        (
            EquiPredicate("A", "b", "B", "b"),
            EquiPredicate("B", "c", "C", "c"),
            EquiPredicate("C", "d", "D", "d"),
            EquiPredicate("D", "a", "A", "a"),
        ),
    )
    result = MultiwayJoinExecutor(relations, graph).run()
    assert row_keys(result.rows) == row_keys(brute_force(relations, graph))


def test_weighted_ranking_and_k_cut():
    relations = [
        make_relation("R", 25, {"a": 8, "b": 3}, 7),
        make_relation("S", 25, {"b": 3, "c": 3}, 8),
        make_relation("T", 25, {"c": 3, "a": 8}, 9),
    ]
    graph = triangle_graph()
    ranking = RankingFunction({"R": 0.6, "S": 0.3, "T": 0.1})
    result = MultiwayJoinExecutor(relations, graph, ranking=ranking, k=5).run()
    expected = brute_force(relations, graph, ranking=ranking, k=5)
    assert row_keys(result.rows) == row_keys(expected)
    assert len(result.rows) <= 5


def test_post_filter_drops_rows_before_scoring():
    relations = [
        make_relation("R", 20, {"a": 6, "b": 3}, 3),
        make_relation("S", 20, {"b": 3, "c": 3}, 4),
        make_relation("T", 20, {"c": 3, "a": 6}, 5),
    ]
    graph = triangle_graph()
    keep = lambda comps: comps["R"].values["a"] % 2 == 0
    filtered = MultiwayJoinExecutor(relations, graph, post_filter=keep).run()
    assert all(row.components["R"].values["a"] % 2 == 0 for row in filtered.rows)
    full = MultiwayJoinExecutor(relations, graph).run()
    expected = [row for row in full.rows if keep(row.components)]
    assert row_keys(filtered.rows) == row_keys(expected)


def test_empty_relation_short_circuits():
    relations = [
        make_relation("R", 10, {"a": 4, "b": 2}, 1),
        Relation(alias="S", tuples=[]),
        make_relation("T", 10, {"c": 2, "a": 4}, 2),
    ]
    result = MultiwayJoinExecutor(relations, triangle_graph()).run()
    assert result.rows == []
    assert result.stats.pairs_probed == 0


def test_executor_rejects_alias_mismatch():
    relations = [make_relation("X", 5, {"a": 2, "b": 2}, 0)]
    with pytest.raises(ExecutionError):
        MultiwayJoinExecutor(relations, triangle_graph())
    with pytest.raises(ExecutionError):
        BinaryCascadeExecutor(relations, triangle_graph())


# -- binary cascade baseline --------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_cascade_agrees_with_leapfrog_and_materializes(seed):
    relations = [
        make_relation("R", 40, {"a": 60, "b": 3}, seed),
        make_relation("S", 40, {"b": 3, "c": 3}, seed + 10),
        make_relation("T", 40, {"c": 3, "a": 60}, seed + 20),
    ]
    graph = triangle_graph()
    cascade = BinaryCascadeExecutor(relations, graph).run()
    leapfrog = MultiwayJoinExecutor(relations, graph).run()
    assert row_keys(cascade.rows) == row_keys(leapfrog.rows)
    # The cascade pays for the popular-key intermediate; leapfrog's
    # frontier is one key per iterator.
    assert cascade.stats.max_intermediate > 0
    assert leapfrog.stats.max_intermediate == 0
    assert cascade.stats.pairs_probed > leapfrog.stats.pairs_probed


def test_cascade_order_changes_work_not_answers():
    relations = [
        make_relation("R", 30, {"a": 40, "b": 3}, 11),
        make_relation("S", 30, {"b": 3, "c": 3}, 12),
        make_relation("T", 30, {"c": 3, "a": 40}, 13),
    ]
    graph = triangle_graph()
    default = BinaryCascadeExecutor(relations, graph).run()
    reordered = BinaryCascadeExecutor(
        relations, graph, order=("T", "S", "R")
    ).run()
    assert row_keys(default.rows) == row_keys(reordered.rows)
    with pytest.raises(ExecutionError):
        BinaryCascadeExecutor(relations, graph, order=("R", "S"))


#: ``(results, pairs_probed, intermediate_rows, max_intermediate)`` of the
#: cascade on the 4-chain below, counted before its probe went column-wise.
CHAIN4_CASCADE_COUNTS = {
    ("R", "S", "T", "U"): (9527, 11414, 1887, 1663),
    # The first step binds nothing: a 30 x 30 cross product.
    ("R", "T", "S", "U"): (9527, 12090, 2563, 1663),
    ("T", "R", "U", "S"): (9527, 15707, 6180, 5280),
}


@pytest.mark.parametrize("order", sorted(CHAIN4_CASCADE_COUNTS))
def test_cascade_counters_hold_under_every_join_order(order):
    relations = [
        make_relation("R", 30, {"a": 5, "b": 4}, 1),
        make_relation("S", 30, {"b": 4, "c": 4}, 2),
        make_relation("T", 30, {"c": 4, "d": 5}, 3),
        make_relation("U", 30, {"d": 5, "e": 6}, 4),
    ]
    graph = JoinGraph(
        ("R", "S", "T", "U"),
        (
            EquiPredicate("R", "b", "S", "b"),
            EquiPredicate("S", "c", "T", "c"),
            EquiPredicate("T", "d", "U", "d"),
        ),
    )
    cascade = BinaryCascadeExecutor(relations, graph, order=order).run()
    leapfrog = MultiwayJoinExecutor(relations, graph).run()
    assert row_keys(cascade.rows) == row_keys(leapfrog.rows)
    stats = cascade.stats
    counted = (
        stats.results,
        stats.pairs_probed,
        stats.intermediate_rows,
        stats.max_intermediate,
    )
    assert counted == CHAIN4_CASCADE_COUNTS[order]


@pytest.mark.parametrize(
    "executor", [BinaryCascadeExecutor, MultiwayJoinExecutor, RankedEnumerator]
)
@pytest.mark.parametrize("k", [0, -1])
def test_multiway_executors_reject_non_positive_k(executor, k):
    # The cascade and leapfrog used to answer k=0 with no rows and k=-1
    # with all rows but the last.
    relations = [
        make_relation("R", 6, {"a": 2, "b": 2}, 0),
        make_relation("S", 6, {"b": 2, "c": 2}, 1),
        make_relation("T", 6, {"c": 2, "a": 2}, 2),
    ]
    with pytest.raises(ExecutionError, match="k must be positive"):
        executor(relations, triangle_graph(), k=k)


# -- facade + extraction tie-in ----------------------------------------------


def test_topk_join_rejects_unknown_kernel():
    relations = [
        make_relation("R", 5, {"a": 2, "b": 2}, 0),
        make_relation("S", 5, {"b": 2, "c": 2}, 1),
        make_relation("T", 5, {"c": 2, "a": 2}, 2),
    ]
    with pytest.raises(ExecutionError):
        topk_join(relations, triangle_graph(), kernel="nope")


@pytest.mark.parametrize("kernel", TOPK_JOIN_KERNELS)
@pytest.mark.parametrize("k", [0, -1])
def test_topk_join_rejects_non_positive_k_under_every_kernel(kernel, k):
    # binary and wcoj used to answer k=0 with [] (and k=-1 with all rows
    # but the last) where ranked raised.
    relations = [
        make_relation("R", 5, {"a": 2, "b": 2}, 0),
        make_relation("S", 5, {"b": 2, "c": 2}, 1),
        make_relation("T", 5, {"c": 2, "a": 2}, 2),
    ]
    with pytest.raises(ExecutionError, match="k must be positive"):
        topk_join(relations, triangle_graph(), k=k, kernel=kernel)


def test_tile_trace_maps_rows_to_chunk_tiles():
    scoring = LinearScoring(horizon=20)
    rng = random.Random(3)

    def source(name):
        tuples = [
            ServiceTuple(
                {"k": rng.randrange(3)},
                score=scoring.score_at(i),
                source=name,
                position=i,
            )
            for i in range(20)
        ]
        return ListChunkSource(tuples, 5, scoring)

    x = Relation.from_source("X", source("X"))
    y = Relation.from_source("Y", source("Y"))
    assert x.calls == 4 and x.chunk_of[19] == 3
    graph = JoinGraph(("X", "Y"), (EquiPredicate("X", "k", "Y", "k"),))
    outcome = topk_join([x, y], graph, k=10, kernel="wcoj")
    trace = tile_trace(outcome.rows, x, y)
    assert trace, "non-empty join must produce a tile trace"
    # The trace feeds the Section 4.1 analysers: every tile is within
    # the drained chunk grid and consecutive duplicates are collapsed.
    for tile in trace:
        assert 0 <= tile.x < x.calls and 0 <= tile.y < y.calls
    assert all(a != b for a, b in zip(trace, trace[1:]))
    events = [JoinEvent.process(tile) for tile in trace]
    assert len(events) == len(trace)
