"""Differential test of the three multiway kernels against the plain path.

The cascade and leapfrog kernels carry component tuples, score them with
their own ``sum`` and build a :class:`JoinedRow` only for rows at or
above the k-th best score.  The oracle here is the path they replaced,
assembled from the functions they must keep agreeing with: the cross
product filtered by the graph's predicates under ``orderable_key``
equality, every row dressed as ``JoinedRow(score_components)``, then
:func:`finalize_rows`.  Scores come from a handful of values, so most
cuts fall inside a run of exactly tied rows and the canonical row key —
computed only for the rows that survive the floor — decides the order.
The work counters are pinned to what the kernels counted before the
change, on the E25 sweep ``benchmarks/bench_wcoj.py`` runs at scale 1.
"""

import importlib
import itertools
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins.topk import TOPK_JOIN_KERNELS, topk_join
from repro.joins.wcoj import (
    BinaryCascadeExecutor,
    EquiPredicate,
    JoinedRow,
    JoinGraph,
    MultiwayJoinExecutor,
    Relation,
    finalize_rows,
    orderable_key,
    score_components,
    triangle_graph,
)
from repro.model.tuples import RankingFunction, ServiceTuple

#: Join-key values that collide or nearly collide: ``1 == 1.0 == True`` in
#: Python, but ``orderable_key`` keeps the bool apart from the numbers and
#: the string apart from both; tuples recurse.
KEYS = [None, True, False, 0, 1, 1.0, "1", (1,), (1.0,), (True, "1")]

#: Few distinct scores: exact ties, and sums that round (0.1 + 0.7).
SCORES = [0.0, 0.1, 0.25, 0.5, 0.7, 1.0]

#: shape -> edges as (left index, right index) over the aliases.
SHAPES = {
    "triangle": (3, [(0, 1), (1, 2), (2, 0)]),
    "cycle4": (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "chain": (4, [(0, 1), (1, 2), (2, 3)]),
    "star": (4, [(0, 1), (0, 2), (0, 3)]),
}


@st.composite
def join_cases(draw):
    """``(relations, graph, ranking)``, small enough for a cross product."""
    count, edges = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    aliases = [f"R{i}" for i in range(count)]
    attrs = {alias: [] for alias in aliases}
    predicates = []
    for i, j in edges:
        attr = f"x{i}{j}"
        attrs[aliases[i]].append(attr)
        attrs[aliases[j]].append(attr)
        predicates.append(EquiPredicate(aliases[i], attr, aliases[j], attr))
    # A narrow slice of KEYS makes the join dense, the whole list sparse.
    values = st.sampled_from(KEYS[: draw(st.sampled_from([2, 4, len(KEYS)]))])
    relations = []
    for alias in aliases:
        tuples = [
            ServiceTuple(
                {attr: draw(values) for attr in attrs[alias]},
                score=draw(st.sampled_from(SCORES)),
                source=alias,
                position=position,
            )
            for position in range(draw(st.integers(0, 6)))
        ]
        relations.append(Relation(alias=alias, tuples=draw(st.permutations(tuples))))
    weights = {alias: draw(st.integers(0, 3)) for alias in aliases}
    weights[aliases[0]] = weights[aliases[0]] or 1
    return relations, JoinGraph(tuple(aliases), tuple(predicates)), RankingFunction(weights)


def oracle(relations, graph, ranking, post_filter=None):
    """Every join row, dressed, in the finalizer's order."""
    rows = []
    for combo in itertools.product(*[relation.tuples for relation in relations]):
        components = dict(zip(graph.aliases, combo))
        if all(
            orderable_key(components[p.left_alias].values.get(p.left_attr))
            == orderable_key(components[p.right_alias].values.get(p.right_attr))
            for p in graph.predicates
        ) and (post_filter is None or post_filter(components)):
            rows.append(JoinedRow(components, score_components(ranking, components)))
    return finalize_rows(rows)


def keys_of(rows):
    return [(row.score, row.key()) for row in rows]


def odd_positions(components):
    """A post-filter that also checks what it is handed."""
    assert isinstance(components, dict)
    return sum(tup.position for tup in components.values()) % 2 == 1


@given(join_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_kernels_equal_the_dress_everything_path(case, data):
    relations, graph, ranking = case
    expected = keys_of(oracle(relations, graph, ranking))
    filtered = keys_of(oracle(relations, graph, ranking, odd_positions))
    order = data.draw(st.permutations(graph.aliases))
    size = len(expected)
    for k in sorted({1, 2, size - 1, size, size + 5} - {0, -1}):
        for kernel in TOPK_JOIN_KERNELS:
            outcome = topk_join(relations, graph, ranking=ranking, k=k, kernel=kernel)
            assert outcome.row_keys() == expected[:k], (kernel, k)
            if kernel != "ranked":
                # ``results`` is the join before the cut, whatever k keeps.
                assert outcome.stats.results == size
        plain = {
            "wcoj": MultiwayJoinExecutor(relations, graph, ranking, k).run(),
            "binary": BinaryCascadeExecutor(
                relations, graph, ranking, k, order=order
            ).run(),
        }
        kept = {
            "wcoj": MultiwayJoinExecutor(
                relations, graph, ranking, k, post_filter=odd_positions
            ).run(),
            "binary": BinaryCascadeExecutor(
                relations, graph, ranking, k, post_filter=odd_positions, order=order
            ).run(),
        }
        for kernel in plain:
            assert keys_of(plain[kernel].rows) == expected[:k], (kernel, k, order)
            assert keys_of(kept[kernel].rows) == filtered[:k], (kernel, k, order)
            assert kept[kernel].stats.results == len(filtered)
            # The filter sees every candidate the join formed, no fewer.
            assert (
                kept[kernel].stats.pairs_probed == plain[kernel].stats.pairs_probed
            )


def test_every_row_tied_at_the_floor_is_ordered_by_canonical_key():
    relations = [
        Relation(
            alias=alias,
            tuples=[
                ServiceTuple({"a": 0, "b": 0, "c": 0}, score=0.5, source=alias, position=i)
                for i in range(4)
            ],
        )
        for alias in ("R", "S", "T")
    ]
    expected = keys_of(oracle(relations, triangle_graph(), RankingFunction.uniform("RST")))
    assert len({score for score, _ in expected}) == 1 and len(expected) == 64
    for kernel in TOPK_JOIN_KERNELS:
        outcome = topk_join(relations, triangle_graph(), k=5, kernel=kernel)
        assert outcome.row_keys() == expected[:5], kernel


#: ``MultiwayJoinStatistics`` at the parent commit (6752197) on
#: ``collect_wcoj(scale=1)``, the sweep the E25 test in ``bench_wcoj.py`` runs.
#: Per kernel: results, pairs_probed, max_intermediate, intermediate_rows, seeks.
PARENT_COUNTS = {
    "triangle": {"binary": (47, 3697, 3650, 3650, 0), "wcoj": (47, 200, 0, 0, 141)},
    "cycle4": {"binary": (374, 48225, 45827, 47851, 0), "wcoj": (374, 516, 0, 0, 112)},
    "clique4": {"binary": (27, 7232, 5232, 7205, 0), "wcoj": (27, 1355, 0, 0, 1096)},
    "chain4_anticorrelated": {
        "binary": (32768, 37376, 4096, 4608, 0),
        "wcoj": (32768, 33863, 0, 0, 511),
    },
}


def test_work_counters_repeat_the_parents_on_the_smoke_topologies():
    benchmarks = str(Path(__file__).parents[1] / "benchmarks")
    sys.path.insert(0, benchmarks)
    try:
        bench_wcoj = importlib.import_module("bench_wcoj")
    finally:
        sys.path.remove(benchmarks)
    data = bench_wcoj.collect_wcoj(scale=1)
    assert all(data["gates"].values()), data["gates"]
    fields = ("results", "pairs_probed", "max_intermediate", "intermediate_rows", "seeks")
    counted = {
        topo["name"]: {
            kernel: tuple(topo[kernel][name] for name in fields)
            for kernel in ("binary", "wcoj")
        }
        for topo in data["topologies"]
    }
    assert counted == PARENT_COUNTS
