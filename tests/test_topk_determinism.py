"""Satellite: cross-kernel tie-order determinism (ISSUE 10).

Quantized scores manufacture score ties on purpose; the binary cascade,
leapfrog triejoin, and ranked enumerator must still emit byte-identical
``(score, canonical row key)`` sequences — the property that makes
``topk_join(kernel=)`` a choice of work profile, never of results.
"""

import random

import pytest

from repro.joins.topk import TOPK_JOIN_KERNELS, topk_join
from repro.joins.wcoj import (
    EquiPredicate,
    JoinGraph,
    Relation,
    triangle_graph,
)
from repro.model.tuples import RankingFunction, ServiceTuple


def tied_relation(alias, n, domains, seed, quantum=10):
    """Scores rounded to 1/quantum so many tuples share a score."""
    rng = random.Random(seed)
    raw = sorted((rng.random() for _ in range(n)), reverse=True)
    return Relation(
        alias=alias,
        tuples=[
            ServiceTuple(
                {attr: rng.randrange(dom) for attr, dom in domains.items()},
                score=round(round(score * quantum) / quantum, 9),
                source=alias,
                position=i,
            )
            for i, score in enumerate(raw)
        ],
    )


def assert_kernels_agree(relations, graph, k, ranking=None):
    keys = {
        kernel: topk_join(
            relations, graph, ranking=ranking, k=k, kernel=kernel
        ).row_keys()
        for kernel in TOPK_JOIN_KERNELS
    }
    assert keys["binary"] == keys["wcoj"] == keys["ranked"], {
        kernel: key[:3] for kernel, key in keys.items()
    }
    return keys["binary"]


@pytest.mark.parametrize("seed", range(6))
def test_triangle_tie_order_identical_across_kernels(seed):
    relations = [
        tied_relation("R", 45, {"a": 5, "b": 3}, seed),
        tied_relation("S", 45, {"b": 3, "c": 3}, seed + 100),
        tied_relation("T", 45, {"c": 3, "a": 5}, seed + 200),
    ]
    keys = assert_kernels_agree(relations, triangle_graph(), k=20)
    scores = [score for score, _ in keys]
    # The quantized workload actually produced ties (else the test is
    # vacuous) and the shared order is score-descending.
    assert len(set(scores)) < len(scores)
    assert scores == sorted(scores, reverse=True)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chain_tie_order_identical_across_kernels(seed):
    relations = [
        tied_relation("A", 40, {"x": 3}, seed + 7),
        tied_relation("B", 40, {"x": 3, "y": 3}, seed + 8),
        tied_relation("C", 40, {"y": 3}, seed + 9),
    ]
    graph = JoinGraph(
        ("A", "B", "C"),
        (
            EquiPredicate("A", "x", "B", "x"),
            EquiPredicate("B", "y", "C", "y"),
        ),
    )
    assert_kernels_agree(relations, graph, k=15)


@pytest.mark.parametrize("seed", [0, 1])
def test_weighted_ties_identical_across_kernels(seed):
    # Zero-weighting one relation makes *every* extension of a prefix
    # tie — the harshest case for the enumeration order contract.
    relations = [
        tied_relation("R", 35, {"a": 4, "b": 3}, seed + 30, quantum=5),
        tied_relation("S", 35, {"b": 3, "c": 3}, seed + 31, quantum=5),
        tied_relation("T", 35, {"c": 3, "a": 4}, seed + 32, quantum=5),
    ]
    ranking = RankingFunction({"R": 0.7, "S": 0.3, "T": 0.0})
    assert_kernels_agree(relations, triangle_graph(), k=20, ranking=ranking)


def test_all_tuples_tied_enumerates_by_canonical_key():
    relations = [
        Relation(
            alias=alias,
            tuples=[
                ServiceTuple(
                    {"a": i % 2, "b": i % 2}
                    if alias == "R"
                    else {"b": i % 2, "c": i % 2}
                    if alias == "S"
                    else {"c": i % 2, "a": i % 2},
                    score=0.5,
                    source=alias,
                    position=i,
                )
                for i in range(6)
            ],
        )
        for alias in ("R", "S", "T")
    ]
    keys = assert_kernels_agree(relations, triangle_graph(), k=10)
    assert keys, "fully tied join must still produce rows"
    assert all(score == 0.5 for score, _ in keys)
    # Ties resolve by canonical row key, ascending.
    row_ids = [key for _, key in keys]
    assert row_ids == sorted(row_ids)
