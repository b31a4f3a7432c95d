"""E25 — worst-case-optimal multiway joins vs. the binary cascade.

On cyclic join graphs the binary cascade pays for every intermediate
pair even when the closed cycle count is tiny: a skewed triangle
``R(a,b) |><| S(b,c) |><| T(c,a)`` with popular ``b``/``c`` values but a
sparse closing attribute ``a`` forms ``|R |><| S|`` pairs only to throw
nearly all of them away.  The leapfrog triejoin kernel
(:class:`~repro.joins.wcoj.MultiwayJoinExecutor`) intersects one join
variable at a time — its frontier is one key per relation, never an
intermediate relation — and the ranked enumerator
(:class:`~repro.joins.ranked.RankedEnumerator`) extends that with a
priority queue over scored prefixes, emitting the global top-k while
materializing only a fraction of the full join — and, since ISSUE 13,
doing only a fraction of its work (reducer, cycle-closing level order,
join-aware completion bounds).

Measured per topology (triangle, 4-cycle, 4-clique, and a dense
anti-correlated 4-chain with no dangling tuples):

* byte-identical top-k row keys across the binary, wcoj, and ranked
  kernels (the determinism contract);
* intermediate pairs probed by the cascade vs. leapfrog seeks — the
  worst-case-optimality win (gated >= 5x on the skewed triangle);
* peak materialized intermediate (wcoj: always zero);
* rows the ranked enumerator materialized vs. the full join size — the
  laziness win in rows — and its queue pops vs. the leapfrog probes of
  the *full* join, plus pops per result on acyclic graphs — the
  laziness win in work;
* ``wall_ms`` per kernel (one run each; informational, not gated —
  shared CI runners are too noisy for a wall gate).

``collect_wcoj(scale=1)`` is the sweep the E25 test runs and asserts;
``tests/test_join_kernels_differential.py`` runs the same sweep in
tier-1, asserts every gate and pins the work counters.
"""

import random
import time

from conftest import report

from repro.joins.topk import TOPK_JOIN_KERNELS, topk_join
from repro.joins.wcoj import EquiPredicate, JoinGraph, Relation, triangle_graph
from repro.model.tuples import ServiceTuple

#: Gate: cascade pairs probed >= PROBE_RATIO_GATE x wcoj pairs probed on
#: the skewed triangle (the ISSUE 10 acceptance threshold).
PROBE_RATIO_GATE = 5.0


def make_relation(alias, n, domains, seed):
    """``n`` scored tuples with per-attribute value domains.

    Tuples are score-descending (position = rank), as a drained ranked
    chunk source would deliver them.
    """
    rng = random.Random(seed)
    scored = sorted((rng.random() for _ in range(n)), reverse=True)
    return Relation(
        alias=alias,
        tuples=[
            ServiceTuple(
                {attr: rng.randrange(dom) for attr, dom in domains.items()},
                score=round(score, 9),
                source=alias,
                position=i,
            )
            for i, score in enumerate(scored)
        ],
    )


def triangle_case(n, seed):
    """Skewed triangle: popular ``b``/``c``, sparse closing ``a``.

    Small ``b``/``c`` domains make the cascade's first intermediate
    ``R |><| S`` quadratic-ish, while the wide ``a`` domain keeps closed
    triangles rare; leapfrog orders the sparse shared variable first and
    prunes before any pair is formed.
    """
    domains = {"a": 40 * n, "b": 4, "c": 4}
    relations = [
        make_relation("R", n, {"a": domains["a"], "b": domains["b"]}, seed),
        make_relation("S", n, {"b": domains["b"], "c": domains["c"]}, seed + 1),
        make_relation("T", n, {"c": domains["c"], "a": domains["a"]}, seed + 2),
    ]
    # A few guaranteed closures so the join is never empty: rewrite a
    # handful of T rows to close an existing (R, S) path.
    rng = random.Random(seed + 3)
    r_rel, s_rel, t_rel = relations
    for slot in range(max(3, n // 40)):
        r = rng.choice(r_rel.tuples)
        s_matches = [t for t in s_rel.tuples if t.values["b"] == r.values["b"]]
        if not s_matches:
            continue
        s = rng.choice(s_matches)
        victim = t_rel.tuples[rng.randrange(len(t_rel.tuples))]
        t_rel.tuples[victim.position] = ServiceTuple(
            {"c": s.values["c"], "a": r.values["a"]},
            score=victim.score,
            source=victim.source,
            position=victim.position,
        )
    return relations, triangle_graph()


def cycle4_case(n, seed):
    """4-cycle A(a,b) B(b,c) C(c,d) D(d,a), sparse on the closing ``a``."""
    wide, narrow = 40 * n, 4
    relations = [
        make_relation("A", n, {"a": wide, "b": narrow}, seed),
        make_relation("B", n, {"b": narrow, "c": narrow}, seed + 1),
        make_relation("C", n, {"c": narrow, "d": narrow}, seed + 2),
        make_relation("D", n, {"d": narrow, "a": wide}, seed + 3),
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
    rng = random.Random(seed + 4)
    a_rel, b_rel, c_rel, d_rel = relations
    for _ in range(max(3, n // 40)):
        a = rng.choice(a_rel.tuples)
        b_matches = [t for t in b_rel.tuples if t.values["b"] == a.values["b"]]
        if not b_matches:
            continue
        b = rng.choice(b_matches)
        c_matches = [t for t in c_rel.tuples if t.values["c"] == b.values["c"]]
        if not c_matches:
            continue
        c = rng.choice(c_matches)
        victim = d_rel.tuples[rng.randrange(len(d_rel.tuples))]
        d_rel.tuples[victim.position] = ServiceTuple(
            {"d": c.values["d"], "a": a.values["a"]},
            score=victim.score,
            source=victim.source,
            position=victim.position,
        )
    return relations, graph


def clique4_case(n, seed):
    """4-clique: six edge relations over one random graph's edge list.

    The classic worst-case-optimal showpiece — every pair of the four
    vertex variables is constrained, so the cascade's intermediates
    carry open wedges the leapfrog intersection never forms.
    """
    rng = random.Random(seed)
    vertices = max(8, n // 6)
    edges = sorted(
        {
            tuple(sorted((rng.randrange(vertices), rng.randrange(vertices))))
            for _ in range(n)
        }
    )
    edges = [e for e in edges if e[0] != e[1]]
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    relations = []
    for u, v in pairs:
        alias = f"E{u}{v}"
        scored = sorted((rng.random() for _ in edges), reverse=True)
        relations.append(
            Relation(
                alias=alias,
                tuples=[
                    ServiceTuple(
                        {f"v{u}": a, f"v{v}": b},
                        score=round(score, 9),
                        source=alias,
                        position=i,
                    )
                    for i, ((a, b), score) in enumerate(zip(edges, scored))
                ],
            )
        )
    predicates = []
    by_vertex = {}
    for (u, v), relation in zip(pairs, relations):
        by_vertex.setdefault(u, []).append((relation.alias, f"v{u}"))
        by_vertex.setdefault(v, []).append((relation.alias, f"v{v}"))
    for occurrences in by_vertex.values():
        first_alias, first_attr = occurrences[0]
        predicates.extend(
            EquiPredicate(first_alias, first_attr, alias, attr)
            for alias, attr in occurrences[1:]
        )
    return relations, JoinGraph(tuple(r.alias for r in relations), tuple(predicates))


def chain4_anticorrelated_case(n, domain, seed):
    """Dense 4-chain A(x) B(x,y) C(y,z) D(z) whose best tuples never meet.

    Every value of every domain occurs in every column (no dangling
    tuples, so a reducer removes nothing), each tuple has ``n / domain``
    partners per neighbour (``n * (n / domain)**3`` join rows), and the
    shared values run *against* the scores: the left relation's best
    tuples carry the small values of a variable, the right relation's
    best tuples the large ones.  A bound built from each relation's
    global top score is therefore far above anything that joins; only a
    bound that knows what joins stays near ``levels`` pops per result.
    """
    block = n // domain
    rng = random.Random(seed)

    def relation(alias, columns):
        scored = sorted((rng.random() for _ in range(n)), reverse=True)
        return Relation(
            alias=alias,
            tuples=[
                ServiceTuple(
                    {attr: value(rank) for attr, value in columns.items()},
                    score=round(score, 9),
                    source=alias,
                    position=rank,
                )
                for rank, score in enumerate(scored)
            ],
        )

    def rising(rank):
        return rank // block

    def falling(rank):
        return domain - 1 - rank // block

    def spread(rank):
        return rank % domain

    relations = [
        relation("A", {"x": rising}),
        relation("B", {"x": falling, "y": spread}),
        relation("C", {"y": falling, "z": spread}),
        relation("D", {"z": falling}),
    ]
    graph = JoinGraph(
        ("A", "B", "C", "D"),
        (
            EquiPredicate("A", "x", "B", "x"),
            EquiPredicate("B", "y", "C", "y"),
            EquiPredicate("C", "z", "D", "z"),
        ),
    )
    return relations, graph


def run_topology(name, relations, graph, k):
    """All three kernels on one topology; returns the comparison row."""
    outcomes, wall_ms = {}, {}
    for kernel in TOPK_JOIN_KERNELS:
        started = time.perf_counter()
        outcomes[kernel] = topk_join(relations, graph, k=k, kernel=kernel)
        wall_ms[kernel] = round((time.perf_counter() - started) * 1e3, 2)
    binary, wcoj = outcomes["binary"].stats, outcomes["wcoj"].stats
    ranked = outcomes["ranked"].stats
    full_rows = wcoj.results  # wcoj enumerates the full join before the cut
    if 1 < full_rows <= k:
        # The whole join fits in k: every kernel must assemble all of it
        # and there is no laziness to measure.  Ask for half of it.
        return run_topology(name, relations, graph, full_rows // 2)
    keys = {kernel: out.row_keys() for kernel, out in outcomes.items()}
    identical = keys["binary"] == keys["wcoj"] == keys["ranked"]
    probe_ratio = binary.pairs_probed / max(1, wcoj.pairs_probed)
    return {
        "name": name,
        "relations": len(relations),
        "tuples_per_relation": len(relations[0]),
        "k": k,
        "cyclic": graph.is_cyclic(),
        "full_join_rows": full_rows,
        "topk_identical": identical,
        "binary": binary.as_dict(),
        "wcoj": wcoj.as_dict(),
        "ranked": ranked.as_dict(),
        "wall_ms": wall_ms,
        "probe_ratio": round(probe_ratio, 2),
        "ranked_materialized_fraction": round(
            ranked.materialized_rows / max(1, full_rows), 4
        ),
    }


def collect_wcoj(scale=1, seed=2012, k=25):
    """The full sweep + gate evaluation; ``scale`` grows the relations."""
    cases = [
        ("triangle", *triangle_case(120 * scale, seed)),
        ("cycle4", *cycle4_case(90 * scale, seed + 100)),
        ("clique4", *clique4_case(150 * scale, seed + 200)),
        (
            "chain4_anticorrelated",
            *chain4_anticorrelated_case(64 * scale, 8 * scale, seed + 300),
        ),
    ]
    topologies = [
        run_topology(name, relations, graph, k)
        for name, relations, graph in cases
    ]
    by_name = {topo["name"]: topo for topo in topologies}
    triangle = by_name["triangle"]
    gates = {
        "topk_identical_across_kernels": all(
            topo["topk_identical"] for topo in topologies
        ),
        "triangle_probe_ratio_ge_5x": (
            triangle["probe_ratio"] >= PROBE_RATIO_GATE
        ),
        "wcoj_no_intermediates": all(
            topo["wcoj"]["max_intermediate"] == 0
            and topo["binary"]["max_intermediate"] > 0
            for topo in topologies
        ),
        # Lazy in rows: fewer complete rows than the join holds.  Every
        # topology takes part (run_topology lowers k below a small join).
        "ranked_is_lazy": all(
            topo["ranked"]["materialized_rows"] < topo["full_join_rows"]
            for topo in topologies
        ),
        # Lazy in work: top-k costs fewer queue pops than the full
        # leapfrog join costs probes ...
        "ranked_pops_le_wcoj_probes": all(
            topo["ranked"]["pq_pops"] <= topo["wcoj"]["pairs_probed"]
            for topo in topologies
        ),
        # ... and with exact bounds about one pop per level per result.
        "ranked_pops_per_result_le_2x_levels": all(
            topo["ranked"]["pq_pops"]
            <= 2 * topo["relations"] * topo["ranked"]["results"]
            for topo in topologies
            if not topo["cyclic"]
        ),
    }
    return {
        "benchmark": "wcoj",
        "seed": seed,
        "scale": scale,
        "k": k,
        "probe_ratio_gate": PROBE_RATIO_GATE,
        "topologies": topologies,
        "gates": gates,
    }


def _lines(data):
    lines = []
    for topo in data["topologies"]:
        lines.append(
            f"{topo['name']:9s} ({topo['relations']} relations, "
            f"{topo['full_join_rows']} join rows): cascade probed "
            f"{topo['binary']['pairs_probed']}, leapfrog "
            f"{topo['wcoj']['pairs_probed']} ({topo['probe_ratio']}x), "
            f"peak intermediate {topo['binary']['max_intermediate']} vs 0, "
            f"ranked materialized {topo['ranked']['materialized_rows']} "
            f"rows in {topo['ranked']['pq_pops']} pops "
            f"({topo['ranked']['bound']} bound) for top-{topo['k']}; "
            f"wall ms binary/wcoj/ranked "
            + "/".join(str(topo["wall_ms"][kernel]) for kernel in TOPK_JOIN_KERNELS)
            + f"; identical: {topo['topk_identical']}"
        )
    lines.append(
        "gates: "
        + ", ".join(
            f"{name}={'PASS' if ok else 'FAIL'}"
            for name, ok in sorted(data["gates"].items())
        )
    )
    return lines


def test_e25_wcoj_vs_binary_cascade(benchmark):
    data = benchmark.pedantic(lambda: collect_wcoj(scale=1), rounds=1)
    gates = data["gates"]
    assert gates["topk_identical_across_kernels"], "kernels disagree on top-k"
    assert gates["triangle_probe_ratio_ge_5x"], data["topologies"][0]
    assert gates["wcoj_no_intermediates"]
    assert gates["ranked_is_lazy"]
    assert gates["ranked_pops_le_wcoj_probes"]
    assert gates["ranked_pops_per_result_le_2x_levels"]
    benchmark.extra_info["probe_ratio_triangle"] = data["topologies"][0][
        "probe_ratio"
    ]
    report("E25 worst-case-optimal join kernels", _lines(data))

