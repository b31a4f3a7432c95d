"""Hash-indexed join kernels must be invisible except in the counters.

Covers the join hot-path work: the hash-indexed combination assembly in
:mod:`repro.engine.executor`, the LRU bound on the executor's invocation
memo, and the memoized ranking-order validation of ``ListChunkSource``.
"""

import random

import pytest

from repro.engine.executor import PlanExecutor
from repro.errors import ExecutionError
from repro.joins.methods import ListChunkSource
from repro.model.scoring import LinearScoring
from repro.model.tuples import ServiceTuple
from repro.services.marts import CONFERENCE_INPUTS, RUNNING_EXAMPLE_INPUTS
from repro.services.simulated import ServicePool


def ranked_tuples(n, source, seed=0, keys=7):
    rng = random.Random(seed)
    scoring = LinearScoring(horizon=max(n, 2))
    return [
        ServiceTuple(
            {"key": rng.randrange(keys)},
            score=scoring.score_at(i),
            source=source,
            position=i,
        )
        for i in range(n)
    ], scoring


def test_list_chunk_source_rejects_unranked_repeatedly():
    scoring = LinearScoring(horizon=10)
    bad = [
        ServiceTuple({"k": 0}, score=0.2, source="B", position=0),
        ServiceTuple({"k": 1}, score=0.9, source="B", position=1),
    ]
    for _ in range(2):  # rejected at every construction
        with pytest.raises(ExecutionError):
            ListChunkSource(bad, 2, scoring)


def test_list_chunk_source_rewraps_a_list_and_rejects_its_reverse():
    good, scoring = ranked_tuples(20, "G")
    ListChunkSource(good, 5, scoring)
    # Wrapping the same list again chunks it from the start.
    again = ListChunkSource(good, 5, scoring)
    assert again.next_chunk() == good[:5]
    other = list(reversed(good))
    with pytest.raises(ExecutionError):
        ListChunkSource(other, 5, scoring)


def test_executor_hash_assembly_matches_nested_loop(
    conference_query, conference_registry, movie_query, movie_registry
):
    from repro.core.optimizer import Optimizer, OptimizerConfig

    for query, registry, inputs in (
        (conference_query, conference_registry, CONFERENCE_INPUTS),
        (movie_query, movie_registry, RUNNING_EXAMPLE_INPUTS),
    ):
        best = Optimizer(query, OptimizerConfig()).optimize().best

        def run(disable_hash):
            executor = PlanExecutor(
                best.plan,
                query,
                ServicePool(registry, global_seed=11),
                dict(inputs),
                best.fetch_vector(),
            )
            if disable_hash:
                # A decline reason sends every join to the nested loop.
                executor._equi_join_keys = lambda *a: "non_eq"
            return executor.run()

        hashed, nested = run(False), run(True)
        assert [
            (c.score, sorted(c.components.items())) for c in hashed.tuples
        ] == [(c.score, sorted(c.components.items())) for c in nested.tuples]
        assert hashed.total_candidates == nested.total_candidates
        assert hashed.pairs_probed <= nested.pairs_probed


def test_triangular_cutoff_matches_linear_scan():
    for n_left in (1, 3, 7, 25):
        for n_right in (1, 4, 10):
            for i in range(n_left):
                expected = sum(
                    1
                    for j in range(n_right)
                    if (i / n_left + j / n_right) < 1.0
                )
                assert (
                    PlanExecutor._triangular_cutoff(i, n_left, n_right, n_right)
                    == expected
                ), (i, n_left, n_right)


def run_movie(movie_query, movie_registry, **kwargs):
    from repro.core.optimizer import Optimizer, OptimizerConfig

    best = Optimizer(movie_query, OptimizerConfig()).optimize().best
    executor = PlanExecutor(
        best.plan,
        movie_query,
        ServicePool(movie_registry, global_seed=5),
        dict(RUNNING_EXAMPLE_INPUTS),
        best.fetch_vector(),
        **kwargs,
    )
    return executor.run()


def test_invocation_cache_counters(movie_query, movie_registry):
    result = run_movie(movie_query, movie_registry)
    assert result.cache_stats.misses > 0
    assert result.cache_stats.evictions == 0


def test_invocation_cache_lru_bound_preserves_results(
    movie_query, movie_registry
):
    unbounded = run_movie(
        movie_query, movie_registry, invocation_cache_size=None
    )
    tiny = run_movie(movie_query, movie_registry, invocation_cache_size=1)
    # A 1-entry cache evicts constantly but never changes results (a miss
    # re-invokes; the pool serves deterministic content per binding).
    assert [c.score for c in tiny.tuples] == [c.score for c in unbounded.tuples]
    assert tiny.cache_stats.misses >= unbounded.cache_stats.misses
    if unbounded.cache_stats.misses > 1:
        assert tiny.cache_stats.evictions > 0


def test_invocation_cache_size_must_be_positive(movie_query, movie_registry):
    from repro.core.optimizer import Optimizer, OptimizerConfig

    best = Optimizer(movie_query, OptimizerConfig()).optimize().best
    with pytest.raises(ExecutionError):
        PlanExecutor(
            best.plan,
            movie_query,
            ServicePool(movie_registry, global_seed=5),
            dict(RUNNING_EXAMPLE_INPUTS),
            best.fetch_vector(),
            invocation_cache_size=0,
        )


# -- the shared-alias kernel: no predicate, keyed on the shared upstream row ------


def _scenario_joins():
    """The shopping and scholar plans: two branches piped from one upstream
    alias ``P``, joined on nothing but agreement on it."""
    from repro.core.optimizer import Optimizer, OptimizerConfig
    from repro.query.compile import compile_query
    from repro.query.parser import parse_query
    from repro.services.scenarios import SCENARIOS

    for name in ("shopping", "scholar"):
        pack = SCENARIOS[name]
        registry = pack.registry_factory()
        query = compile_query(parse_query(pack.query_text), registry)
        best = Optimizer(query, OptimizerConfig()).optimize().best
        (join,) = best.plan.join_nodes()
        assert not join.predicates
        yield name, registry, query, best, dict(pack.default_inputs), join


SCENARIO_JOINS = list(_scenario_joins())


@pytest.mark.parametrize("case", SCENARIO_JOINS, ids=lambda case: case[0])
@pytest.mark.parametrize("completion", ["rectangular", "triangular"])
@pytest.mark.parametrize("seed,boost", [(2009, 1), (7, 4)])
def test_hash_shared_is_the_nested_loop_with_fewer_probes(
    case, completion, seed, boost
):
    import dataclasses

    from repro.joins.spec import CompletionStrategy

    _, registry, query, best, inputs, join = case
    # The same plan under either completion strategy (nodes are frozen).
    plan = best.plan.copy()
    plan.nodes[join.node_id] = dataclasses.replace(
        join,
        method=dataclasses.replace(
            join.method, completion=CompletionStrategy(completion)
        ),
    )

    def run(nested):
        executor = PlanExecutor(
            plan,
            query,
            ServicePool(registry, global_seed=seed),
            inputs,
            {a: f * boost for a, f in best.fetch_vector().items()},
            k=10**6,
        )
        if nested:
            executor._equi_join_keys = lambda *a: "non_eq"
        return executor.run()

    hashed, nested = run(False), run(True)
    assert hashed.node_stats[join.node_id].dispatch == "hash_shared"
    assert [(c.score, list(c.components.items())) for c in hashed.tuples] == [
        (c.score, list(c.components.items())) for c in nested.tuples
    ]
    # The logical tile area is the kernel's business no more than before ...
    assert hashed.total_candidates == nested.total_candidates
    ours, theirs = hashed.node_stats[join.node_id], nested.node_stats[join.node_id]
    assert (ours.tin, ours.tout) == (theirs.tin, theirs.tout)
    # ... but every probed pair agrees on the shared row, so it is produced.
    assert ours.pairs_probed == ours.tout > 0
    assert theirs.pairs_probed == nested.total_candidates > ours.pairs_probed


def _shared_rows(alias, upstream, scores):
    """One branch: ``{U: upstream[i], alias: tuple}`` rows, best first."""
    from repro.model.tuples import CompositeTuple

    return [
        CompositeTuple(
            {"U": up, alias: ServiceTuple({"n": n}, score=score, source=alias, position=n)},
            score,
        )
        for n, (up, score) in enumerate(zip(upstream, scores))
    ]


def _probe(left, right, completion, nested=False, runner=None):
    """A predicate-less join of ``left`` and ``right``: ``(rows by tuple
    identity, pair count, join.probe span attributes)``."""
    from repro.joins.spec import CompletionStrategy
    from repro.obs.tracer import Tracer
    from tests.test_predicate_lowering import executor, join_node

    runner = runner or executor()
    runner.tracer = tracer = Tracer()
    if nested:
        runner._equi_join_keys = lambda *a: "non_eq"
    out, pair_count = runner._run_parallel_join(
        join_node([], CompletionStrategy(completion)), left, right
    )
    (span,) = [s for s in tracer.spans if s.name == "join.probe"]
    rows = [(c.score, [(a, id(t)) for a, t in c.components.items()]) for c in out]
    return rows, pair_count, span.attrs


@pytest.mark.parametrize("completion", ["rectangular", "triangular"])
def test_hash_shared_keeps_the_nested_loops_order_under_ties(completion):
    # Three upstream rows, two of them *equal* tuples that are distinct
    # objects (agreement is ``==``, as in the nested loop), every score tied.
    ups = [
        ServiceTuple({"u": 0}, source="U", position=0),
        ServiceTuple({"u": 0}, source="U", position=0),
        ServiceTuple({"u": 1}, source="U", position=1),
    ]
    left = _shared_rows("L", [ups[i % 3] for i in range(9)], [0.5] * 9)
    right = _shared_rows("R", [ups[(2 * i) % 3] for i in range(7)], [0.5] * 7)
    hashed, hashed_pairs, attrs = _probe(left, right, completion)
    nested, nested_pairs, nested_attrs = _probe(left, right, completion, nested=True)
    assert hashed == nested and len(hashed) > 1
    assert hashed_pairs == nested_pairs
    assert (attrs["kernel"], attrs["dispatch"]) == ("hash_indexed", "hash_shared")
    assert attrs["pairs_probed"] == attrs["produced"] == len(hashed)
    assert nested_attrs["pairs_probed"] == nested_pairs > len(hashed)


def test_nothing_shared_is_still_the_cross_product():
    from repro.model.tuples import CompositeTuple

    def plain(alias, count):
        return [
            CompositeTuple(
                {alias: ServiceTuple({"n": n}, source=alias, position=n)}, 1.0
            )
            for n in range(count)
        ]

    rows, pair_count, attrs = _probe(plain("L", 3), plain("R", 4), "rectangular")
    assert (attrs["kernel"], attrs["dispatch"]) == ("nested_loop", "no_predicates")
    assert len(rows) == pair_count == attrs["pairs_probed"] == 12


def test_shared_alias_join_falls_back_with_its_reason():
    odd = ServiceTuple({"u": bytearray(b"x")}, source="U")
    left, right = _shared_rows("L", [odd], [1.0]), _shared_rows("R", [odd], [1.0])
    rows, _, attrs = _probe(left, right, "rectangular")
    assert (attrs["kernel"], attrs["dispatch"]) == ("nested_loop", "unhashable_key")
    assert len(rows) == 1
    from tests.test_predicate_lowering import executor

    up = ServiceTuple({"u": 0}, source="U")
    left, right = _shared_rows("L", [up], [1.0]), _shared_rows("R", [up], [1.0])
    degraded = executor()
    degraded.failed_aliases.add("X")
    rows, _, attrs = _probe(left, right, "rectangular", runner=degraded)
    assert (attrs["kernel"], attrs["dispatch"]) == ("nested_loop", "degraded")
    assert len(rows) == 1
    assert _probe(left, [], "rectangular")[2]["dispatch"] == "empty_side"
