"""What the engine's parallel joins dispatch to, end to end.

The engine has no kernel knob (DESIGN.md, "Why the engine has no kernel
knob"): an equi-join runs the hash kernels, anything else the nested loop,
and the ``join.probe`` span and the node's run stats say which and why.
The three multiway kernels live in :mod:`repro.joins` behind
``topk_join(kernel=)`` (``tests/test_wcoj.py``, ``tests/test_ranked_*``).
"""

import pytest

from repro.core.optimizer import Optimizer, OptimizerConfig
from repro.engine.executor import PlanExecutor
from repro.obs.tracer import Tracer
from repro.query.compile import compile_query
from repro.query.parser import parse_query
from repro.services.marts import CONFERENCE_INPUTS, RUNNING_EXAMPLE_INPUTS
from repro.services.simulated import ServicePool


def run_traced(query, registry, inputs):
    best = Optimizer(query, OptimizerConfig()).optimize().best
    tracer = Tracer()
    result = PlanExecutor(
        best.plan,
        query,
        ServicePool(registry, global_seed=11),
        dict(inputs),
        best.fetch_vector(),
        tracer=tracer,
    ).run()
    return result, [span for span in tracer.spans if span.name == "join.probe"]


def test_equi_joins_dispatch_to_the_hash_kernels(
    conference_query, conference_registry, movie_query, movie_registry
):
    # The conference plan joins on atomic equality: the plain hash index.
    _, spans = run_traced(conference_query, conference_registry, CONFERENCE_INPUTS)
    assert {s.attrs["kernel"] for s in spans} == {"hash_indexed"}
    assert {s.attrs["dispatch"] for s in spans} == {"hash"}
    # The movie plan's Shows join equates M.Title with a *repeating-group*
    # path (T.Movie.Title): a multi-valued key, indexed rather than looped
    # over.
    result, spans = run_traced(movie_query, movie_registry, RUNNING_EXAMPLE_INPUTS)
    assert {s.attrs["kernel"] for s in spans} == {"hash_multikey"}
    assert {s.attrs["dispatch"] for s in spans} == {"hash_multikey"}
    assert all(
        s.attrs["pairs_probed"] < s.attrs["left"] * s.attrs["right"] for s in spans
    )
    assert [
        stats.dispatch for stats in result.node_stats.values() if stats.dispatch
    ] == ["hash_multikey"]
    assert result.tuples  # the pinned movie-night answers exist


def test_non_equi_join_falls_back_to_nested_loop(conference_registry):
    # A genuinely non-equi (<) parallel join has no hash key: it runs the
    # nested loop and records why.
    query = compile_query(
        parse_query(
            "SELECT Conference1 AS C, Flight1 AS F, Hotel1 AS H "
            "WHERE FliesTo(C, F) AND Venue(C, H) AND F.FPrice < H.HPrice "
            "AND C.Topic = INPUT1 AND F.FromCity = INPUT3 AND F.FDate = INPUT4 "
            "RANK BY 0.5*F, 0.5*H LIMIT 10"
        ),
        conference_registry,
    )
    result, (span,) = run_traced(query, conference_registry, CONFERENCE_INPUTS)
    assert span.attrs["kernel"] == "nested_loop"
    assert span.attrs["dispatch"] == "non_eq"
    assert span.attrs["pairs_probed"] == result.total_candidates
    assert result.tuples
    for combo in result.tuples:
        flight, hotel = combo.components["F"], combo.components["H"]
        assert flight.values["FPrice"] < hotel.values["HPrice"]


def test_optimizer_config_rejects_unknown_kernel(movie_query, movie_registry):
    # Every kernel is unknown now: no layer accepts the deleted knob.
    with pytest.raises(TypeError):
        OptimizerConfig(join_kernel="wcoj")
    best = Optimizer(movie_query, OptimizerConfig()).optimize().best
    assert not hasattr(best, "join_kernel")
    with pytest.raises(TypeError):
        PlanExecutor(
            best.plan,
            movie_query,
            ServicePool(movie_registry, global_seed=11),
            dict(RUNNING_EXAMPLE_INPUTS),
            join_kernel="binary",
        )
