"""The ``join_kernel`` knob end to end (ISSUE 10 wiring + satellites).

From ``OptimizerConfig`` through plan annotation, the plan cache key,
the executor dispatch, the serving stack, and the CLI artifact-path
plumbing: flipping the kernel may change counters and spans, never
results.
"""

import argparse
import os

import pytest

from repro.core.optimizer import (
    Optimizer,
    OptimizerConfig,
    plan_signature,
    resolve_plan_join_kernel,
)
from repro.engine.executor import PlanExecutor
from repro.errors import OptimizationError
from repro.obs.tracer import Tracer
from repro.query.compile import compile_query
from repro.query.parser import parse_query
from repro.serve.plancache import PlanCache
from repro.services.marts import CONFERENCE_INPUTS, RUNNING_EXAMPLE_INPUTS
from repro.services.simulated import ServicePool
from tests.conftest import serve_seeded


def run_kernel(query, registry, inputs, kernel, tracer=None):
    best = Optimizer(query, OptimizerConfig(join_kernel=kernel)).optimize().best
    executor = PlanExecutor(
        best.plan,
        query,
        ServicePool(registry, global_seed=11),
        dict(inputs),
        best.fetch_vector(),
        join_kernel=best.join_kernel,
        tracer=tracer,
    )
    return executor.run()


def combos(result):
    return [(c.score, sorted(c.components.items())) for c in result.tuples]


# -- engine dispatch ----------------------------------------------------------


def test_kernels_agree_on_example_schemas(
    conference_query, conference_registry, movie_query, movie_registry
):
    for query, registry, inputs in (
        (conference_query, conference_registry, CONFERENCE_INPUTS),
        (movie_query, movie_registry, RUNNING_EXAMPLE_INPUTS),
    ):
        results = {
            kernel: run_kernel(query, registry, inputs, kernel)
            for kernel in ("binary", "wcoj", "auto")
        }
        assert combos(results["binary"]) == combos(results["wcoj"])
        assert combos(results["binary"]) == combos(results["auto"])
        assert results["binary"].join_kernel == "binary"
        assert results["wcoj"].join_kernel == "wcoj"
        # auto resolves at plan time; these single-predicate example
        # plans stay on the binary kernel.
        assert results["auto"].join_kernel == "binary"


def probe_spans(tracer):
    return [span for span in tracer.spans if span.name == "join.probe"]


def test_wcoj_dispatch_emits_leapfrog_spans(
    conference_query, conference_registry, movie_query, movie_registry
):
    # The conference plan joins on equality — its probe runs leapfrog.
    tracer = Tracer()
    run_kernel(
        conference_query, conference_registry, CONFERENCE_INPUTS, "wcoj", tracer
    )
    assert "leapfrog" in {s.attrs.get("kernel") for s in probe_spans(tracer)}
    # The movie plan's Shows join equates M.Title with a *repeating-group*
    # path (T.Movie.Title): a multi-valued key, indexed rather than looped
    # over, under either kernel — and the result set does not move.
    results = {}
    for kernel, expected in (("binary", "hash_multikey"), ("wcoj", "leapfrog")):
        traced = Tracer()
        results[kernel] = run_kernel(
            movie_query, movie_registry, RUNNING_EXAMPLE_INPUTS, kernel, traced
        )
        spans = probe_spans(traced)
        assert {s.attrs["kernel"] for s in spans} == {expected}
        assert {s.attrs["dispatch"] for s in spans} == {expected}
        assert all(
            s.attrs["pairs_probed"] < s.attrs["left"] * s.attrs["right"]
            for s in spans
        )
        assert [
            stats.dispatch
            for stats in results[kernel].node_stats.values()
            if stats.dispatch
        ] == [expected]
    assert combos(results["binary"]) == combos(results["wcoj"])
    assert results["binary"].tuples  # the pinned movie-night answers exist


def test_non_equi_join_falls_back_to_nested_loop(conference_registry):
    # A genuinely non-equi (<) parallel join has no hash key: whatever the
    # kernel knob says, it runs the nested loop and records why.
    query = compile_query(
        parse_query(
            "SELECT Conference1 AS C, Flight1 AS F, Hotel1 AS H "
            "WHERE FliesTo(C, F) AND Venue(C, H) AND F.FPrice < H.HPrice "
            "AND C.Topic = INPUT1 AND F.FromCity = INPUT3 AND F.FDate = INPUT4 "
            "RANK BY 0.5*F, 0.5*H LIMIT 10"
        ),
        conference_registry,
    )
    results = {}
    for kernel in ("binary", "wcoj"):
        tracer = Tracer()
        results[kernel] = run_kernel(
            query, conference_registry, CONFERENCE_INPUTS, kernel, tracer
        )
        (span,) = probe_spans(tracer)
        assert span.attrs["kernel"] == "nested_loop"
        assert span.attrs["dispatch"] == "non_eq"
        assert span.attrs["pairs_probed"] == results[kernel].total_candidates
    assert results["binary"].tuples
    assert combos(results["binary"]) == combos(results["wcoj"])
    for combo in results["binary"].tuples:
        flight, hotel = combo.components["F"], combo.components["H"]
        assert flight.values["FPrice"] < hotel.values["HPrice"]


def test_auto_resolution_is_plan_derived(movie_query):
    best = Optimizer(movie_query, OptimizerConfig()).optimize().best
    assert resolve_plan_join_kernel(best.plan, "binary") == "binary"
    assert resolve_plan_join_kernel(best.plan, "wcoj") == "wcoj"
    assert resolve_plan_join_kernel(best.plan, "auto") in ("binary", "wcoj")
    with pytest.raises(OptimizationError):
        resolve_plan_join_kernel(best.plan, "fused")


def test_optimizer_config_rejects_unknown_kernel():
    with pytest.raises(OptimizationError):
        OptimizerConfig(join_kernel="hash3")


def test_candidate_carries_resolved_kernel(movie_query):
    for requested, resolved in (("binary", "binary"), ("wcoj", "wcoj")):
        best = (
            Optimizer(movie_query, OptimizerConfig(join_kernel=requested))
            .optimize()
            .best
        )
        assert best.join_kernel == resolved
    auto = (
        Optimizer(movie_query, OptimizerConfig(join_kernel="auto"))
        .optimize()
        .best
    )
    assert auto.join_kernel in ("binary", "wcoj")


# -- plan signature + cache (satellite: flip the knob mid-workload) ----------


def test_plan_signature_scopes_by_kernel(movie_query):
    base = plan_signature(movie_query)
    assert plan_signature(movie_query, join_kernel="binary") == base
    assert plan_signature(movie_query, join_kernel="wcoj") != base
    assert plan_signature(movie_query, join_kernel="auto") != base


def test_plan_cache_never_crosses_kernels(movie_query):
    cache = PlanCache()
    binary = cache.plan(
        "movie", movie_query, OptimizerConfig(join_kernel="binary")
    )
    assert (cache.stats.hits, cache.stats.misses) == (0, 1)
    # Flip the knob mid-workload: a fresh compile, not a replay.
    wcoj = cache.plan("movie", movie_query, OptimizerConfig(join_kernel="wcoj"))
    assert (cache.stats.hits, cache.stats.misses) == (0, 2)
    assert len(cache) == 2
    assert binary.join_kernel == "binary" and wcoj.join_kernel == "wcoj"
    # Flip back: the original candidate is still resident and hits.
    again = cache.plan(
        "movie", movie_query, OptimizerConfig(join_kernel="binary")
    )
    assert again is binary
    assert cache.stats.hits == 1


# -- serving digests ----------------------------------------------------------


@pytest.mark.slow
def test_serving_digests_survive_kernel_flip():
    def serve(kernel):
        digests = serve_seeded(
            rate=4.0,
            num_requests=40,
            seed=77,
            optimizer_config=OptimizerConfig(join_kernel=kernel),
        ).digests()
        return digests

    digests_binary = serve("binary")
    assert digests_binary == serve("wcoj")
    assert digests_binary == serve("auto")


# -- CLI artifact-path plumbing (satellite: artifacts/ dir) -------------------


def _args(**kwargs):
    defaults = {
        "artifacts_dir": "artifacts",
        "trace": None,
        "metrics_output": None,
        "prom": None,
        "output": None,
    }
    defaults.update(kwargs)
    return argparse.Namespace(**defaults)


def test_artifact_paths_land_under_artifacts_dir(tmp_path, monkeypatch):
    from repro.cli import _resolve_artifact_paths

    monkeypatch.chdir(tmp_path)
    args = _args(trace="serve-trace.jsonl", prom="serve-metrics.prom")
    _resolve_artifact_paths(args)
    assert args.trace == os.path.join("artifacts", "serve-trace.jsonl")
    assert args.prom == os.path.join("artifacts", "serve-metrics.prom")
    assert (tmp_path / "artifacts").is_dir()
    assert args.output is None  # untouched when unset


def test_artifact_paths_leave_stdout_and_absolute_alone(tmp_path, monkeypatch):
    from repro.cli import _resolve_artifact_paths

    monkeypatch.chdir(tmp_path)
    absolute = str(tmp_path / "elsewhere" / "t.json")
    args = _args(trace="-", output=absolute)
    _resolve_artifact_paths(args)
    assert args.trace == "-"
    assert args.output == absolute
    assert not (tmp_path / "artifacts").exists()  # nothing to place

    disabled = _args(artifacts_dir="", trace="x.jsonl")
    _resolve_artifact_paths(disabled)
    assert disabled.trace == "x.jsonl"


def test_cli_parser_exposes_join_kernel_and_artifacts_dir():
    from repro.cli import build_parser

    parser = build_parser()
    run_args = parser.parse_args(
        ["run", "--schema", "movie", "--join-kernel", "wcoj"]
    )
    assert run_args.join_kernel == "wcoj"
    plan_args = parser.parse_args(["plan", "--join-kernel", "auto"])
    assert plan_args.join_kernel == "auto"
    serve_args = parser.parse_args(
        ["serve-bench", "--join-kernel", "auto", "--artifacts-dir", "out"]
    )
    assert serve_args.join_kernel == "auto"
    assert serve_args.artifacts_dir == "out"
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--join-kernel", "nope"])
