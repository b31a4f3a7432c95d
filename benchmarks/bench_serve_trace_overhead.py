"""E24 — serving observability overhead: tracing must be free when off.

ISSUE 9 threads the PR-3 observability layer through the serving
runtime: per-request span trees, SLO accounting, sampled queue-depth
time series, Prometheus export.  The contract mirrors E19's for the
single-query engine, at serving scale:

* with everything off (``NULL_TRACER``, no SLO tracker, no sampling)
  the instrumented scheduler pays well under 5 % of serve wall time for
  the disabled-path plumbing;
* turning it all on changes **no** per-request result digest.

Method (same as E19): the disabled path's cost is counted directly —
every span an enabled run records sits behind one ``tracer.enabled``
guard, so ``spans x (guard + no-op span)`` over-counts what the
disabled run actually pays — and compared against the measured untraced
wall time of the same 4-shard serve.

Run standalone (``python benchmarks/bench_serve_trace_overhead.py``) to
(re)generate ``BENCH_serve_observability.json`` plus the trace/metrics
artifacts CI uploads under ``artifacts/`` (``serve-trace.json`` Chrome
trace with one swimlane per shard, ``serve-metrics.prom`` Prometheus
snapshot); the exit code reflects the gates.
"""

import time

import pytest

from conftest import report

from repro.obs.serving import SloTracker, serving_metrics_summary
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.serve import ServeConfig, WorkloadConfig, serve
from repro.serve.bench import combined_digest, result_digest
from repro.serve.workload import default_templates

SEED = 2009
RATE = 4.0
NUM_SHARDS = 4
NUM_REQUESTS = 5_000
SESSION_SPACE = 1_000_000
PARAM_SCALE = 2

#: Acceptance: disabled-path plumbing under 5% of serve wall time.
MAX_NOOP_SHARE = 0.05


def _serve(tracer=None, slo=None, sample_metrics=False, num_requests=NUM_REQUESTS):
    report = serve(
        ServeConfig(
            templates=default_templates(PARAM_SCALE),
            data_seed=SEED,
            num_shards=NUM_SHARDS,
            queue_limit=1_000_000,
            default_service_rate=4.0,
            sample_metrics=sample_metrics,
        ),
        WorkloadConfig(
            num_requests=num_requests,
            rate=RATE,
            seed=SEED,
            session_space=SESSION_SPACE,
        ),
        tracer=tracer,
        slo=slo,
        digest_fn=result_digest,
    )
    return report, report.digests()


def _noop_costs(iterations=200_000):
    """Per-operation cost of the disabled path, in seconds."""
    tracer = NULL_TRACER

    started = time.perf_counter()
    for _ in range(iterations):
        if tracer.enabled:  # pragma: no cover - never taken
            pass
    guard_cost = (time.perf_counter() - started) / iterations

    started = time.perf_counter()
    for _ in range(iterations):
        with tracer.span("x"):
            pass
    span_cost = (time.perf_counter() - started) / iterations
    return guard_cost, span_cost


def collect_serve_trace_overhead(num_requests=NUM_REQUESTS):
    """Measure the no-op observability cost of one 4-shard serve."""
    started = time.perf_counter()
    _, digests_off = _serve(num_requests=num_requests)
    wall_off = time.perf_counter() - started

    tracer = Tracer()
    slo = SloTracker()
    started = time.perf_counter()
    traced_report, digests_on = _serve(
        tracer=tracer,
        slo=slo,
        sample_metrics=True,
        num_requests=num_requests,
    )
    wall_on = time.perf_counter() - started

    spans = len(tracer.spans)
    guard_cost, span_cost = _noop_costs()
    noop_seconds = spans * (guard_cost + span_cost)
    share = noop_seconds / wall_off if wall_off > 0 else 0.0

    by_shard: dict[int, int] = {}
    for span in tracer.spans:
        shard = span.attrs.get("shard")
        if isinstance(shard, int):
            by_shard[shard] = by_shard.get(shard, 0) + 1

    return {
        "workload": (
            f"{num_requests} requests, rate {RATE}, {NUM_SHARDS} shards, "
            f"param scale {PARAM_SCALE}"
        ),
        "serve_wall_seconds": round(wall_off, 6),
        "serve_wall_seconds_traced": round(wall_on, 6),
        "spans_recorded_when_enabled": spans,
        "spans_by_shard": {str(k): v for k, v in sorted(by_shard.items())},
        "noop_guard_cost_ns": round(guard_cost * 1e9, 2),
        "noop_span_cost_ns": round(span_cost * 1e9, 2),
        "noop_overhead_seconds": round(noop_seconds, 9),
        "noop_overhead_share": round(share, 6),
        "max_noop_share": MAX_NOOP_SHARE,
        "digests_identical": digests_on == digests_off,
        "combined_digest": combined_digest(digests_on),
        "slo": slo.snapshot(),
        "serving_metrics": serving_metrics_summary(traced_report),
        "_tracer": tracer,
        "_report": traced_report,
        "_slo": slo,
    }


def _public(metrics):
    """The JSON-serialisable slice of the collected metrics."""
    return {k: v for k, v in metrics.items() if not k.startswith("_")}


@pytest.mark.slow
def test_e24_serve_trace_overhead(benchmark):
    # Scaled down for the suite; the standalone path runs the full 5k.
    metrics = benchmark.pedantic(
        lambda: collect_serve_trace_overhead(num_requests=400), rounds=1
    )

    assert metrics["noop_overhead_share"] < MAX_NOOP_SHARE, _public(metrics)
    assert metrics["digests_identical"], _public(metrics)
    assert metrics["spans_recorded_when_enabled"] > 0
    # All four shards show up in the trace (Perfetto swimlane coverage).
    assert len(metrics["spans_by_shard"]) == NUM_SHARDS

    benchmark.extra_info.update(_public(metrics))
    report(
        "E24 — serving observability overhead (4-shard serve)",
        [
            f"serve wall: {metrics['serve_wall_seconds']:.1f}s untraced, "
            f"{metrics['serve_wall_seconds_traced']:.1f}s traced",
            f"spans when enabled: {metrics['spans_recorded_when_enabled']} "
            f"across {len(metrics['spans_by_shard'])} shards",
            f"disabled-path overhead: {metrics['noop_overhead_seconds'] * 1e6:.1f}us "
            f"= {metrics['noop_overhead_share']:.3%} of wall "
            f"(gate: <{MAX_NOOP_SHARE:.0%})",
            f"digests identical with tracing on: {metrics['digests_identical']}",
        ],
    )


if __name__ == "__main__":  # pragma: no cover - standalone report shim
    import json
    import pathlib
    import sys

    from repro.obs.export import write_prometheus, write_trace

    root = pathlib.Path(__file__).resolve().parent.parent
    artifacts = root / "artifacts"
    artifacts.mkdir(exist_ok=True)
    metrics = collect_serve_trace_overhead()
    payload = {
        "benchmark": "serving observability: no-op overhead + trace artifacts "
        "(ISSUE 9)",
        "serve": _public(metrics),
        "gates": {"digests_identical": metrics["digests_identical"]},
    }
    out = root / "BENCH_serve_observability.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")

    tracer = metrics["_tracer"]
    trace_json = artifacts / "serve-trace.json"
    write_trace(tracer.spans, trace_json, fmt="chrome", label="serve")
    print(f"wrote {trace_json} ({len(tracer.spans)} spans, chrome)")
    trace_jsonl = artifacts / "serve-trace.jsonl"
    write_trace(tracer.spans, trace_jsonl, fmt="jsonl")
    print(f"wrote {trace_jsonl}")
    prom = artifacts / "serve-metrics.prom"
    write_prometheus(metrics["_report"].metrics, prom, slo=metrics["_slo"])
    print(f"wrote {prom}")

    ok = (
        metrics["noop_overhead_share"] < MAX_NOOP_SHARE
        and metrics["digests_identical"]
    )
    print(
        f"gates: noop share {metrics['noop_overhead_share']:.3%} "
        f"(<{MAX_NOOP_SHARE:.0%}), digests identical "
        f"{metrics['digests_identical']}"
    )
    sys.exit(0 if ok else 1)
