"""The serving benchmark: sharing vs. isolation, quantified.

For each load level (arrival rate), the *identical* seeded workload is
served twice:

* **isolated** — no plan cache, no cross-query invocation cache: every
  request optimizes its own plan and fetches its own chunks, as if each
  client ran the single-query engine alone;
* **shared** — one :class:`~repro.serve.plancache.PlanCache` and one
  cross-query :class:`~repro.engine.executor.InvocationCache` serve all
  requests: repeated query shapes reuse plans, identical service
  invocations coalesce into one set of round trips.

The report records, per level and mode, throughput, p50/p95/p99
virtual-time latency, total service round trips, and cache statistics —
plus a **result digest** per completed request.  The digests prove the
headline safety claim: sharing changes how much work is done and when,
but every request's result list is byte-identical in both modes (the
simulated substrate is deterministic per ``(data seed, interface,
bindings)``, so a cache hit returns exactly what a fresh fetch would).

``gates`` summarises the acceptance checks CI enforces: sharing must
never *increase* round trips, must strictly reduce them and improve p95
latency on the seeded workload, and results must match exactly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Sequence

from repro.obs.serving import serving_metrics_summary
from repro.serve.runtime import serve
from repro.serve.scheduler import (
    ServeConfig,
    ServeReport,
    combined_digest,
    result_digest,
)
from repro.serve.workload import WorkloadConfig, generate_workload

__all__ = [
    "benchmark_report",
    "combined_digest",
    "compare_serving",
    "result_digest",
    "run_serving_benchmark",
    "run_sharding_benchmark",
    "sharing_gates",
]


def _mode_summary(report: ServeReport) -> dict[str, Any]:
    summary = report.summary()
    latency = summary["latency"]
    summary["latency_p50"] = latency.get("p50", 0.0)
    summary["latency_p95"] = latency.get("p95", 0.0)
    summary["latency_p99"] = latency.get("p99", 0.0)
    summary["serving_metrics"] = serving_metrics_summary(report)
    return summary


def compare_serving(
    subject: ServeConfig,
    workload: WorkloadConfig,
    *,
    reference: ServeConfig | None = None,
    load_levels: Sequence[float] = (0.5, 2.0),
    labels: tuple[str, str] = ("reference", "subject"),
    tracer: Any = None,
    slo: Any = None,
    on_level: "Callable[[dict, ServeReport | None, ServeReport], None] | None" = None,
) -> list[dict[str, Any]]:
    """Per load level: reference run, subject run, digests compared.

    The *identical* seeded workload (``workload`` at each rate) is served
    under ``reference`` — when there is one — and under ``subject``
    (observed by ``tracer`` / ``slo``); a level records both summaries
    under ``labels``, whether every request's result digest matched, and
    the subject's combined digest.  ``on_level(level, reference_report,
    subject_report)`` sees the live reports before they are dropped.
    """
    levels: list[dict[str, Any]] = []
    for rate in load_levels:
        stream = generate_workload(subject.templates, replace(workload, rate=rate))
        report = serve(subject, stream, tracer=tracer, slo=slo)
        digests = report.digests()
        level: dict[str, Any] = {
            "rate": rate,
            labels[1]: _mode_summary(report),
            "combined_digest": combined_digest(digests),
        }
        baseline = None
        if reference is not None:
            baseline = serve(reference, stream)
            calls, calls_baseline = report.total_round_trips, baseline.total_round_trips
            level[labels[0]] = _mode_summary(baseline)
            level["results_identical"] = digests == baseline.digests()
            level["round_trip_reduction"] = (
                1.0 - calls / calls_baseline if calls_baseline else 0.0
            )
            for label, run in zip(labels, (baseline, report)):
                level[f"p95_latency_{label}"] = run.latency_summary().get("p95", 0.0)
        levels.append(level)
        if on_level is not None:
            on_level(level, baseline, report)
    return levels


def sharing_gates(levels: Sequence[dict[str, Any]]) -> dict[str, bool]:
    """The acceptance checks of an isolated-vs-shared comparison: sharing
    must never *increase* round trips, must strictly reduce them and
    improve p95 latency on the seeded workload, and results must match."""
    calls = [
        (level["isolated"]["total_round_trips"], level["shared"]["total_round_trips"])
        for level in levels
    ]
    return {
        "results_identical": all(level["results_identical"] for level in levels),
        "shared_never_more_round_trips": all(s <= i for i, s in calls),
        "shared_strictly_fewer_round_trips": all(s < i for i, s in calls),
        "shared_improves_p95_latency": all(
            level["p95_latency_shared"] < level["p95_latency_isolated"]
            for level in levels
        ),
    }


def benchmark_report(
    name: str,
    subject: ServeConfig,
    workload: WorkloadConfig,
    load_levels: Sequence[float],
    levels: Sequence[dict[str, Any]],
    gates: dict[str, bool],
) -> dict[str, Any]:
    """The JSON report of one comparison: what ran, its levels, its gates."""
    return {
        "benchmark": name,
        "seed": workload.seed,
        "num_requests": workload.num_requests,
        "skew": workload.skew,
        "followup_fraction": workload.followup_fraction,
        "max_concurrency": subject.max_concurrency,
        "shards": subject.num_shards,
        "cache_mode": subject.cache_mode,
        "steal": subject.steal,
        "parallel": subject.parallel,
        "backend": subject.backend,
        "load_levels": list(load_levels),
        "levels": list(levels),
        "combined_digest": levels[-1]["combined_digest"],
        "gates": gates,
    }


def run_serving_benchmark(
    config: ServeConfig,
    workload: WorkloadConfig,
    *,
    load_levels: Sequence[float] = (0.5, 2.0),
) -> dict[str, Any]:
    """The full shared-vs-isolated comparison across load levels.

    ``config`` is the shared run; the isolated reference is the same
    config with ``cache_mode="isolated"``.
    """
    shared = replace(config, cache_mode="shared")
    levels = compare_serving(
        shared,
        workload,
        reference=replace(config, cache_mode="isolated"),
        load_levels=load_levels,
        labels=("isolated", "shared"),
    )
    return benchmark_report(
        "serving", shared, workload, load_levels, levels, sharing_gates(levels)
    )


def run_sharding_benchmark(
    config: ServeConfig,
    workload: WorkloadConfig,
    *,
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    include_no_steal: bool = False,
) -> dict[str, Any]:
    """The shard-count sweep behind ``BENCH_sharding.json``.

    One seeded workload (``workload``, over its ``session_space``-sized
    Zipf-skewed session universe) is served by the sharded runtime at
    each shard count with the shared caches on, plus a 1-shard
    **isolated** baseline (no plan cache, no invocation cache — every
    request fetches alone, the PR 4 comparison point for round trips).
    Per-shard ``max_concurrency`` is fixed, so the shard count *is* the
    worker count being scaled.  Serve scaled parameter universes
    (``default_templates(param_scale)``) to keep the workload load-bearing
    at population scale: the Zipf head stays cache-resident while the
    tail sustains real service traffic, so per-shard capacity is actually
    contended and the latency gates can develop (unscaled, ~100 distinct
    bindings go fully resident and p95 collapses to 0 at every count).

    Gates:

    * ``digests_identical`` — every configuration's combined result
      digest is byte-identical (scaling never changes results);
    * ``p95_improves_with_shards`` — p95 strictly decreases 1→max shards
      (what the scaled-down CI sweep enforces);
    * ``p95_superlinear_at_4`` — p95(1 shard)/p95(4 shards) > 4: under
      skew the shared cache turns the extra workers' capacity into
      more-than-proportional latency relief (queueing collapses while
      warm requests bypass service rate limits entirely);
    * ``round_trips_superlinear_at_4`` — round trips(isolated 1-shard) /
      round trips(shared 4-shard) > 4: cache sharing compounds with
      parallelism vs. the each-request-alone baseline.
    """
    requests = generate_workload(config.templates, workload)
    distinct_sessions = len(
        {r.session_id for r in requests if r.session_id is not None}
    )

    configs: list[dict[str, Any]] = []
    for count in shard_counts:
        configs.append(
            {"label": f"shared-{count}", "num_shards": count,
             "cache_mode": "shared", "steal": config.steal}
        )
        if include_no_steal and count > 1:
            configs.append(
                {"label": f"shared-{count}-nosteal", "num_shards": count,
                 "cache_mode": "shared", "steal": False}
            )
    configs.append(
        {"label": "isolated-1", "num_shards": 1,
         "cache_mode": "isolated", "steal": False}
    )

    runs: list[dict[str, Any]] = []
    by_label: dict[str, dict[str, Any]] = {}
    for variant in configs:
        report = serve(
            replace(config, **{k: v for k, v in variant.items() if k != "label"}),
            requests,
            digest_fn=result_digest,
        )
        digests = report.digests()
        latency = report.latency_summary()
        steals = report.metrics.counters.get("serve.steals")
        entry = {
            **variant,
            "digest": combined_digest(digests),
            "completed": len(digests),
            "by_status": report.by_status(),
            "makespan": report.makespan,
            "throughput": report.throughput,
            "total_round_trips": report.total_round_trips,
            "latency_p50": latency.get("p50", 0.0),
            "latency_p95": latency.get("p95", 0.0),
            "latency_p99": latency.get("p99", 0.0),
            "queue_wait": report.metrics.histogram("serve.queue_wait").summary(),
            "steals": int(steals.value) if steals is not None else 0,
            "admission_peak": report.admission_peak,
            "plan_cache": report.plan_cache_stats,
            "invocation_cache": report.invocation_cache_stats,
            "world": report.world_stats,
            "shards": report.shard_stats,
            "serving_metrics": serving_metrics_summary(report),
        }
        runs.append(entry)
        by_label[entry["label"]] = entry

    sweep_labels = [f"shared-{count}" for count in shard_counts]
    digests_identical = (
        len({run["digest"] for run in runs}) == 1
        and all(run["completed"] == runs[0]["completed"] for run in runs)
    )
    p95_by_count = {
        count: by_label[f"shared-{count}"]["latency_p95"]
        for count in shard_counts
    }
    ordered = sorted(shard_counts)
    p95_improves = all(
        p95_by_count[b] < p95_by_count[a]
        for a, b in zip(ordered, ordered[1:])
    )
    ratios: dict[str, float] = {}
    gates: dict[str, bool] = {
        "digests_identical": digests_identical,
        "p95_improves_with_shards": p95_improves,
    }
    if 1 in shard_counts and 4 in shard_counts:
        base_p95 = p95_by_count[1]
        p95_speedup = base_p95 / p95_by_count[4] if p95_by_count[4] else 0.0
        rt_isolated = by_label["isolated-1"]["total_round_trips"]
        rt_shared4 = by_label["shared-4"]["total_round_trips"]
        rt_reduction = rt_isolated / rt_shared4 if rt_shared4 else 0.0
        ratios["p95_speedup_4_vs_1"] = p95_speedup
        ratios["round_trip_reduction_4_vs_isolated_1"] = rt_reduction
        gates["p95_superlinear_at_4"] = p95_speedup > 4.0
        gates["round_trips_superlinear_at_4"] = rt_reduction > 4.0
    return {
        "benchmark": "sharding",
        "seed": workload.seed,
        "num_requests": workload.num_requests,
        "rate": workload.rate,
        "skew": workload.skew,
        "followup_fraction": workload.followup_fraction,
        "max_concurrency": config.max_concurrency,
        "session_space": workload.session_space,
        "distinct_sessions": distinct_sessions,
        "shard_counts": list(shard_counts),
        "sweep": sweep_labels,
        "runs": runs,
        "ratios": ratios,
        "gates": gates,
    }
