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

import hashlib
from typing import Any, Mapping, Sequence

from repro.core.optimizer import OptimizerConfig
from repro.engine.executor import InvocationCache
from repro.model.tuples import CompositeTuple
from repro.obs.serving import SloTracker, serving_metrics_summary
from repro.serve.plancache import PlanCache
from repro.serve.scheduler import ServeConfig, ServeReport, ServeScheduler
from repro.serve.sessions import SessionManager
from repro.serve.workload import (
    QueryTemplate,
    WorkloadConfig,
    default_templates,
    generate_workload,
)

__all__ = [
    "combined_digest",
    "result_digest",
    "run_serving_benchmark",
    "run_sharding_benchmark",
    "serve_workload",
]


def result_digest(tuples: Sequence[CompositeTuple]) -> str:
    """Stable content hash of a result list (order, components, scores).

    Scores are rounded to 12 decimals purely for printability; both
    serving modes compute them from identical component tuples, so the
    digest is an exact equality witness.  Each component contributes
    ``alias|`` + :meth:`ServiceTuple.values_text`, which the tuple renders
    once: cached tuples recur across requests and checkpoints.
    """
    parts: list[str] = []
    for comp in tuples:
        components = comp.components
        for alias in sorted(components):
            parts.append(alias + "|" + components[alias].values_text())
        parts.append(f"score={round(comp.score, 12)!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def serve_workload(
    *,
    rate: float,
    num_requests: int,
    seed: int,
    shared: bool,
    skew: float = 1.3,
    followup_fraction: float = 0.25,
    max_concurrency: int = 4,
    queue_limit: int = 10_000,
    default_service_rate: float | None = 4.0,
    plan_cache_size: int | None = None,
    templates: Sequence[QueryTemplate] | None = None,
    tracer: Any = None,
    slo: "SloTracker | None" = None,
    sample_metrics: bool = False,
    join_kernel: str = "binary",
) -> tuple[ServeReport, dict[int, str]]:
    """Serve one seeded workload; returns the report and per-request digests.

    The benchmark's queue limit is effectively unbounded so both modes
    complete every request — rejection behaviour is exercised by unit
    tests, while here the modes must stay per-request comparable.

    ``tracer``/``slo``/``sample_metrics`` thread the observability layer
    through: request span trees on the virtual clock, SLO latency
    accounting, and sampled queue-depth/occupancy time series.  All
    default off, and none of them may perturb results — the digest
    equality gates in :mod:`tests.test_serve_observability` enforce it.
    """
    templates = tuple(templates or default_templates())
    workload = generate_workload(
        templates,
        WorkloadConfig(
            num_requests=num_requests,
            rate=rate,
            skew=skew,
            seed=seed,
            followup_fraction=followup_fraction,
        ),
    )
    sessions = SessionManager(
        templates={template.name: template for template in templates},
        data_seed=seed,
        optimizer_config=OptimizerConfig(join_kernel=join_kernel),
        plan_cache=PlanCache(max_size=plan_cache_size) if shared else None,
        invocation_cache=(
            InvocationCache(max_size=None) if shared else None
        ),
    )
    scheduler = ServeScheduler(
        sessions,
        ServeConfig(
            max_concurrency=max_concurrency,
            queue_limit=queue_limit,
            default_service_rate=default_service_rate,
        ),
        tracer=tracer,
        emit_shard_metrics=True,
        slo=slo,
        sample_metrics=sample_metrics,
    )
    report = scheduler.run(workload)
    digests = {
        outcome.request.request_id: result_digest(outcome.results or ())
        for outcome in report.completed()
    }
    return report, digests


def combined_digest(digests: Mapping[int, str]) -> str:
    """One hash over a whole run's per-request digests.

    Sorted by request id, so it is invariant to completion order — the
    compact byte-identity witness the sharding sweep compares across
    shard counts (100k per-request digests would bloat the artifact).
    """
    hasher = hashlib.sha256()
    for request_id in sorted(digests):
        hasher.update(f"{request_id}:{digests[request_id]}\n".encode())
    return hasher.hexdigest()


def _mode_summary(report: ServeReport) -> dict[str, Any]:
    summary = report.summary()
    latency = summary["latency"]
    summary["latency_p50"] = latency.get("p50", 0.0)
    summary["latency_p95"] = latency.get("p95", 0.0)
    summary["latency_p99"] = latency.get("p99", 0.0)
    summary["serving_metrics"] = serving_metrics_summary(report)
    return summary


def run_serving_benchmark(
    *,
    load_levels: Sequence[float] = (0.5, 2.0),
    num_requests: int = 40,
    seed: int = 2009,
    skew: float = 1.3,
    followup_fraction: float = 0.25,
    max_concurrency: int = 4,
    default_service_rate: float | None = 4.0,
    plan_cache_size: int | None = None,
    templates: Sequence[QueryTemplate] | None = None,
    join_kernel: str = "binary",
) -> dict[str, Any]:
    """The full shared-vs-isolated comparison across load levels."""
    levels: list[dict[str, Any]] = []
    all_identical = True
    never_more_calls = True
    strictly_fewer_calls = True
    p95_improves = True
    for rate in load_levels:
        per_mode: dict[str, ServeReport] = {}
        digests: dict[str, Mapping[int, str]] = {}
        for mode, shared in (("isolated", False), ("shared", True)):
            report, mode_digests = serve_workload(
                rate=rate,
                num_requests=num_requests,
                seed=seed,
                shared=shared,
                skew=skew,
                followup_fraction=followup_fraction,
                max_concurrency=max_concurrency,
                default_service_rate=default_service_rate,
                plan_cache_size=plan_cache_size,
                templates=templates,
                join_kernel=join_kernel,
            )
            per_mode[mode] = report
            digests[mode] = mode_digests
        identical = digests["isolated"] == digests["shared"]
        all_identical = all_identical and identical
        isolated, shared_report = per_mode["isolated"], per_mode["shared"]
        calls_isolated = isolated.total_round_trips
        calls_shared = shared_report.total_round_trips
        never_more_calls = never_more_calls and calls_shared <= calls_isolated
        strictly_fewer_calls = (
            strictly_fewer_calls and calls_shared < calls_isolated
        )
        p95_isolated = isolated.latency_summary().get("p95", 0.0)
        p95_shared = shared_report.latency_summary().get("p95", 0.0)
        p95_improves = p95_improves and p95_shared < p95_isolated
        levels.append(
            {
                "rate": rate,
                "isolated": _mode_summary(isolated),
                "shared": _mode_summary(shared_report),
                "results_identical": identical,
                "round_trip_reduction": (
                    1.0 - calls_shared / calls_isolated
                    if calls_isolated
                    else 0.0
                ),
                "p95_latency_isolated": p95_isolated,
                "p95_latency_shared": p95_shared,
            }
        )
    return {
        "benchmark": "serving",
        "seed": seed,
        "num_requests": num_requests,
        "skew": skew,
        "followup_fraction": followup_fraction,
        "max_concurrency": max_concurrency,
        "default_service_rate": default_service_rate,
        "join_kernel": join_kernel,
        "load_levels": list(load_levels),
        "levels": levels,
        "gates": {
            "results_identical": all_identical,
            "shared_never_more_round_trips": never_more_calls,
            "shared_strictly_fewer_round_trips": strictly_fewer_calls,
            "shared_improves_p95_latency": p95_improves,
        },
    }


def run_sharding_benchmark(
    *,
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    num_requests: int = 100_000,
    rate: float = 4.0,
    seed: int = 2009,
    skew: float = 1.3,
    followup_fraction: float = 0.25,
    max_concurrency: int = 4,
    default_service_rate: float | None = 4.0,
    session_space: int = 1_000_000,
    steal: bool = True,
    include_no_steal: bool = False,
    param_scale: int = 2,
    templates: Sequence[QueryTemplate] | None = None,
) -> dict[str, Any]:
    """The shard-count sweep behind ``BENCH_sharding.json``.

    One seeded workload (``num_requests`` over a ``session_space``-sized
    Zipf-skewed session universe) is served by the sharded runtime at
    each shard count with the shared caches on, plus a 1-shard
    **isolated** baseline (no plan cache, no invocation cache — every
    request fetches alone, the PR 4 comparison point for round trips).
    Per-shard ``max_concurrency`` is fixed, so the shard count *is* the
    worker count being scaled.

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
    from repro.serve.sharding import serve_workload_sharded

    # Scaled parameter universes keep the workload load-bearing at
    # population scale: the Zipf head stays cache-resident while the
    # tail sustains real service traffic, so per-shard capacity is
    # actually contended and the latency gates can develop (unscaled,
    # ~100 distinct bindings go fully resident and p95 collapses to 0
    # at every shard count).
    templates = tuple(templates or default_templates(param_scale))
    workload = generate_workload(
        templates,
        WorkloadConfig(
            num_requests=num_requests,
            rate=rate,
            skew=skew,
            seed=seed,
            followup_fraction=followup_fraction,
            session_space=max(session_space, num_requests),
        ),
    )
    distinct_sessions = len(
        {r.session_id for r in workload if r.session_id is not None}
    )

    configs: list[dict[str, Any]] = []
    for count in shard_counts:
        configs.append(
            {"label": f"shared-{count}", "num_shards": count,
             "cache_mode": "shared", "steal": steal}
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
    for config in configs:
        report, digests = serve_workload_sharded(
            rate=rate,
            num_requests=num_requests,
            seed=seed,
            num_shards=config["num_shards"],
            cache_mode=config["cache_mode"],
            steal=config["steal"],
            skew=skew,
            followup_fraction=followup_fraction,
            max_concurrency=max_concurrency,
            default_service_rate=default_service_rate,
            session_space=session_space,
            templates=templates,
            workload=workload,
            digest_fn=result_digest,
        )
        latency = report.latency_summary()
        steals = report.metrics.counters.get("serve.steals")
        entry = {
            **config,
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
        "seed": seed,
        "num_requests": num_requests,
        "rate": rate,
        "skew": skew,
        "followup_fraction": followup_fraction,
        "max_concurrency": max_concurrency,
        "default_service_rate": default_service_rate,
        "session_space": session_space,
        "param_scale": param_scale,
        "distinct_sessions": distinct_sessions,
        "shard_counts": list(shard_counts),
        "sweep": sweep_labels,
        "runs": runs,
        "ratios": ratios,
        "gates": gates,
    }
