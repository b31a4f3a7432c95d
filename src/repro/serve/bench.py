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
    MAX_CONCURRENCY,
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
        "max_concurrency": MAX_CONCURRENCY,
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
