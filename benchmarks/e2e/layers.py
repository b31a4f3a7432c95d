"""Per-layer metrics of one traced batch, by the names in BENCHMARK.json.

Every metric is reported for every workload; one that a workload's code
path never reaches reads 0 (``joins.*`` on the serving workloads,
``durability.*`` off ``serve_durable``), which is itself the prediction
the README states.  Times are milliseconds of wall clock in the traced
batch (so they include the tracer's own cost, reported as
``trace.overhead_share``); counts are exact and repeat run to run.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Sequence

from trace import END, NAME, OP, START, Tracer, self_seconds_by

KINDS = ("run", "more", "resubmit", "rerank")
KERNELS = ("binary", "wcoj", "ranked")
SHAPES = ("triangle", "cycle4", "clique4")

#: name -> unit, in the order the README lists them.
PER_LAYER: dict[str, str] = {
    "query.parse_ms_total": "ms",
    "query.compile_ms_total": "ms",
    "query.satisfies_calls": "count",
    "query.satisfies_self_ms": "ms",
    "query.satisfies_calls_per_result": "ratio",
    "core.optimize_calls": "count",
    "core.optimize_ms_p50": "ms",
    "core.optimize_ms_p95": "ms",
    "core.optimize_self_ms": "ms",
    "core.bnb_expanded_per_plan": "ratio",
    "serve.plancache_hit_rate": "ratio",
    "serve.plancache_plan_ms_total": "ms",
    "serve.invocation_cache_hit_rate": "ratio",
    "serve.invocation_cache_evictions": "count",
    "serve.scheduler_self_ms": "ms",
    "serve.scheduler_self_share": "ratio",
    "serve.queue_wait_virtual_mean_s": "s",
    "serve.steals": "count",
    "serve.shard_imbalance": "ratio",
    "serve.workload_generate_ms": "ms",
    "serve.open_ms_p50": "ms",
    **{f"serve.request_ms_p50.{kind}": "ms" for kind in KINDS},
    **{f"serve.request_ms_p95.{kind}": "ms" for kind in KINDS},
    "engine.steps_per_request": "ratio",
    "engine.step_ms_p50": "ms",
    "engine.step_ms_p95": "ms",
    "engine.executor_self_ms": "ms",
    "engine.more_ms_share": "ratio",
    "engine.pairs_probed_per_result": "ratio",
    "services.invoke_calls": "count",
    "services.invoke_self_ms": "ms",
    "services.invoke_ms_p50": "ms",
    "services.round_trips": "count",
    **{
        f"joins.{kernel}.{shape}_ms": "ms"
        for kernel in KERNELS
        for shape in SHAPES
    },
    "joins.pairs_probed.binary": "count",
    "joins.pairs_probed.wcoj": "count",
    "joins.ranked_pq_pops_per_result": "ratio",
    "joins.ranked_materialized_fraction": "ratio",
    "joins.methods.parallel_ms_p50": "ms",
    "joins.methods.pipe_ms_p50": "ms",
    "joins.methods.pairs_probed_per_pair_produced": "ratio",
    "durability.checkpoint_writes": "count",
    "durability.checkpoint_write_ms_total": "ms",
    "durability.checkpoint_session_ms_total": "ms",
    "durability.bytes_written_per_op": "bytes/op",
    "durability.foreground_stall_ms_max": "ms",
    "durability.restore_ms_total": "ms",
    "durability.restore_ms_per_session": "ms",
    "durability.resume_share": "ratio",
    "trace.spans": "count",
    "trace.overhead_share": "ratio",
    # End-to-end in meaning, recorded here because BENCHMARK.json's
    # end-to-end list is for metrics that are non-zero, vary run to run and
    # stay within their bound across seeds on every workload: the median op
    # (13-17 % between runs on two workloads, against 3-7 % elsewhere), the
    # deterministic serving outputs and the failure ratio.
    "op_ms_p50": "ms",
    "virtual_latency_mean_s": "s",
    "virtual_latency_p95_s": "s",
    "round_trips_per_op": "calls/op",
    "failed_share": "ratio",
}

#: Metrics that are counts or pure functions of counts: equal in every run.
EXACT = frozenset(
    name
    for name, unit in PER_LAYER.items()
    if unit in ("count", "bytes/op", "calls/op")
    or name
    in (
        "query.satisfies_calls_per_result",
        "core.bnb_expanded_per_plan",
        "serve.plancache_hit_rate",
        "serve.invocation_cache_hit_rate",
        "serve.queue_wait_virtual_mean_s",
        "serve.shard_imbalance",
        "engine.steps_per_request",
        "engine.pairs_probed_per_result",
        "joins.ranked_pq_pops_per_result",
        "joins.ranked_materialized_fraction",
        "joins.methods.pairs_probed_per_pair_produced",
        "virtual_latency_mean_s",
        "virtual_latency_p95_s",
        "failed_share",
    )
)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def request_seconds(spans: Sequence[Sequence]) -> dict[tuple, float]:
    """Wall per serving request: its ``engine.step``/``engine.rerank`` spans."""
    totals: dict[tuple, float] = defaultdict(float)
    for span in spans:
        if span[NAME] in ("engine.step", "engine.rerank"):
            totals[tuple(span[OP])] += span[END] - span[START]
    return totals


def layer_metrics(
    tracer: Tracer, batch: Any, wall: float, overhead_share: float
) -> dict[str, float]:
    """All of :data:`PER_LAYER` for one traced batch.

    ``wall`` is the batch's wall seconds as measured.  ``op_ms_p50`` is
    left at 0 for the caller: it is measured on the plain batches of the
    same run.
    """
    spans, counts = tracer.spans, tracer.counts
    ms: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        ms[span[NAME]].append((span[END] - span[START]) * 1e3)
    self_ms = {
        name: seconds * 1e3
        for name, seconds in self_seconds_by(spans, lambda name: name).items()
    }
    out = dict.fromkeys(PER_LAYER, 0.0)

    def total(name: str) -> float:
        return sum(ms.get(name, ()))

    def p50(name: str) -> float:
        return statistics.median(ms[name]) if ms.get(name) else 0.0

    out["query.parse_ms_total"] = total("query.parse")
    out["query.compile_ms_total"] = total("query.compile")
    out["query.satisfies_calls"] = len(ms.get("query.satisfies", ()))
    out["query.satisfies_self_ms"] = self_ms.get("query.satisfies", 0.0)
    out["query.satisfies_calls_per_result"] = ratio(
        out["query.satisfies_calls"], counts["engine.result_tuples"]
    )

    out["core.optimize_calls"] = len(ms.get("core.optimize", ()))
    out["core.optimize_ms_p50"] = p50("core.optimize")
    out["core.optimize_ms_p95"] = percentile(ms.get("core.optimize", ()), 0.95)
    out["core.optimize_self_ms"] = self_ms.get("core.optimize", 0.0)
    out["core.bnb_expanded_per_plan"] = ratio(
        counts["core.bnb_expanded"], counts["core.plans"]
    )

    report = batch.info.get("report")
    if report is not None:
        plan_stats = report.plan_cache_stats or {}
        cache_stats = report.invocation_cache_stats or {}
        out["serve.plancache_hit_rate"] = plan_stats.get("hit_rate", 0.0)
        lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
        out["serve.invocation_cache_hit_rate"] = ratio(
            cache_stats.get("hits", 0), lookups
        )
        out["serve.invocation_cache_evictions"] = cache_stats.get("evictions", 0)
        out["serve.queue_wait_virtual_mean_s"] = (
            report.metrics.histogram("serve.queue_wait").summary().get("mean", 0.0)
        )
        steals = report.metrics.counters.get("serve.steals")
        out["serve.steals"] = steals.value if steals is not None else 0
        started = [shard["started"] for shard in report.shard_stats or ()]
        out["serve.shard_imbalance"] = ratio(
            max(started, default=0), ratio(sum(started), len(started))
        )
        out["services.round_trips"] = report.total_round_trips
        for name in (
            "virtual_latency_mean_s", "virtual_latency_p95_s", "round_trips_per_op",
        ):
            out[name] = batch.exact[name]
    out["failed_share"] = ratio(batch.failed, batch.ops)
    out["serve.plancache_plan_ms_total"] = total("serve.plancache_plan")
    out["serve.scheduler_self_ms"] = self_ms.get("serve.scheduler_run", 0.0)
    out["serve.scheduler_self_share"] = ratio(
        out["serve.scheduler_self_ms"], wall * 1e3
    )
    out["serve.workload_generate_ms"] = total("serve.generate_workload")
    out["serve.open_ms_p50"] = p50("serve.open")
    per_request = request_seconds(spans)
    for kind in KINDS:
        walls = [s * 1e3 for (k, _), s in per_request.items() if k == kind]
        out[f"serve.request_ms_p50.{kind}"] = percentile(walls, 0.5)
        out[f"serve.request_ms_p95.{kind}"] = percentile(walls, 0.95)

    steps = ms.get("engine.step", ())
    out["engine.steps_per_request"] = ratio(len(steps), len(per_request))
    out["engine.step_ms_p50"] = percentile(steps, 0.5)
    out["engine.step_ms_p95"] = percentile(steps, 0.95)
    out["engine.executor_self_ms"] = self_ms.get("engine.step", 0.0) + self_ms.get(
        "engine.rerank", 0.0
    )
    out["engine.more_ms_share"] = ratio(
        sum(s for (k, _), s in per_request.items() if k == "more"), wall
    )
    out["engine.pairs_probed_per_result"] = ratio(
        counts["engine.pairs_probed"], counts["engine.result_tuples"]
    )

    out["services.invoke_calls"] = len(ms.get("services.invoke", ()))
    out["services.invoke_self_ms"] = self_ms.get("services.invoke", 0.0)
    out["services.invoke_ms_p50"] = p50("services.invoke")

    outcomes = batch.info.get("outcomes")
    if outcomes is not None:
        by_label = defaultdict(list)
        for label, seconds in batch.samples:
            by_label[label].append(seconds * 1e3)
        probed: dict[str, float] = defaultdict(float)
        pops = results = materialized = full = 0
        for kernel in KERNELS:
            for shape in SHAPES:
                # The cascade runs the small 4-cycle (see workloads.py).
                case = "cycle4s" if (kernel, shape) == ("binary", "cycle4") else shape
                label = f"{kernel}.{case}"
                out[f"joins.{kernel}.{shape}_ms"] = statistics.median(by_label[label])
                stats = outcomes[label].stats
                if kernel == "ranked":
                    pops += stats.pq_pops
                    results += stats.results
                    materialized += stats.materialized_rows
                    # wcoj enumerates the full join before the top-k cut.
                    full += outcomes[f"wcoj.{shape}"].stats.results
                else:
                    probed[kernel] += stats.pairs_probed
        out["joins.pairs_probed.binary"] = probed["binary"]
        out["joins.pairs_probed.wcoj"] = probed["wcoj"]
        out["joins.ranked_pq_pops_per_result"] = ratio(pops, results)
        out["joins.ranked_materialized_fraction"] = ratio(materialized, full)
    out["joins.methods.parallel_ms_p50"] = p50("joins.parallel_run")
    out["joins.methods.pipe_ms_p50"] = p50("joins.pipe_run")
    out["joins.methods.pairs_probed_per_pair_produced"] = ratio(
        counts["joins.methods.pairs_probed"], counts["joins.methods.pairs_produced"]
    )

    saves = ms.get("durability.store_save", ())
    restores = ms.get("durability.restore_session", ())
    out["durability.checkpoint_writes"] = len(saves)
    out["durability.checkpoint_write_ms_total"] = sum(saves)
    out["durability.checkpoint_session_ms_total"] = total("durability.checkpoint_session")
    out["durability.bytes_written_per_op"] = ratio(
        counts["durability.bytes_written"], batch.ops
    )
    out["durability.foreground_stall_ms_max"] = max(saves, default=0.0)
    out["durability.restore_ms_total"] = sum(restores)
    out["durability.restore_ms_per_session"] = ratio(sum(restores), len(restores))
    out["durability.resume_share"] = batch.info.get("resume_share", 0.0)

    out["trace.spans"] = len(spans)
    out["trace.overhead_share"] = overhead_share
    return out
