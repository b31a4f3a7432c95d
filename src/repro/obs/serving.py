"""Serving-stack observability: SLO tracking, span trees, and reports.

PR 3 built the tracing/metrics substrate around the single-query
engine; this module is the serving-side vocabulary on top of it:

* :class:`SloTracker` — latency-SLO accounting on the virtual clock:
  exact quantiles (p50/p95/p99/p999) plus per-threshold violation
  fractions.
* :func:`record_request_span` — renders one terminal
  :class:`~repro.serve.scheduler.RequestOutcome` as a span *tree*
  (``serve.request`` root with ``serve.park`` / ``serve.queue`` /
  ``serve.execute`` / ``serve.plan`` children) tagged with session,
  shard, and template.  The scheduler calls it live at request finish;
  durable resume calls it again for pre-crash outcomes so a resumed
  trace reconciles with an uninterrupted one.
* :func:`replay_outcome_telemetry` — the resume-side half of that
  contract: re-absorbs checkpointed terminal outcomes into a fresh
  registry/tracer/SLO tracker exactly the way the scheduler would have.
* :func:`serving_metrics_summary` — the compact per-shard metrics
  digest embedded in every ``repro serve-bench`` report
  (``BENCH_serving.json``).
* :func:`render_serve_report` — the ``repro serve-report`` renderer: a
  post-run shard-utilization and bottleneck summary built from a JSONL
  span trace plus an optional metrics snapshot.

Everything here reads the serve-layer dataclasses by their fields (no
``repro.serve`` imports) to keep ``obs`` dependency-free below the
engine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.model.scoring import fold
from repro.obs.explain import world_line
from repro.obs.metrics import Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycles)
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import SpanRecord, Tracer

__all__ = [
    "DEFAULT_SLO_THRESHOLDS",
    "SloTracker",
    "record_request_span",
    "replay_outcome_telemetry",
    "serving_metrics_summary",
    "load_trace_jsonl",
    "render_serve_report",
]

#: Default latency SLO thresholds, in virtual seconds.  The serving
#: benchmarks' p50/p95/p99 sit around these bands at moderate load.
DEFAULT_SLO_THRESHOLDS = (5.0, 20.0, 60.0)

_TERMINAL = ("completed", "failed", "rejected")


def _threshold_key(threshold: float) -> str:
    return f"{threshold:g}"


@dataclass
class SloTracker:
    """Latency-SLO accounting over completed requests.

    ``observe(latency)`` feeds one completed request.  The tracker keeps
    cumulative counts per threshold and exact quantiles over everything
    observed — consistent with :class:`~repro.obs.metrics.Histogram`,
    these runs observe thousands of values, not millions.
    """

    thresholds: tuple[float, ...] = DEFAULT_SLO_THRESHOLDS
    count: int = field(default=0, init=False)
    violations: dict[str, int] = field(default_factory=dict, init=False)
    _latencies: Histogram = field(
        default_factory=lambda: Histogram("slo.latency")
    )

    def __post_init__(self) -> None:
        self.thresholds = tuple(sorted(float(t) for t in self.thresholds))
        if any(t <= 0 for t in self.thresholds):
            raise ValueError("SLO thresholds must be positive")
        for threshold in self.thresholds:
            self.violations.setdefault(_threshold_key(threshold), 0)

    def observe(self, latency: float) -> None:
        latency = float(latency)
        self.count += 1
        self._latencies.observe(latency)
        for threshold in self.thresholds:
            if latency > threshold:
                self.violations[_threshold_key(threshold)] += 1

    def snapshot(self) -> dict[str, Any]:
        summary = self._latencies.summary()
        quantiles = {
            key: summary[key]
            for key in ("p50", "p95", "p99", "p999")
            if key in summary
        }
        violations = {}
        for threshold in self.thresholds:
            key = _threshold_key(threshold)
            count = self.violations[key]
            violations[key] = {
                "count": count,
                "fraction": count / self.count if self.count else 0.0,
            }
        return {
            "count": self.count,
            "quantiles": quantiles,
            "violations": violations,
        }


# ----------------------------------------------------------------------------- #
# Request-lifecycle span trees
# ----------------------------------------------------------------------------- #


def _session_of(request: Any) -> int:
    # Mirrors serve.workload.session_key without importing the serve layer.
    if getattr(request, "session_id", None) is not None:
        return request.session_id
    if getattr(request, "target", None) is not None:
        return request.target
    return request.request_id


def record_request_span(
    tracer: "Tracer", outcome: Any, lane: "int | None" = None, **extra: Any
) -> "SpanRecord | None":
    """Emit the lifecycle span tree for one terminal request outcome.

    The root ``serve.request`` span covers arrival → finish; children
    attribute where that time went: ``serve.park`` (waiting for the
    target run or a busy session), ``serve.queue`` (admission queue),
    ``serve.execute`` (steps on the scheduler, with a zero-width
    ``serve.plan`` child marking the plan-cache lookup).  Throttle and
    retry accounting ride as root attributes (``rate_wait`` /
    ``rate_hits``) so the tree's shape — and hence resume
    reconciliation — does not depend on per-step event history.
    ``lane`` is the shard-local concurrency slot (Chrome ``tid``); it
    is live-run only and absent from replayed spans.  ``extra`` adds root
    attributes (the asyncio loop marks its requests ``backend="asyncio"``).
    """
    request = outcome.request
    shard = outcome.shard
    attrs: dict[str, Any] = {
        "request": request.request_id,
        "kind": request.kind,
        "template": request.template,
        "session": _session_of(request),
        "status": outcome.status,
        "shard": shard,
        "round_trips": outcome.round_trips,
        "steps": outcome.steps,
        **extra,
    }
    if outcome.stolen:
        attrs["stolen"] = True
    if outcome.rate_wait:
        attrs["rate_wait"] = outcome.rate_wait
    if outcome.rate_hits:
        attrs["rate_hits"] = outcome.rate_hits
    if lane is not None:
        attrs["lane"] = lane
    root = tracer.record_span(
        "serve.request",
        start=request.arrival,
        end=outcome.finished_at,
        **attrs,
    )
    child: dict[str, Any] = {"request": request.request_id, "shard": shard}
    if lane is not None:
        child["lane"] = lane
    unparked = outcome.unparked_at
    if unparked and unparked > request.arrival:
        tracer.record_span(
            "serve.park",
            start=request.arrival,
            end=unparked,
            parent_id=root.span_id,
            reason=outcome.wake_reason or "parked",
            **child,
        )
    started = outcome.started_at
    if started is not None:
        if outcome.queue_wait > 0:
            tracer.record_span(
                "serve.queue",
                start=started - outcome.queue_wait,
                end=started,
                parent_id=root.span_id,
                **child,
            )
        execute = tracer.record_span(
            "serve.execute",
            start=started,
            end=outcome.finished_at,
            parent_id=root.span_id,
            steps=outcome.steps,
            round_trips=outcome.round_trips,
            **child,
        )
        if outcome.plan_cached is not None:
            tracer.record_span(
                "serve.plan",
                start=started,
                end=started,
                parent_id=execute.span_id,
                cached=outcome.plan_cached,
                **child,
            )
    return root


# ----------------------------------------------------------------------------- #
# Durable-resume telemetry continuity
# ----------------------------------------------------------------------------- #


#: The ``serve.shard.<i>.<name>`` counters :func:`absorb_outcome_metrics`
#: keeps per shard.
SHARD_COUNTERS = ("started", "completed", "failed", "rejected", "steals", "stolen_from")


def absorb_outcome_metrics(metrics: "MetricsRegistry", outcome: Any) -> None:
    """Account one terminal outcome in the serving metrics.

    The one place an outcome is counted, globally and on its shard's
    ``serve.shard.<i>.*`` counters: the virtual scheduler calls it when a
    request finishes or is rejected, the asyncio loop (one shard) and the
    parallel merge once per outcome, and a resume once per replayed
    checkpointed outcome, so every placement's counters and histograms
    agree with an uninterrupted in-process run.  Failed requests get
    their own latency histogram, so ``serve.latency`` stays
    completed-only.  Per-shard ``max_queue_depth`` gauges and the
    admission peak are sampled where they change, not per outcome.
    """
    status = outcome.status
    request = outcome.request
    metrics.counter(f"serve.kind.{request.kind}").inc()
    shard = f"serve.shard.{outcome.shard}"
    if status == "rejected":
        metrics.counter("serve.rejected").inc()
        metrics.counter(f"{shard}.rejected").inc()
        return
    metrics.histogram("serve.queue_wait").observe(outcome.queue_wait)
    metrics.counter(f"{shard}.started").inc()
    if outcome.rate_hits:
        metrics.counter("serve.rate_limited").inc(outcome.rate_hits)
    if outcome.stolen:
        metrics.counter("serve.steals").inc()
        metrics.counter(f"{shard}.steals").inc()
        if outcome.stolen_from is not None:
            metrics.counter(f"serve.shard.{outcome.stolen_from}.stolen_from").inc()
    if status == "failed":
        metrics.counter("serve.failed").inc()
        metrics.histogram("serve.latency_failed").observe(outcome.latency)
        metrics.counter(f"{shard}.failed").inc()
    else:
        metrics.counter("serve.completed").inc()
        metrics.histogram("serve.latency").observe(outcome.latency)
        metrics.counter(f"{shard}.completed").inc()


def replay_outcome_telemetry(
    outcomes: Iterable[Any],
    metrics: "MetricsRegistry | None" = None,
    tracer: "Tracer | None" = None,
    slo: "SloTracker | None" = None,
) -> int:
    """Re-absorb checkpointed terminal outcomes into fresh telemetry.

    Called by the durable serving layer on resume, before the scheduler
    runs the remaining workload: every pre-crash terminal outcome is
    replayed into the registry, re-emitted as a span tree, and fed to
    the SLO tracker, in request-id order (deterministic span ids).
    Returns the number of outcomes replayed.
    """
    ordered = sorted(
        (o for o in outcomes if o.status in _TERMINAL),
        key=lambda o: o.request.request_id,
    )
    for outcome in ordered:
        if metrics is not None:
            absorb_outcome_metrics(metrics, outcome)
        if tracer is not None and tracer.enabled:
            record_request_span(tracer, outcome)
        if slo is not None and outcome.status == "completed":
            slo.observe(outcome.latency)
    return len(ordered)


# ----------------------------------------------------------------------------- #
# Benchmark-artifact metrics digest
# ----------------------------------------------------------------------------- #


def serving_metrics_summary(report: Any) -> dict[str, Any]:
    """Compact per-shard metrics digest for BENCH_*.json artifacts.

    Reads the live registry a :class:`~repro.serve.scheduler.ServeReport`
    carries and returns plain JSON: global outcome/steal/throttle
    counters, the cache hit rates the report's gauges hold, and one entry
    per shard with queue-depth peak and steal attribution, taken from the
    report's shard rows.
    """
    metrics = report.metrics

    def count(name: str) -> int:
        instrument = metrics.counters.get(name)
        return int(instrument.value) if instrument is not None else 0

    summary: dict[str, Any] = {
        "completed": count("serve.completed"),
        "failed": count("serve.failed"),
        "rejected": count("serve.rejected"),
        "rate_limited": count("serve.rate_limited"),
        "steals": count("serve.steals"),
        "admission_peak": report.admission_peak,
    }
    for cache in ("plan_cache", "invocation_cache"):
        if getattr(report, f"{cache}_stats"):
            rate = metrics.gauges[f"serve.{cache}.hit_rate"]
            summary[f"{cache}_hit_rate"] = rate.value
    summary["shards"] = [
        {
            **{name: row[name] for name in ("shard", *SHARD_COUNTERS)},
            "queue_depth_peak": float(row["max_queue_depth"]),
        }
        for row in report.shard_stats
    ]
    return summary


# ----------------------------------------------------------------------------- #
# serve-report: post-run bottleneck summary from trace artifacts
# ----------------------------------------------------------------------------- #


def load_trace_jsonl(source: "str | Path") -> list[dict[str, Any]]:
    """Load a JSONL span trace (as written by ``--trace``) into dicts."""
    spans = []
    with open(source, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def _span_dict(span: Any) -> dict[str, Any]:
    if isinstance(span, Mapping):
        return dict(span)
    return {
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "attrs": dict(span.attrs),
    }


def _pct(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:.1f}%" if whole > 0 else "n/a"


def render_serve_report(
    spans: Iterable[Any],
    metrics: "Mapping[str, Any] | Any | None" = None,
    slo: "SloTracker | Mapping[str, Any] | None" = None,
    top: int = 5,
) -> str:
    """Render a shard-utilization / bottleneck summary from trace spans.

    ``spans`` accepts JSONL dicts (``load_trace_jsonl``) or live
    :class:`~repro.obs.tracer.SpanRecord` objects.  ``metrics`` is an
    optional registry or snapshot (adds cache hit rates and queue-depth
    peaks); ``slo`` an optional tracker or snapshot.
    """
    records = [_span_dict(span) for span in spans]
    requests = [r for r in records if r["name"] == "serve.request"]
    if not requests:
        return "serve-report: no serve.request spans in trace\n"

    makespan = max(r["end"] for r in records)
    statuses: dict[str, int] = {}
    by_shard: dict[int, dict[str, Any]] = {}
    by_template: dict[str, list[float]] = {}
    total_request_time = 0.0
    waits = {"execute": 0.0, "queue": 0.0, "park": 0.0, "throttle": 0.0}
    latencies = Histogram("report.latency")

    def shard_entry(index: int) -> dict[str, Any]:
        entry = by_shard.get(index)
        if entry is None:
            entry = by_shard[index] = {
                "requests": 0,
                "completed": 0,
                "failed": 0,
                "rejected": 0,
                "stolen": 0,
                "busy": 0.0,
                "queue": 0.0,
            }
        return entry

    for record in requests:
        attrs = record.get("attrs", {})
        status = attrs.get("status", "unknown")
        statuses[status] = statuses.get(status, 0) + 1
        duration = record["end"] - record["start"]
        total_request_time += duration
        waits["throttle"] += attrs.get("rate_wait", 0.0)
        entry = shard_entry(attrs.get("shard", 0))
        entry["requests"] += 1
        if status in entry:
            entry[status] += 1
        if attrs.get("stolen"):
            entry["stolen"] += 1
        if status == "completed":
            latencies.observe(duration)
        by_template.setdefault(attrs.get("template", "?"), []).append(duration)

    for record in records:
        attrs = record.get("attrs", {})
        duration = record["end"] - record["start"]
        if record["name"] == "serve.execute":
            waits["execute"] += duration
            shard_entry(attrs.get("shard", 0))["busy"] += duration
        elif record["name"] == "serve.queue":
            waits["queue"] += duration
            shard_entry(attrs.get("shard", 0))["queue"] += duration
        elif record["name"] == "serve.park":
            waits["park"] += duration
    # Throttle waits happen inside execute spans; carve them out so the
    # four components attribute disjoint slices of request time.
    waits["execute"] = max(0.0, waits["execute"] - waits["throttle"])

    snapshot = (
        metrics.snapshot()
        if metrics is not None and hasattr(metrics, "snapshot")
        else metrics
    )
    gauges = snapshot.get("gauges", {}) if snapshot else {}

    lines = []
    num_shards = max(by_shard) + 1 if by_shard else 1
    lines.append(
        f"serve-report — {len(requests)} requests, {num_shards} shard(s), "
        f"makespan {makespan:.2f}s"
    )
    outcome_bits = ", ".join(
        f"{statuses.get(status, 0)} {status}"
        for status in ("completed", "failed", "rejected")
    )
    throughput = len(requests) / makespan if makespan > 0 else 0.0
    lines.append(f"  outcomes: {outcome_bits}; throughput {throughput:.2f} req/s")
    summary = latencies.summary()
    if summary.get("count"):
        lines.append(
            "  completed latency: "
            f"p50 {summary['p50']:.2f}s, p95 {summary['p95']:.2f}s, "
            f"p99 {summary['p99']:.2f}s, p999 {summary['p999']:.2f}s"
        )
    attribution = " | ".join(
        f"{name} {_pct(value, total_request_time)}"
        for name, value in sorted(
            waits.items(), key=lambda item: -item[1]
        )
    )
    lines.append(f"  request-time attribution: {attribution}")

    dominant = max(waits, key=lambda name: waits[name])
    advice = {
        "execute": "service execution dominates; add shards or faster services",
        "queue": "admission queueing dominates; raise concurrency or add shards",
        "park": "session serialization dominates (follow-up chains wait on targets)",
        "throttle": "token-bucket throttling dominates; raise per-service rates",
    }[dominant]
    lines.append(
        f"  bottleneck: {dominant} "
        f"({_pct(waits[dominant], total_request_time)} of request time) — {advice}"
    )

    lines.append("shards:")
    busiest = max(by_shard.values(), key=lambda e: e["busy"])["busy"] if by_shard else 0.0
    for index in sorted(by_shard):
        entry = by_shard[index]
        util = entry["busy"] / makespan if makespan > 0 else 0.0
        peak = gauges.get(f"serve.shard.{index}.max_queue_depth")
        peak_bit = f", queue peak {int(peak)}" if peak is not None else ""
        stolen_bit = f", {entry['stolen']} stolen-in" if entry["stolen"] else ""
        lines.append(
            f"  shard {index}: {entry['requests']} requests "
            f"({entry['completed']} ok, {entry['failed']} failed, "
            f"{entry['rejected']} rejected), busy {entry['busy']:.1f}s "
            f"(~{util:.2f} lanes){peak_bit}{stolen_bit}"
        )
    idle = [
        index
        for index, entry in by_shard.items()
        if busiest > 0 and entry["busy"] < 0.5 * busiest
    ]
    if idle and len(by_shard) > 1:
        lines.append(
            f"  imbalance: shard(s) {sorted(idle)} under half the busiest "
            "shard's load — check ring balance / steal settings"
        )

    ranked = sorted(
        by_template.items(), key=lambda item: -fold(item[1])
    )[: max(0, top)]
    if ranked:
        lines.append(f"templates (top {len(ranked)} by total request time):")
        for template, durations in ranked:
            hist = Histogram("t")
            for value in durations:
                hist.observe(value)
            stats = hist.summary()
            lines.append(
                f"  {template}: {stats['count']} requests, "
                f"mean {stats['mean']:.2f}s, p95 {stats['p95']:.2f}s, "
                f"total {stats['sum']:.1f}s"
            )

    if snapshot:
        cache_bits = []
        plan_rate = gauges.get("serve.plan_cache.hit_rate")
        if plan_rate is not None:
            cache_bits.append(f"plan cache {plan_rate:.1%}")
        invocation_rate = gauges.get("serve.invocation_cache.hit_rate")
        if invocation_rate is not None:
            cache_bits.append(f"invocation cache {invocation_rate:.1%}")
        if cache_bits:
            line = "caches: " + ", ".join(cache_bits) + " hit rate"
            replayable = gauges.get("serve.invocation_cache.replayable")
            if replayable:
                line += (
                    "; result memo replayed "
                    f"{int(gauges['serve.invocation_cache.replays'])} of "
                    f"{int(replayable)} executions "
                    f"({gauges['serve.invocation_cache.replay_rate']:.1%})"
                )
            lines.append(line)
        world = {
            name.removeprefix("serve.world."): value
            for name, value in gauges.items()
            if name.startswith("serve.world.")
        }
        if world:
            lines.append(world_line(world))

    if slo is not None:
        state = slo.snapshot() if hasattr(slo, "snapshot") else slo
        bits = []
        for key, entry in state.get("violations", {}).items():
            bits.append(f">{key}s: {entry['fraction']:.1%}")
        if bits:
            lines.append(
                f"slo: {state.get('count', 0)} observed; violations "
                + ", ".join(bits)
            )
    return "\n".join(lines) + "\n"
