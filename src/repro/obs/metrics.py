"""A unified metrics registry over the repro's scattered statistics.

Before this layer, execution accounting lived in ad-hoc dataclasses:
``BnBStats`` (optimizer search), ``InvocationCacheStats`` and
``pairs_probed`` (executor), and ``CallLog`` aggregate methods (round
trips, retries, latency).  Those legacy carriers stay — existing tests
and callers read them directly, and they remain the live stores the hot
paths increment — but the :class:`MetricsRegistry` absorbs them behind
one snapshot API: :func:`record_optimization`, :func:`record_execution`,
and :func:`record_call_log` translate each into named counters, gauges,
and histograms, so one ``snapshot()`` call yields the complete,
JSON-serialisable picture of a run.

Metric names are dotted and stable (``optimizer.expanded``,
``executor.cache.hits``, ``calls.delivered.<alias>``); benchmark reports
embed snapshots under these names, which makes BENCH_*.json diffs
meaningful across PRs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.model.scoring import fold

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycles)
    from repro.core.bnb import BnBStats
    from repro.engine.events import CallLog
    from repro.engine.executor import ExecutionResult

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
    "MetricsRegistry",
    "record_call_log",
    "record_execution",
    "record_optimization",
]


@dataclass
class Counter:
    """A monotonically increasing named count."""

    name: str
    value: float = 0

    def inc(self, delta: float = 1) -> None:
        if delta < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += delta


@dataclass
class Gauge:
    """A point-in-time named value (can move both ways)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class Histogram:
    """A named distribution; snapshots report summary statistics.

    Observations are kept (these runs observe thousands of values, not
    millions), so percentiles are exact and deterministic under a seed.
    """

    name: str
    values: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    def summary(self) -> dict[str, float]:
        if not self.values:
            return {"count": 0}
        ordered = sorted(self.values)
        count = len(ordered)

        def quantile(q: float) -> float:
            index = min(count - 1, max(0, round(q * (count - 1))))
            return ordered[index]

        total = fold(ordered)
        return {
            "count": count,
            "sum": total,
            "min": ordered[0],
            "max": ordered[-1],
            "mean": total / count,
            "p50": quantile(0.50),
            "p95": quantile(0.95),
            "p99": quantile(0.99),
            "p999": quantile(0.999),
        }


@dataclass
class TimeSeries:
    """A bounded ``(time, value)`` series with deterministic decimation.

    Serving runs sample queue depth and admission occupancy on every
    scheduler event — at 100k requests that is far too many points to
    keep.  When the retained buffer reaches ``max_points`` the series
    drops every other retained point and doubles its sampling stride, so
    memory stays bounded while coverage stays uniform over the whole
    run.  The decimation schedule depends only on the observation count,
    never on wall time or randomness, so a seeded run yields identical
    retained points every time.  True extremes (``floor``/``peak``) are
    tracked against *every* observation, not just retained ones.
    """

    name: str
    max_points: int = 2048
    points: list[tuple[float, float]] = field(default_factory=list)
    observed: int = 0
    peak: float = float("-inf")
    floor: float = float("inf")
    _stride: int = 1

    def sample(self, at: float, value: float) -> None:
        value = float(value)
        if value > self.peak:
            self.peak = value
        if value < self.floor:
            self.floor = value
        if self.observed % self._stride == 0:
            self.points.append((float(at), value))
            if len(self.points) >= self.max_points:
                self.points = self.points[::2]
                self._stride *= 2
        self.observed += 1

    def summary(self) -> dict[str, float]:
        if not self.observed:
            return {"count": 0}
        return {
            "count": self.observed,
            "retained": len(self.points),
            "stride": self._stride,
            "min": self.floor,
            "max": self.peak,
            "last": self.points[-1][1],
        }


@dataclass
class MetricsRegistry:
    """Named counters, gauges, and histograms with one snapshot API.

    Instruments are created on first use (``registry.counter("x").inc()``)
    and live for the registry's lifetime.  ``view()`` registers a lazy
    gauge: a zero-argument callable evaluated at snapshot time, which is
    how live legacy objects (an executor's cache stats, a pool's call
    log) are exposed without double bookkeeping.
    """

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)
    series: dict[str, TimeSeries] = field(default_factory=dict)
    _views: dict[str, Callable[[], float]] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name)
        return instrument

    def timeseries(self, name: str, max_points: int = 2048) -> TimeSeries:
        instrument = self.series.get(name)
        if instrument is None:
            instrument = self.series[name] = TimeSeries(
                name, max_points=max_points
            )
        return instrument

    def view(self, name: str, fn: Callable[[], float]) -> None:
        """Register a lazy gauge evaluated at snapshot time."""
        self._views[name] = fn

    def snapshot(self) -> dict[str, Any]:
        """The complete current state, deterministically ordered."""
        gauges = {name: gauge.value for name, gauge in self.gauges.items()}
        for name, fn in self._views.items():
            gauges[name] = fn()
        snapshot = {
            "counters": {
                name: self.counters[name].value
                for name in sorted(self.counters)
            },
            "gauges": {name: gauges[name] for name in sorted(gauges)},
            "histograms": {
                name: self.histograms[name].summary()
                for name in sorted(self.histograms)
            },
        }
        if self.series:
            snapshot["timeseries"] = {
                name: self.series[name].summary()
                for name in sorted(self.series)
            }
        return snapshot


# ----------------------------------------------------------------------------- #
# Absorbers: legacy stat carriers -> registry
# ----------------------------------------------------------------------------- #


def record_call_log(registry: MetricsRegistry, log: CallLog) -> None:
    """Absorb a :class:`~repro.engine.events.CallLog` into the registry.

    ``calls.by_alias.*`` counts round trips (what virtual time was spent
    on); ``calls.delivered.*`` counts only successful responses — the
    figure the chapter's per-call cost metrics mean.
    """
    registry.counter("calls.total").inc(log.total_calls())
    registry.counter("calls.failed").inc(log.failed_calls())
    registry.counter("calls.retries").inc(log.retries())
    registry.counter("calls.tuples_transferred").inc(log.tuples_transferred())
    registry.gauge("calls.latency_time").set(log.total_latency())
    registry.gauge("calls.retry_overhead").set(log.retry_overhead())
    latency = registry.histogram("calls.latency")
    for record in log.records:
        latency.observe(record.latency)
    for alias, count in sorted(log.calls_by_alias().items()):
        registry.counter(f"calls.by_alias.{alias}").inc(count)
    for alias, count in sorted(log.calls_by_alias(ok_only=True).items()):
        registry.counter(f"calls.delivered.{alias}").inc(count)


def record_execution(
    registry: MetricsRegistry, result: "ExecutionResult"
) -> None:
    """Absorb an :class:`~repro.engine.executor.ExecutionResult`."""
    registry.counter("executor.combinations").inc(len(result.tuples))
    registry.counter("executor.candidates").inc(result.total_candidates)
    registry.counter("executor.pairs_probed").inc(result.pairs_probed)
    cache = result.cache_stats
    registry.counter("executor.cache.hits").inc(cache.hits)
    registry.counter("executor.cache.misses").inc(cache.misses)
    registry.counter("executor.cache.evictions").inc(cache.evictions)
    registry.gauge("executor.cache.hit_rate").set(cache.hit_rate)
    registry.gauge("executor.execution_time").set(result.execution_time)
    registry.gauge("executor.time_to_screen").set(result.time_to_screen)
    registry.counter("executor.failed_aliases").inc(len(result.failed_aliases))
    record_call_log(registry, result.log)


def record_optimization(
    registry: MetricsRegistry,
    stats: "BnBStats",
    best_cost: float | None = None,
    estimated_results: float | None = None,
) -> None:
    """Absorb a :class:`~repro.core.bnb.BnBStats` (plus outcome gauges)."""
    for name in (
        "expanded",
        "pruned",
        "leaves",
        "incumbent_updates",
        "enqueued",
        "deduped",
        "dominated",
        "children_priced",
        "children_built",
        "plans_materialised",
    ):
        registry.counter(f"optimizer.{name}").inc(getattr(stats, name))
    registry.gauge("optimizer.budget_exhausted").set(
        1.0 if stats.budget_exhausted else 0.0
    )
    if best_cost is not None:
        registry.gauge("optimizer.best_cost").set(best_cost)
    if estimated_results is not None:
        registry.gauge("optimizer.estimated_results").set(estimated_results)


def snapshot_run(
    stats: "BnBStats | None",
    result: "ExecutionResult | None",
    best_cost: float | None = None,
    estimated_results: float | None = None,
) -> Mapping[str, Any]:
    """One-shot convenience: absorb everything, return the snapshot."""
    registry = MetricsRegistry()
    if stats is not None:
        record_optimization(
            registry,
            stats,
            best_cost=best_cost,
            estimated_results=estimated_results,
        )
    if result is not None:
        record_execution(registry, result)
    return registry.snapshot()
