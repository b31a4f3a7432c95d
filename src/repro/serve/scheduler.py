"""Cooperative multi-query scheduler on one virtual timeline.

The serving runtime is a discrete-event simulation over a **server
clock**: requests arrive at workload-assigned virtual times, pass
admission control, and execute as *cooperative coroutines* — the
step-resumable generators of :meth:`~repro.engine.executor.PlanExecutor.steps`
— that pause before every chunk-granular service round trip.  The
scheduler owns the interleaving:

* **Admission control** — at most ``max_concurrency`` requests execute
  at once; excess arrivals wait in a bounded FIFO queue; a full queue
  rejects the arrival (backpressure to the client).  A process-global
  :class:`AdmissionController` counts the *total* executing across
  every scheduler shard of a sharded runtime.
* **Per-service rate limits** — with ``default_service_rate`` set, each
  interface has a token bucket on virtual time.  A paused query about to
  call interface ``S`` (the yielded
  :class:`~repro.engine.executor.StepEvent` names it) resumes
  only once a token is available, so a hot service throttles *all* its
  callers without stalling queries bound elsewhere.
* **Follow-up parking** — a ``more``/``rerank``/``resubmit`` arriving
  before its target session finished parks until the target completes,
  then re-enters admission.
* **Per-session serialization** — interactions on one session mutate
  shared state (fetch factors, the ranking function, the cached result
  list), so a session executes at most one interaction at a time and
  its waiters are granted in *arrival order*.  Arrival order is a
  property of the workload, not of cache timing — which is what keeps
  per-request results byte-identical between shared and isolated modes
  even when completion times differ wildly.

Time composition: each session's pool clock accumulates only that
query's service latencies.  When a resumed step consumes ``Δ`` of pool
time, the job's next event lands at ``server_now + Δ`` — so concurrent
queries overlap on the server clock exactly as independent clients
would, while per-query accounting stays isolated.  Everything (arrival
order, tie-breaks, token grants) is a pure function of the workload and
data seeds: event-heap entries order by ``(time, shard index, sequence
number)``, so the interleaving is deterministic and seed-reproducible —
for one scheduler and for N shards merged onto one heap alike (see
:mod:`repro.serve.sharding`).

The scheduler never touches result contents: sharing caches changes
*when* and *how many* round trips happen, never what a query returns —
see DESIGN.md, "Why cross-query sharing is safe under the virtual
clock".

Sharding hooks: a standalone ``ServeScheduler`` owns all of its state.
A sharded runtime constructs N of them over *shared* pieces — one
:class:`SessionTable` (parking, serialization, outcomes), one
:class:`AdmissionController`, one event heap with its sequence counter,
and a ``home`` function that places (re-)arrivals on a session's home
shard — while each shard keeps its own clock, admission queue, and token
buckets.  A shard never references the runtime that owns it, so a
finished run is freed by reference counting, sessions and caches
included.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from os import PathLike
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.core.optimizer import OptimizerConfig
from repro.engine.events import VirtualClock
from repro.engine.liquid import BACKENDS
from repro.errors import ExecutionError, SearchComputingError
from repro.model.tuples import CompositeTuple
from repro.obs.metrics import MetricsRegistry
from repro.obs.serving import SloTracker, record_request_span
from repro.obs.tracer import NullTracer, Tracer, coerce_tracer
from repro.serve.sessions import SessionManager
from repro.serve.workload import QueryTemplate, Request, default_templates

__all__ = [
    "AdmissionController",
    "ServeConfig",
    "ServeScheduler",
    "ServeReport",
    "SessionTable",
    "RequestOutcome",
    "combined_digest",
    "result_digest",
]

CACHE_MODES = ("shared", "private", "isolated")

#: Token-bucket depth: how many calls a rate-limited service absorbs
#: back-to-back.
SERVICE_BURST = 4.0


@dataclass(frozen=True)
class ServeConfig:
    """The one picklable description of a serving run.

    Everything :func:`repro.serve.runtime.serve` needs besides the
    request stream and the live observers (tracer, SLO tracker, hooks):
    what is served, how it is scheduled, where it is placed, what is
    cached, on which backend, and whether it is durable.  A worker
    process or the crash harness receives the whole object.
    """

    # -- scheduling: **per-shard** admission, concurrency, backpressure ----
    max_concurrency: int = 4
    queue_limit: int = 64
    #: Max calls per virtual second to each interface (a token bucket of
    #: depth :data:`SERVICE_BURST`); ``None`` leaves them unlimited.
    default_service_rate: float | None = None
    # -- what is served ----------------------------------------------------
    #: The workload's templates (``None``: the chapter's two schemas).
    templates: Sequence[QueryTemplate] | None = None
    #: Global seed of every session's service pool.
    data_seed: int = 2009
    #: Plans every request.
    optimizer_config: OptimizerConfig = field(default_factory=OptimizerConfig)
    # -- placement ---------------------------------------------------------
    num_shards: int = 1
    #: Work stealing between shards.
    steal: bool = True
    #: One worker process per shard instead of the in-process merged loop.
    parallel: bool = False
    # -- caches ------------------------------------------------------------
    #: ``shared`` (one plan cache, one cross-shard invocation cache),
    #: ``private`` (one invocation cache per shard) or ``isolated`` (every
    #: request plans and fetches alone).
    cache_mode: str = "shared"
    #: LRU bounds (``None``: unbounded).
    cache_size: int | None = None
    plan_cache_size: int | None = None
    # -- backend and its pacing --------------------------------------------
    backend: str = "virtual"
    #: asyncio only: wall seconds per virtual second, and the per-service
    #: connection-pool size.
    time_scale: float = 0.001
    max_connections: int = 8
    #: Sample queue depth / admission occupancy time series (virtual only).
    sample_metrics: bool = False
    # -- durability (in-process virtual runs only) ---------------------------
    #: Checkpoint store directory; ``None`` serves without durability.
    checkpoint_dir: "str | PathLike[str] | None" = None
    #: Write a checkpoint every N-th terminal outcome (0: only on demand).
    checkpoint_every: int = 25
    #: Load the newest checkpoint first and serve only what it leaves.
    resume: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "templates", tuple(self.templates or default_templates())
        )
        if not isinstance(self.data_seed, int) or isinstance(self.data_seed, bool):
            raise ExecutionError(
                f"data_seed must be an int, not {type(self.data_seed).__name__}"
            )
        if self.max_concurrency <= 0:
            raise ExecutionError("max_concurrency must be positive")
        if self.queue_limit < 0:
            raise ExecutionError("queue_limit cannot be negative")
        if self.default_service_rate is not None and not self.default_service_rate > 0:
            raise ExecutionError("default_service_rate must be positive")  # NaN too
        if not self.time_scale >= 0:
            raise ExecutionError("time_scale must be a number >= 0")  # NaN too
        if self.num_shards <= 0:
            raise ExecutionError("num_shards must be positive")
        if self.checkpoint_every < 0:
            raise ExecutionError("checkpoint_every cannot be negative")
        if self.resume and self.checkpoint_dir is None:
            raise ExecutionError("resume needs a checkpoint_dir to resume from")
        for name in ("cache_size", "plan_cache_size"):
            if getattr(self, name) is not None and getattr(self, name) <= 0:
                raise ExecutionError(f"{name} must be positive (None: unbounded)")
        if self.cache_mode not in CACHE_MODES:
            raise ExecutionError(
                f"unknown cache_mode {self.cache_mode!r}; "
                f"expected one of {CACHE_MODES}"
            )
        if self.backend not in BACKENDS:
            raise ExecutionError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        in_process = not self.parallel
        if self.backend == "asyncio" and self.num_shards > 1 and in_process:
            raise ExecutionError(
                "in-process sharding runs on the virtual clock; the asyncio "
                "backend shards one worker process per shard (parallel=True)"
            )
        if self.checkpoint_dir is not None and not (
            in_process and self.backend == "virtual"
        ):
            raise ExecutionError(
                "durable serving runs in-process on the virtual backend"
            )


class SessionTable:
    """Session coordination state shared by every shard of one runtime.

    Parking, per-session serialization, and outcomes are *global*
    properties of the serving runtime — a follow-up must park until its
    target completes even when the two execute on different shards, and
    a stolen session must still never interleave with its own in-flight
    interaction.  Pulling this state out of the scheduler is what makes
    work stealing safe: whichever shard executes a request consults the
    same table.
    """

    def __init__(self) -> None:
        self.known_runs: set[int] = set()
        self.parked: dict[int, list[Request]] = {}
        self.busy_sessions: set[int] = set()
        self.session_waiters: dict[int, deque[Request]] = {}
        self.outcomes: dict[int, RequestOutcome] = {}
        #: request_id -> (virtual time, reason) a parked/serialized
        #: follow-up was woken; consumed into its outcome at start so
        #: the ``serve.park`` span survives checkpoints.
        self.wake_times: dict[int, tuple[float, str]] = {}


class AdmissionController:
    """Process-global count of concurrently executing requests.

    A sharded runtime passes one controller to all shards, so ``peak``
    is the total concurrency across shards (``ServeReport.admission_peak``).
    """

    def __init__(self) -> None:
        self.active = 0
        self.peak = 0

    def acquire(self) -> None:
        self.active += 1
        if self.active > self.peak:
            self.peak = self.active

    def release(self) -> None:
        self.active -= 1


@dataclass
class _TokenBucket:
    """Token bucket on virtual time with FIFO reservations."""

    rate: float
    burst: float
    tokens: float = field(init=False)
    updated: float = 0.0

    def __post_init__(self) -> None:
        self.tokens = self.burst

    def grant(self, at: float) -> float:
        """Earliest time ≥ ``at`` a call may go out; claims the token.

        Reservations are granted in request order: a later reservation
        never jumps ahead of one already granted (``updated`` tracks the
        frontier the bucket state is valid at).
        """
        now = max(at, self.updated)
        self.tokens = min(self.burst, self.tokens + (now - self.updated) * self.rate)
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return now
        wait = (1.0 - self.tokens) / self.rate
        self.tokens = 0.0
        self.updated = now + wait
        return now + wait


@dataclass
class _Job:
    """One admitted request executing cooperatively."""

    request: Request
    stepper: Iterator | None
    admitted_at: float
    started_at: float
    calls_before: int
    rate_wait: float = 0.0
    rate_hits: int = 0
    steps: int = 0
    result: list[CompositeTuple] | None = None
    error: str | None = None
    #: Whether the optimizer plan came from the plan cache (``None``
    #: when the request kind never consults it, e.g. ``rerank``).
    plan_cached: bool | None = None


@dataclass
class RequestOutcome:
    """What happened to one workload request."""

    request: Request
    status: str  # "completed" | "rejected" | "failed"
    finished_at: float = 0.0
    queue_wait: float = 0.0
    rate_wait: float = 0.0
    round_trips: int = 0
    steps: int = 0
    results: list[CompositeTuple] | None = None
    error: str | None = None
    #: Virtual time execution began (admission granted).
    started_at: float = 0.0
    #: Index of the shard that executed (or rejected) the request.
    shard: int = 0
    #: True when a work-stealing shard pulled this request from another
    #: shard's admission queue.
    stolen: bool = False
    #: Home shard the request was stolen from (set with ``stolen``).
    stolen_from: int | None = None
    #: Result digest, populated instead of ``results`` when the
    #: scheduler was built with ``digest_fn`` (bounded-memory serving).
    digest: str | None = None
    #: Times the token bucket delayed a step (``rate_wait`` totals the
    #: delay; this counts the delayed steps).
    rate_hits: int = 0
    #: Virtual time a parked/serialized follow-up was woken (0 when the
    #: request never parked) and why ("target" | "session").
    unparked_at: float = 0.0
    wake_reason: str | None = None
    #: Plan-cache verdict for ``run`` requests (``None`` otherwise).
    plan_cached: bool | None = None

    @property
    def latency(self) -> float:
        """Virtual time from arrival to completion (queueing included)."""
        return self.finished_at - self.request.arrival


def result_digest(tuples: Sequence[CompositeTuple]) -> str:
    """Stable content hash of a result list (order, components, scores).

    Scores are rounded to 12 decimals purely for printability; every
    serving mode computes them from identical component tuples, so the
    digest is an exact equality witness.  A row contributes, per alias in
    sorted order, :meth:`ServiceTuple.digest_line`, then its score text.
    Only what depends on the row is done per row: the aliases are sorted
    again only when the key set changes, a tuple renders its line once
    per alias (cached tuples recur across requests and checkpoints), and
    a non-zero float score is formatted once per call — ``0.0``/``-0.0``
    and ``1``/``1.0`` compare equal but render apart.
    """
    parts: list[str] = []
    keys = order = None
    score_texts: dict[float, str] = {}
    for comp in tuples:
        components = comp.components
        if components.keys() != keys:
            keys, order = components.keys(), sorted(components)
        for alias in order:
            tup = components[alias]
            try:  # the kept line, read without a call: most rows are warm
                parts.append(tup._lines[alias])
            except (AttributeError, KeyError):
                parts.append(tup.digest_line(alias))
        score = comp.score
        if type(score) is float and score:
            text = score_texts.get(score)
            if text is None:
                text = score_texts[score] = f"score={round(score, 12)!r}"
            parts.append(text)
        else:
            parts.append(f"score={round(score, 12)!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def combined_digest(digests: Mapping[int, str]) -> str:
    """One hash over a whole run's per-request digests.

    Sorted by request id, so it is invariant to completion order — the
    compact byte-identity witness compared across shard counts, cache
    modes, backends and crash-resumed runs.
    """
    hasher = hashlib.sha256()
    for request_id in sorted(digests):
        hasher.update(f"{request_id}:{digests[request_id]}\n".encode())
    return hasher.hexdigest()


@dataclass
class ServeReport:
    """Outcome of serving one workload."""

    outcomes: dict[int, RequestOutcome]
    makespan: float
    total_round_trips: int
    metrics: MetricsRegistry
    plan_cache_stats: dict[str, float] | None
    invocation_cache_stats: dict[str, float] | None
    #: What the run made the simulated world generate: result lists
    #: opened, tuples generated, tuples served from a prefix another
    #: session generated, sampling attempts, fallback constraint checks
    #: (:class:`~repro.services.simulated.WorldStats`).
    world_stats: dict[str, int] | None = None
    #: Per-shard accounting (sharded runtimes only).
    shard_stats: list[dict[str, Any]] | None = None
    #: Number of scheduler shards that served the workload.
    num_shards: int = 1
    #: Peak process-global concurrency observed by the admission
    #: controller.
    admission_peak: int = 0
    #: SLO tracker the run observed completed latencies into (optional).
    slo: "SloTracker | None" = None
    #: Durable runs only: whether a resume happened, from which key, how
    #: many sessions were restored, checkpoints written (see
    #: :meth:`repro.durability.serve.ServeCheckpointer.info`).
    durability: dict[str, Any] | None = None
    #: Unreachable objects the collection at the end of :func:`serve` found
    #: (summed over worker processes): the serving loop makes no reference
    #: cycles, so this is 0.
    cyclic_garbage: int = 0

    def completed(self) -> list[RequestOutcome]:
        return [o for o in self.outcomes.values() if o.status == "completed"]

    def digests(self) -> dict[int, str]:
        """Per-request result digests of the completed requests — the
        equality witness across every serving mode."""
        return {
            request_id: (
                outcome.digest
                if outcome.digest is not None
                else result_digest(outcome.results or ())
            )
            for request_id, outcome in self.outcomes.items()
            if outcome.status == "completed"
        }

    def by_status(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for outcome in self.outcomes.values():
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    @property
    def throughput(self) -> float:
        """Completed requests per virtual second of the whole run."""
        done = len(self.completed())
        return done / self.makespan if self.makespan > 0 else float(done)

    def latency_summary(self) -> dict[str, float]:
        """Latency percentiles of **completed** requests only.

        Failed requests are observed into the separate
        ``serve.latency_failed`` histogram (see :meth:`failed_latency_summary`):
        fail-fast errors would otherwise drag the percentiles of the
        result-delivering path; rejected requests never execute and have
        no service latency at all.
        """
        return self.metrics.histogram("serve.latency").summary()

    def failed_latency_summary(self) -> dict[str, float]:
        """Latency percentiles of requests that errored mid-execution."""
        return self.metrics.histogram("serve.latency_failed").summary()

    def summary(self) -> dict[str, Any]:
        """JSON-serialisable digest (what the benchmark report embeds)."""
        payload: dict[str, Any] = {
            "requests": len(self.outcomes),
            "by_status": self.by_status(),
            "makespan": self.makespan,
            "throughput": self.throughput,
            "total_round_trips": self.total_round_trips,
            "latency": self.latency_summary(),
            "latency_failed": self.failed_latency_summary(),
            "queue_wait": self.metrics.histogram("serve.queue_wait").summary(),
            "plan_cache": self.plan_cache_stats,
            "invocation_cache": self.invocation_cache_stats,
            "world": self.world_stats,
            "cyclic_garbage": self.cyclic_garbage,
        }
        if self.slo is not None:
            payload["slo"] = self.slo.snapshot()
        if self.num_shards > 1 or self.shard_stats is not None:
            payload["num_shards"] = self.num_shards
            payload["admission_peak"] = self.admission_peak
            payload["shards"] = self.shard_stats
        return payload


def _stats_delta(
    current: Mapping[str, float], baseline: Mapping[str, float] | None
) -> dict[str, float]:
    """Per-run view of cumulative cache counters.

    Caches shared across schedulers (or serving runs) accumulate
    *lifetime* totals; a report must attribute to its own run only the
    traffic that happened during it — otherwise two runtimes sharing one
    cache double-report each other's hits.  Level-style entries
    (``entries``, ``hit_rate``) are reported as-is; monotone counters
    are differenced against the run-start snapshot.
    """
    if baseline is None:
        return dict(current)
    delta: dict[str, float] = {}
    for name, value in current.items():
        if name in ("entries", "hit_rate"):
            delta[name] = value
        else:
            delta[name] = value - baseline.get(name, 0)
    hits = delta.get("hits", 0)
    misses = delta.get("misses", 0)
    if "hit_rate" in delta:
        total = hits + misses
        delta["hit_rate"] = hits / total if total else 0.0
    return delta


def snapshot_cache_stats(sessions: SessionManager) -> tuple[
    dict[str, float] | None, dict[str, float] | None, dict[str, int]
]:
    """Run-start snapshot of the manager's plan/invocation cache counters
    and of its simulated worlds' generation counters."""
    plan = (
        sessions.plan_cache.stats.snapshot()
        if sessions.plan_cache is not None
        else None
    )
    cache = sessions.invocation_cache
    invocation = (
        {
            "hits": cache.stats.hits,
            "misses": cache.stats.misses,
            "evictions": cache.stats.evictions,
            "entries": len(cache),
            # The result memo: executions that consulted it / it replayed.
            "replayable": cache.replayable,
            "replays": cache.replays,
        }
        if cache is not None
        else None
    )
    return plan, invocation, sessions.world_stats()


def build_cache_stats(
    sessions: SessionManager,
    plan_baseline: dict[str, float] | None,
    invocation_baseline: dict[str, float] | None,
    world_baseline: dict[str, int],
) -> tuple[dict[str, float] | None, dict[str, float] | None, dict[str, int]]:
    """Current cache and world stats as *this run's* deltas against the
    snapshots."""
    plan = (
        sessions.plan_cache.stats.delta(plan_baseline)
        if sessions.plan_cache is not None
        else None
    )
    _, invocation_now, world_now = snapshot_cache_stats(sessions)
    invocation = (
        _stats_delta(invocation_now, invocation_baseline)
        if invocation_now is not None
        else None
    )
    return plan, invocation, _stats_delta(world_now, world_baseline)


def record_cache_gauges(
    metrics: MetricsRegistry,
    plan_stats: Mapping[str, float] | None,
    invocation_stats: Mapping[str, float] | None,
    world_stats: Mapping[str, int],
) -> None:
    """Expose the run's cache hit rates and world counters as gauges
    (Prometheus surface)."""
    for name, value in world_stats.items():
        metrics.gauge(f"serve.world.{name}").set(value)
    if plan_stats is not None:
        metrics.gauge("serve.plan_cache.hit_rate").set(
            plan_stats.get("hit_rate", 0.0)
        )
        metrics.gauge("serve.plan_cache.hits").set(plan_stats.get("hits", 0))
        metrics.gauge("serve.plan_cache.misses").set(
            plan_stats.get("misses", 0)
        )
    if invocation_stats is not None:
        hits = invocation_stats.get("hits", 0)
        misses = invocation_stats.get("misses", 0)
        total = hits + misses
        metrics.gauge("serve.invocation_cache.hit_rate").set(
            invocation_stats.get(
                "hit_rate", hits / total if total else 0.0
            )
        )
        metrics.gauge("serve.invocation_cache.hits").set(hits)
        metrics.gauge("serve.invocation_cache.misses").set(misses)
        replays = invocation_stats.get("replays", 0)
        replayable = invocation_stats.get("replayable", 0)
        metrics.gauge("serve.invocation_cache.replays").set(replays)
        metrics.gauge("serve.invocation_cache.replayable").set(replayable)
        metrics.gauge("serve.invocation_cache.replay_rate").set(
            replays / replayable if replayable else 0.0
        )


def run_events(
    scheduler: Any,
    workload: Sequence[Request],
    route: "Callable[[Request, float], None]",
    loop: "Callable[[], float]",
    reject: "Callable[[Request, float], None]",
) -> ServeReport:
    """What both ``run`` methods do around their own event loop.

    ``scheduler`` is a :class:`ServeScheduler` or the merged-loop
    :class:`~repro.serve.sharding.ShardedServeScheduler` (same ``table`` /
    ``sessions`` / ``metrics`` / ``admission`` / ``slo`` attributes);
    ``route`` schedules an arrival, ``loop`` drains the heap and returns
    the makespan, ``reject`` rejects a request on its home shard.
    """
    table = scheduler.table
    # Union, not assignment: a durability resume pre-seeds the table with
    # pre-crash completed runs so surviving follow-ups still find them.
    table.known_runs |= {r.request_id for r in workload if r.kind == "run"}
    baselines = snapshot_cache_stats(scheduler.sessions)
    for request in sorted(workload, key=lambda r: (r.arrival, r.request_id)):
        route(request, request.arrival)
    makespan = loop()
    # Follow-ups still parked at drain time targeted a run that never
    # completed (rejected or failed): account them as rejected.
    for parked in table.parked.values():
        for request in parked:
            reject(request, makespan)
    table.parked.clear()
    missing = [r.request_id for r in workload if r.request_id not in table.outcomes]
    if missing:
        raise ExecutionError(
            f"{len(missing)} workload requests drained without an "
            f"outcome (first: {missing[:5]}) — stranded in the runtime"
        )
    return build_report(
        scheduler.sessions,
        scheduler.metrics,
        baselines,
        table.outcomes,
        makespan,
        admission_peak=scheduler.admission.peak,
        slo=scheduler.slo,
    )


def build_report(
    sessions: SessionManager,
    metrics: MetricsRegistry,
    baselines: tuple,
    outcomes: Mapping[int, RequestOutcome],
    makespan: float,
    *,
    admission_peak: int = 0,
    slo: "SloTracker | None" = None,
) -> ServeReport:
    """The report every serving loop ends with: this run's cache deltas
    (against its run-start ``baselines``), the gauges, the outcomes."""
    plan_stats, invocation_stats, world_stats = build_cache_stats(
        sessions, *baselines
    )
    record_cache_gauges(metrics, plan_stats, invocation_stats, world_stats)
    metrics.gauge("serve.admission.peak").set(admission_peak)
    return ServeReport(
        outcomes=dict(sorted(outcomes.items())),
        makespan=makespan,
        total_round_trips=sessions.total_round_trips(),
        metrics=metrics,
        plan_cache_stats=plan_stats,
        invocation_cache_stats=invocation_stats,
        world_stats=world_stats,
        admission_peak=admission_peak,
        slo=slo,
    )


class ServeScheduler:
    """Discrete-event loop interleaving many liquid-query sessions.

    Standalone it is the complete single-timeline serving runtime of
    PR 4.  With the sharding hooks (``shard_index``, shared ``table`` /
    ``admission`` / ``events`` / ``seq``, and ``home``) it is one shard of the
    :class:`~repro.serve.sharding.ShardedServeScheduler`, which owns the
    merged event loop.
    """

    def __init__(
        self,
        sessions: SessionManager,
        config: ServeConfig | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: "Tracer | NullTracer | None" = None,
        *,
        shard_index: int = 0,
        table: SessionTable | None = None,
        admission: AdmissionController | None = None,
        events: list | None = None,
        seq: "Iterator[int] | None" = None,
        home: "Callable[[Request], int] | None" = None,
        digest_fn: "Callable[[Sequence[CompositeTuple]], str] | None" = None,
        emit_shard_metrics: bool = False,
        checkpointer: Any = None,
        slo: "SloTracker | None" = None,
    ) -> None:
        self.sessions = sessions
        self.config = config or ServeConfig()
        self.metrics = metrics or MetricsRegistry()
        self.tracer = coerce_tracer(tracer)
        #: Optional latency-SLO tracker fed every completed request.
        self.slo = slo
        #: When on, queue depth and admission occupancy are sampled into
        #: bounded :class:`~repro.obs.metrics.TimeSeries` instruments on
        #: every arrival/finish.  Off by default — the no-op path must
        #: stay near-free.
        self.sample_metrics = self.config.sample_metrics
        self.clock = VirtualClock()
        self.shard_index = shard_index
        self.table = table if table is not None else SessionTable()
        self.admission = admission if admission is not None else AdmissionController()
        self.digest_fn = digest_fn
        #: Periodic durability hook (``repro.durability.serve.ServeCheckpointer``):
        #: notified after every terminal outcome; writes a checkpoint each
        #: N-th one.  ``None`` (the default) costs nothing.
        self.checkpointer = checkpointer
        self.emit_shard_metrics = emit_shard_metrics
        self._home = home
        self._seq = seq if seq is not None else itertools.count()
        #: (time, shard_index, seq, action, payload) — possibly shared
        #: with sibling shards (the deterministic merged timeline).
        self._events: list[tuple[float, int, int, str, Any]] = (
            events if events is not None else []
        )
        self._queue: deque[Request] = deque()
        self._queued_at: dict[int, float] = {}
        self._buckets: dict[str, _TokenBucket] = {}
        self._active = 0
        # Concurrency-lane bookkeeping (tracing only): each executing
        # request holds the lowest free lane, which becomes the Chrome
        # ``tid`` so one shard's overlap renders as stacked thread rows.
        self._lanes: dict[int, int] = {}
        self._lane_free: list[int] = []
        self._lane_next = 0

    # -- event plumbing ------------------------------------------------------

    def _schedule(
        self, at: float, action: str, payload: Any, shard: int | None = None
    ) -> None:
        index = self.shard_index if shard is None else shard
        heapq.heappush(self._events, (at, index, next(self._seq), action, payload))

    def _route_arrival(self, request: Request, at: float) -> None:
        """Schedule an (re-)arrival on the session's home shard."""
        home = self._home(request) if self._home is not None else None
        self._schedule(at, "arrival", request, home)

    def _shard_counter(self, name: str):
        """Per-shard counter, or ``None`` when shard metrics are off."""
        if not self.emit_shard_metrics:
            return None
        return self.metrics.counter(f"serve.shard.{self.shard_index}.{name}")

    def _inc_shard(self, name: str) -> None:
        counter = self._shard_counter(name)
        if counter is not None:
            counter.inc()

    def _bucket(self, interface: str) -> _TokenBucket | None:
        bucket = self._buckets.get(interface)
        if bucket is None:
            rate = self.config.default_service_rate
            if rate is None:
                return None
            bucket = self._buckets[interface] = _TokenBucket(
                rate=rate, burst=SERVICE_BURST
            )
        return bucket

    # -- main loop -----------------------------------------------------------

    def run(self, workload: Sequence[Request]) -> ServeReport:
        """Serve the workload to completion; returns the report."""

        def loop() -> float:
            while self._events:
                at, _, _, action, payload = heapq.heappop(self._events)
                self.clock.advance_to(at)
                self.dispatch(action, payload, at)
            return self.clock.now

        return run_events(self, workload, self._route_arrival, loop, self._reject)

    def dispatch(self, action: str, payload: Any, at: float) -> None:
        """Process one popped event (the shard-level transition table)."""
        if action == "arrival":
            self._on_arrival(payload, at)
        elif action == "resume":
            self._on_resume(payload, at)
        else:
            self._on_finish(payload, at)

    # -- transitions ---------------------------------------------------------

    def _on_arrival(self, request: Request, now: float) -> None:
        if request.target is not None:
            if request.target not in self.table.known_runs:
                self._reject(request, now)
                return
            target = self.table.outcomes.get(request.target)
            if target is None or target.status == "running":
                # Target still queued/executing: park until it finishes.
                self.table.parked.setdefault(request.target, []).append(request)
                return
            if target.status != "completed":
                self._reject(request, now)
                return
            if request.target in self.table.busy_sessions:
                # Another interaction holds the session: serialize.
                # Waiters drain in arrival order — a workload property,
                # identical across serving modes.
                self.table.session_waiters.setdefault(
                    request.target, deque()
                ).append(request)
                return
            self.table.busy_sessions.add(request.target)
        if self._active < self.config.max_concurrency:
            self._start(request, now)
        elif len(self._queue) < self.config.queue_limit:
            self._queue.append(request)
            self._queued_at[request.request_id] = now
            if self.emit_shard_metrics:
                gauge = self.metrics.gauge(
                    f"serve.shard.{self.shard_index}.max_queue_depth"
                )
                if len(self._queue) > gauge.value:
                    gauge.set(len(self._queue))
        else:
            if request.target is not None:
                self._release_session(request.target, now)
            self._reject(request, now)
        if self.sample_metrics:
            self._sample_load(now)

    def _sample_load(self, now: float) -> None:
        """Sample queue depth / admission occupancy (``sample_metrics``)."""
        self.metrics.timeseries(
            f"serve.shard.{self.shard_index}.queue_depth"
        ).sample(now, len(self._queue))
        self.metrics.timeseries("serve.admission.active").sample(
            now, self.admission.active
        )

    def _start(self, request: Request, now: float) -> None:
        """Begin executing an admitted request."""
        self._active += 1
        self.admission.acquire()
        self._inc_shard("started")
        if self.tracer.enabled:
            if self._lane_free:
                lane = heapq.heappop(self._lane_free)
            else:
                lane = self._lane_next
                self._lane_next += 1
            self._lanes[request.request_id] = lane
        queue_wait = now - self._queued_at.pop(request.request_id, now)
        if request.kind == "rerank":
            # CPU-only: re-scores the cached result list, zero service
            # calls, zero virtual time — completes at its start instant.
            job = _Job(
                request=request,
                stepper=None,
                admitted_at=now,
                started_at=now,
                calls_before=0,
            )
            try:
                job.result = self.sessions.rerank(request)
            except SearchComputingError as exc:
                job.error = f"{type(exc).__name__}: {exc}"
            self._queue_wait_of(request, queue_wait, now)
            self._schedule(now, "finish", job)
            return
        plan_cache = self.sessions.plan_cache
        track_plan = plan_cache is not None and request.kind == "run"
        plan_hits_before = plan_cache.stats.hits if track_plan else 0
        try:
            stepper = self.sessions.stepper(request)
            pool = self.sessions.pool_for(request)
        except SearchComputingError as exc:
            job = _Job(
                request=request,
                stepper=None,
                admitted_at=now,
                started_at=now,
                calls_before=0,
                error=f"{type(exc).__name__}: {exc}",
            )
            self._queue_wait_of(request, queue_wait, now)
            self._schedule(now, "finish", job)
            return
        job = _Job(
            request=request,
            stepper=stepper,
            admitted_at=now,
            started_at=now,
            calls_before=pool.log.total_calls(),
            plan_cached=(
                plan_cache.stats.hits > plan_hits_before if track_plan else None
            ),
        )
        self._queue_wait_of(request, queue_wait, now)
        self._schedule(now, "resume", job)

    def _queue_wait_of(self, request: Request, wait: float, now: float) -> None:
        self.metrics.histogram("serve.queue_wait").observe(wait)
        outcome = RequestOutcome(
            request=request,
            status="running",
            queue_wait=wait,
            started_at=now,
            shard=self.shard_index,
        )
        wake = self.table.wake_times.pop(request.request_id, None)
        if wake is not None:
            outcome.unparked_at, outcome.wake_reason = wake
        self.table.outcomes[request.request_id] = outcome

    def _on_resume(self, job: _Job, now: float) -> None:
        pool = self.sessions.pool_for(job.request)
        before = pool.clock.now
        assert job.stepper is not None
        try:
            event = next(job.stepper)
        except StopIteration as stop:
            job.result = stop.value
            self._schedule(now + (pool.clock.now - before), "finish", job)
            return
        except SearchComputingError as exc:
            job.error = f"{type(exc).__name__}: {exc}"
            self._schedule(now + (pool.clock.now - before), "finish", job)
            return
        job.steps += 1
        ready = now + (pool.clock.now - before)
        bucket = self._bucket(event.interface)
        if bucket is not None:
            granted = bucket.grant(ready)
            if granted > ready:
                job.rate_wait += granted - ready
                job.rate_hits += 1
                self.metrics.counter("serve.rate_limited").inc()
            ready = granted
        self._schedule(ready, "resume", job)

    def _on_finish(self, job: _Job, now: float) -> None:
        self._active -= 1
        self.admission.release()
        request = job.request
        outcome = self.table.outcomes[request.request_id]
        outcome.finished_at = now
        outcome.rate_wait = job.rate_wait
        outcome.rate_hits = job.rate_hits
        outcome.steps = job.steps
        outcome.shard = self.shard_index
        outcome.plan_cached = job.plan_cached
        if job.error is not None:
            outcome.status = "failed"
            outcome.error = job.error
            self.metrics.counter("serve.failed").inc()
            self._inc_shard("failed")
            # Failed requests get their own histogram: ``serve.latency``
            # stays completed-only (see :meth:`ServeReport.latency_summary`)
            # so percentiles are not skewed by fail-fast errors, while the
            # time burned on failures stays observable.
            self.metrics.histogram("serve.latency_failed").observe(
                outcome.latency
            )
        else:
            outcome.status = "completed"
            if self.digest_fn is not None:
                # Bounded-memory serving: keep the equality witness, drop
                # the tuples (the session still holds its own copy).
                outcome.digest = self.digest_fn(job.result or ())
            else:
                outcome.results = job.result
            self.metrics.counter("serve.completed").inc()
            self._inc_shard("completed")
            self.metrics.histogram("serve.latency").observe(outcome.latency)
        if job.stepper is not None:
            pool = self.sessions.pool_for(request)
            outcome.round_trips = pool.log.total_calls() - job.calls_before
        self.metrics.counter(f"serve.kind.{request.kind}").inc()
        if self.slo is not None and outcome.status == "completed":
            self.slo.observe(outcome.latency, at=now)
        if self.tracer.enabled:
            lane = self._lanes.pop(request.request_id, None)
            if lane is not None:
                heapq.heappush(self._lane_free, lane)
            record_request_span(self.tracer, outcome, lane=lane)
        # Wake follow-ups parked on this request — on their home shard.
        for parked in self.table.parked.pop(request.request_id, ()):
            self.table.wake_times[parked.request_id] = (now, "target")
            self._route_arrival(parked, now)
        # A finished interaction frees its session for the next waiter.
        if request.target is not None:
            self._release_session(request.target, now)
        # Grant freed slots to the admission queue (FIFO).
        while self._queue and self._active < self.config.max_concurrency:
            self._start(self._queue.popleft(), now)
        if self.sample_metrics:
            self._sample_load(now)
        if self.checkpointer is not None:
            self.checkpointer.on_terminal(self, outcome)

    def _release_session(self, root_id: int, now: float) -> None:
        self.table.busy_sessions.discard(root_id)
        waiters = self.table.session_waiters.get(root_id)
        if waiters:
            waiter = waiters.popleft()
            self.table.wake_times[waiter.request_id] = (now, "session")
            self._route_arrival(waiter, now)

    def _reject(self, request: Request, now: float) -> None:
        # A parked follow-up rejected when its target fails (or at drain)
        # has been waiting since it arrived — that wait is queue context,
        # not free time, and dropping it would understate queueing under
        # admission pressure.
        queued_at = self._queued_at.pop(request.request_id, request.arrival)
        outcome = RequestOutcome(
            request=request,
            status="rejected",
            finished_at=now,
            queue_wait=max(0.0, now - queued_at),
            shard=self.shard_index,
        )
        wake = self.table.wake_times.pop(request.request_id, None)
        if wake is not None:
            outcome.unparked_at, outcome.wake_reason = wake
        self.table.outcomes[request.request_id] = outcome
        self.metrics.counter("serve.rejected").inc()
        self._inc_shard("rejected")
        # Every terminal outcome counts toward its kind — completed,
        # failed, *and* rejected — so per-kind totals reconcile with
        # ``by_status()`` under admission pressure.
        self.metrics.counter(f"serve.kind.{request.kind}").inc()
        if self.tracer.enabled:
            record_request_span(self.tracer, outcome)
        # A rejected run can never serve its follow-ups.
        for parked in self.table.parked.pop(request.request_id, ()):
            self._reject(parked, now)
