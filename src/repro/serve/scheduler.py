"""What every serving loop shares: the config, the session table, outcomes,
digests and the report.

:class:`ServeConfig` is the one picklable description of a serving run;
:class:`SessionTable` the session coordination state (parking,
per-session serialization, outcomes) a scheduler serves on;
:class:`RequestOutcome` what became of one request, and
:class:`ServeReport` of a whole run, which :func:`build_report` assembles
from the run's live counters.  The virtual-clock scheduler that fills
them is :class:`repro.serve.sharding.ServeScheduler`, one merged timeline
at every shard count; the asyncio loop
(:func:`repro.serve.async_serve.serve_async`) fills the same types.

:func:`result_digest` is the one definition of a result list's bytes
and :func:`combined_digest` of a run's: the equality witness compared
across shard counts, cache modes, backends and crash-resumed runs.  The
scheduler never touches result contents: sharing caches changes *when*
and *how many* round trips happen, never what a query returns — see
DESIGN.md, "Why cross-query sharing is safe under the virtual clock".
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import asdict, dataclass
from os import PathLike
from typing import Any, Iterable, Mapping, Sequence

from repro.engine.executor import InvocationCacheStats
from repro.engine.liquid import BACKENDS
from repro.errors import ExecutionError
from repro.model.tuples import CompositeTuple
from repro.obs.metrics import MetricsRegistry
from repro.obs.serving import SloTracker
from repro.serve.sessions import SessionManager
from repro.serve.workload import QueryTemplate, Request, default_templates

__all__ = [
    "ServeConfig",
    "ServeReport",
    "SessionTable",
    "RequestOutcome",
    "combined_digest",
    "result_digest",
]

CACHE_MODES = ("shared", "private", "isolated")

#: The :class:`ServeConfig` fields that are integers; the LRU bounds may
#: also be ``None`` (unbounded).
_BOUNDS = ("cache_size", "plan_cache_size")
_COUNTS = ("data_seed", "num_shards", "checkpoint_every", *_BOUNDS)

#: Requests one shard (or the asyncio loop) executes at once; an arrival
#: that finds them all busy waits in the shard's FIFO queue.
MAX_CONCURRENCY = 4


@dataclass(frozen=True)
class ServeConfig:
    """The one picklable description of a serving run.

    Everything :func:`repro.serve.runtime.serve` needs besides the
    request stream and the live observers (tracer, SLO tracker, hooks):
    what is served, how it is scheduled, where it is placed, what is
    cached, on which backend, and whether it is durable.  A worker
    process or the crash harness receives the whole object.
    """

    # -- scheduling ----------------------------------------------------------
    #: Max calls per virtual second to each interface (a token bucket of
    #: depth :data:`~repro.serve.sharding.SERVICE_BURST`); ``None`` leaves
    #: them unlimited.
    default_service_rate: float | None = None
    # -- what is served ----------------------------------------------------
    #: The workload's templates (``None``: the chapter's two schemas).
    templates: Sequence[QueryTemplate] | None = None
    #: Global seed of every session's service pool.
    data_seed: int = 2009
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
    #: asyncio only: wall seconds per virtual second.
    time_scale: float = 0.001
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
        for name in _COUNTS:
            value = getattr(self, name)
            if value is None and name in _BOUNDS:
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ExecutionError(
                    f"{name} must be an int, not {type(value).__name__}"
                )
        rate = self.default_service_rate
        if rate is not None and not (rate > 0 and math.isfinite(rate)):
            raise ExecutionError("default_service_rate must be a finite number > 0")
        if not (self.time_scale >= 0 and math.isfinite(self.time_scale)):
            raise ExecutionError("time_scale must be a finite number >= 0")
        if self.num_shards <= 0:
            raise ExecutionError("num_shards must be positive")
        if self.checkpoint_every < 0:
            raise ExecutionError("checkpoint_every cannot be negative")
        if self.resume and self.checkpoint_dir is None:
            raise ExecutionError("resume needs a checkpoint_dir to resume from")
        for name in _BOUNDS:
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
    interaction.  Keeping it once per scheduler, not per shard, is what
    makes work stealing safe: whichever shard executes a request consults
    the same table.  A durable resume hands the scheduler one pre-seeded
    with the pre-crash outcomes.
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
    #: Completed ``run`` requests: :meth:`SessionManager.k_shortfall`.  Not
    #: checkpointed, so a resumed run counts the runs it served itself.
    k_shortfall: int = 0

    @property
    def latency(self) -> float:
        """Virtual time from arrival to completion (queueing included)."""
        return self.finished_at - self.request.arrival


def result_digest(tuples: Iterable[CompositeTuple]) -> str:
    """Stable content hash of a result list (order, components, scores).

    The one definition of the digest's bytes: it reads only each row's
    ``components`` and ``score``, so it also digests a deferred list from
    its unbuilt source (:meth:`~repro.engine.executor.ResultRows.scored`).

    Scores are rounded to 12 decimals purely for printability; every
    serving mode computes them from identical component tuples, so the
    digest is an exact equality witness.  A row contributes, per alias in
    sorted order, :meth:`ServiceTuple.digest_line`, then its score text.
    Only what depends on the row is done per row: the aliases are sorted
    again only when the key set changes, a tuple renders its line once
    per alias (cached tuples recur across requests and checkpoints), and
    a non-zero float score is formatted once per call — ``0.0``/``-0.0``
    and ``1``/``1.0`` compare equal but render apart.  Between ``1e-4`` and
    ``1e3`` in magnitude the score's 12-place text with its trailing zeros
    cut is that ``repr`` (DESIGN.md "What a digest costs").
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
                if 1e-4 <= abs(score) < 1e3:  # the same text, one float parse fewer
                    text = ("%.12f" % score).rstrip("0")
                    text = f"score={text}0" if text[-1] == "." else f"score={text}"
                else:
                    text = f"score={round(score, 12)!r}"
                score_texts[score] = text
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
    world_stats: dict[str, int]
    #: One :func:`~repro.serve.sharding.shard_entry` row per shard, the
    #: one reader of the ``serve.shard.<i>.*`` instruments.
    shard_stats: list[dict[str, Any]]
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

    @property
    def num_shards(self) -> int:
        """Number of scheduler shards that served the workload."""
        return len(self.shard_stats)

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
            "k_shortfall_runs": sum(1 for o in self.outcomes.values() if o.k_shortfall),
        }
        if self.slo is not None:
            payload["slo"] = self.slo.snapshot()
        payload["num_shards"] = self.num_shards
        payload["admission_peak"] = self.admission_peak
        payload["shards"] = self.shard_stats
        return payload


def build_report(
    sessions: SessionManager,
    metrics: MetricsRegistry,
    outcomes: Mapping[int, RequestOutcome],
    makespan: float,
    shard_stats: list[dict[str, Any]],
    *,
    admission_peak: int = 0,
    slo: "SloTracker | None" = None,
) -> ServeReport:
    """The report every serving loop ends with, its gauges and its outcomes.

    It reads the live counters: a run builds its own caches and worlds
    (:func:`~repro.serve.runtime.build_sessions`), and a resume zeroes
    what its journal replay warmed, so they count this run's traffic
    alone.  ``shard_stats`` is one :func:`~repro.serve.sharding.shard_entry`
    row per shard; each gains its invocation-cache figures."""
    world_stats = sessions.world_stats()
    for name, value in world_stats.items():
        metrics.gauge(f"serve.world.{name}").set(value)
    plan_cache = sessions.plan_cache
    plan_stats, invocation_stats = cache_figures(
        metrics,
        [asdict(plan_cache.stats)] if plan_cache is not None else [],
        [
            {
                **asdict(cache.stats),
                "entries": len(cache),
                # The result memo: executions that consulted it / it replayed.
                "replayable": cache.replayable,
                "replays": cache.replays,
            }
            for cache in sessions.invocation_caches()
        ],
    )
    for row, view in zip(shard_stats, sessions.shard_cache_stats()):
        row["invocation_cache"] = {
            "hits": view.hits,
            "misses": view.misses,
            "hit_rate": view.hit_rate,
        }
    metrics.gauge("serve.admission.peak").set(admission_peak)
    return ServeReport(
        outcomes=dict(sorted(outcomes.items())),
        makespan=makespan,
        total_round_trips=sessions.total_round_trips(),
        metrics=metrics,
        plan_cache_stats=plan_stats,
        invocation_cache_stats=invocation_stats,
        world_stats=world_stats,
        shard_stats=shard_stats,
        admission_peak=admission_peak,
        slo=slo,
    )


def cache_figures(
    metrics: MetricsRegistry,
    plan: Iterable[Mapping[str, float] | None],
    invocation: Iterable[Mapping[str, float] | None],
) -> tuple[dict[str, float] | None, dict[str, float] | None]:
    """A report's ``plan_cache`` and ``invocation_cache`` members, and
    their gauges: the counts of the run's caches (or of its workers'
    reports) added up name by name — ``None`` without any."""
    figures: list[dict[str, float] | None] = []
    for cache, parts in (("plan_cache", plan), ("invocation_cache", invocation)):
        present = [part for part in parts if part is not None]
        if not present:
            figures.append(None)
            continue
        total = {name: sum(part[name] for part in present) for name in present[0]}
        total.pop("hit_rate", None)  # derived again below
        stats = InvocationCacheStats(total["hits"], total["misses"])
        gauges = {"hit_rate": stats.hit_rate, "hits": stats.hits, "misses": stats.misses}
        if cache == "plan_cache":
            total["hit_rate"] = stats.hit_rate
        else:
            replays, replayable = total["replays"], total["replayable"]
            rate = replays / replayable if replayable else 0.0
            gauges.update(replays=replays, replayable=replayable, replay_rate=rate)
        for name, value in gauges.items():
            metrics.gauge(f"serve.{cache}.{name}").set(value)
        figures.append(total)
    return figures[0], figures[1]
