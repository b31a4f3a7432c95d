"""Sharded serving: N scheduler shards over one deterministic timeline.

One :class:`~repro.serve.scheduler.ServeScheduler` loop is the PR 4
runtime; this module scales it out.  Sessions are partitioned across
``N`` shards by a **consistent-hash ring** on session id
(:class:`HashRing`), each shard running its own discrete-event loop —
its own virtual clock, admission queue, concurrency bound, and token
buckets — while four pieces stay process-global:

* the :class:`~repro.serve.scheduler.SessionTable` (parking,
  per-session serialization, outcomes): a follow-up parks until its
  target finishes even across shards, and arrival-order waiter grants
  are a property of the runtime, not of any one shard;
* the :class:`~repro.serve.scheduler.AdmissionController`, counting
  *total* in-flight requests across all shards;
* the shared :class:`~repro.serve.plancache.PlanCache`;
* the cross-shard :class:`ShardedInvocationCache` — one LRU-bounded
  memo, global hit/miss counters as the single source of truth plus
  per-shard attribution views that reconcile exactly to the totals.

**Deterministic timeline merge.**  All shards push onto *one* event
heap whose entries order by ``(time, shard index, sequence)``; the
merged loop pops globally, advances only the owning shard's clock, and
dispatches on that shard.  The interleaving is therefore a pure
function of the workload — replaying a seed gives the identical merged
report — and with ``N=1`` the loop is instruction-for-instruction the
plain scheduler's.  Result *digests* are identical across shard counts
for a stronger reason: per-session interaction order equals arrival
order in every mode (global session table), and the simulated substrate
derives results from ``(data seed, interface, bindings)`` alone, so
*when* and *where* a request executes can never change *what* it
returns (DESIGN.md, "Sharded serving").

**Work stealing.**  After every dispatched event the merged loop runs a
steal pass: any shard with a free execution slot and an empty local
queue pulls the oldest queued request from the most-loaded shard's
queue and starts it immediately.  Stealing whole *parked sessions* is
safe because session gating happened at arrival on the home shard — a
queued request already holds its session's busy flag (follow-ups) or
owns a fresh session nobody else may touch (runs), so a stolen session
can never interleave with its own in-flight interaction.  Thief and
victim selection is deterministic (shard-index order, longest queue
first), preserving replayability.

**Parallel placement.**  :func:`partition_workload` splits a workload
into the ring's shard subsets — self-contained because a follow-up
shares its target's session id and therefore its home shard — which
:func:`repro.serve.runtime.serve` maps over one worker process per shard
when ``ServeConfig.parallel`` is set.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from bisect import bisect_right
from typing import Any, Callable, Sequence

from repro.engine.executor import InvocationCache, InvocationCacheStats
from repro.errors import ExecutionError
from repro.model.tuples import CompositeTuple
from repro.obs.metrics import MetricsRegistry
from repro.obs.serving import SloTracker
from repro.obs.tracer import NullTracer, Tracer, coerce_tracer
from repro.serve.scheduler import (
    AdmissionController,
    ServeConfig,
    ServeReport,
    ServeScheduler,
    SessionTable,
    run_events,
)
from repro.serve.sessions import SessionManager
from repro.serve.workload import Request, WorkloadConfig, session_key

__all__ = [
    "HashRing",
    "ShardedInvocationCache",
    "ShardedServeScheduler",
    "serve_workload_sharded",
    "partition_workload",
]


# -- consistent hashing -------------------------------------------------------


class HashRing:
    """Consistent-hash ring mapping session ids to shard indices.

    Each shard owns ``vnodes`` points on a 64-bit ring (blake2b of
    ``"shard:vnode"``); a session id hashes to a point and belongs to
    the first shard point at or after it (wrapping).  Because a shard's
    points are a function of its index alone, growing the ring from
    ``N`` to ``N+1`` shards leaves every existing point in place — only
    keys landing in the arcs claimed by the new shard's points move,
    ~``1/(N+1)`` of the keyspace, instead of the wholesale reshuffle a
    modulo partition would cause.  256 vnodes keep per-shard load within
    ~±10% of the mean up to 16 shards (the property tests pin this).
    """

    def __init__(self, num_shards: int, *, vnodes: int = 256) -> None:
        if num_shards <= 0:
            raise ExecutionError("num_shards must be positive")
        if vnodes <= 0:
            raise ExecutionError("vnodes must be positive")
        self.num_shards = num_shards
        self.vnodes = vnodes
        points: list[tuple[int, int]] = []
        for shard in range(num_shards):
            for vnode in range(vnodes):
                points.append((self._point(f"shard:{shard}:vnode:{vnode}"), shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    @staticmethod
    def _point(label: str) -> int:
        return int.from_bytes(
            hashlib.blake2b(label.encode(), digest_size=8).digest(), "big"
        )

    def shard_for(self, session_id: int) -> int:
        """The shard owning ``session_id`` (deterministic, stable)."""
        point = self._point(f"session:{session_id}")
        index = bisect_right(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def shard_of(self, request: Request) -> int:
        return self.shard_for(session_key(request))


# -- shared invocation cache with per-shard attribution -----------------------


class ShardedInvocationCache(InvocationCache):
    """One cross-shard invocation memo with per-shard attribution views.

    The inherited ``stats`` remain the **single source of truth**: every
    lookup is counted exactly once there, whichever shard (or
    single-flight-coalesced waiter) issued it.  ``shard_stats`` only
    *attributes* each of those counts to the shard whose event was being
    dispatched (``current_shard``, set by the merged loop before every
    dispatch), so the per-shard views always sum to the global totals —
    the reconciliation the regression tests pin down.

    Coalescing: the merged loop dispatches one event at a time, so a
    *completed* fetch of a key serves every later lookup — one put, many
    hits, and each lookup counted exactly once (never double: the global
    counters increment in :meth:`InvocationCache.get` alone, the shard
    views merely attribute those same increments).  Because execution is
    chunk-granular, a second session may begin fetching a key whose
    multi-chunk fetch is still in flight; both are honest misses and the
    later ``put`` idempotently overwrites with the identical value (the
    substrate is deterministic per key).  The asyncio parallel path
    closes even that window via
    :class:`~repro.engine.async_runner.AsyncExecutionContext`'s real
    single-flight coalescing.
    """

    def __init__(self, num_shards: int, max_size: int | None = 1024) -> None:
        super().__init__(max_size=max_size)
        self.shard_stats = [InvocationCacheStats() for _ in range(num_shards)]
        self.current_shard = 0

    def get(
        self, key: tuple, stats: InvocationCacheStats | None = None
    ) -> tuple[list, bool] | None:
        entry = super().get(key, stats)
        view = self.shard_stats[self.current_shard]
        if entry is not None:
            view.hits += 1
        else:
            view.misses += 1
        return entry

    def put(
        self,
        key: tuple,
        value: tuple[list, bool],
        stats: InvocationCacheStats | None = None,
    ) -> None:
        before = self.stats.evictions
        super().put(key, value, stats)
        self.shard_stats[self.current_shard].evictions += (
            self.stats.evictions - before
        )


# -- the sharded scheduler ----------------------------------------------------


class ShardedServeScheduler:
    """N per-session-partitioned scheduler shards on one merged timeline.

    The in-process virtual runtime at every shard count — ``N = 1`` is
    the plain scheduler, event for event.  Shard count and stealing come
    from ``config``.
    """

    def __init__(
        self,
        sessions: SessionManager,
        config: ServeConfig | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: "Tracer | NullTracer | None" = None,
        *,
        ring: HashRing | None = None,
        digest_fn: "Callable[[Sequence[CompositeTuple]], str] | None" = None,
        table: SessionTable | None = None,
        checkpointer: Any = None,
        slo: "SloTracker | None" = None,
    ) -> None:
        self.sessions = sessions
        self.config = config or ServeConfig()
        self.metrics = metrics or MetricsRegistry()
        self.tracer = coerce_tracer(tracer)
        self.slo = slo
        self.ring = ring if ring is not None else HashRing(self.config.num_shards)
        self.steal = self.config.steal
        # A durability resume passes a pre-seeded table (pre-crash
        # outcomes + known runs); fresh runs build their own.
        self.table = table if table is not None else SessionTable()
        self.admission = AdmissionController()
        #: The merged timeline: (time, shard_index, seq, action, payload).
        #: One counter for all shards orders same-instant events of a shard
        #: by push order, whichever shard pushed them.
        self._events: list[tuple[float, int, int, str, Any]] = []
        seq = itertools.count()
        self.shards = [
            ServeScheduler(
                sessions,
                self.config,
                self.metrics,
                tracer,
                shard_index=index,
                table=self.table,
                admission=self.admission,
                events=self._events,
                seq=seq,
                home=self.ring.shard_of,
                digest_fn=digest_fn,
                emit_shard_metrics=True,
                checkpointer=checkpointer,
                slo=slo,
            )
            for index in range(self.config.num_shards)
        ]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def _set_cache_shard(self, index: int) -> None:
        cache = self.sessions.invocation_cache
        if isinstance(cache, ShardedInvocationCache):
            cache.current_shard = index

    def run(self, workload: Sequence[Request]) -> ServeReport:
        """Serve the workload across all shards; returns the merged report."""
        # Any shard routes an arrival to its session's home shard.
        route = self.shards[0]._route_arrival
        report = run_events(self, workload, route, self._loop, self._reject)
        report.shard_stats = self._shard_stats()
        report.num_shards = self.num_shards
        return report

    def _loop(self) -> float:
        """Drain the merged heap; returns the makespan."""
        while self._events:
            at, shard_index, _, action, payload = heapq.heappop(self._events)
            shard = self.shards[shard_index]
            shard.clock.advance_to(at)
            self._set_cache_shard(shard_index)
            shard.dispatch(action, payload, at)
            if self.steal:
                self._steal_pass(at)
        for shard in self.shards:
            if shard._queue:
                raise ExecutionError(
                    f"shard {shard.shard_index} drained with "
                    f"{len(shard._queue)} requests still queued"
                )
        return max(shard.clock.now for shard in self.shards)

    def _reject(self, request: Request, at: float) -> None:
        """Reject on the request's home shard."""
        self.shards[self.ring.shard_of(request)]._reject(request, at)

    # -- work stealing -------------------------------------------------------

    def _steal_pass(self, now: float) -> None:
        """Let idle-capacity shards drain the most-loaded shard's queue.

        Runs after every dispatched event, so a shard going idle (its
        last finish) steals at the exact virtual instant the plain
        runtime would have started the victim's request locally — no
        polling events needed.  Deterministic: thieves iterate in shard
        index order; the victim is the longest queue (lowest index on
        ties).  A steal only happens when the thief can *start* the
        request immediately — moving queued work between queues would
        churn accounting without reducing latency.  With every queue
        empty there is no victim, so it returns before the thief loop.
        """
        while any(shard._queue for shard in self.shards):
            stolen_any = False
            for thief in self.shards:
                if thief._queue or thief._active >= self.config.max_concurrency:
                    continue
                victim = max(
                    (s for s in self.shards if s is not thief and s._queue),
                    key=lambda s: (len(s._queue), -s.shard_index),
                    default=None,
                )
                if victim is None:
                    continue
                self._steal_one(thief, victim, now)
                stolen_any = True
            if not stolen_any:
                return

    def _steal_one(
        self, thief: ServeScheduler, victim: ServeScheduler, now: float
    ) -> None:
        request = victim._queue.popleft()  # FIFO head: the oldest wait
        thief._queued_at[request.request_id] = victim._queued_at.pop(
            request.request_id, now
        )
        # Remaining heap events are all >= now, so jumping the thief's
        # clock forward cannot reorder anything already scheduled.
        thief.clock.advance_to(now)
        self._set_cache_shard(thief.shard_index)
        thief._start(request, now)
        outcome = self.table.outcomes[request.request_id]
        outcome.stolen = True
        outcome.stolen_from = victim.shard_index
        if self.tracer.enabled:
            # Instantaneous event marker: the steal itself takes no
            # virtual time; the stolen request's own span tree carries
            # the ``stolen`` attribute.
            self.tracer.record_span(
                "serve.steal",
                start=now,
                end=now,
                request=request.request_id,
                shard=thief.shard_index,
                victim=victim.shard_index,
            )

    # -- reporting -----------------------------------------------------------

    def _shard_stats(self) -> list[dict[str, Any]]:
        cache = self.sessions.invocation_cache
        stats = [
            shard_entry(self.metrics, shard.shard_index, shard.clock.now)
            for shard in self.shards
        ]
        if isinstance(cache, ShardedInvocationCache):
            for entry, view in zip(stats, cache.shard_stats):
                entry["invocation_cache"] = {
                    "hits": view.hits,
                    "misses": view.misses,
                    "hit_rate": view.hit_rate,
                }
        return stats


def shard_entry(metrics: MetricsRegistry, index: int, makespan: float) -> dict[str, Any]:
    """One shard's row of :attr:`ServeReport.shard_stats`, read off the
    ``serve.shard.<index>.*`` instruments of the run's registry."""
    prefix = f"serve.shard.{index}."
    names = ("started", "completed", "failed", "rejected", "steals", "stolen_from")
    entry: dict[str, Any] = {"shard": index}
    for name in names:
        counter = metrics.counters.get(prefix + name)
        entry[name] = int(counter.value) if counter is not None else 0
    depth = metrics.gauges.get(prefix + "max_queue_depth")
    entry["max_queue_depth"] = int(depth.value) if depth is not None else 0
    entry["makespan"] = makespan
    return entry


# -- workload partitioning & serving entry points -----------------------------


def partition_workload(
    workload: Sequence[Request], ring: HashRing
) -> list[list[Request]]:
    """Split a workload into per-shard subsets by home shard.

    Subsets are self-contained: a follow-up carries its target's session
    id, so the whole interaction chain of a session lands on one shard —
    which is what lets the parallel path run each subset in isolation.
    """
    subsets: list[list[Request]] = [[] for _ in range(ring.num_shards)]
    for request in workload:
        subsets[ring.shard_of(request)].append(request)
    return subsets


def serve_workload_sharded(
    *, rate, num_requests, seed, num_shards, steal=True, skew=1.3,
    followup_fraction=0.25, cache_size=None, templates=None, workload=None,
    digest_fn=None,
) -> tuple[ServeReport, dict[int, str]]:
    """Keyword adapter over :func:`repro.serve.runtime.serve`.

    Kept for ``benchmarks/e2e``, which calls it by these names: the
    benchmark posture (an effectively unbounded queue, 4 calls/s per
    service, shared unbounded caches unless ``cache_size`` bounds them).
    Returns the report and its per-request digests.
    """
    from repro.serve.runtime import serve

    config = ServeConfig(
        templates=templates, data_seed=seed, num_shards=num_shards, steal=steal,
        cache_size=cache_size, queue_limit=1_000_000, default_service_rate=4.0,
    )
    stream = workload if workload is not None else WorkloadConfig(
        num_requests=num_requests, rate=rate, skew=skew, seed=seed,
        followup_fraction=followup_fraction,
    )
    report = serve(config, stream, digest_fn=digest_fn)
    return report, report.digests()
