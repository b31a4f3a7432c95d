"""The serving scheduler: N shards of one deterministic virtual timeline.

The in-process serving runtime is a discrete-event simulation over
virtual time: requests arrive at workload-assigned instants, pass
admission control, and execute as *cooperative coroutines* — the
step-resumable generators of :meth:`~repro.engine.executor.PlanExecutor.steps`
— that pause before every chunk-granular service round trip.
:class:`ServeScheduler` owns the interleaving:

* **Admission control** — on each shard at most
  :data:`~repro.serve.scheduler.MAX_CONCURRENCY` requests execute at
  once; excess arrivals wait in the shard's FIFO queue, as they wait on
  the asyncio backend's semaphore.  The scheduler also counts what
  executes across all shards (``active``, ``peak``).
* **Per-service rate limits** — with ``default_service_rate`` set, each
  shard has a token bucket per interface on virtual time.  A paused
  query about to call interface ``S`` (the yielded
  :class:`~repro.engine.executor.StepEvent` names it) resumes only once
  a token is available, so a hot service throttles *all* its callers
  without stalling queries bound elsewhere.
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

**Shards.**  Sessions are partitioned across ``N`` shards by a
**consistent-hash ring** on session id (:class:`HashRing`).  A shard is a
small record: its clock, admission queue, token buckets, executing count
and trace lanes.  Everything else is the scheduler's, once: the event
heap, the :class:`~repro.serve.scheduler.SessionTable` (parking,
serialization, outcomes — a follow-up parks until its target finishes
even across shards), the admission counts, the shared
:class:`~repro.serve.plancache.PlanCache` and the cross-shard
:class:`ShardedInvocationCache` (one LRU-bounded memo, global hit/miss
counters as the single source of truth plus per-shard attribution views
that reconcile exactly to the totals).  ``N = 1`` is the same loop with
one record.

**Deterministic timeline.**  Every event goes on *one* heap whose
entries order by ``(time, shard index, sequence)``, with one sequence
counter; the loop pops globally, advances only the owning shard's clock,
and runs the transition on that shard.  The interleaving is therefore a
pure function of the workload — replaying a seed gives the identical
report.  Each session's pool clock accumulates only that query's service
latencies: when a resumed step consumes ``Δ`` of pool time, the job's
next event lands at ``now + Δ``, so concurrent queries overlap on the
shard clock as independent clients would.  Result *digests* are
identical across shard counts for a stronger reason: per-session
interaction order equals arrival order in every mode (one session
table), and the simulated substrate derives results from ``(data seed,
interface, bindings)`` alone, so *when* and *where* a request executes
can never change *what* it returns (DESIGN.md, "Sharded serving").

**Work stealing.**  After every dispatched event the loop runs a steal
pass: any shard with a free execution slot and an empty local queue
pulls the oldest queued request from the most-loaded shard's queue and
starts it immediately.  Stealing whole *parked sessions* is safe because
session gating happened at arrival on the home shard — a queued request
already holds its session's busy flag (follow-ups) or owns a fresh
session nobody else may touch (runs), so a stolen session can never
interleave with its own in-flight interaction.  Thief and victim
selection is deterministic (shard-index order, longest queue first),
preserving replayability.

**Parallel placement.**  :func:`partition_workload` splits a workload
into the ring's shard subsets — self-contained because a follow-up
shares its target's session id and therefore its home shard — which
:func:`repro.serve.runtime.serve` maps over one worker process per shard
when ``ServeConfig.parallel`` is set.

No shard or transition holds a reference back to the scheduler, so a
finished run is freed by reference counting, sessions and caches
included.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.engine.executor import InvocationCache, InvocationCacheStats
from repro.errors import ExecutionError, SearchComputingError
from repro.model.tuples import CompositeTuple
from repro.obs.metrics import MetricsRegistry
from repro.obs.serving import SloTracker, absorb_outcome_metrics, record_request_span
from repro.obs.tracer import NullTracer, Tracer, coerce_tracer
from repro.serve.scheduler import (
    MAX_CONCURRENCY,
    RequestOutcome,
    ServeConfig,
    ServeReport,
    SessionTable,
    build_report,
    snapshot_cache_stats,
)
from repro.serve.sessions import SessionManager
from repro.serve.workload import Request, WorkloadConfig, session_key

__all__ = [
    "HashRing",
    "ServeScheduler",
    "ShardedInvocationCache",
    "ShardedServeScheduler",
    "serve_workload_sharded",
    "partition_workload",
]

#: Token-bucket depth: how many calls a rate-limited service absorbs
#: back-to-back.
SERVICE_BURST = 4.0


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


# -- the scheduler ------------------------------------------------------------


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
class _Shard:
    """What one shard owns; everything else is the scheduler's."""

    index: int
    #: Virtual time of the shard's latest event (its clock).
    now: float = 0.0
    #: The admission queue (FIFO) and when each queued request entered it.
    queue: deque = field(default_factory=deque)
    queued_at: dict[int, float] = field(default_factory=dict)
    #: Interface -> token bucket (only with ``default_service_rate``).
    buckets: dict[str, _TokenBucket] = field(default_factory=dict)
    #: Requests executing on this shard.
    active: int = 0
    # Concurrency lanes (tracing only): each executing request holds the
    # lowest free lane, which becomes the Chrome ``tid`` so one shard's
    # overlap renders as stacked thread rows.
    lanes: dict[int, int] = field(default_factory=dict)
    lane_free: list[int] = field(default_factory=list)
    lane_next: int = 0


class ServeScheduler:
    """Discrete-event loop interleaving many liquid-query sessions on
    ``config.num_shards`` shards of one merged timeline (``N = 1``
    included); stealing follows ``config.steal``.

    ``ring`` overrides placement; a durability resume passes the
    pre-seeded ``table``; ``digest_fn`` makes outcomes carry digests
    instead of result lists; ``checkpointer`` is told of every terminal
    outcome.
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
        #: Optional latency-SLO tracker fed every completed request.
        self.slo = slo
        self.ring = ring if ring is not None else HashRing(self.config.num_shards)
        self.table = table if table is not None else SessionTable()
        self.digest_fn = digest_fn
        #: ``repro.durability.serve.ServeCheckpointer`` or ``None``.
        self.checkpointer = checkpointer
        self.shards = [_Shard(index) for index in range(self.config.num_shards)]
        #: Requests executing across all shards, and the most at once
        #: (``serve.admission.active``, ``ServeReport.admission_peak``).
        self.active = 0
        self.peak = 0
        #: The merged timeline: (time, shard index, seq, action, payload).
        #: One counter orders same-instant events of a shard by push order,
        #: whichever shard pushed them.
        self._events: list[tuple[float, int, int, str, Any]] = []
        self._seq = itertools.count()
        cache = sessions.invocation_cache
        #: The cache whose per-shard views attribute each lookup.
        self._cache = cache if isinstance(cache, ShardedInvocationCache) else None

    # -- event plumbing ------------------------------------------------------

    def _schedule(self, index: int, at: float, action: str, payload: Any) -> None:
        heapq.heappush(self._events, (at, index, next(self._seq), action, payload))

    def _arrive(self, request: Request, at: float) -> None:
        """Schedule an (re-)arrival on the session's home shard."""
        self._schedule(self.ring.shard_of(request), at, "arrival", request)

    def _bucket(self, shard: _Shard, interface: str) -> _TokenBucket | None:
        bucket = shard.buckets.get(interface)
        if bucket is None:
            rate = self.config.default_service_rate
            if rate is None:
                return None
            bucket = shard.buckets[interface] = _TokenBucket(
                rate=rate, burst=SERVICE_BURST
            )
        return bucket

    # -- main loop -----------------------------------------------------------

    def run(self, workload: Sequence[Request]) -> ServeReport:
        """Serve the workload to completion; returns the merged report."""
        table = self.table
        # Union, not assignment: a durability resume pre-seeds the table with
        # pre-crash completed runs so surviving follow-ups still find them.
        table.known_runs |= {r.request_id for r in workload if r.kind == "run"}
        baselines = snapshot_cache_stats(self.sessions)
        for request in sorted(workload, key=lambda r: (r.arrival, r.request_id)):
            self._arrive(request, request.arrival)
        makespan = self._loop()
        # Follow-ups still parked at drain time targeted a run that never
        # completed: rejected on their home shard.
        for parked in table.parked.values():
            for request in parked:
                home = self.shards[self.ring.shard_of(request)]
                self._reject(home, request, makespan)
        table.parked.clear()
        missing = [r.request_id for r in workload if r.request_id not in table.outcomes]
        if missing:
            raise ExecutionError(
                f"{len(missing)} workload requests drained without an "
                f"outcome (first: {missing[:5]}) — stranded in the runtime"
            )
        report = build_report(
            self.sessions,
            self.metrics,
            baselines,
            table.outcomes,
            makespan,
            admission_peak=self.peak,
            slo=self.slo,
        )
        report.shard_stats = self._shard_stats()
        report.num_shards = len(self.shards)
        return report

    def _loop(self) -> float:
        """Drain the merged heap; returns the makespan."""
        events, shards, cache = self._events, self.shards, self._cache
        steal = self.config.steal
        while events:
            at, index, _, action, payload = heapq.heappop(events)
            shard = shards[index]
            if at > shard.now:
                shard.now = at
            if cache is not None:
                cache.current_shard = index
            if action == "arrival":
                self._on_arrival(shard, payload, at)
            elif action == "resume":
                self._on_resume(shard, payload, at)
            else:
                self._on_finish(shard, payload, at)
            if steal:
                self._steal_pass(at)
        for shard in shards:
            if shard.queue:
                raise ExecutionError(
                    f"shard {shard.index} drained with "
                    f"{len(shard.queue)} requests still queued"
                )
        return max(shard.now for shard in shards)

    # -- transitions ---------------------------------------------------------

    def _on_arrival(self, shard: _Shard, request: Request, now: float) -> None:
        if request.target is not None:
            if request.target not in self.table.known_runs:
                self._reject(shard, request, now)
                return
            target = self.table.outcomes.get(request.target)
            if target is None or target.status == "running":
                # Target still queued/executing: park until it finishes.
                self.table.parked.setdefault(request.target, []).append(request)
                return
            if target.status != "completed":
                self._reject(shard, request, now)
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
        if shard.active < MAX_CONCURRENCY:
            self._start(shard, request, now)
        else:
            shard.queue.append(request)
            shard.queued_at[request.request_id] = now
            gauge = self.metrics.gauge(f"serve.shard.{shard.index}.max_queue_depth")
            if len(shard.queue) > gauge.value:
                gauge.set(len(shard.queue))
        if self.config.sample_metrics:
            self._sample_load(shard, now)

    def _sample_load(self, shard: _Shard, now: float) -> None:
        """Sample queue depth / admission occupancy (``sample_metrics``)."""
        self.metrics.timeseries(f"serve.shard.{shard.index}.queue_depth").sample(
            now, len(shard.queue)
        )
        self.metrics.timeseries("serve.admission.active").sample(now, self.active)

    def _start(self, shard: _Shard, request: Request, now: float) -> None:
        """Begin executing an admitted request."""
        shard.active += 1
        self.active += 1
        if self.active > self.peak:
            self.peak = self.active
        if self.tracer.enabled:
            if shard.lane_free:
                lane = heapq.heappop(shard.lane_free)
            else:
                lane = shard.lane_next
                shard.lane_next += 1
            shard.lanes[request.request_id] = lane
        queue_wait = now - shard.queued_at.pop(request.request_id, now)
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
            self._queue_wait_of(shard, request, queue_wait, now)
            self._schedule(shard.index, now, "finish", job)
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
            self._queue_wait_of(shard, request, queue_wait, now)
            self._schedule(shard.index, now, "finish", job)
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
        self._queue_wait_of(shard, request, queue_wait, now)
        self._schedule(shard.index, now, "resume", job)

    def _queue_wait_of(
        self, shard: _Shard, request: Request, wait: float, now: float
    ) -> None:
        outcome = RequestOutcome(
            request=request,
            status="running",
            queue_wait=wait,
            started_at=now,
            shard=shard.index,
        )
        wake = self.table.wake_times.pop(request.request_id, None)
        if wake is not None:
            outcome.unparked_at, outcome.wake_reason = wake
        self.table.outcomes[request.request_id] = outcome

    def _on_resume(self, shard: _Shard, job: _Job, now: float) -> None:
        pool = self.sessions.pool_for(job.request)
        before = pool.clock.now
        assert job.stepper is not None
        try:
            event = next(job.stepper)
        except StopIteration as stop:
            job.result = stop.value
            self._schedule(shard.index, now + (pool.clock.now - before), "finish", job)
            return
        except SearchComputingError as exc:
            job.error = f"{type(exc).__name__}: {exc}"
            self._schedule(shard.index, now + (pool.clock.now - before), "finish", job)
            return
        job.steps += 1
        ready = now + (pool.clock.now - before)
        bucket = self._bucket(shard, event.interface)
        if bucket is not None:
            granted = bucket.grant(ready)
            if granted > ready:
                job.rate_wait += granted - ready
                job.rate_hits += 1
            ready = granted
        self._schedule(shard.index, ready, "resume", job)

    def _on_finish(self, shard: _Shard, job: _Job, now: float) -> None:
        shard.active -= 1
        self.active -= 1
        request = job.request
        outcome = self.table.outcomes[request.request_id]
        outcome.finished_at = now
        outcome.rate_wait = job.rate_wait
        outcome.rate_hits = job.rate_hits
        outcome.steps = job.steps
        outcome.shard = shard.index
        outcome.plan_cached = job.plan_cached
        if job.error is not None:
            outcome.status = "failed"
            outcome.error = job.error
        else:
            outcome.status = "completed"
            if self.digest_fn is not None:
                # Bounded-memory serving: keep the equality witness, drop
                # the tuples (the session still holds its own copy).
                outcome.digest = self.digest_fn(job.result or ())
            else:
                outcome.results = job.result
            if request.kind == "run":
                outcome.k_shortfall = self.sessions.k_shortfall(request, job.result)
        if job.stepper is not None:
            pool = self.sessions.pool_for(request)
            outcome.round_trips = pool.log.total_calls() - job.calls_before
        absorb_outcome_metrics(self.metrics, outcome, emit_shard_metrics=True)
        if self.slo is not None and outcome.status == "completed":
            self.slo.observe(outcome.latency, at=now)
        if self.tracer.enabled:
            lane = shard.lanes.pop(request.request_id, None)
            if lane is not None:
                heapq.heappush(shard.lane_free, lane)
            record_request_span(self.tracer, outcome, lane=lane)
        # Wake follow-ups parked on this request — on their home shard.
        for parked in self.table.parked.pop(request.request_id, ()):
            self.table.wake_times[parked.request_id] = (now, "target")
            self._arrive(parked, now)
        # A finished interaction frees its session for the next waiter.
        if request.target is not None:
            self._release_session(request.target, now)
        # Grant freed slots to the admission queue (FIFO).
        while shard.queue and shard.active < MAX_CONCURRENCY:
            self._start(shard, shard.queue.popleft(), now)
        if self.config.sample_metrics:
            self._sample_load(shard, now)
        if self.checkpointer is not None:
            self.checkpointer.on_terminal(outcome)

    def _release_session(self, root_id: int, now: float) -> None:
        self.table.busy_sessions.discard(root_id)
        waiters = self.table.session_waiters.get(root_id)
        if waiters:
            waiter = waiters.popleft()
            self.table.wake_times[waiter.request_id] = (now, "session")
            self._arrive(waiter, now)

    def _reject(self, shard: _Shard, request: Request, now: float) -> None:
        """Reject a follow-up whose target is unknown, failed, or never
        finished (drain).  Only follow-ups are rejected — a run always
        queues — so none has follow-ups parked on it, and none was ever
        queued: a parked follow-up has been waiting since it arrived,
        and that wait is its queue context, not free time."""
        outcome = RequestOutcome(
            request=request,
            status="rejected",
            finished_at=now,
            queue_wait=max(0.0, now - request.arrival),
            shard=shard.index,
        )
        wake = self.table.wake_times.pop(request.request_id, None)
        if wake is not None:
            outcome.unparked_at, outcome.wake_reason = wake
        self.table.outcomes[request.request_id] = outcome
        absorb_outcome_metrics(self.metrics, outcome, emit_shard_metrics=True)
        if self.tracer.enabled:
            record_request_span(self.tracer, outcome)

    # -- work stealing -------------------------------------------------------

    def _steal_pass(self, now: float) -> None:
        """Let idle-capacity shards drain the most-loaded shard's queue.

        Runs after every dispatched event, so a shard going idle (its
        last finish) steals at the exact virtual instant it would have
        started the victim's request had it been queued locally — no
        polling events needed.  Deterministic: thieves iterate in shard
        index order; the victim is the longest queue (lowest index on
        ties).  A steal only happens when the thief can *start* the
        request immediately — moving queued work between queues would
        churn accounting without reducing latency.  With every queue
        empty there is no victim, so it returns before the thief loop.
        """
        shards = self.shards
        while any(shard.queue for shard in shards):
            stolen_any = False
            for thief in shards:
                if thief.queue or thief.active >= MAX_CONCURRENCY:
                    continue
                victim = max(
                    (s for s in shards if s is not thief and s.queue),
                    key=lambda s: (len(s.queue), -s.index),
                    default=None,
                )
                if victim is None:
                    continue
                self._steal_one(thief, victim, now)
                stolen_any = True
            if not stolen_any:
                return

    def _steal_one(self, thief: _Shard, victim: _Shard, now: float) -> None:
        request = victim.queue.popleft()  # FIFO head: the oldest wait
        thief.queued_at[request.request_id] = victim.queued_at.pop(
            request.request_id, now
        )
        # Remaining heap events are all >= now, so jumping the thief's
        # clock forward cannot reorder anything already scheduled.
        if now > thief.now:
            thief.now = now
        if self._cache is not None:
            self._cache.current_shard = thief.index
        self._start(thief, request, now)
        outcome = self.table.outcomes[request.request_id]
        outcome.stolen = True
        outcome.stolen_from = victim.index
        if self.tracer.enabled:
            # Instantaneous event marker: the steal itself takes no
            # virtual time; the stolen request's own span tree carries
            # the ``stolen`` attribute.
            self.tracer.record_span(
                "serve.steal",
                start=now,
                end=now,
                request=request.request_id,
                shard=thief.index,
                victim=victim.index,
            )

    # -- reporting -----------------------------------------------------------

    def _shard_stats(self) -> list[dict[str, Any]]:
        stats = [
            shard_entry(self.metrics, shard.index, shard.now) for shard in self.shards
        ]
        if self._cache is not None:
            for entry, view in zip(stats, self._cache.shard_stats):
                entry["invocation_cache"] = {
                    "hits": view.hits,
                    "misses": view.misses,
                    "hit_rate": view.hit_rate,
                }
        return stats


#: The name ``benchmarks/e2e`` resolves the scheduler's ``run`` under too.
ShardedServeScheduler = ServeScheduler


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
    benchmark posture (4 calls/s per service, shared unbounded caches
    unless ``cache_size`` bounds them).
    Returns the report and its per-request digests.
    """
    from repro.serve.runtime import serve

    config = ServeConfig(
        templates=templates, data_seed=seed, num_shards=num_shards, steal=steal,
        cache_size=cache_size, default_service_rate=4.0,
    )
    stream = workload if workload is not None else WorkloadConfig(
        num_requests=num_requests, rate=rate, skew=skew, seed=seed,
        followup_fraction=followup_fraction,
    )
    report = serve(config, stream, digest_fn=digest_fn)
    return report, report.digests()
