"""Asyncio real-execution backend beside the virtual-clock simulator.

Every plan in this repo historically ran as a single-threaded
discrete-event simulation: one generator, one virtual clock, service
latencies added up serially.  That is the right *oracle* — deterministic,
seed-reproducible, exactly the paper's cost model — but it can never
show wall-clock throughput, because nothing ever overlaps.

This module adds the second backend: :class:`AsyncPlanExecutor` runs the
*same* optimized plan graph on an asyncio event loop with genuinely
concurrent service calls —

* every plan node becomes a task awaiting its parents, so independent
  branches (e.g. Movie and Theatre in Fig. 10) overlap;
* within a service node, the per-binding invocations fan out
  concurrently, bounded by a **per-service connection-pool semaphore**
  (a connection is held for the whole round trip);
* each simulated round trip costs ``latency * time_scale`` seconds of
  real ``await asyncio.sleep`` — the latency draw itself still comes
  from the seeded simulator, so the data, faults, and per-call costs are
  bit-for-bit those of the virtual backend;
* per-call timeouts and retries reuse the same :class:`RetryPolicy`,
  with backoff waits slept on wall time and amended onto the failing
  attempt's own call record (by index — with concurrent callers "the
  last record" is somebody else's);
* spans go through the existing :mod:`repro.obs` tracer via
  :meth:`~repro.obs.tracer.Tracer.record_span`, on a wall-clock axis
  rescaled back to virtual seconds so traces from both backends are
  comparable.

**Why equivalence holds.**  All CPU work — binding construction,
selection filtering, join kernels, the final joint-witness check — is
delegated to the same :class:`~repro.engine.executor.PlanExecutor`
methods the virtual backend runs, and results are composed in upstream
order regardless of fetch completion order.  The simulated substrate
derives result tuples, latency draws, and fault draws from
``(global seed, interface, bindings)`` via per-invocation RNGs, never
from clock state or call order; chunks within one invocation stay
sequential, so each invocation consumes its RNG streams identically in
both backends.  Hence both backends return digest-identical result
lists — the virtual clock stays the planner/test oracle, the asyncio
runner supplies real throughput (see DESIGN.md, "Execution backends").

Duplicate invocations issued concurrently are **single-flighted**
through :class:`AsyncExecutionContext`: the first caller fetches, later
callers await the same task, so the asyncio backend issues the same
round trips the memoised sequential walk would.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.annotate import pipe_join_selectivity
from repro.engine.executor import (
    _SPAN_KINDS,
    ExecutionResult,
    InvocationCache,
    NodeRunStats,
    PlanExecutor,
)
from repro.engine.retry import Degradation, RetryPolicy
from repro.errors import (
    ExecutionError,
    RetryExhaustedError,
    ServiceTimeoutError,
    ServiceUnavailableError,
)
from repro.model.tuples import CompositeTuple
from repro.plans.nodes import (
    InputNode,
    OutputNode,
    ParallelJoinNode,
    SelectionNode,
    ServiceNode,
)

__all__ = [
    "AsyncExecutionContext",
    "AsyncPlanExecutor",
    "run_plan_async",
    "BACKENDS",
]

#: The execution backends a caller may select.
BACKENDS = ("virtual", "asyncio")


@dataclass
class AsyncExecutionContext:
    """Shared wall-clock execution context: pools, pacing, single-flight.

    One context may be shared by many :class:`AsyncPlanExecutor`\\ s
    running on the same event loop (the async serving path does), in
    which case the per-service connection pools bound *global*
    concurrency per interface and identical concurrent invocations
    coalesce across executors.

    Parameters
    ----------
    time_scale:
        Wall seconds per virtual second: each simulated round trip
        sleeps ``latency * time_scale``.  ``0.0`` sleeps nothing but
        still yields to the loop, preserving cooperative interleaving —
        the right setting for equivalence tests that only check results.
    default_connections:
        Connection-pool size for interfaces absent from
        ``connection_limits``.
    connection_limits:
        Interface name -> max in-flight round trips to that service.
    invocation_cache:
        Optional cross-executor invocation memo (the serving hook); an
        executor built with this context and no cache of its own adopts
        it.
    """

    time_scale: float = 0.001
    default_connections: int = 8
    connection_limits: Mapping[str, int] = field(default_factory=dict)
    invocation_cache: InvocationCache | None = None
    _semaphores: dict[str, asyncio.Semaphore] = field(
        default_factory=dict, repr=False
    )
    _inflight: dict[tuple, "asyncio.Future"] = field(
        default_factory=dict, repr=False
    )
    _loop: Any = field(default=None, repr=False)
    #: Shared wall-clock zero for the span axis.  Set when a loop first
    #: attaches, so every executor sharing this context (the async
    #: serving path runs many) stamps spans on one common timeline
    #: instead of each request restarting at t=0.
    wall_epoch: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.time_scale < 0:
            raise ExecutionError("time_scale cannot be negative")
        if self.default_connections < 1:
            raise ExecutionError("default_connections must be at least 1")
        for name, limit in self.connection_limits.items():
            if limit < 1:
                raise ExecutionError(
                    f"connection limit for {name!r} must be at least 1"
                )

    def attach_loop(self) -> None:
        """Bind to the running loop; a new loop drops stale pool state.

        Semaphores and in-flight futures belong to one event loop.  A
        context reused across ``asyncio.run`` calls (a session issuing
        ``more`` twice) would otherwise await primitives bound to a
        closed loop.
        """
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            self._loop = loop
            self._semaphores.clear()
            self._inflight.clear()
            self.wall_epoch = time.perf_counter()

    def semaphore(self, interface: str) -> asyncio.Semaphore:
        """The connection-pool semaphore for ``interface`` (lazily built)."""
        semaphore = self._semaphores.get(interface)
        if semaphore is None:
            limit = self.connection_limits.get(
                interface, self.default_connections
            )
            semaphore = self._semaphores[interface] = asyncio.Semaphore(limit)
        return semaphore

    async def sleep(self, virtual_seconds: float) -> None:
        """Spend ``virtual_seconds`` of simulated latency on wall time.

        Always awaits (even at scale 0) so concurrent tasks interleave
        the way real I/O waits would.
        """
        await asyncio.sleep(virtual_seconds * self.time_scale)


class AsyncPlanExecutor:
    """Executes one plan concurrently on an asyncio event loop.

    Construction mirrors :class:`~repro.engine.executor.PlanExecutor`
    (same plan/query/pool/options); ``context`` adds the wall-clock
    knobs.  All CPU work is delegated to an inner ``PlanExecutor`` so
    the two backends cannot drift apart: this class only owns *when*
    fetches happen, never *what* they produce.
    """

    def __init__(
        self,
        plan,
        query,
        pool,
        inputs: Mapping[str, Any],
        fetches: Mapping[str, int] | None = None,
        k: int | None = None,
        final_semantic_check: bool = True,
        retry: RetryPolicy | None = None,
        degradation: Degradation | str = Degradation.FAIL,
        invocation_cache_size: int | None = 1024,
        tracer=None,
        invocation_cache: InvocationCache | None = None,
        context: AsyncExecutionContext | None = None,
        join_kernel: str = "binary",
    ) -> None:
        self.context = context or AsyncExecutionContext()
        if invocation_cache is None:
            invocation_cache = self.context.invocation_cache
        self._sync = PlanExecutor(
            plan=plan,
            query=query,
            pool=pool,
            inputs=inputs,
            fetches=fetches,
            k=k,
            final_semantic_check=final_semantic_check,
            retry=retry,
            degradation=degradation,
            invocation_cache_size=invocation_cache_size,
            tracer=tracer,
            invocation_cache=invocation_cache,
            join_kernel=join_kernel,
        )
        self._backoff_rng = random.Random(pool.global_seed ^ 0xA51C)
        #: Total re-attempts issued across all calls (wall-time retries).
        self.retries = 0
        #: Calls abandoned after exhausting the policy.
        self.gave_up = 0
        self._wall_start = 0.0

    # -- properties mirroring the sync executor ------------------------------

    @property
    def plan(self):
        return self._sync.plan

    @property
    def pool(self):
        return self._sync.pool

    @property
    def tracer(self):
        return self._sync.tracer

    @property
    def k(self) -> int | None:
        return self._sync.k

    @k.setter
    def k(self, value: int | None) -> None:
        self._sync.k = value

    def _now(self) -> float:
        """Elapsed wall time rescaled to virtual seconds (span axis).

        Measured from the context's shared ``wall_epoch`` when one is
        set (executors sharing a context share a span timeline); a
        standalone run falls back to its own start.
        """
        epoch = self.context.wall_epoch or self._wall_start
        elapsed = time.perf_counter() - epoch
        scale = self.context.time_scale
        return elapsed / scale if scale > 0 else elapsed

    # -- entry points --------------------------------------------------------

    def run(self) -> ExecutionResult:
        """Execute on a fresh event loop (synchronous convenience)."""
        return asyncio.run(self.execute())

    async def execute(self) -> ExecutionResult:
        """Execute the plan; node tasks overlap wherever the DAG allows."""
        self.context.attach_loop()
        self._wall_start = time.perf_counter()
        sync = self._sync
        outputs: dict[str, list[CompositeTuple]] = {}
        stats: dict[str, NodeRunStats] = {}
        tasks: dict[str, asyncio.Task] = {}
        for node_id in sync.plan.topological_order():
            tasks[node_id] = asyncio.ensure_future(
                self._run_node(node_id, tasks, outputs, stats)
            )
        try:
            pair_counts = await asyncio.gather(*tasks.values())
        except BaseException:
            for task in tasks.values():
                task.cancel()
            await asyncio.gather(*tasks.values(), return_exceptions=True)
            raise
        wall = time.perf_counter() - self._wall_start
        if sync.tracer.enabled:
            sync.tracer.record_span(
                "plan.execute",
                start=0.0,
                end=self._now(),
                nodes=len(sync.plan.nodes),
                k=sync.k,
                backend="asyncio",
                final_check=sync.final_check,
                rows_built=sync.rows_total(0),
                rows_scored=sync.rows_total(1),
            )
        return ExecutionResult(
            tuples=outputs[sync.plan.output_node.node_id],
            log=sync.pool.log,
            node_stats=stats,
            execution_time=sync._critical_path(stats),
            time_to_screen=sync._critical_path(stats, first_call_only=True),
            total_candidates=sum(pair_counts),
            pairs_probed=sync._pairs_probed,
            cache_stats=sync.cache_stats,
            failed_aliases=tuple(sorted(sync.failed_aliases)),
            backend="asyncio",
            wall_time=wall,
            join_kernel=sync.join_kernel,
        )

    # -- node tasks ----------------------------------------------------------

    async def _run_node(
        self,
        node_id: str,
        tasks: dict[str, asyncio.Task],
        outputs: dict[str, list[CompositeTuple]],
        stats: dict[str, NodeRunStats],
    ) -> int:
        sync = self._sync
        node = sync.plan.node(node_id)
        parents = sync.plan.parents(node_id)
        for parent in parents:
            await tasks[parent]
        started = self._now()
        acc = NodeRunStats()
        pairs = 0
        if isinstance(node, InputNode):
            result: list[CompositeTuple] = [CompositeTuple({}, 0.0)]
        elif isinstance(node, ServiceNode):
            upstream = outputs[parents[0]]
            acc.tin = len(upstream)
            result = await self._run_service(node, upstream, acc)
        elif isinstance(node, SelectionNode):
            upstream = outputs[parents[0]]
            acc.tin = len(upstream)
            result = sync._filter(upstream, node.selections, node.join_filters)
        elif isinstance(node, ParallelJoinNode):
            left = outputs[parents[0]]
            right = outputs[parents[1]]
            acc.tin = len(left) * len(right)
            probes_before = sync._pairs_probed
            # Join kernels are pure CPU (no awaits): the probe-counter
            # delta cannot interleave with another node's.
            result, pairs = sync._run_parallel_join(node, left, right)
            acc.pairs_probed = sync._pairs_probed - probes_before
            acc.dispatch = sync._dispatch[node_id]
        elif isinstance(node, OutputNode):
            upstream = outputs[parents[0]]
            acc.tin = len(upstream)
            result = sync._finalise(upstream)
            acc.final_check = sync.final_check
        else:  # pragma: no cover - future node kinds
            raise ExecutionError(f"cannot execute node kind {node.kind}")
        acc.rows_built, acc.rows_scored = sync._rows.get(node_id, (0, 0))
        acc.tout = len(result)
        outputs[node_id] = result
        stats[node_id] = acc
        if sync.tracer.enabled:
            attrs: dict[str, Any] = {
                "node": node_id,
                "tin": acc.tin,
                "tout": acc.tout,
            }
            alias = getattr(node, "alias", None)
            if alias is not None:
                attrs["alias"] = alias
            if acc.calls:
                attrs["calls"] = acc.calls
            if acc.pairs_probed:
                attrs["pairs_probed"] = acc.pairs_probed
            sync.tracer.record_span(
                f"node.{_SPAN_KINDS[node.kind]}",
                start=started,
                end=self._now(),
                **attrs,
            )
        return pairs

    # -- service fetches -----------------------------------------------------

    async def _run_service(
        self,
        node: ServiceNode,
        upstream: list[CompositeTuple],
        acc: NodeRunStats,
    ) -> list[CompositeTuple]:
        """Fan the node's invocations out concurrently; compose in order."""
        sync = self._sync
        factor = max(1, int(sync.fetches.get(node.alias, 1)))
        check = sync._selection_check(node.alias)
        availability = pipe_join_selectivity(node, sync.query, sync._estimator)
        spec_of = sync._call_specs(node, factor, availability)
        fetches: list[asyncio.Task | None] = []
        for spec in [spec_of(comp.components) for comp in upstream]:
            if spec is None:
                fetches.append(None)
                continue
            fetches.append(
                asyncio.ensure_future(
                    self._fetch(node, *spec, factor, availability, acc)
                )
            )
        live = [task for task in fetches if task is not None]
        try:
            await asyncio.gather(*live)
        except BaseException:
            for task in live:
                task.cancel()
            await asyncio.gather(*live, return_exceptions=True)
            raise
        out: list[CompositeTuple] = []
        for composite, task in zip(upstream, fetches):
            if task is None:
                # Pipe source never materialised (partial degradation):
                # the upstream combination flows through unchanged.
                out.append(composite)
                continue
            tuples, failed = task.result()
            sync._compose_service_results(
                node, composite, tuples, failed, check, out
            )
        return out

    async def _fetch(
        self,
        node: ServiceNode,
        bindings: Mapping[str, Any],
        constraints: list,
        key: tuple,
        factor: int,
        availability: float,
        acc: NodeRunStats,
    ) -> tuple[list, bool]:
        """Memoised, single-flighted fetch of one invocation's chunks."""
        sync = self._sync
        assert node.interface is not None
        pending = self.context._inflight.get(key)
        if pending is not None:
            # An identical invocation is in flight: join it.  Mirrors the
            # sequential walk, where the second caller would hit the memo.
            sync._invocation_cache.stats.hits += 1
            sync.cache_stats.hits += 1
            wait_start = self._now() if sync.tracer.enabled else 0.0
            joined = await asyncio.shield(pending)
            if sync.tracer.enabled:
                sync.tracer.record_span(
                    "service.invoke",
                    start=wait_start,
                    end=self._now(),
                    alias=node.alias,
                    interface=node.interface.name,
                    cached=True,
                    coalesced=True,
                    tuples=len(joined[0]),
                )
            if joined[1]:
                # The call we joined was abandoned: we are degraded too.
                sync.failed_aliases.add(node.alias)
            return joined
        cached = sync._invocation_cache.get(key, sync.cache_stats)
        if cached is not None:
            if sync.tracer.enabled:
                now = self._now()
                sync.tracer.record_span(
                    "service.invoke",
                    start=now,
                    end=now,
                    alias=node.alias,
                    interface=node.interface.name,
                    cached=True,
                    tuples=len(cached[0]),
                )
            if cached[1]:
                sync.failed_aliases.add(node.alias)
            return cached
        task = asyncio.ensure_future(
            self._fetch_fresh(
                node, bindings, constraints, factor, key, availability, acc
            )
        )
        self.context._inflight[key] = task
        try:
            return await task
        finally:
            if self.context._inflight.get(key) is task:
                self.context._inflight.pop(key, None)

    async def _fetch_fresh(
        self,
        node: ServiceNode,
        bindings: Mapping[str, Any],
        constraints: list,
        factor: int,
        key: tuple,
        availability: float,
        acc: NodeRunStats,
    ) -> tuple[list, bool]:
        sync = self._sync
        assert node.interface is not None
        started = self._now()
        invocation = sync.pool.invoke(
            node.interface.name,
            bindings,
            alias=node.alias,
            constraints=constraints,
            availability=availability,
            call_timeout=sync.retry.call_timeout,
        )
        tuples: list = []
        failed = False
        try:
            # Chunks stay sequential within one invocation — chunk i+1
            # requests the page after chunk i, and the invocation's RNG
            # streams must be consumed in the virtual backend's order.
            for index in range(factor):
                chunk = await self._fetch_one_chunk(invocation, node, acc)
                if chunk is None:
                    break
                tuples.extend(chunk)
        except RetryExhaustedError:
            if sync.degradation is Degradation.FAIL:
                raise
            failed = True
            sync.failed_aliases.add(node.alias)
        sync._invocation_cache.put(key, (tuples, failed), sync.cache_stats)
        if sync.tracer.enabled:
            sync.tracer.record_span(
                "service.invoke",
                start=started,
                end=self._now(),
                alias=node.alias,
                interface=node.interface.name,
                cached=False,
                factor=factor,
                tuples=len(tuples),
                failed=failed,
            )
        return tuples, failed

    async def _fetch_one_chunk(
        self, invocation, node: ServiceNode, acc: NodeRunStats
    ):
        """One chunk draw under the retry policy, backoff on wall time."""
        sync = self._sync
        policy = sync.retry
        assert node.interface is not None
        attempt = 1
        while True:
            failed_index = -1
            try:
                return await self._round_trip(invocation, node, acc)
            except (ServiceTimeoutError, ServiceUnavailableError) as exc:
                failed_index = getattr(exc, "_log_index", -1)
                service = exc.service
                permanent = getattr(exc, "permanent", False)
                if permanent or attempt >= policy.max_attempts:
                    self.gave_up += 1
                    raise RetryExhaustedError(
                        f"service {service!r} failed after {attempt} "
                        f"attempt{'s' if attempt != 1 else ''}: {exc}",
                        service=service,
                        attempts=attempt,
                    ) from exc
                wait = policy.backoff(attempt, self._backoff_rng)
                if wait:
                    log = sync.pool.log
                    if 0 <= failed_index < len(log.records):
                        record = log.records[failed_index]
                        # Amend only our own failed attempt — by index,
                        # verified against the failing service (see the
                        # Retrier bugfix): concurrent callers interleave
                        # appends, so positional guesses misattribute.
                        if record.failed and record.service == service:
                            log.amend_at(failed_index, backoff_wait=wait)
                    acc.busy_time += wait
                    if sync.tracer.enabled:
                        span_start = self._now()
                        await self.context.sleep(wait)
                        sync.tracer.record_span(
                            "retry.backoff",
                            start=span_start,
                            end=self._now(),
                            service=service,
                            attempt=attempt,
                            wait=wait,
                        )
                    else:
                        await self.context.sleep(wait)
                self.retries += 1
                attempt += 1

    async def _round_trip(self, invocation, node: ServiceNode, acc: NodeRunStats):
        """One request-response: holds a pooled connection for its latency."""
        sync = self._sync
        assert node.interface is not None
        semaphore = self.context.semaphore(node.interface.name)
        if sync.tracer.enabled and semaphore.locked():
            # The pool is saturated: attribute the connection wait so the
            # timeline shows queueing at the service, not "slow" calls.
            wait_start = self._now()
            await semaphore.acquire()
            sync.tracer.record_span(
                "pool.wait",
                start=wait_start,
                end=self._now(),
                alias=node.alias,
                interface=node.interface.name,
            )
        else:
            await semaphore.acquire()
        try:
            return await self._round_trip_locked(invocation, node, acc)
        finally:
            semaphore.release()

    async def _round_trip_locked(
        self, invocation, node: ServiceNode, acc: NodeRunStats
    ):
        """The round trip proper, with the pooled connection already held."""
        sync = self._sync
        log = sync.pool.log
        before = len(log.records)
        try:
            chunk = invocation.next_chunk()
        except (ServiceTimeoutError, ServiceUnavailableError) as exc:
            latency = self._account(before, acc)
            # Remember which record was ours so the retry loop can
            # amend the backoff wait onto it, not onto whatever a
            # concurrent task logged afterwards.
            exc._log_index = (
                len(log.records) - 1 if len(log.records) > before else -1
            )
            await self.context.sleep(latency)
            raise
        latency = self._account(before, acc)
        await self.context.sleep(latency)
        return chunk

    def _account(self, before: int, acc: NodeRunStats) -> float:
        """Fold records appended by one call into the node's stats."""
        records = self._sync.pool.log.records
        latency = 0.0
        for record in records[before:]:
            if acc.calls == 0:
                acc.first_call_latency = record.latency
            acc.calls += 1
            acc.busy_time += record.latency
            latency += record.latency
        return latency


def run_plan_async(
    plan,
    query,
    pool,
    inputs: Mapping[str, Any],
    fetches: Mapping[str, int] | None = None,
    k: int | None = None,
    *,
    retry: RetryPolicy | None = None,
    degradation: Degradation | str = Degradation.FAIL,
    invocation_cache_size: int | None = 1024,
    tracer=None,
    invocation_cache: InvocationCache | None = None,
    context: AsyncExecutionContext | None = None,
    time_scale: float = 0.001,
    max_connections: int = 8,
    connection_limits: Mapping[str, int] | None = None,
    join_kernel: str = "binary",
) -> ExecutionResult:
    """Convenience wrapper: run one plan on the asyncio backend.

    Builds an :class:`AsyncPlanExecutor` (and, unless ``context`` is
    given, a private :class:`AsyncExecutionContext` from the keyword
    knobs) and drives it with ``asyncio.run``.  The virtual-clock twin
    is :func:`~repro.engine.executor.execute_plan`.
    """
    if context is None:
        context = AsyncExecutionContext(
            time_scale=time_scale,
            default_connections=max_connections,
            connection_limits=dict(connection_limits or {}),
        )
    executor = AsyncPlanExecutor(
        plan=plan,
        query=query,
        pool=pool,
        inputs=inputs,
        fetches=fetches,
        k=k,
        retry=retry,
        degradation=degradation,
        invocation_cache_size=invocation_cache_size,
        tracer=tracer,
        invocation_cache=invocation_cache,
        context=context,
        join_kernel=join_kernel,
    )
    return executor.run()
