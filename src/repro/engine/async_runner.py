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
* per-call timeouts and retries follow the virtual backend's one rule
  (:meth:`~repro.engine.retry.Retrier.retry_or_give_up`, on the
  executor's ``Retrier`` with this driver's own jitter stream); only the
  wait differs: backoff is slept on wall time;
* spans go through the existing :mod:`repro.obs` tracer via
  :meth:`~repro.obs.tracer.Tracer.record_span`, on a wall-clock axis
  rescaled back to virtual seconds so traces from both backends are
  comparable.

**Why equivalence holds.**  :class:`AsyncPlanExecutor` *is* a
:class:`~repro.engine.executor.PlanExecutor` with another driver: the
node bodies — kind dispatch, binding construction, selection filtering,
join kernels, the final joint-witness check, the per-node statistics —
the cache-hit branch and the abandon rule are the virtual backend's own
code, and results are composed in upstream order regardless of fetch
completion order.  This module owns only *when* fetches happen.  The
simulated substrate derives result tuples, latency draws, and fault
draws from ``(global seed, interface, bindings)`` via per-invocation
RNGs, never from clock state or call order; chunks within one invocation
stay sequential, so each invocation consumes its RNG streams identically
in both backends.  Hence both backends return digest-identical result
lists — the virtual clock stays the planner/test oracle, the asyncio
runner supplies real throughput (see DESIGN.md, "Execution backends").

Duplicate invocations issued concurrently are **single-flighted**
through :class:`AsyncExecutionContext`: the first caller fetches, later
callers await the same task, so the asyncio backend issues the same
round trips the memoised sequential walk would.  A waiter takes the
owner's *outcome*, never its fate: if the owner is cancelled, or gives up
under its own ``fail`` policy, nothing was memoised and the waiter looks
the call up for itself — as the sequential walk's second caller would.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.engine.executor import ExecutionResult, PlanExecutor
from repro.engine.liquid import BACKENDS
from repro.errors import (
    ExecutionError,
    RetryExhaustedError,
    ServiceTimeoutError,
    ServiceUnavailableError,
)
from repro.plans.nodes import ServiceNode

__all__ = [
    "AsyncExecutionContext",
    "AsyncPlanExecutor",
    "DEFAULT_CONNECTIONS",
    "run_plan_async",
    "BACKENDS",
]

#: Connection-pool size of every interface: the most round trips in
#: flight to one service at once.
DEFAULT_CONNECTIONS = 8


@dataclass
class AsyncExecutionContext:
    """Shared wall-clock execution context: pools, pacing, single-flight.

    One context may be shared by many :class:`AsyncPlanExecutor`\\ s
    running on the same event loop (the async serving path does), in
    which case the per-service connection pools
    (:data:`DEFAULT_CONNECTIONS` each) bound *global* concurrency per
    interface and identical concurrent invocations coalesce across
    executors.

    Parameters
    ----------
    time_scale:
        Wall seconds per virtual second: each simulated round trip
        sleeps ``latency * time_scale``.  ``0.0`` sleeps nothing but
        still yields to the loop, preserving cooperative interleaving —
        the right setting for equivalence tests that only check results.
    """

    time_scale: float = 0.001
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
    wall_epoch: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self) -> None:
        if not (self.time_scale >= 0 and math.isfinite(self.time_scale)):
            raise ExecutionError("time_scale must be a finite number >= 0")

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
            semaphore = self._semaphores[interface] = asyncio.Semaphore(
                DEFAULT_CONNECTIONS
            )
        return semaphore

    async def sleep(self, virtual_seconds: float) -> None:
        """Spend ``virtual_seconds`` of simulated latency on wall time.

        Always awaits (even at scale 0) so concurrent tasks interleave
        the way real I/O waits would.
        """
        await asyncio.sleep(virtual_seconds * self.time_scale)


async def _gather(tasks: list) -> list:
    """``asyncio.gather`` that leaves nothing running: if one task fails
    (or the caller is cancelled) the rest are cancelled and waited out."""
    try:
        return await asyncio.gather(*tasks)
    except BaseException:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        raise


class _WallSpan:
    """A span on the wall axis: opened now, recorded — flat, concurrent
    tasks share no stack to nest on — when it exits."""

    __slots__ = ("_executor", "name", "start", "attrs")

    def __init__(
        self, executor: "AsyncPlanExecutor", name: str, start: float, attrs: dict
    ) -> None:
        self._executor = executor
        self.name = name
        self.start = start
        self.attrs = attrs

    def set(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def __enter__(self) -> "_WallSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        executor = self._executor
        executor.tracer.record_span(
            self.name, start=self.start, end=executor._now(), **self.attrs
        )
        return False


class AsyncPlanExecutor(PlanExecutor):
    """Executes one plan concurrently on an asyncio event loop.

    A :class:`~repro.engine.executor.PlanExecutor` (same plan / query /
    pool / options; ``context`` adds the wall-clock knobs) whose fetch
    batches are gathered on the loop instead of stepped on the virtual
    clock.  Everything a fetch *produces* is the base class's; this class
    only owns *when* fetches happen: a task per node, the batch fan-out,
    connection pools, single-flight, wall-clock retry and backoff, spans
    on the wall axis.
    """

    def __init__(
        self, *args: Any, context: AsyncExecutionContext, **options: Any
    ) -> None:
        self.context = context
        super().__init__(*args, **options)
        self.result_memo = "off(backend)"  # this driver never consults it
        self._retrier.rng = random.Random(self.pool.global_seed ^ 0xA51C)
        self._wall_start = 0.0

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

    def _span(self, name: str, *, started: float | None = None, **attrs: Any):
        return _WallSpan(
            self, name, self._now() if started is None else started, attrs
        )

    # -- entry points --------------------------------------------------------

    def run(self) -> ExecutionResult:
        """Execute on a fresh event loop (synchronous convenience)."""
        return asyncio.run(self.execute())

    def steps(self):
        raise ExecutionError(
            "step generators require the virtual backend; the asyncio "
            "backend interleaves via the event loop instead"
        )

    async def execute(self) -> ExecutionResult:
        """Execute the plan; node tasks overlap wherever the DAG allows."""
        self.context.attach_loop()
        self._wall_start = time.perf_counter()
        outputs: dict[str, list] = {}
        tasks: dict[str, asyncio.Task] = {}
        with self._plan_span(backend="asyncio") as span:
            for node_id in self.plan.topological_order():
                tasks[node_id] = asyncio.ensure_future(
                    self._node_task(node_id, tasks, outputs)
                )
            finished = await _gather(list(tasks.values()))
            rows = outputs[self.plan.output_node.node_id]
            span.set("result_rows", f"built {len(rows.built)} of {len(rows)}")
        return self._result(
            rows,
            {node_id: stats for node_id, (stats, _) in zip(tasks, finished)},
            sum(pair_count for _, pair_count in finished),
            backend="asyncio",
            wall_time=time.perf_counter() - self._wall_start,
        )

    # -- the driver: node tasks and fetch batches -------------------------------

    async def _node_task(
        self, node_id: str, tasks: dict[str, asyncio.Task], outputs: dict[str, list]
    ):
        """One node on the loop: await the parents, run the shared body,
        fulfil the fetch batch it hands over; its ``(stats, pairs)``."""
        for parent in self.plan.parents(node_id):
            await tasks[parent]
        body = self._run_node(node_id, outputs)
        try:
            batch = next(body)
            while True:
                try:
                    fulfilled = await self._gather_batch(batch)
                except BaseException as error:
                    body.throw(error)  # closes the node's span, re-raises
                    raise
                batch = body.send(fulfilled)
        except StopIteration as done:
            return done.value

    def _fetch_batch(self, batch: tuple):
        """Hand the batch to the node's task (:meth:`_node_task`), which
        gathers it on the loop and sends back what the virtual driver's
        :meth:`~repro.engine.executor.PlanExecutor._fetch_batch` returns."""
        return (yield batch)

    async def _gather_batch(self, batch: tuple) -> tuple[list, dict[str, Any]]:
        """Fulfil one fetch batch the loop's way: every call spec at once
        (the pools bound what is really in flight), outcomes in spec order.
        The call figures accumulate per node as its round trips land — the
        log is shared with every other node running meanwhile."""
        node, factor, availability, specs = batch
        acc = {"calls": 0, "busy_time": 0.0, "first_call_latency": 0.0}
        fetched = await _gather(
            [
                asyncio.ensure_future(
                    self._single_flight(node, *spec, factor, availability, acc)
                )
                for spec in specs
            ]
        )
        return fetched, acc

    async def _single_flight(
        self,
        node: ServiceNode,
        bindings: Mapping[str, Any],
        constraints: list,
        key: tuple,
        factor: int,
        availability: float,
        acc: dict[str, Any],
    ) -> tuple[list, bool]:
        """One call spec's outcome: joined from an identical invocation in
        flight, met in the memo, or fetched — and put in flight for others."""
        inflight = self.context._inflight
        while (pending := inflight.get(key)) is not None:
            # ``wait``, not ``await pending``: whatever ends the owner's
            # fetch, a CancelledError raised here is ours alone.
            started = self._now()
            await asyncio.wait([pending])
            if not pending.cancelled() and pending.exception() is None:
                # Mirrors the sequential walk, where the second caller
                # would hit the memo.
                self._invocation_cache.joined(self.cache_stats)
                return self._met(
                    node, pending.result(), started=started, coalesced=True
                )
            # The owner was cancelled, or gave up under *its* degradation
            # policy: nothing was memoised, so look again for ourselves.
        cached = self._invocation_cache.get(key, self.cache_stats)
        if cached is not None:
            return self._met(node, cached)
        task = asyncio.ensure_future(
            self._fetch_fresh(
                node, bindings, constraints, key, factor, availability, acc
            )
        )
        inflight[key] = task
        try:
            return await task
        finally:
            if inflight.get(key) is task:
                del inflight[key]

    async def _fetch_fresh(
        self,
        node: ServiceNode,
        bindings: Mapping[str, Any],
        constraints: list,
        key: tuple,
        factor: int,
        availability: float,
        acc: dict[str, Any],
    ) -> tuple[list, bool]:
        invocation, span = self._begin_fetch(
            node, bindings, constraints, factor, availability
        )
        tuples: list = []
        try:
            # Chunks stay sequential within one invocation — chunk i+1
            # requests the page after chunk i, and the invocation's RNG
            # streams must be consumed in the virtual backend's order.
            for _ in range(factor):
                chunk = await self._draw_chunk(invocation, node, acc)
                if chunk is None:
                    break
                tuples.extend(chunk)
        except RetryExhaustedError as exhausted:
            return self._end_fetch(node, key, tuples, exhausted, span)
        return self._end_fetch(node, key, tuples, None, span)

    async def _draw_chunk(self, invocation, node: ServiceNode, acc: dict[str, Any]):
        """One chunk draw under the retry rule, backoff slept on wall time."""
        attempt = 1
        while True:
            try:
                return await self._round_trip(invocation, node, acc)
            except (ServiceTimeoutError, ServiceUnavailableError) as exc:
                wait = self._retrier.retry_or_give_up(exc, attempt, exc._log_index)
                if wait:
                    acc["busy_time"] += wait
                    with self._span(
                        "retry.backoff", service=exc.service, attempt=attempt, wait=wait
                    ):
                        await self.context.sleep(wait)
                attempt += 1

    async def _round_trip(self, invocation, node: ServiceNode, acc: dict[str, Any]):
        """One request-response: holds a pooled connection for its latency."""
        assert node.interface is not None
        semaphore = self.context.semaphore(node.interface.name)
        if self.tracer.enabled and semaphore.locked():
            # The pool is saturated: attribute the connection wait so the
            # timeline shows queueing at the service, not "slow" calls.
            with self._span(
                "pool.wait", alias=node.alias, interface=node.interface.name
            ):
                await semaphore.acquire()
        else:
            await semaphore.acquire()
        try:
            return await self._round_trip_locked(invocation, acc)
        finally:
            semaphore.release()

    async def _round_trip_locked(self, invocation, acc: dict[str, Any]):
        """The round trip proper, with the pooled connection already held."""
        log = self.pool.log
        before = len(log.records)
        try:
            chunk = invocation.next_chunk()
        except (ServiceTimeoutError, ServiceUnavailableError) as exc:
            latency = self._account(before, acc)
            # Find our record now, before the latency sleep lets concurrent
            # tasks append theirs; the log only grows, so the index stays
            # ours for the retry rule to amend the backoff onto.
            exc._log_index = self._retrier.failed_record(before, exc.service)
            await self.context.sleep(latency)
            raise
        latency = self._account(before, acc)
        await self.context.sleep(latency)
        return chunk

    def _account(self, before: int, acc: dict[str, Any]) -> float:
        """Fold records appended by one call into the node's call figures."""
        latency = 0.0
        for record in self.pool.log.records[before:]:
            if acc["calls"] == 0:
                acc["first_call_latency"] = record.latency
            acc["calls"] += 1
            acc["busy_time"] += record.latency
            latency += record.latency
        return latency


def run_plan_async(
    plan,
    query,
    pool,
    inputs: Mapping[str, Any],
    *args: Any,
    context: AsyncExecutionContext | None = None,
    time_scale: float = 0.001,
    **options: Any,
) -> ExecutionResult:
    """Convenience wrapper: run one plan on the asyncio backend.

    Builds an :class:`AsyncPlanExecutor` (and, unless ``context`` is
    given, a private :class:`AsyncExecutionContext` at ``time_scale``)
    and drives it with ``asyncio.run``; ``fetches``, ``k`` and the
    remaining keyword options are
    :class:`~repro.engine.executor.PlanExecutor`'s.  The virtual-clock
    twin is :func:`~repro.engine.executor.execute_plan`.
    """
    if context is None:
        context = AsyncExecutionContext(time_scale=time_scale)
    return AsyncPlanExecutor(
        plan, query, pool, inputs, *args, context=context, **options
    ).run()
