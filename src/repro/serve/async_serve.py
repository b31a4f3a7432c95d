"""Asyncio serving: the seeded workload on really concurrent execution.

The virtual-clock :class:`~repro.serve.sharding.ServeScheduler` steps
many in-flight queries on one deterministic timeline — the oracle for
admission, fairness, and rate-limit behaviour.  This module is its
wall-clock counterpart: the *same* seeded workload
(:func:`~repro.serve.workload.generate_workload`) is served on an
asyncio event loop, each request executing through the
:mod:`~repro.engine.async_runner` backend with genuinely overlapping
service calls.

Correspondence with the virtual scheduler:

* arrivals are paced by the workload's virtual arrival times scaled by
  ``time_scale`` (the same factor that scales service latencies);
* interactions on one session are **chained in arrival order** — a
  follow-up awaits its parent chain before executing, so every session
  sees the identical interaction sequence the virtual scheduler would
  deliver, and per-request result digests match the virtual run's;
* a global admission semaphore bounds concurrently *executing* requests
  (:data:`~repro.serve.scheduler.MAX_CONCURRENCY`); excess arrivals
  queue, as they queue on a virtual shard;
* all sessions share one :class:`~repro.engine.async_runner.AsyncExecutionContext`,
  making the per-service connection pools a server-wide bound and
  coalescing concurrent identical invocations across queries.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import replace
from typing import Any, Callable, Sequence

from repro.engine.async_runner import AsyncExecutionContext
from repro.obs.metrics import MetricsRegistry
from repro.obs.serving import absorb_outcome_metrics, record_request_span
from repro.obs.tracer import coerce_tracer
from repro.serve.scheduler import (
    MAX_CONCURRENCY,
    RequestOutcome,
    ServeReport,
    build_report,
)
from repro.serve.sessions import SessionManager
from repro.serve.sharding import shard_entry
from repro.serve.workload import Request

__all__ = ["serve_async"]


async def serve_async(
    workload: Sequence[Request],
    sessions: SessionManager,
    context: AsyncExecutionContext,
    tracer: Any = None,
    slo: Any = None,
    digest_fn: "Callable | None" = None,
) -> ServeReport:
    """Serve ``workload`` on the running event loop.

    Every session executes under ``context``, the server's one wall-clock
    context.  Reports through the virtual scheduler's own
    :class:`~repro.serve.scheduler.ServeReport`: every time in it is wall
    time rescaled to the virtual axis (``/ time_scale``), the axis the
    engine's ``service.invoke`` / ``pool.wait`` spans use, and an outcome's
    request carries the instant it *actually* arrived on that axis.
    """
    admission = asyncio.Semaphore(MAX_CONCURRENCY)
    active = peak = 0  # requests executing now, and the most at once
    # One chain per session: request_id for a run, its target for
    # follow-ups.  Chaining serialises a session's interactions in
    # arrival order — the order the virtual scheduler delivers them.
    chains: dict[int, asyncio.Task] = {}
    outcomes: dict[int, RequestOutcome] = {}
    metrics = MetricsRegistry()
    tracer = coerce_tracer(tracer)
    # Bind the shared context to this loop *now* so its wall epoch is the
    # serve start: engine spans and the request spans share one timeline.
    context.attach_loop()
    started = context.wall_epoch
    time_scale = context.time_scale

    def axis() -> float:
        """Elapsed wall seconds rescaled to the virtual-time span axis."""
        elapsed = time.perf_counter() - started
        return elapsed / time_scale if time_scale > 0 else elapsed

    async def handle(request: Request, predecessor: asyncio.Task | None) -> None:
        nonlocal active, peak
        outcome = RequestOutcome(
            request=replace(request, arrival=axis()), status="running"
        )
        waited_from = outcome.request.arrival
        if predecessor is not None:
            # The parent chain must settle first; its failure surfaces
            # below as a missing session, not as our exception.
            await asyncio.gather(predecessor, return_exceptions=True)
            waited_from = outcome.unparked_at = axis()
            outcome.wake_reason = "target"
        async with admission:
            active += 1
            peak = max(peak, active)
            outcome.started_at = axis()
            outcome.queue_wait = outcome.started_at - waited_from
            try:
                results = await sessions.perform_async(request, context)
            except Exception as exc:
                outcome.status = "failed"
                outcome.error = f"{type(exc).__name__}: {exc}"
            else:
                outcome.status = "completed"
                if digest_fn is not None:
                    outcome.digest = digest_fn(results or ())
                else:
                    outcome.results = results
                if request.kind == "run":
                    outcome.k_shortfall = sessions.k_shortfall(request, results)
            active -= 1
        outcome.finished_at = axis()
        absorb_outcome_metrics(metrics, outcome)
        if slo is not None and outcome.status == "completed":
            slo.observe(outcome.latency)
        if tracer.enabled:
            record_request_span(tracer, outcome, backend="asyncio")
        outcomes[request.request_id] = outcome

    tasks: list[asyncio.Task] = []
    for request in sorted(workload, key=lambda r: (r.arrival, r.request_id)):
        due = started + request.arrival * time_scale
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        session_key = (
            request.request_id if request.kind == "run" else request.target
        )
        predecessor = chains.get(session_key) if session_key is not None else None
        task = asyncio.ensure_future(handle(request, predecessor))
        if session_key is not None:
            chains[session_key] = task
        tasks.append(task)
    try:
        await asyncio.gather(*tasks)
    except BaseException:  # pragma: no cover - defensive unwind
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        raise
    makespan = axis()
    # The loop is one shard: shard 0 of every outcome.
    return build_report(
        sessions, metrics, outcomes, makespan, [shard_entry(metrics, 0, makespan)],
        admission_peak=peak, slo=slo,
    )
