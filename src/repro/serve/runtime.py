"""One door into the serving stack: ``serve(config, workload)``.

Every serving mode is one composition of orthogonal layers, each chosen
by a field of the picklable :class:`~repro.serve.scheduler.ServeConfig`:

* **sessions** — :func:`build_sessions` is the one place a run's
  :class:`~repro.serve.sessions.SessionManager` and its caches are built;
* **backend** — the virtual scheduler
  (:class:`~repro.serve.sharding.ServeScheduler`, one merged loop at
  every shard count, ``N = 1`` included) or the asyncio loop
  (:func:`~repro.serve.async_serve.serve_async`);
* **placement** — in-process, or one worker process per shard mapping
  :func:`serve` itself over the ring's self-contained subsets;
* **durability** — the optional checkpointer/resume wrapper
  (:class:`~repro.durability.serve.ServeCheckpointer`).

All of them answer with the same :class:`~repro.serve.scheduler.ServeReport`.
"""

from __future__ import annotations

import gc
from dataclasses import replace
from typing import Any, Callable, Sequence

from repro.engine.executor import InvocationCache
from repro.model.tuples import CompositeTuple
from repro.obs.metrics import MetricsRegistry
from repro.obs.serving import absorb_outcome_metrics
from repro.serve.plancache import PlanCache
from repro.serve.scheduler import ServeConfig, ServeReport, cache_figures, result_digest
from repro.serve.sessions import SessionManager
from repro.serve.sharding import (
    HashRing,
    ServeScheduler,
    ShardedInvocationCache,
    partition_workload,
    shard_entry,
)
from repro.serve.workload import Request, WorkloadConfig, generate_workload
from repro.services.simulated import WorldStats

__all__ = ["build_sessions", "serve"]


def build_sessions(
    config: ServeConfig, ring: HashRing | None = None, tracer: Any = None
) -> SessionManager:
    """The session manager and caches ``config`` describes.

    ``ring`` routes each session to its home shard's cache in ``private``
    mode (pass the scheduler's, so both agree on placement); ``tracer`` is
    the engine-level tracer handed to every session's executor.
    """
    plan_cache = invocation_cache = home_of = None
    shard_caches: list[InvocationCache] = []
    if config.cache_mode != "isolated":
        plan_cache = PlanCache(max_size=config.plan_cache_size)
    if config.cache_mode == "shared":
        invocation_cache = ShardedInvocationCache(
            config.num_shards, max_size=config.cache_size
        )
    elif config.cache_mode == "private":  # one cache per shard, by home
        home_of = (ring if ring is not None else HashRing(config.num_shards)).shard_of
        shard_caches = [
            InvocationCache(max_size=config.cache_size)
            for _ in range(config.num_shards)
        ]
    return SessionManager(
        templates={template.name: template for template in config.templates},
        data_seed=config.data_seed,
        plan_cache=plan_cache,
        invocation_cache=invocation_cache,
        shard_caches=shard_caches,
        home_of=home_of,
        tracer=tracer,
    )


def serve(
    config: ServeConfig,
    workload: "WorkloadConfig | Sequence[Request]",
    *,
    tracer: Any = None,
    slo: Any = None,
    digest_fn: "Callable[[Sequence[CompositeTuple]], str] | None" = None,
    on_checkpoint: "Callable[[Any], None] | None" = None,
) -> ServeReport:
    """Serve ``workload`` the way ``config`` describes; returns the report.

    ``workload`` is a request stream, or the
    :class:`~repro.serve.workload.WorkloadConfig` to sample one from the
    config's templates.  ``tracer`` / ``slo`` observe the run (request span
    trees, completed-latency accounting) and may never perturb results;
    with ``digest_fn`` outcomes carry digests instead of materialised
    result lists (bounded-memory serving — durable and multi-process runs
    always digest); ``on_checkpoint`` is called after each durable
    checkpoint write.  Per-request digests: :meth:`ServeReport.digests`.

    The run makes no reference cycles (reference counting frees all it
    drops), so the cyclic collector is paused for all of it rather than
    walking the live world and caches again and again to find nothing.
    One young collection at the end counts what it would have found into
    :attr:`ServeReport.cyclic_garbage`; the caller's collector state is
    restored on every exit.
    """
    # A module's first import makes cycles of its own (its classes), so the
    # modules a mode loads lazily load first, and a young collection clears
    # them and the caller's: the count at the end is the run's own.
    if config.backend == "asyncio":
        import repro.engine.async_runner  # noqa: F401
        import repro.serve.async_serve  # noqa: F401
    if config.parallel:
        import multiprocessing.pool  # noqa: F401
    if config.checkpoint_dir is not None:
        import repro.durability.serve  # noqa: F401
    enabled = gc.isenabled()
    gc.collect(0)
    gc.disable()
    try:
        report = _serve(config, workload, tracer, slo, digest_fn, on_checkpoint)
        report.cyclic_garbage += gc.collect(0)
    finally:
        if enabled:
            gc.enable()
    return report


def _serve(
    config: ServeConfig,
    workload: "WorkloadConfig | Sequence[Request]",
    tracer: Any,
    slo: Any,
    digest_fn: "Callable[[Sequence[CompositeTuple]], str] | None",
    on_checkpoint: "Callable[[Any], None] | None",
) -> ServeReport:
    if isinstance(workload, WorkloadConfig):
        workload = generate_workload(config.templates, workload)
    if config.parallel:
        return _serve_parallel(config, workload)
    ring = HashRing(config.num_shards)
    if config.backend == "asyncio":
        import asyncio

        from repro.engine.async_runner import AsyncExecutionContext
        from repro.serve.async_serve import serve_async

        # The engine's service.invoke / pool.wait spans share the request
        # spans' wall-clock axis, so the one tracer serves both layers.
        sessions = build_sessions(config, ring, tracer)
        context = AsyncExecutionContext(time_scale=config.time_scale)
        return asyncio.run(
            serve_async(workload, sessions, context, tracer, slo, digest_fn)
        )
    sessions = build_sessions(config, ring)
    metrics = MetricsRegistry()
    checkpointer = None
    if config.checkpoint_dir is not None:
        from repro.durability.serve import ServeCheckpointer

        digest_fn = digest_fn or result_digest
        checkpointer = ServeCheckpointer.open(config, workload, sessions, on_checkpoint)
        if config.resume:
            workload = checkpointer.resume(workload, metrics, tracer, slo)
    scheduler = ServeScheduler(
        sessions,
        config,
        metrics,
        tracer,
        ring=ring,
        digest_fn=digest_fn,
        table=checkpointer.table if checkpointer is not None else None,
        checkpointer=checkpointer,
        slo=slo,
    )
    report = scheduler.run(workload)
    if checkpointer is not None:
        report.durability = checkpointer.info(served=len(workload))
    return report


# -- placement: one worker process per shard ------------------------------------


def _serve_subset(job: tuple[ServeConfig, Sequence[Request]]) -> ServeReport:
    """Serve one shard's subset in a worker process.

    Each worker owns a full private runtime (its own sessions and caches
    — cross-shard cache sharing needs shared memory this placement
    deliberately avoids), so results still match every in-process mode:
    the substrate is deterministic per ``(data seed, interface,
    bindings)`` regardless of which process fetches.
    """
    config, subset = job
    return serve(config, subset, digest_fn=result_digest)


def _serve_parallel(config: ServeConfig, workload: Sequence[Request]) -> ServeReport:
    """Map :func:`serve` over the ring's subsets, one process per shard.

    Digest-equivalent to the in-process sharded runtime in ``private``
    cache mode.  The config crosses the process boundary whole, so its
    templates must be picklable (the built-ins are).
    """
    import multiprocessing

    subsets = partition_workload(workload, HashRing(config.num_shards))
    worker = replace(config, num_shards=1, parallel=False)
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        context = multiprocessing.get_context("spawn")
    with context.Pool(processes=config.num_shards) as pool:
        reports = pool.map(_serve_subset, [(worker, subset) for subset in subsets])
    metrics = MetricsRegistry()
    outcomes = {}
    for index, report in enumerate(reports):
        for request_id, outcome in report.outcomes.items():
            outcome.shard = index
            absorb_outcome_metrics(metrics, outcome)
            outcomes[request_id] = outcome
    # Each worker counted its own caches: the run's figures are their sums.
    plan_stats, invocation_stats = cache_figures(
        metrics,
        (report.plan_cache_stats for report in reports),
        (report.invocation_cache_stats for report in reports),
    )
    return ServeReport(
        outcomes=dict(sorted(outcomes.items())),
        makespan=max(report.makespan for report in reports),
        total_round_trips=sum(report.total_round_trips for report in reports),
        metrics=metrics,
        plan_cache_stats=plan_stats,
        invocation_cache_stats=invocation_stats,
        world_stats=WorldStats.total(report.world_stats for report in reports),
        shard_stats=[
            {
                # A worker's one row carries its cache figures.
                **report.shard_stats[0],
                **shard_entry(metrics, index, report.makespan),
                "round_trips": report.total_round_trips,
            }
            for index, report in enumerate(reports)
        ],
        cyclic_garbage=sum(report.cyclic_garbage for report in reports),
    )
