"""Asyncio backend equivalence: same plans, same results, real overlap.

The asyncio backend (:mod:`repro.engine.async_runner`) runs the *same*
optimized plan graph as the virtual-clock simulator, with service round
trips genuinely overlapping on an event loop.  Because the simulated
substrate derives results, latencies, and fault draws from
``(global seed, interface, bindings)`` alone — never from clock state or
call order — both backends must produce byte-identical result lists.
These tests pin that contract on the chapter's two example plans, under
faults/retries/partial degradation, through the liquid-session twins,
and across the serving layer.

Marked ``async_backend`` (deselected from tier-1 by default): wall-clock
sleeps make these slower than the discrete-event tests.  CI runs them in
the dedicated ``async-equivalence`` job.
"""

from __future__ import annotations

import asyncio
from collections import defaultdict

import pytest

from repro.core.optimizer import Optimizer, OptimizerConfig
from repro.core.topology import enumerate_topologies
from repro.engine.async_runner import (
    AsyncExecutionContext,
    AsyncPlanExecutor,
    run_plan_async,
)
from repro.engine.executor import execute_plan
from repro.engine.liquid import LiquidQuerySession
from repro.engine.retry import Degradation, RetryPolicy
from repro.errors import ExecutionError
from repro.query.feasibility import enumerate_binding_choices
from repro.serve.bench import result_digest
from repro.services.marts import CONFERENCE_INPUTS, RUNNING_EXAMPLE_INPUTS
from repro.services.simulated import FaultModel, ServicePool
from tests.conftest import serve_seeded

pytestmark = pytest.mark.async_backend

FIG10_FETCHES = {"M": 5, "T": 5, "R": 1}
FIG2_FETCHES = {"F": 2, "H": 2}

#: Zero wall sleep: ``asyncio.sleep(0)`` still yields to the loop, so the
#: scheduling interleaving is exercised without burning test time.
INSTANT = 0.0


def fig10_plan(movie_query):
    """The Fig. 10 topology: M || T joined, piped into R."""
    choice = next(enumerate_binding_choices(movie_query))
    for plan in enumerate_topologies(movie_query, {}, choice):
        joins = plan.join_nodes()
        if not joins:
            continue
        child = plan.node(plan.children(joins[0].node_id)[0])
        if getattr(child, "alias", None) == "R":
            return plan
    raise AssertionError("Fig. 10 topology not found")


def optimizer_candidate(query):
    outcome = Optimizer(query, OptimizerConfig()).optimize()
    assert outcome.best is not None
    return outcome.best


def assert_equivalent(virtual, real):
    """The full equivalence contract between the two backends."""
    assert real.backend == "asyncio" and virtual.backend == "virtual"
    assert result_digest(real.tuples) == result_digest(virtual.tuples)
    assert [t.components for t in real.tuples] == [
        t.components for t in virtual.tuples
    ]
    # Same calls issued (per alias), same simulated cost accounting.
    assert _calls_by_alias(real.log) == _calls_by_alias(virtual.log)
    assert real.log.total_latency() == pytest.approx(virtual.log.total_latency())
    assert real.execution_time == pytest.approx(virtual.execution_time)
    assert real.failed_aliases == virtual.failed_aliases
    assert real.wall_time >= 0.0 and virtual.wall_time == 0.0
    # Same rows built and scored per node, same final-check decision.
    assert _row_work(real) == _row_work(virtual)


def _row_work(result):
    return {
        node_id: (stats.rows_built, stats.rows_scored, stats.final_check)
        for node_id, stats in result.node_stats.items()
    }


def _calls_by_alias(log):
    counts: dict[str, int] = defaultdict(int)
    for record in log.records:
        counts[(record.alias, record.outcome)] += 1
    return dict(counts)


# -- plan-level equivalence ----------------------------------------------------


def test_fig10_digest_equality(movie_query, movie_registry):
    plan = fig10_plan(movie_query)
    virtual = execute_plan(
        plan,
        movie_query,
        ServicePool(movie_registry, global_seed=42),
        RUNNING_EXAMPLE_INPUTS,
        FIG10_FETCHES,
    )
    real = run_plan_async(
        plan,
        movie_query,
        ServicePool(movie_registry, global_seed=42),
        RUNNING_EXAMPLE_INPUTS,
        FIG10_FETCHES,
        time_scale=INSTANT,
    )
    assert_equivalent(virtual, real)
    assert len(real.tuples) > 0


def test_fig2_conference_digest_equality(conference_query, conference_registry):
    candidate = optimizer_candidate(conference_query)
    virtual = execute_plan(
        candidate.plan,
        conference_query,
        ServicePool(conference_registry, global_seed=7),
        CONFERENCE_INPUTS,
        FIG2_FETCHES,
    )
    real = run_plan_async(
        candidate.plan,
        conference_query,
        ServicePool(conference_registry, global_seed=7),
        CONFERENCE_INPUTS,
        FIG2_FETCHES,
        time_scale=INSTANT,
    )
    assert_equivalent(virtual, real)


@pytest.mark.parametrize("seed", [1, 42, 2009])
def test_equivalence_across_seeds(movie_query, movie_registry, seed):
    plan = fig10_plan(movie_query)
    virtual = execute_plan(
        plan,
        movie_query,
        ServicePool(movie_registry, global_seed=seed),
        RUNNING_EXAMPLE_INPUTS,
        FIG10_FETCHES,
        k=5,
    )
    real = run_plan_async(
        plan,
        movie_query,
        ServicePool(movie_registry, global_seed=seed),
        RUNNING_EXAMPLE_INPUTS,
        FIG10_FETCHES,
        k=5,
        time_scale=INSTANT,
    )
    assert_equivalent(virtual, real)


def test_equivalence_under_faults_and_retries(movie_query, movie_registry):
    """Transient faults draw per-invocation: both backends see the same
    failures, retry the same attempts, and converge to the same output."""
    plan = fig10_plan(movie_query)
    faults = FaultModel.uniform(failure_rate=0.15, timeout_rate=0.10)
    retry = RetryPolicy(max_attempts=4, base_backoff=0.2, jitter_fraction=0.0)
    virtual = execute_plan(
        plan,
        movie_query,
        ServicePool(movie_registry, global_seed=42, fault_model=faults),
        RUNNING_EXAMPLE_INPUTS,
        FIG10_FETCHES,
        retry=retry,
        degradation=Degradation.PARTIAL,
    )
    real = run_plan_async(
        plan,
        movie_query,
        ServicePool(movie_registry, global_seed=42, fault_model=faults),
        RUNNING_EXAMPLE_INPUTS,
        FIG10_FETCHES,
        retry=retry,
        degradation=Degradation.PARTIAL,
        time_scale=INSTANT,
    )
    assert_equivalent(virtual, real)


def test_partial_degradation_on_outage(movie_query, movie_registry):
    """A permanent outage on R degrades identically on both backends."""
    plan = fig10_plan(movie_query)
    restaurant = plan.service_node_for("R").interface.name
    faults = FaultModel().with_outage(restaurant)
    retry = RetryPolicy(max_attempts=2, base_backoff=0.1, jitter_fraction=0.0)
    virtual = execute_plan(
        plan,
        movie_query,
        ServicePool(movie_registry, global_seed=42, fault_model=faults),
        RUNNING_EXAMPLE_INPUTS,
        FIG10_FETCHES,
        retry=retry,
        degradation=Degradation.PARTIAL,
    )
    real = run_plan_async(
        plan,
        movie_query,
        ServicePool(movie_registry, global_seed=42, fault_model=faults),
        RUNNING_EXAMPLE_INPUTS,
        FIG10_FETCHES,
        retry=retry,
        degradation=Degradation.PARTIAL,
        time_scale=INSTANT,
    )
    assert virtual.incomplete and real.incomplete
    assert_equivalent(virtual, real)


# -- concurrency mechanics -----------------------------------------------------


def test_connection_pool_bounds_concurrency(movie_query, movie_registry):
    """Per-interface semaphores cap in-flight round trips per service."""
    plan = fig10_plan(movie_query)
    limit = 2
    context = AsyncExecutionContext(time_scale=0.0005, default_connections=limit)
    active: dict[str, int] = defaultdict(int)
    peak: dict[str, int] = defaultdict(int)
    real_semaphore = AsyncExecutionContext.semaphore

    class Probe:
        def __init__(self, inner: asyncio.Semaphore, name: str) -> None:
            self.inner = inner
            self.name = name

        # The protocol ``AsyncPlanExecutor._round_trip`` drives: in-flight
        # holders are counted between ``acquire`` and ``release``.
        def locked(self) -> bool:
            return self.inner.locked()

        async def acquire(self):
            await self.inner.acquire()
            active[self.name] += 1
            peak[self.name] = max(peak[self.name], active[self.name])
            return True

        def release(self) -> None:
            active[self.name] -= 1
            self.inner.release()

    context.semaphore = lambda name: Probe(real_semaphore(context, name), name)

    executor = AsyncPlanExecutor(
        plan,
        movie_query,
        ServicePool(movie_registry, global_seed=42),
        RUNNING_EXAMPLE_INPUTS,
        fetches={"M": 5, "T": 5, "R": 2},
        context=context,
    )
    result = executor.run()
    assert result.tuples
    assert peak, "probe saw no round trips"
    assert all(p <= limit for p in peak.values()), peak
    # The fan-out stages actually exercised the pool: at least one
    # interface had more invocations than connections.
    assert max(peak.values()) == limit


def test_context_reusable_across_event_loops(movie_query, movie_registry):
    """One context can serve consecutive ``asyncio.run`` calls."""
    plan = fig10_plan(movie_query)
    context = AsyncExecutionContext(time_scale=INSTANT)
    digests = []
    for _ in range(2):
        result = run_plan_async(
            plan,
            movie_query,
            ServicePool(movie_registry, global_seed=42),
            RUNNING_EXAMPLE_INPUTS,
            FIG10_FETCHES,
            context=context,
        )
        digests.append(result_digest(result.tuples))
    assert digests[0] == digests[1]


def test_invocation_cache_parity(movie_query, movie_registry):
    """Memo accounting matches: the async single-flight layer reports the
    same hit/miss split the sequential walk does."""
    plan = fig10_plan(movie_query)
    virtual = execute_plan(
        plan,
        movie_query,
        ServicePool(movie_registry, global_seed=42),
        RUNNING_EXAMPLE_INPUTS,
        FIG10_FETCHES,
    )
    real = run_plan_async(
        plan,
        movie_query,
        ServicePool(movie_registry, global_seed=42),
        RUNNING_EXAMPLE_INPUTS,
        FIG10_FETCHES,
        time_scale=INSTANT,
    )
    assert real.cache_stats.misses == virtual.cache_stats.misses
    assert real.cache_stats.hits == virtual.cache_stats.hits


# -- liquid sessions -----------------------------------------------------------


def _liquid_session(movie_query, movie_registry, backend):
    candidate = optimizer_candidate(movie_query)
    return LiquidQuerySession(
        candidate=candidate,
        query=movie_query,
        pool=ServicePool(movie_registry, global_seed=42),
        inputs=dict(RUNNING_EXAMPLE_INPUTS),
        backend=backend,
        async_context=(
            AsyncExecutionContext(time_scale=INSTANT)
            if backend == "asyncio"
            else None
        ),
    )


def test_liquid_session_backend_equality(movie_query, movie_registry):
    sync_session = _liquid_session(movie_query, movie_registry, "virtual")
    async_session = _liquid_session(movie_query, movie_registry, "asyncio")

    first_v = sync_session.run(5)
    first_a = async_session.run(5)
    assert result_digest(first_a) == result_digest(first_v)

    more_v = sync_session.more(5)
    more_a = async_session.more(5)
    assert result_digest(more_a) == result_digest(more_v)


def test_liquid_session_async_twins_await(movie_query, movie_registry):
    session = _liquid_session(movie_query, movie_registry, "asyncio")
    reference = _liquid_session(movie_query, movie_registry, "virtual")

    async def drive():
        first = await session.run_async(5)
        more = await session.more_async(5)
        return first, more

    first_a, more_a = asyncio.run(drive())
    assert result_digest(first_a) == result_digest(reference.run(5))
    assert result_digest(more_a) == result_digest(reference.more(5))


def test_step_generators_rejected_on_asyncio_backend(
    movie_query, movie_registry
):
    session = _liquid_session(movie_query, movie_registry, "asyncio")
    with pytest.raises(ExecutionError):
        next(session.run_steps(5))


# -- serving layer -------------------------------------------------------------


def test_serve_workload_async_digest_equality():
    """Request-by-request digests match the virtual scheduler's run."""
    kwargs = dict(
        rate=2.0,
        num_requests=12,
        seed=2009,
        followup_fraction=0.25,
    )
    virtual_digests = serve_seeded(**kwargs).digests()
    report = serve_seeded(backend="asyncio", time_scale=INSTANT, **kwargs)
    async_digests = report.digests()
    assert async_digests == virtual_digests
    assert len(report.completed()) == len(report.outcomes)
