"""Asyncio backend equivalence: same plans, same results, real overlap.

The asyncio backend (:mod:`repro.engine.async_runner`) runs the *same*
optimized plan graph as the virtual-clock simulator, with service round
trips genuinely overlapping on an event loop.  Because the simulated
substrate derives results, latencies, and fault draws from
``(global seed, interface, bindings)`` alone — never from clock state or
call order — both backends must produce byte-identical result lists.
These tests pin that contract on the chapter's two example plans, under
faults/retries/partial degradation, through the liquid session's
drivers, and across the serving layer.

Marked ``async_backend`` and part of tier-1: all but two run at
``time_scale=0.0``, so the whole marker takes about a second.  Select it
alone with ``-m async_backend`` after touching either driver.
"""

from __future__ import annotations

import asyncio
import dataclasses
from collections import defaultdict

import pytest

from repro.core.optimizer import Optimizer, OptimizerConfig
from repro.core.topology import enumerate_topologies
from repro.engine.async_runner import (
    AsyncExecutionContext,
    AsyncPlanExecutor,
    run_plan_async,
)
from repro.engine.executor import (
    InvocationCache,
    NodeRunStats,
    PlanExecutor,
    execute_plan,
)
from repro.engine.liquid import LiquidQuerySession
from repro.engine.retry import Degradation, RetryPolicy
from repro.errors import ExecutionError, RetryExhaustedError
from repro.query.compile import compile_query
from repro.query.feasibility import enumerate_binding_choices
from repro.query.parser import parse_query
from repro.serve.bench import result_digest
from repro.serve.workload import scenario_templates
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
    # Same work per node: tuple flow, calls, probes, dispatch, rows built and
    # scored, final-check decision — exactly; the two time figures are sums
    # of the same latencies in another order.
    assert real.node_stats.keys() == virtual.node_stats.keys()
    for node_id, ours in real.node_stats.items():
        theirs = virtual.node_stats[node_id]
        for spec in dataclasses.fields(NodeRunStats):
            mine, other = getattr(ours, spec.name), getattr(theirs, spec.name)
            if spec.name in ("busy_time", "first_call_latency"):
                other = pytest.approx(other, rel=1e-9)
            assert mine == other, (node_id, spec.name)
    assert real.cache_stats == virtual.cache_stats
    assert real.total_candidates == virtual.total_candidates
    assert real.pairs_probed == virtual.pairs_probed


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


@pytest.mark.parametrize("outage", [False, True], ids=["fault_free", "outage"])
@pytest.mark.parametrize(
    "template", scenario_templates("all"), ids=lambda template: template.schema
)
def test_equivalence_on_every_builtin_schema(template, outage):
    """One template of each built-in schema, fault-free and with the plan's
    last service down under ``partial``: the whole per-node account agrees."""
    registry = template.registry_factory()
    query = compile_query(parse_query(template.query_text), registry)
    candidate = optimizer_candidate(query)
    inputs = {name: options[0] for name, options in template.parameter_space.items()}
    faults = FaultModel()
    if outage:
        last = [
            candidate.plan.node(node_id)
            for node_id in candidate.plan.topological_order()
            if getattr(candidate.plan.node(node_id), "interface", None) is not None
        ][-1]
        faults = faults.with_outage(last.interface.name)
    options = dict(
        retry=RetryPolicy(max_attempts=2, base_backoff=0.1, jitter_fraction=0.0),
        degradation=Degradation.PARTIAL,
    )
    virtual = execute_plan(
        candidate.plan,
        query,
        ServicePool(registry, global_seed=2009, fault_model=faults),
        inputs,
        candidate.fetch_vector(),
        **options,
    )
    real = run_plan_async(
        candidate.plan,
        query,
        ServicePool(registry, global_seed=2009, fault_model=faults),
        inputs,
        candidate.fetch_vector(),
        time_scale=INSTANT,
        **options,
    )
    assert virtual.incomplete == outage
    assert virtual.tuples
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


#: Virtual->wall scale for the overlap check: Fig. 10's calls at mean
#: latencies of a second-plus become tens of wall milliseconds each, so
#: concurrency — not event-loop overhead — dominates the wall time.
OVERLAP_TIME_SCALE = 0.02


def test_fig10_overlaps_service_calls(movie_query, movie_registry):
    """Round trips the simulator walks one at a time overlap on the loop:
    the serial sleep budget (total simulated latency x time scale) is more
    than 1.5x the wall time, best of three runs so that one scheduler
    hiccup on a busy host cannot fail it."""
    plan = fig10_plan(movie_query)
    speedups = []
    for _ in range(3):
        result = run_plan_async(
            plan,
            movie_query,
            ServicePool(movie_registry, global_seed=42),
            RUNNING_EXAMPLE_INPUTS,
            FIG10_FETCHES,
            time_scale=OVERLAP_TIME_SCALE,
        )
        serial = result.log.total_latency() * OVERLAP_TIME_SCALE
        speedups.append(serial / result.wall_time)
    assert max(speedups) > 1.5, speedups


# -- single-flight across executions: a waiter takes outcomes, not fates ---------


def hold(context, interface):
    """Hold every round trip to ``interface`` until the returned event is
    set: an event-gated latency, so a test keeps a fetch in flight for as
    long as it needs instead of racing sleeps."""
    gate = asyncio.Event()
    real_semaphore = AsyncExecutionContext.semaphore

    class Held:
        def __init__(self, inner: asyncio.Semaphore) -> None:
            self.inner = inner

        def locked(self) -> bool:
            return self.inner.locked()

        async def acquire(self):
            await gate.wait()
            return await self.inner.acquire()

        def release(self) -> None:
            self.inner.release()

    context.semaphore = lambda name: (
        Held(real_semaphore(context, name))
        if name == interface
        else real_semaphore(context, name)
    )
    return gate


def theatre_outage_setup(movie_query, movie_registry):
    """Fig. 10 with the Theatre interface down; ``executor(factory,
    degradation, fetches, cache, **extra)`` builds one execution of it."""
    plan = fig10_plan(movie_query)
    theatre = plan.service_node_for("T").interface.name
    movie = plan.service_node_for("M").interface.name

    def executor(factory, degradation, fetches, cache, **extra):
        return factory(
            plan,
            movie_query,
            ServicePool(
                movie_registry,
                global_seed=42,
                fault_model=FaultModel().with_outage(theatre),
            ),
            RUNNING_EXAMPLE_INPUTS,
            fetches=fetches,
            degradation=degradation,
            invocation_cache=cache,
            **extra,
        )

    return executor, movie, theatre


def test_failing_request_does_not_cancel_fetches_others_wait_on(
    movie_query, movie_registry
):
    """A (``fail``) dies on the Theatre outage and cancels its task tree,
    the Movie fetch B had joined included.  B was not cancelled: it must
    fetch for itself and finish, not surface a bare ``CancelledError``."""
    executor, movie, _ = theatre_outage_setup(movie_query, movie_registry)
    context = AsyncExecutionContext(time_scale=INSTANT)
    cache = InvocationCache(max_size=None)
    # ``T: 4`` gives B a Theatre key of its own: only Movie is coalesced.
    own_theatre = {**FIG10_FETCHES, "T": 4}
    failing = executor(
        AsyncPlanExecutor, Degradation.FAIL, FIG10_FETCHES, cache, context=context
    )
    waiting = executor(
        AsyncPlanExecutor, Degradation.PARTIAL, own_theatre, cache, context=context
    )

    async def scenario():
        movie_gate = hold(context, movie)
        first = asyncio.ensure_future(failing.execute())
        second = asyncio.ensure_future(waiting.execute())
        with pytest.raises(RetryExhaustedError):
            await asyncio.wait_for(first, timeout=10)
        movie_gate.set()
        return await asyncio.wait_for(second, timeout=10)

    result = asyncio.run(scenario())
    # B had joined A's Movie fetch and, when that died, made the calls itself.
    assert "M" not in failing.pool.log.calls_by_alias()
    assert waiting.pool.log.calls_by_alias()["M"] == FIG10_FETCHES["M"]
    alone = executor(PlanExecutor, Degradation.PARTIAL, own_theatre, None).run()
    assert result.failed_aliases == alone.failed_aliases == ("T",)
    assert alone.tuples
    assert result_digest(result.tuples) == result_digest(alone.tuples)


@pytest.mark.parametrize(
    "owner, waiter",
    [
        (Degradation.FAIL, Degradation.PARTIAL),
        (Degradation.PARTIAL, Degradation.FAIL),
    ],
    ids=["fail_owner-partial_waiter", "partial_owner-fail_waiter"],
)
def test_coalesced_waiter_degrades_under_its_own_policy(
    movie_query, movie_registry, owner, waiter
):
    """B joins A's Theatre fetch, which A abandons.  Under A's ``fail``
    nothing is memoised, so B (``partial``) looks the call up for itself
    and degrades — it does not raise A's error; under A's ``partial`` the
    ``failed`` outcome is memoised and degrades whoever meets it, a
    ``fail`` execution included.  Either way B sees what the sequential
    walk's second execution sees, hit for hit."""
    executor, _, theatre = theatre_outage_setup(movie_query, movie_registry)

    def outcome(run):
        try:
            return run()
        except RetryExhaustedError as error:
            return error

    # The oracle: the same two executions, one after the other.
    virtual_cache = InvocationCache(max_size=None)
    virtual = [
        outcome(executor(PlanExecutor, mode, FIG10_FETCHES, virtual_cache).run)
        for mode in (owner, waiter)
    ]

    context = AsyncExecutionContext(time_scale=INSTANT)
    cache = InvocationCache(max_size=None)
    first, second = (
        executor(AsyncPlanExecutor, mode, FIG10_FETCHES, cache, context=context)
        for mode in (owner, waiter)
    )

    async def scenario():
        theatre_gate = hold(context, theatre)
        running = [
            asyncio.ensure_future(first.execute()),
            asyncio.ensure_future(second.execute()),
        ]
        # Let the Movie fetch land first, so Theatre alone is in flight
        # (and joined by B) when A abandons it.
        for _ in range(1000):
            if len(cache):
                break
            await asyncio.sleep(0)
        assert len(cache) == 1 and not any(task.done() for task in running)
        theatre_gate.set()
        return await asyncio.wait_for(
            asyncio.gather(*running, return_exceptions=True), timeout=10
        )

    real = asyncio.run(scenario())
    assert isinstance(real[0], RetryExhaustedError) == (owner is Degradation.FAIL)
    for ours, theirs in zip(real, virtual):
        assert type(ours) is type(theirs)
    assert real[1].failed_aliases == virtual[1].failed_aliases == ("T",)
    assert real[1].tuples
    assert result_digest(real[1].tuples) == result_digest(virtual[1].tuples)
    assert real[1].cache_stats == virtual[1].cache_stats
    assert cache.stats == virtual_cache.stats


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
    """The awaitable driver gives what the synchronous verbs give."""
    session = _liquid_session(movie_query, movie_registry, "asyncio")
    reference = _liquid_session(movie_query, movie_registry, "virtual")

    async def drive():
        first = await session.perform_async("run", 5)
        more = await session.perform_async("more", 5)
        return first, more

    first_a, more_a = asyncio.run(drive())
    assert result_digest(first_a) == result_digest(reference.run(5))
    assert result_digest(more_a) == result_digest(reference.more(5))


def test_step_generators_rejected_on_asyncio_backend(
    movie_query, movie_registry
):
    session = _liquid_session(movie_query, movie_registry, "asyncio")
    with pytest.raises(ExecutionError):
        next(session.steps("run", 5))


@pytest.mark.parametrize("scale", [-1.0, float("nan"), float("inf")])
def test_context_refuses_a_time_scale_that_is_not_a_number_at_least_zero(scale):
    # Regression: NaN passed ``time_scale < 0`` and was taken; infinity
    # slept forever on the first simulated call.
    with pytest.raises(ExecutionError, match="time_scale"):
        AsyncExecutionContext(time_scale=scale)


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
