"""One simulated world per server: sharing it must change nothing but work.

A :class:`SessionManager` hands every pool it builds the same
:class:`SimulatedWorld` (per schema), so result lists, the lowered
generator and the per-binding seeds are made once per server instead of
once per session.  The contract these tests pin:

* **differential** — one request stream served over the manager's shared
  world and over a private world per session is equal in everything
  observable: digests, steps, round trips, virtual times, every pool's call
  log and clock, cache hits / misses / evictions / LRU order and replays —
  for every cache size, shard count, cache mode, traced or not — and the
  shared world's counters account exactly for what the private worlds
  generated;
* **generator oracle** — the stream-bound draw program consumes its RNG as
  one ``domain_value`` per (sub-)attribute does, and the layout constraint
  check agrees with ``compile_predicates`` on accepted *and* rejected
  candidates, raising what it raises where it falls back;
* faults and crash/resume behave over a shared world exactly as over
  private ones; a pool refuses a world of another
  registry or seed.
"""

from __future__ import annotations

import dataclasses
import random
from contextlib import contextmanager
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import Optimizer, plan_signature
from repro.durability import checkpoint_session, restore_session
from repro.engine.executor import execute_plan
from repro.engine.retry import RetryPolicy
from repro.errors import (
    CheckpointError,
    CheckpointIntegrityError,
    SearchComputingError,
    ServiceInvocationError,
)
from repro.model.attributes import RepeatingGroup
from repro.model.scoring import LinearScoring
from repro.model.service import (
    AccessPattern,
    ServiceInterface,
    ServiceKind,
    ServiceStats,
)
from repro.obs.export import metrics_to_prometheus
from repro.obs.tracer import Tracer
from repro.query.ast import AttrRef, Comparator, InputRef, SelectionPredicate
from repro.query.compile import compile_query
from repro.query.parser import parse_query
from repro.query.predicates import compile_predicates
from repro.serve import (
    HashRing,
    ServeConfig,
    SessionManager,
    ShardedServeScheduler,
    WorkloadConfig,
    build_sessions,
    combined_digest,
    default_templates,
    generate_workload,
    result_digest,
    scenario_templates,
)
from repro.serve import runtime
from repro.services import datagen
from repro.services.datagen import TupleGenerator, derive_seed
from repro.services.marts import (
    RUNNING_EXAMPLE_INPUTS,
    RUNNING_EXAMPLE_QUERY,
    movie_night_registry,
)
from repro.services.simulated import FaultModel, ServicePool, SimulatedWorld
from tests.conftest import serve_seeded
from tests.test_row_life import BOUND, _paths, marts, reference_stream


@contextmanager
def private_worlds():
    """Every pool a manager builds gets a world of its own (nothing
    memoised): how sessions were served before the world was shared."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            SessionManager,
            "_world",
            lambda self, template: SimulatedWorld(
                self._registry(template), self.data_seed
            ),
        )
        yield


# ---------------------------------------------------------------------------
# (a) Differential: the manager's shared world == a private world per session
# ---------------------------------------------------------------------------

TEMPLATES = {
    "default": default_templates(),
    **{pack: scenario_templates(pack) for pack in ("scholar", "shopping", "travel")},
}


def serve_observed(workload, templates, *, traced, **config):
    """Serve ``workload`` as :func:`repro.serve.serve` does, keeping hold of
    the manager; return everything a client or operator can see."""
    config = ServeConfig(
        templates=templates,
        default_service_rate=4.0,
        **config,
    )
    ring = HashRing(config.num_shards)
    manager = build_sessions(config, ring)
    scheduler = ShardedServeScheduler(
        manager, config, tracer=Tracer() if traced else None, ring=ring
    )
    report = scheduler.run(workload)
    caches = []  # the shared cache, or the distinct per-shard ones
    for request in workload:
        cache = manager.cache_for(request)
        if cache is not None and all(cache is not seen for seen in caches):
            caches.append(cache)
    sessions = manager._sessions
    observed = {
        "requests": {
            request_id: (
                outcome.status,
                result_digest(outcome.results or ()),
                outcome.steps,
                outcome.round_trips,
                outcome.started_at,
                outcome.finished_at,
                outcome.queue_wait,
                outcome.rate_wait,
                outcome.shard,
                outcome.stolen,
                outcome.plan_cached,
            )
            for request_id, outcome in report.outcomes.items()
        },
        "logs": {rid: list(s.pool.log.records) for rid, s in sessions.items()},
        "clocks": {rid: s.pool.clock.now for rid, s in sessions.items()},
        "makespan": report.makespan,
        "round_trips": report.total_round_trips,
        "plan_cache": report.plan_cache_stats,
        "cache_report": report.invocation_cache_stats,
        "caches": [dataclasses.asdict(cache.stats) for cache in caches],
        "replays": [(cache.replayable, cache.replays) for cache in caches],
        "lru_order": [list(cache._data) for cache in caches],
    }
    return observed, report, manager


def both_ways(workload, templates, **config):
    shared, report, manager = serve_observed(workload, templates, **config)
    with private_worlds():
        private, _, loners = serve_observed(workload, templates, **config)
    for part in shared:
        assert shared[part] == private[part], part
    # One world per schema, every session's pool a view over it ...
    worlds = list(manager._worlds.values())
    for session in manager._sessions.values():
        assert any(session.pool.world is world for world in worlds)
    assert len(worlds) <= len({template.schema for template in templates})
    # ... and its counters say exactly what sharing saved: the tuples the
    # private worlds generated are the ones it generated plus the ones it
    # served from a prefix another session's invocation had drawn.
    alone = 0
    for session in loners._sessions.values():
        assert session.pool.world.stats.tuples_shared == 0
        alone += session.pool.world.stats.tuples_generated
    stats = report.world_stats
    assert stats["tuples_generated"] + stats["tuples_shared"] == alone
    assert stats["fallback_checks"] == 0  # the built-in schemas all lower
    assert stats["sampling_attempts"] >= stats["tuples_generated"]
    return report


@pytest.mark.parametrize("cache_size", [1, 8, 256, None])
@pytest.mark.parametrize("shards,steal", [(1, False), (4, True)])
def test_canonical_stream_is_served_alike_and_generates_less(
    cache_size, shards, steal
):
    workload = generate_workload(
        TEMPLATES["default"], WorkloadConfig(num_requests=40, rate=2.0, seed=2009)
    )
    report = both_ways(
        workload,
        TEMPLATES["default"],
        data_seed=2009,
        cache_size=cache_size,
        num_shards=shards,
        steal=steal,
        traced=False,
    )
    assert report.world_stats["tuples_shared"] > 0  # the stream does overlap


@pytest.mark.parametrize("pack", sorted(TEMPLATES))
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    num_requests=st.integers(min_value=6, max_value=14),
    rate=st.sampled_from([0.5, 2.0, 8.0]),
    followups=st.sampled_from([0.0, 0.25, 0.5]),
    cache_size=st.sampled_from([1, 8, 256, None]),
    shards=st.sampled_from([(1, False), (4, True)]),
    cache_mode=st.sampled_from(["shared", "private", "isolated"]),
    traced=st.booleans(),
)
@settings(max_examples=5, deadline=None)
def test_random_streams_are_served_alike_over_shared_and_private_worlds(
    pack, seed, num_requests, rate, followups, cache_size, shards, cache_mode, traced
):
    workload = generate_workload(
        TEMPLATES[pack],
        WorkloadConfig(
            num_requests=num_requests,
            rate=rate,
            skew=2.0,
            seed=seed,
            followup_fraction=followups,
        ),
    )
    both_ways(
        workload,
        TEMPLATES[pack],
        data_seed=seed % 1000,
        cache_size=cache_size,
        num_shards=shards[0],
        steal=shards[1],
        cache_mode=cache_mode,
        traced=traced,
    )


def test_world_counters_reach_every_report_and_ignore_tracing(tmp_path):
    plain = serve_seeded(rate=2.0, num_requests=24, seed=2009)
    tracer = Tracer()
    traced = serve_seeded(rate=2.0, num_requests=24, seed=2009, tracer=tracer)
    assert tracer.spans
    assert plain.world_stats == traced.world_stats
    assert plain.world_stats["result_lists_opened"] > 0
    assert plain.summary()["world"] == plain.world_stats
    prometheus = metrics_to_prometheus(plain.metrics.snapshot())
    for name, value in plain.world_stats.items():
        assert f"repro_serve_world_{name} {value}" in prometheus
    # One process per shard: the workers' worlds are summed.
    forked = serve_seeded(
        rate=2.0, num_requests=24, seed=2009, num_shards=2,
        cache_mode="private", parallel=True,
    )
    assert forked.digests() == plain.digests()
    assert forked.world_stats["tuples_generated"] >= plain.world_stats["tuples_generated"]


# ---------------------------------------------------------------------------
# (b) Generator oracle: draw program and layout check against their references
# ---------------------------------------------------------------------------

PLAIN_OPERANDS = [0, 1, 2.5, True, "d#1", "d", "2009-03-01", "e#0"]
#: Mostly plain constants (the lowered path), some that force the fallback.
OPERANDS = st.sampled_from(PLAIN_OPERANDS * 3 + [None, InputRef("INPUT1"), (1, 2)])


@st.composite
def constrained_invocations(draw):
    """Any mart, any bindings, and constraints over every comparator and
    operand class — known and unknown paths, one alias or two."""
    mart = draw(marts())
    paths = list(_paths(mart))
    inputs = {
        path: draw(BOUND)
        for path in draw(st.lists(st.sampled_from(paths), unique=True))
    }
    interface = ServiceInterface(
        name="Thing1",
        mart=mart,
        access_pattern=AccessPattern.from_spec({path: "I" for path in inputs}),
        kind=ServiceKind.SEARCH,
        stats=ServiceStats(draw(st.sampled_from([0.6, 3, 12])), chunk_size=4),
        scoring=LinearScoring(horizon=10),
    )
    groups = [a.name for a in mart.attributes if isinstance(a, RepeatingGroup)]
    anywhere = paths * 4 + ["Z", "A.Z", "Z.A", *groups]
    constraints = [
        SelectionPredicate(
            AttrRef.parse(f"{alias}.{path}"), draw(st.sampled_from(list(Comparator))),
            draw(OPERANDS),
        )
        for path, alias in draw(
            st.lists(
                st.tuples(
                    st.sampled_from(anywhere),
                    st.sampled_from(["X"] * 9 + ["Y"]),
                ),
                min_size=1,
                max_size=3,
            )
        )
    ]
    generator = TupleGenerator(
        interface,
        global_seed=draw(st.integers(0, 50)),
        min_group_members=draw(st.integers(0, 1)),
        max_group_members=draw(st.integers(1, 3)),
    )
    return generator, inputs, constraints


#: What a stream or a check may raise by contract (and the general closure's
#: own ``KeyError`` / ``TypeError`` / ``ValueError`` on malformed references).
FAILURES = (SearchComputingError, KeyError, TypeError, ValueError)


def outcome(thunk):
    try:
        return thunk()
    except FAILURES as exc:
        return type(exc), str(exc)


def drained(stream, limit):
    """``(tuples read, how the stream ended)`` for at most ``limit`` reads."""
    tuples = []
    try:
        for _, tup in zip(range(limit), stream):
            tuples.append(tup)
    except FAILURES as exc:
        return tuples, (type(exc), str(exc))
    return tuples, None


@settings(max_examples=200, deadline=None)
@given(constrained_invocations(), st.integers(1, 14))
def test_stream_equals_the_reference_draw_for_draw_under_any_constraints(
    invocation, prefix
):
    generator, inputs, constraints = invocation
    spies = []

    class Spy(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            spies.append(self)

    real, datagen.random = datagen.random, SimpleNamespace(Random=Spy)
    try:
        got = drained(generator.stream(inputs, constraints), prefix)
    finally:
        datagen.random = real
    rng = random.Random(derive_seed(generator.global_seed, "Thing1", inputs))
    alias = constraints[0].attr.alias
    if alias != "X":  # the reference evaluates under the stream's alias
        constraints = [
            SelectionPredicate(
                AttrRef("X" if c.attr.alias == alias else "W", c.attr.path),
                c.comparator,
                c.operand,
            )
            for c in constraints
        ]
    want = drained(reference_stream(generator, inputs, constraints, rng), prefix)
    assert got[0] == want[0]
    assert [repr(t) for t in got[0]] == [repr(t) for t in want[0]]
    if got[1] is None or want[1] is None or got[1][0] is not KeyError:
        assert got[1] == want[1]
    else:  # another alias: the same lookup failure, under its own name
        assert want[1][0] is KeyError
    if got[1] is None:  # same draws, in the same order, and no more
        assert spies[0].getstate() == rng.getstate()


@settings(max_examples=200, deadline=None)
@given(constrained_invocations())
def test_layout_check_agrees_with_the_general_closure_on_every_candidate(invocation):
    generator, inputs, constraints = invocation
    check, lowered = generator.constraint_check(constraints, datagen._echo(inputs))
    general = compile_predicates(constraints)
    alias = constraints[0].attr.alias
    # Unconstrained, the stream yields every candidate: those the
    # constraints would accept and those they would refuse.
    candidates = [tup for _, tup in zip(range(12), generator.stream(inputs))]
    verdicts = set()
    for tup in candidates:
        want = outcome(lambda: general({alias: tup}))
        assert outcome(lambda: check(tup.values)) == want
        verdicts.add(want if isinstance(want, bool) else "raised")
    if lowered:  # shown exact when the stream opened: nothing may raise
        assert verdicts <= {True, False}


def _lowers(generator, text, comparator, operand, inputs=()):
    constraint = SelectionPredicate(AttrRef.parse(text), comparator, operand)
    return generator.constraint_check([constraint], datagen._echo(dict(inputs)))[1]


def test_the_fallback_rule_case_by_case(movie_registry):
    generator = TupleGenerator(movie_registry.interface("Movie1"), global_seed=7)
    GT, EQ, LIKE = Comparator.GT, Comparator.EQ, Comparator.LIKE
    # Text against text, number against number, equality against anything.
    assert _lowers(generator, "M.Openings.Date", GT, "2009-03-01")
    assert _lowers(generator, "M.Year", GT, 30)
    assert _lowers(generator, "M.Score", Comparator.LE, 7)
    assert _lowers(generator, "M.Title", EQ, 3)
    assert _lowers(generator, "M.Title", LIKE, "title#1%")
    # An echoed binding of the operand's class is as good as a drawn one.
    assert _lowers(generator, "M.Year", GT, 30, {"Year": 31.5})
    # Exactness not shown: an ordering across classes (drawn or echoed),
    # an INPUT or exotic operand, an unknown path, a group named as a value.
    assert not _lowers(generator, "M.Openings.Date", GT, 3)
    assert not _lowers(generator, "M.Year", GT, "30")
    assert not _lowers(generator, "M.Year", GT, 30, {"Year": "1999"})
    assert not _lowers(generator, "M.Year", GT, 30, {"Year": ("frozen",)})
    assert not _lowers(generator, "M.Year", EQ, InputRef("INPUT1"))
    assert not _lowers(generator, "M.Year", EQ, None)
    assert not _lowers(generator, "M.Year", EQ, (1, 2))
    assert not _lowers(generator, "M.Nope", EQ, 1)
    assert not _lowers(generator, "M.Openings.Nope", EQ, 1)
    assert not _lowers(generator, "M.Openings", EQ, 1)
    assert not _lowers(generator, "M.Year.Date", EQ, 1)
    two_aliases = [
        SelectionPredicate(AttrRef.parse("M.Year"), EQ, 1),
        SelectionPredicate(AttrRef.parse("N.Year"), EQ, 1),
    ]
    assert not generator.constraint_check(two_aliases, {})[1]


def test_fallback_streams_raise_what_the_general_closure_raises(movie_registry):
    interface = movie_registry.interface("Movie1")
    inputs = {path: None for path in interface.input_paths()}
    world = SimulatedWorld(movie_registry, 7)
    pool = ServicePool(movie_registry, global_seed=7, world=world)
    for constraint, message in (
        (
            SelectionPredicate(AttrRef.parse("M.Year"), Comparator.GT, "1999"),
            "cannot compare",
        ),
        (
            SelectionPredicate(
                AttrRef.parse("M.Year"), Comparator.EQ, InputRef("INPUT9")
            ),
            "missing binding for INPUT9",
        ),
    ):
        candidate = next(iter(world.service("Movie1").generator.stream(inputs)))
        with pytest.raises(SearchComputingError) as general:
            compile_predicates([constraint])({"M": candidate})
        with pytest.raises(type(general.value)) as raised:
            pool.invoke("Movie1", inputs, alias="M", constraints=[constraint]).next_chunk()
        assert str(raised.value) == str(general.value)
        assert message in str(raised.value)
    assert world.stats.fallback_checks == 2
    assert world.stats.tuples_generated == 0


def test_group_member_bounds_are_validated(movie_registry):
    with pytest.raises(ServiceInvocationError):
        TupleGenerator(
            movie_registry.interface("Movie1"),
            min_group_members=3,
            max_group_members=2,
        )


# ---------------------------------------------------------------------------
# (c) Pools over one world: faults, typed refusal, restore
# ---------------------------------------------------------------------------


def _movie_plan():
    registry = movie_night_registry()
    compiled = compile_query(parse_query(RUNNING_EXAMPLE_QUERY), registry)
    return registry, compiled, Optimizer(compiled).optimize().best


def _run(pool, compiled, best, **options):
    return execute_plan(
        best.plan, compiled, pool, RUNNING_EXAMPLE_INPUTS,
        {alias: factor * 2 for alias, factor in best.fetch_vector().items()},
        **options,
    )


def _signature(pool):
    return (
        pool.clock.now,
        [dataclasses.astuple(record) for record in pool.log.records],
    )


def test_a_pool_refuses_the_world_of_another_registry_or_seed():
    registry = movie_night_registry()
    world = SimulatedWorld(registry, 7)
    assert ServicePool(registry, global_seed=7, world=world).world is world
    with pytest.raises(ServiceInvocationError):
        ServicePool(registry, global_seed=8, world=world)
    with pytest.raises(ServiceInvocationError):
        ServicePool(movie_night_registry(), global_seed=7, world=world)
    # Left alone, a pool makes its own and keeps its services there.
    pool = ServicePool(registry, global_seed=7)
    assert pool.world is not world and pool.world.seed == 7
    assert pool.service("Movie1") is pool.world.service("Movie1")


def test_pools_over_one_world_read_the_same_tuples_on_their_own_clocks():
    registry, compiled, best = _movie_plan()
    alone = ServicePool(registry, global_seed=5)
    reference = _run(alone, compiled, best)
    world = SimulatedWorld(registry, 5)
    first = ServicePool(registry, global_seed=5, world=world)
    second = ServicePool(registry, global_seed=5, world=world)
    results = [_run(pool, compiled, best) for pool in (first, second)]
    for pool, result in zip((first, second), results):
        assert result_digest(result.tuples) == result_digest(reference.tuples)
        assert _signature(pool) == _signature(alone)
    # The very objects: the second pool generated nothing.
    generated = world.stats.tuples_generated
    assert generated == alone.world.stats.tuples_generated
    assert world.stats.tuples_shared == generated
    for one, other in zip(results[0].tuples, results[1].tuples):
        for alias in one.components:
            assert one.components[alias] is other.components[alias]


@pytest.mark.parametrize(
    "fault_model",
    [
        FaultModel.uniform(failure_rate=0.3, timeout_rate=0.2),
        FaultModel().with_outage("Restaurant1"),
    ],
    ids=["transient", "outage"],
)
def test_faults_are_the_pools_own_over_a_shared_world(fault_model):
    registry, compiled, best = _movie_plan()
    options = dict(
        retry=RetryPolicy(max_attempts=8, base_backoff=0.1, call_timeout=4.0),
        degradation="partial",
    )
    alone = ServicePool(registry, global_seed=11, fault_model=fault_model)
    reference = _run(alone, compiled, best, **options)
    world = SimulatedWorld(registry, 11)
    # A healthy session read the world first; the faulty one draws the
    # faults it would have drawn alone, and the healthy one none.
    healthy = ServicePool(registry, global_seed=11, world=world)
    clean = _run(healthy, compiled, best)
    faulty = ServicePool(registry, global_seed=11, fault_model=fault_model, world=world)
    result = _run(faulty, compiled, best, **options)
    assert _signature(faulty) == _signature(alone)
    assert result_digest(result.tuples) == result_digest(reference.tuples)
    assert result.failed_aliases == reference.failed_aliases
    assert any(r.outcome != "ok" for r in faulty.log.records)
    assert all(r.outcome == "ok" for r in healthy.log.records)
    assert not clean.incomplete


def test_restore_goes_through_the_managers_pool_factory():
    templates = {t.name: t for t in default_templates()}
    manager = SessionManager(templates=templates, data_seed=2009)
    request = generate_workload(
        default_templates(), WorkloadConfig(num_requests=1, seed=3)
    )[0]
    session = manager.open(request)
    first = session.perform("run")
    template = manager.template_of(request.request_id)
    payload = checkpoint_session(
        session, schema=template.schema, query_text=template.query_text,
        template=template.name,
    )
    restored = restore_session(
        payload,
        registry=manager._registry(template),
        compiled=manager._compile(template),
        pool_factory=lambda **posture: manager.open_pool(template, **posture),
    )
    assert restored.pool is not session.pool
    assert restored.pool.world is session.pool.world is manager._world(template)
    assert result_digest(restored._present(None)) == result_digest(first)
    assert _signature(restored.pool) == _signature(session.pool)
    assert manager.world_stats()["tuples_shared"] > 0
    # A checkpoint taken under another data seed must not read this world.
    with pytest.raises(CheckpointIntegrityError, match="data_seed"):
        restore_session(
            dict(payload, data_seed=2010),
            registry=manager._registry(template),
            compiled=manager._compile(template),
            pool_factory=lambda **posture: manager.open_pool(template, **posture),
        )
    # Without a factory the session is restored onto a private world.
    private = restore_session(payload)
    assert private.pool.world is not session.pool.world
    assert _signature(private.pool) == _signature(session.pool)


def test_crash_and_resume_share_the_resumed_servers_world(tmp_path):
    options = dict(rate=4.0, num_requests=40, seed=2009)
    baseline = serve_seeded(**options)

    class Crash(Exception):
        pass

    def crash(checkpointer):
        if checkpointer.written >= 2:
            raise Crash

    with pytest.raises(Crash):
        serve_seeded(
            checkpoint_dir=tmp_path, checkpoint_every=8, on_checkpoint=crash, **options
        )
    managers = []
    with pytest.MonkeyPatch.context() as patch:
        build = runtime.build_sessions
        patch.setattr(
            runtime,
            "build_sessions",
            lambda *args: managers.append(build(*args)) or managers[-1],
        )
        resumed = serve_seeded(
            checkpoint_dir=tmp_path, checkpoint_every=8, resume=True, **options
        )
    assert resumed.durability["resumed"]
    assert resumed.durability["restored_sessions"] > 0
    assert combined_digest(resumed.digests()) == combined_digest(baseline.digests())
    (manager,) = managers
    worlds = list(manager._worlds.values())
    for session in manager._sessions.values():  # restored and fresh alike
        assert any(session.pool.world is world for world in worlds)
    # Restored sessions replayed over the world the served ones then read.
    assert resumed.world_stats["tuples_shared"] > 0
    assert resumed.world_stats["tuples_generated"] <= baseline.world_stats[
        "tuples_generated"
    ]
    with pytest.raises(CheckpointError):  # another seed: refused by the meta
        serve_seeded(
            checkpoint_dir=tmp_path, checkpoint_every=8, resume=True,
            **dict(options, seed=2010),
        )


# ---------------------------------------------------------------------------
# The plan-cache key is built once per compiled query
# ---------------------------------------------------------------------------


def test_plan_signature_is_memoised_per_metric_k_and_kernel(movie_registry):
    compiled = compile_query(parse_query(RUNNING_EXAMPLE_QUERY), movie_registry)
    again = compile_query(parse_query(RUNNING_EXAMPLE_QUERY), movie_registry)
    signature = plan_signature(compiled, metric="execution-time")
    assert plan_signature(compiled, metric="execution-time") is signature
    assert plan_signature(again, metric="execution-time") == signature
    assert plan_signature(again, metric="execution-time") is not signature
    variants = {
        plan_signature(compiled, metric="execution-time"),
        plan_signature(compiled, metric="sum-cost"),
        plan_signature(compiled, metric="execution-time", k=3),
        plan_signature(compiled),
    }
    assert len(variants) == 4
    # The kernel slot is a constant now: one value, no keyword to vary it.
    assert {variant[3] for variant in variants} == {"binary"}
    with pytest.raises(TypeError):
        plan_signature(compiled, join_kernel="wcoj")
    assert plan_signature(compiled, k=compiled.k) == plan_signature(compiled)
