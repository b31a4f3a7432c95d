"""The whole-plan result memo: replay must be indistinguishable from execution.

A completed execution on a shared :class:`InvocationCache` is recorded on
its rows and replayed for a later identical execution
(:meth:`PlanExecutor._replay`).  The contract these tests pin:

* **differential** — one request stream served with the memo and with it
  switched off (the private ``PlanExecutor._RESULT_MEMO``) is equal in
  everything observable: per-request digests, steps, round trips, virtual
  times, every pool's call log, the cache's hit/miss/eviction counts
  (global and per shard) and its final LRU order — at any cache size,
  shard count, stealing on or off, traced or not;
* the memo is **bypassed** wherever a call can fail or the cache is the
  executor's own, and says why;
* the index is **weak**: it never keeps alive a list no session holds;
* a replayed :class:`ExecutionResult` equals the fresh one field by field,
  and copies/pickles of results carry plain rows.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import optimize_query
from repro.durability import serve_workload_durable
from repro.engine.executor import (
    ExecutionResult,
    InvocationCache,
    PlanExecutor,
    ResultRows,
    execute_plan,
)
from repro.engine.liquid import LiquidQuerySession
from repro.engine.retry import Degradation, RetryPolicy
from repro.obs.tracer import Tracer
from repro.serve import (
    HashRing,
    PlanCache,
    ServeConfig,
    SessionManager,
    ShardedInvocationCache,
    ShardedServeScheduler,
    WorkloadConfig,
    combined_digest,
    default_templates,
    generate_workload,
    result_digest,
    scenario_templates,
)
from repro.services.marts import RUNNING_EXAMPLE_INPUTS
from repro.services.simulated import FaultModel, ServicePool
from tests.conftest import serve_seeded

OTHER_INPUTS = dict(RUNNING_EXAMPLE_INPUTS, INPUT1="genre#5")


@contextmanager
def memo_disabled():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PlanExecutor, "_RESULT_MEMO", False)
        yield


# ---------------------------------------------------------------------------
# Differential: served with the memo == served without it
# ---------------------------------------------------------------------------

#: One optimizer search per template for the whole module; each serve still
#: gets its own invocation cache, sessions and pools.
PLANS = PlanCache()
TEMPLATES = {
    "default": default_templates(),
    "travel": scenario_templates("travel"),
}


def serve_observed(workload, templates, *, cache_size, shards, steal, traced):
    """Serve ``workload``; return everything a client or operator can see."""
    cache = ShardedInvocationCache(shards, max_size=cache_size)
    manager = SessionManager(
        templates={template.name: template for template in templates},
        data_seed=2009,
        plan_cache=PLANS,
        invocation_cache=cache,
        tracer=Tracer() if traced else None,
    )
    ring = HashRing(shards)
    scheduler = ShardedServeScheduler(
        manager,
        ServeConfig(default_service_rate=4.0, num_shards=shards, steal=steal),
        tracer=Tracer() if traced else None,
        ring=ring,
    )
    report = scheduler.run(workload)
    observed = {
        "requests": {
            request_id: (
                outcome.status,
                result_digest(outcome.results or ()),
                outcome.steps,
                outcome.round_trips,
                outcome.started_at,
                outcome.finished_at,
                outcome.rate_wait,
                outcome.shard,
                outcome.stolen,
            )
            for request_id, outcome in report.outcomes.items()
        },
        "logs": {
            request_id: list(session.pool.log.records)
            for request_id, session in manager._sessions.items()
        },
        "clocks": {
            request_id: session.pool.clock.now
            for request_id, session in manager._sessions.items()
        },
        "makespan": report.makespan,
        "round_trips": report.total_round_trips,
        "cache": dataclasses.asdict(cache.stats),
        "shard_caches": [dataclasses.asdict(view) for view in cache.shard_stats],
        "lru_order": list(cache._data),
    }
    return observed, cache


def both_ways(workload, templates, **config):
    with_memo, cache = serve_observed(workload, templates, **config)
    with memo_disabled():
        without, plain_cache = serve_observed(workload, templates, **config)
    assert plain_cache.replayable == plain_cache.replays == 0
    assert not plain_cache.recorded
    for part in with_memo:
        assert with_memo[part] == without[part], part
    return cache


@pytest.mark.parametrize("cache_size", [1, 8, 256, None])
@pytest.mark.parametrize("shards,steal", [(1, False), (4, True)])
def test_canonical_stream_replays_and_nothing_observable_moves(
    cache_size, shards, steal
):
    workload = generate_workload(
        TEMPLATES["default"], WorkloadConfig(num_requests=40, rate=2.0, seed=2009)
    )
    cache = both_ways(
        workload,
        TEMPLATES["default"],
        cache_size=cache_size,
        shards=shards,
        steal=steal,
        traced=False,
    )
    assert 0 < cache.replays < cache.replayable  # the stream does repeat


@pytest.mark.parametrize("pack", sorted(TEMPLATES))
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    num_requests=st.integers(min_value=6, max_value=18),
    rate=st.sampled_from([0.5, 2.0, 8.0]),
    followups=st.sampled_from([0.0, 0.25, 0.5]),
    cache_size=st.sampled_from([1, 8, 256, None]),
    shards=st.sampled_from([1, 4]),
    steal=st.booleans(),
    traced=st.booleans(),
)
@settings(max_examples=6, deadline=None)
def test_random_streams_are_served_alike_with_and_without_the_memo(
    pack, seed, num_requests, rate, followups, cache_size, shards, steal, traced
):
    # Skew 2.0: a short stream must still repeat itself to exercise replay.
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
        cache_size=cache_size,
        shards=shards,
        steal=steal,
        traced=traced,
    )


def test_report_counts_replays_and_shows_the_rate():
    from repro.obs.export import metrics_to_prometheus
    from repro.obs.serving import render_serve_report

    tracer = Tracer()
    report = serve_seeded(
        rate=2.0, num_requests=40, seed=2009, tracer=tracer
    )
    stats = report.invocation_cache_stats
    assert 0 < stats["replays"] < stats["replayable"]
    # Every run/more/resubmit that executed consulted the memo.
    assert stats["replayable"] == sum(
        outcome.request.kind != "rerank" for outcome in report.completed()
    )
    rate = stats["replays"] / stats["replayable"]
    text = render_serve_report(tracer.spans, metrics=report.metrics)
    assert (
        f"result memo replayed {stats['replays']} of {stats['replayable']} "
        f"executions ({rate:.1%})" in text
    )
    prom = metrics_to_prometheus(report.metrics)
    assert f"repro_serve_invocation_cache_replays {stats['replays']}" in prom
    assert "repro_serve_invocation_cache_replay_rate " in prom
    isolated = serve_seeded(rate=2.0, num_requests=10, seed=2009, cache_mode="isolated")
    assert isolated.invocation_cache_stats is None


# ---------------------------------------------------------------------------
# Executor level
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def candidate(movie_query):
    return optimize_query(movie_query)


def execute(candidate, movie_query, movie_registry, cache, **options):
    return execute_plan(
        candidate.plan,
        movie_query,
        options.pop("pool", None) or ServicePool(movie_registry, global_seed=21),
        options.pop("inputs", RUNNING_EXAMPLE_INPUTS),
        fetches=candidate.fetch_vector(),
        invocation_cache=cache,
        **options,
    )


def test_second_identical_execution_is_a_replay_of_the_first(
    candidate, movie_query, movie_registry
):
    cache = InvocationCache(max_size=None)
    first = execute(candidate, movie_query, movie_registry, cache)
    second = execute(candidate, movie_query, movie_registry, cache)
    assert (first.result_memo, second.result_memo) == ("miss", "hit")
    assert second.tuples is first.tuples and first.tuples
    assert (cache.replayable, cache.replays) == (2, 1)
    assert second.total_calls == 0 < first.total_calls
    # Anything that changes the rows is part of the key.
    for changed in (
        {"inputs": OTHER_INPUTS},
        {"k": 3},
        {"fetches": {alias: 2 for alias in candidate.fetch_vector()}},
        {"final_semantic_check": False},
    ):
        options = {"fetches": candidate.fetch_vector(), **changed}
        result = PlanExecutor(
            candidate.plan,
            movie_query,
            ServicePool(movie_registry, global_seed=21),
            options.pop("inputs", RUNNING_EXAMPLE_INPUTS),
            invocation_cache=cache,
            **options,
        ).run()
        assert result.result_memo == "miss", changed


@pytest.mark.parametrize("cache_size", [1, 4, None])
def test_replayed_result_equals_a_fresh_one_field_by_field(
    cache_size, candidate, movie_query, movie_registry
):
    def second_of_two():
        cache = InvocationCache(max_size=cache_size)
        held = execute(candidate, movie_query, movie_registry, cache)
        return execute(candidate, movie_query, movie_registry, cache), cache, held

    replayed, cache, _held = second_of_two()
    with memo_disabled():
        fresh, plain, _ = second_of_two()
    assert replayed.result_memo == "hit"
    assert fresh.result_memo == "off(disabled)"
    for spec in dataclasses.fields(ExecutionResult):
        if spec.name != "result_memo":
            assert getattr(replayed, spec.name) == getattr(fresh, spec.name), spec.name
    assert replayed.log is not fresh.log
    # An evicting cache makes the replay pay its round trips again.
    assert (replayed.total_calls > 0) == (cache_size is not None)
    assert cache.stats == plain.stats and list(cache._data) == list(plain._data)


def test_traced_replay_emits_its_fetches_and_no_node_spans(
    candidate, movie_query, movie_registry
):
    cache = InvocationCache(max_size=1)  # evicts: the replay really fetches
    _held = execute(candidate, movie_query, movie_registry, cache)
    pool = ServicePool(movie_registry, global_seed=21)
    tracer = Tracer(clock=pool.clock)
    replayed = execute(
        candidate, movie_query, movie_registry, cache, pool=pool, tracer=tracer
    )
    (root,) = [s for s in tracer.spans if s.name == "plan.execute"]
    assert root.attrs["result_memo"] == replayed.result_memo == "hit"
    names = {span.name for span in tracer.spans}
    assert names == {"plan.execute", "service.invoke", "fetch.chunk"}
    chunks = [s for s in tracer.spans if s.name == "fetch.chunk"]
    assert len(chunks) == replayed.total_calls > 0
    # The same run, executed: what the replay's span tree leaves out.
    with memo_disabled():
        plain = InvocationCache(max_size=1)
        execute(candidate, movie_query, movie_registry, plain)
        pool = ServicePool(movie_registry, global_seed=21)
        fresh_tracer = Tracer(clock=pool.clock)
        execute(
            candidate, movie_query, movie_registry, plain, pool=pool,
            tracer=fresh_tracer,
        )
    (fresh_root,) = [s for s in fresh_tracer.spans if s.name == "plan.execute"]
    assert fresh_root.attrs["result_memo"] == "off(disabled)"
    assert {k: v for k, v in root.attrs.items() if k != "result_memo"} == {
        k: v for k, v in fresh_root.attrs.items() if k != "result_memo"
    }
    for name in ("service.invoke", "fetch.chunk"):
        assert [s.attrs for s in tracer.spans if s.name == name] == [
            s.attrs for s in fresh_tracer.spans if s.name == name
        ]
    assert "node.service" in {s.name for s in fresh_tracer.spans}


# -- bypass -------------------------------------------------------------------


FAULTY = {
    "faults": dict(
        fault_model=FaultModel.uniform(failure_rate=0.3),
        retry=RetryPolicy(max_attempts=6, base_backoff=0.1),
    ),
    "outage": dict(
        fault_model=FaultModel().with_outage("Restaurant1"),
        degradation=Degradation.PARTIAL,
    ),
    "call_timeout": dict(retry=RetryPolicy(max_attempts=2, call_timeout=50.0)),
}


@pytest.mark.parametrize("case", sorted(FAULTY))
def test_memo_is_bypassed_wherever_a_call_can_fail(
    case, candidate, movie_query, movie_registry
):
    options = dict(FAULTY[case])
    fault_model = options.pop("fault_model", FaultModel())
    # Two executions on one shared cache: under the outage the second meets
    # the first's cached ``failed`` entry and must degrade exactly like it.
    runs = 2

    def executed():
        cache = InvocationCache(max_size=None)
        results = [
            execute(
                candidate,
                movie_query,
                movie_registry,
                cache,
                pool=ServicePool(
                    movie_registry, global_seed=21, fault_model=fault_model
                ),
                **options,
            )
            for _ in range(runs)
        ]
        assert cache.replayable == 0 and not cache.recorded
        return results

    reason = "call_timeout" if case == "call_timeout" else "faults"
    bypassed = executed()
    assert [r.result_memo for r in bypassed] == [f"off({reason})"] * runs
    assert all(r.tuples.recording is None for r in bypassed)
    # The reason does not depend on the switch: the path is HEAD's either way.
    with memo_disabled():
        plain = executed()
    for ours, theirs in zip(bypassed, plain):
        for spec in dataclasses.fields(ExecutionResult):
            assert getattr(ours, spec.name) == getattr(theirs, spec.name)
    if case == "outage":
        for result in bypassed:
            assert result.failed_aliases == ("R",) and result.tuples
        assert result_digest(bypassed[1].tuples) == result_digest(bypassed[0].tuples)


@pytest.mark.async_backend
def test_asyncio_executions_meeting_an_abandoned_call_degrade_alike(
    candidate, movie_query, movie_registry
):
    """The asyncio twin: a cached *or coalesced* ``failed`` fetch marks its
    alias degraded in the execution that met it, not only in the one that
    abandoned the call."""
    import asyncio

    from repro.engine.async_runner import AsyncExecutionContext, AsyncPlanExecutor

    cache = InvocationCache(max_size=None)
    context = AsyncExecutionContext(time_scale=0.0)

    def executor():
        return AsyncPlanExecutor(
            plan=candidate.plan,
            query=movie_query,
            pool=ServicePool(
                movie_registry,
                global_seed=21,
                fault_model=FaultModel().with_outage("Restaurant1"),
            ),
            inputs=RUNNING_EXAMPLE_INPUTS,
            fetches=candidate.fetch_vector(),
            degradation=Degradation.PARTIAL,
            invocation_cache=cache,
            context=context,
        )

    async def concurrently():
        # Same loop, same context: the second execution joins the first's
        # in-flight fetches (the coalesced branch).
        return await asyncio.gather(executor().execute(), executor().execute())

    coalesced = asyncio.run(concurrently())
    cached = executor().run()  # a later loop: every fetch is a cache hit
    reference = execute(
        candidate,
        movie_query,
        movie_registry,
        None,
        pool=ServicePool(
            movie_registry,
            global_seed=21,
            fault_model=FaultModel().with_outage("Restaurant1"),
        ),
        degradation=Degradation.PARTIAL,
    )
    for result in (*coalesced, cached):
        assert result.failed_aliases == ("R",) and result.tuples
        assert result_digest(result.tuples) == result_digest(reference.tuples)


def test_private_cache_neither_records_nor_replays(
    candidate, movie_query, movie_registry
):
    result = execute(candidate, movie_query, movie_registry, None)
    assert result.result_memo == "off(private_cache)"
    assert result.tuples.recording is None


# ---------------------------------------------------------------------------
# Sessions: the index is weak, interleavings are safe
# ---------------------------------------------------------------------------


def open_session(candidate, movie_query, movie_registry, cache, inputs=None):
    return LiquidQuerySession(
        candidate=candidate,
        query=movie_query,
        pool=ServicePool(movie_registry, global_seed=21),
        inputs=dict(inputs or RUNNING_EXAMPLE_INPUTS),
        executor_options={"invocation_cache": cache},
    )


def test_index_never_outlives_the_sessions_holding_the_list(
    candidate, movie_query, movie_registry
):
    """No ``gc.collect()`` anywhere: the entry goes with the last reference."""
    cache = InvocationCache(max_size=None)
    first = open_session(candidate, movie_query, movie_registry, cache)
    second = open_session(candidate, movie_query, movie_registry, cache)
    first.run()
    second.run()
    assert second._last.result_memo == "hit" and second._raw is first._raw
    assert len(cache.recorded) == 1

    first.more()  # ``second`` still holds the run's list
    assert len(cache.recorded) == 2
    second.resubmit(OTHER_INPUTS)  # nobody does now
    assert len(cache.recorded) == 2
    assert {id(rows) for rows in cache.recorded.values()} == {
        id(first._raw),
        id(second._raw),
    }
    third = open_session(candidate, movie_query, movie_registry, cache)
    third.run()
    assert third._last.result_memo == "miss"  # the run's entry was gone
    del third
    assert len(cache.recorded) == 2
    del second
    assert len(cache.recorded) == 1
    first.rerank({"M": 1.0, "T": 0.0, "R": 0.0})  # presentation only
    assert len(cache.recorded) == 1
    del first
    assert len(cache.recorded) == 0


def test_identical_requests_interleaved_before_either_finishes(
    candidate, movie_query, movie_registry
):
    def interleaved():
        cache = InvocationCache(max_size=None)
        sessions = [
            open_session(candidate, movie_query, movie_registry, cache)
            for _ in range(3)
        ]
        steppers = [session.steps("run") for session in sessions[:2]]
        results = [None, None]
        while steppers[0] is not None or steppers[1] is not None:
            for index, stepper in enumerate(steppers):
                if stepper is None:
                    continue
                try:
                    next(stepper)
                except StopIteration as stop:
                    results[index], steppers[index] = stop.value, None
        results.append(sessions[2].run())
        return sessions, results, cache

    sessions, results, cache = interleaved()
    # The second started while the first was mid-plan: nothing to replay yet.
    assert [s._last.result_memo for s in sessions] == ["miss", "miss", "hit"]
    assert sessions[2]._raw is cache.recorded[next(iter(cache.recorded))]
    with memo_disabled():
        plain_sessions, plain_results, plain_cache = interleaved()
    assert [result_digest(r) for r in results] == [
        result_digest(r) for r in plain_results
    ]
    assert len({result_digest(r) for r in results}) == 1
    for ours, theirs in zip(sessions, plain_sessions):
        assert ours.pool.log.records == theirs.pool.log.records
        assert ours.pool.clock.now == theirs.pool.clock.now
    assert cache.stats == plain_cache.stats


def test_sessions_sharing_a_list_share_its_digest(
    candidate, movie_query, movie_registry
):
    from repro.durability.checkpoint import _result_digest

    cache = InvocationCache(max_size=None)
    first = open_session(candidate, movie_query, movie_registry, cache)
    second = open_session(candidate, movie_query, movie_registry, cache)
    first.run()
    assert isinstance(first._raw, ResultRows) and first._raw.digest is None
    digest = _result_digest(first._raw)
    assert digest == result_digest(list(first._raw)) == first._raw.digest
    second.run()
    assert second._raw.digest == digest  # replayed: digested already
    assert _result_digest([]) == result_digest([])  # a plain list still works


# ---------------------------------------------------------------------------
# Durability: replays on both sides of a crash
# ---------------------------------------------------------------------------


class _Crash(Exception):
    pass


def test_crash_resume_digests_hold_with_replays_on_both_sides(tmp_path):
    config = dict(rate=2.0, num_requests=40, seed=2009, checkpoint_every=5)
    reference = serve_seeded(
        checkpoint_dir=tmp_path / "reference", **config
    ).digests()
    replays_before_crash = []

    def crash(checkpointer):
        if checkpointer.written >= 4:
            replays_before_crash.append(checkpointer.sessions.invocation_cache.replays)
            raise _Crash

    with pytest.raises(_Crash):
        serve_workload_durable(
            checkpoint_dir=tmp_path / "crashed", on_checkpoint=crash, **config
        )
    report = serve_seeded(
        checkpoint_dir=tmp_path / "crashed", resume=True, **config
    )
    resumed = report.digests()
    info = report.durability
    assert info["resumed"] and 0 < info["served"] < config["num_requests"]
    assert combined_digest(resumed) == combined_digest(reference)
    assert replays_before_crash[0] > 0
    # Restored sessions re-drive their journals through the shared cache:
    # they replay each other, and the requests served after them replay them.
    assert report.invocation_cache_stats["replays"] > 0
    with memo_disabled():
        plain = serve_seeded(
            checkpoint_dir=tmp_path / "crashed-plain", **config
        ).digests()
    assert plain == resumed


# ---------------------------------------------------------------------------
# Copies and pickles carry plain data
# ---------------------------------------------------------------------------


def test_copies_and_pickles_drop_the_recording_and_the_weak_reference(
    candidate, movie_query, movie_registry
):
    cache = InvocationCache(max_size=None)
    session = open_session(candidate, movie_query, movie_registry, cache)
    presented = session.run()
    result = session._last
    assert isinstance(result.tuples, ResultRows)
    assert result.tuples.recording is not None
    for clone in (
        copy.copy(result),
        copy.deepcopy(result),
        pickle.loads(pickle.dumps(result)),
    ):
        assert type(clone.tuples) is list
        assert clone == result and clone.tuples is not result.tuples
    for rows in (
        copy.copy(result.tuples),
        copy.deepcopy(result.tuples),
        pickle.loads(pickle.dumps(result.tuples)),
    ):
        assert type(rows) is list and rows == list(result.tuples)
    assert type(presented) is list
    assert pickle.loads(pickle.dumps(presented)) == presented
    assert len(cache.recorded) == 1  # the clones joined no index
