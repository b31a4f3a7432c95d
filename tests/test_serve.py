"""Serving runtime: workload generation, scheduling, sharing equivalence.

Covers the units of :mod:`repro.serve` — the seeded workload generator,
the token-bucket rate limiter, the plan cache — and the scheduler's
behavioural contracts: admission control with FIFO queues, follow-up
parking and rejection, per-session serialization, and the
headline property that cross-query sharing never changes any request's
result.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.engine.executor import InvocationCache
from repro.errors import ExecutionError, SearchComputingError
from repro.serve import (
    PlanCache,
    Request,
    ServeConfig,
    ServeScheduler,
    SessionManager,
    WorkloadConfig,
    default_templates,
    generate_workload,
    result_digest,
)
from repro.serve.scheduler import MAX_CONCURRENCY
from repro.serve.sharding import _TokenBucket
from repro.serve.workload import zipf_index
from tests.conftest import serve_seeded


# ---------------------------------------------------------------------------
# Workload generation
# ---------------------------------------------------------------------------


def test_workload_is_deterministic():
    templates = default_templates()
    config = WorkloadConfig(num_requests=30, rate=2.0, seed=7)
    assert generate_workload(templates, config) == generate_workload(
        templates, config
    )


def test_workload_differs_across_seeds():
    templates = default_templates()
    first = generate_workload(templates, WorkloadConfig(num_requests=30, seed=1))
    second = generate_workload(templates, WorkloadConfig(num_requests=30, seed=2))
    assert first != second


def test_workload_structure():
    templates = default_templates()
    requests = generate_workload(
        templates, WorkloadConfig(num_requests=50, followup_fraction=0.4, seed=11)
    )
    assert len(requests) == 50
    assert requests[0].kind == "run"  # nothing to follow up on yet
    arrivals = [request.arrival for request in requests]
    assert arrivals == sorted(arrivals)
    assert all(arrival > 0 for arrival in arrivals)
    run_ids = {r.request_id for r in requests if r.kind == "run"}
    for request in requests:
        assert request.kind in {"run", "more", "rerank", "resubmit"}
        if request.kind == "run":
            assert request.target is None
            assert request.inputs
        else:
            # Follow-ups name an *earlier* run request.
            assert request.target in run_ids
            assert request.target < request.request_id
        if request.kind == "rerank":
            assert request.weights
        if request.kind == "resubmit":
            assert request.inputs


def test_workload_followups_present_under_default_mix():
    templates = default_templates()
    requests = generate_workload(
        templates, WorkloadConfig(num_requests=60, followup_fraction=0.5, seed=3)
    )
    kinds = {request.kind for request in requests}
    assert {"run", "more"} <= kinds


def test_zipf_skew_concentrates_head():
    rng = random.Random(0)
    draws = [zipf_index(rng, 5, 2.5) for _ in range(500)]
    head = draws.count(0) / len(draws)
    assert head > 0.5
    rng = random.Random(0)
    uniform = [zipf_index(rng, 5, 0.0) for _ in range(500)]
    assert uniform.count(0) / len(uniform) < 0.35


def test_zipf_rejects_empty_domain():
    with pytest.raises(ExecutionError):
        zipf_index(random.Random(0), 0, 1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_requests": 0},
        {"rate": 0.0},
        {"followup_fraction": 1.0},
        {"followup_fraction": -0.1},
        # Regression: NaN passed ``rate <= 0`` and served NaN arrivals.
        {"rate": float("nan")},
    ],
)
def test_workload_config_validation(kwargs):
    with pytest.raises(ExecutionError):
        WorkloadConfig(**kwargs)


def test_generate_workload_needs_templates():
    with pytest.raises(ExecutionError):
        generate_workload([], WorkloadConfig(num_requests=5))


# ---------------------------------------------------------------------------
# Token bucket
# ---------------------------------------------------------------------------


def test_token_bucket_burst_then_throttle():
    bucket = _TokenBucket(rate=2.0, burst=2.0)
    assert bucket.grant(0.0) == 0.0
    assert bucket.grant(0.0) == 0.0  # burst absorbs two immediately
    third = bucket.grant(0.0)
    assert third == pytest.approx(0.5)  # then one token per 1/rate
    fourth = bucket.grant(0.0)
    assert fourth == pytest.approx(1.0)


def test_token_bucket_grants_are_fifo():
    bucket = _TokenBucket(rate=1.0, burst=1.0)
    first = bucket.grant(0.0)
    late = bucket.grant(0.0)
    # A reservation made after the bucket drained never lands before an
    # earlier grant, even for the same request time.
    assert late > first
    # Idle time refills: a request far in the future pays nothing.
    assert bucket.grant(100.0) == 100.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"checkpoint_every": -1},
        # In-process shards run on the virtual clock only.
        {"backend": "asyncio", "num_shards": 2},
        # Regression: resume without a directory served from scratch.
        {"resume": True},
        {"num_shards": 0},
        {"default_service_rate": -1.0},
        # Regression: NaN passed ``rate <= 0`` and served as if unlimited.
        {"default_service_rate": float("nan")},
        # Regression: serve-bench printed its header, then the asyncio
        # context refused the scale from inside the run (exit 1).
        {"time_scale": float("nan")},
        # Regression: an infinite asyncio scale slept forever.
        {"time_scale": float("inf")},
        {"default_service_rate": float("inf")},
        # Regression: a fractional shard count reached ``range`` untyped.
        {"num_shards": 2.5},
        # Regression: cache bounds were taken, and the run died later
        # inside PlanCache / InvocationCache (None is unbounded).
        {"cache_size": 0},
        {"plan_cache_size": 0},
        {"plan_cache_size": -4},
        # Regression: worker processes own their caches, yet a parallel
        # run took (and reported) a shared one.
        {"num_shards": 2, "parallel": True, "cache_mode": "shared"},
    ],
)
def test_serve_config_validation(kwargs):
    with pytest.raises(ExecutionError):
        ServeConfig(**kwargs)


@pytest.mark.parametrize("seed", ["x", 3.5, None, True])
def test_non_integer_data_seed_is_refused(seed):
    """Regression: the config took any seed, and the run died later in
    the executor with a bare ``TypeError`` from ``seed ^ ...``."""
    with pytest.raises(ExecutionError, match="data_seed must be an int"):
        ServeConfig(data_seed=seed)


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------


def test_plan_cache_hits_after_first_search(movie_query):
    from repro.core.optimizer import OptimizerConfig

    cache = PlanCache()
    config = OptimizerConfig()
    first = cache.plan("movie", movie_query, config)
    second = cache.plan("movie", movie_query, config)
    assert first is second  # shared by reference, searched once
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1
    assert cache.stats.hit_rate == 0.5
    assert len(cache._plans) == 1


def test_plan_cache_lru_eviction(movie_query, conference_query):
    from repro.core.optimizer import OptimizerConfig

    cache = PlanCache(max_size=1)
    config = OptimizerConfig()
    movie_plan = cache.plan("movie", movie_query, config)
    cache.plan("conference", conference_query, config)  # evicts movie
    assert len(cache._plans) == 1
    assert cache.stats.evictions == 1
    # The movie plan was evicted: asking again is a fresh search (a miss).
    again = cache.plan("movie", movie_query, config)
    assert cache.stats.misses == 3
    assert again is not movie_plan


def test_plan_cache_lru_recency_of_use(movie_query, conference_query):
    from repro.core.optimizer import OptimizerConfig

    cache = PlanCache(max_size=2)
    config = OptimizerConfig()
    movie_plan = cache.plan("movie", movie_query, config)
    cache.plan("conference", conference_query, config)
    # Touch movie so conference is the LRU entry, then overflow.
    cache.plan("movie", movie_query, config)
    cache.plan("other-schema", movie_query, config)
    assert cache.stats.evictions == 1
    assert cache.plan("movie", movie_query, config) is movie_plan
    assert cache.stats.hits == 2  # the touch and the final lookup


def test_plan_cache_rejects_nonpositive_bound():
    with pytest.raises(ExecutionError):
        PlanCache(max_size=0)


# ---------------------------------------------------------------------------
# Scheduler behaviour (hand-built request streams)
# ---------------------------------------------------------------------------


def _manager(**kwargs):
    templates = {t.name: t for t in default_templates()}
    return SessionManager(templates=templates, data_seed=2009, **kwargs)


def _run_request(request_id, arrival, template=None, seed=0):
    template = template or default_templates()[0]
    return Request(
        request_id=request_id,
        kind="run",
        template=template.name,
        schema=template.schema,
        arrival=arrival,
        inputs=template.sample_inputs(random.Random(seed), 1.0),
    )


def test_scheduler_completes_simple_stream():
    requests = [_run_request(i, arrival=float(i), seed=i) for i in range(3)]
    report = ServeScheduler(_manager()).run(requests)
    assert report.by_status() == {"completed": 3}
    for outcome in report.completed():
        assert outcome.results
        assert outcome.round_trips > 0
        assert outcome.latency > 0
    assert report.total_round_trips == sum(
        o.round_trips for o in report.completed()
    )
    assert report.throughput > 0


def test_scheduler_queue_wait_is_accounted():
    # Two more simultaneous arrivals than execution slots: the excess
    # queues FIFO (nothing is ever turned away) and waits for a slot.
    count = MAX_CONCURRENCY + 2
    requests = [_run_request(i, arrival=1.0, seed=i) for i in range(count)]
    report = ServeScheduler(_manager()).run(requests)
    assert report.by_status() == {"completed": count}
    waits = sorted(o.queue_wait for o in report.completed())
    assert waits[:MAX_CONCURRENCY] == [0.0] * MAX_CONCURRENCY  # admitted at once
    assert waits[-1] > 0.0  # the last one waited for a slot


def test_followup_with_unknown_target_rejected():
    template = default_templates()[0]
    requests = [
        _run_request(0, arrival=0.1),
        Request(
            request_id=1,
            kind="more",
            template=template.name,
            schema=template.schema,
            arrival=0.2,
            target=999,
        ),
    ]
    report = ServeScheduler(_manager()).run(requests)
    assert report.outcomes[0].status == "completed"
    assert report.outcomes[1].status == "rejected"


def test_followup_parks_until_target_completes():
    template = default_templates()[0]
    run = _run_request(0, arrival=0.1)
    more = Request(
        request_id=1,
        kind="more",
        template=template.name,
        schema=template.schema,
        arrival=0.2,  # long before the run can have finished
        target=0,
    )
    report = ServeScheduler(_manager()).run([run, more])
    assert report.by_status() == {"completed": 2}
    run_out, more_out = report.outcomes[0], report.outcomes[1]
    assert more_out.finished_at > run_out.finished_at
    # ``more`` doubles the fetch factors: it both costs fresh round
    # trips and can only grow the result list.
    assert more_out.round_trips > 0
    assert len(more_out.results) >= len(run_out.results)


def test_rerank_costs_no_round_trips():
    template = default_templates()[0]
    requests = [
        _run_request(0, arrival=0.1),
        Request(
            request_id=1,
            kind="rerank",
            template=template.name,
            schema=template.schema,
            arrival=500.0,  # target long since finished
            weights=dict(template.rerank_weights[1]),
            target=0,
        ),
    ]
    report = ServeScheduler(_manager()).run(requests)
    assert report.by_status() == {"completed": 2}
    rerank_out = report.outcomes[1]
    assert rerank_out.round_trips == 0
    assert rerank_out.results
    # Re-weighting is pure CPU: it completes at its own arrival instant.
    assert rerank_out.latency == 0.0


def test_negative_k_request_fails_with_the_typed_error():
    """``k=-1`` used to complete with all rows but the last."""
    template = default_templates()[0]
    bad_run = replace(_run_request(0, arrival=0.1), k=-1)
    bad_more = Request(
        request_id=2,
        kind="more",
        template=template.name,
        schema=template.schema,
        arrival=500.0,
        target=1,
        k=-3,
    )
    requests = [bad_run, _run_request(1, arrival=0.2), bad_more]
    report = ServeScheduler(_manager()).run(requests)
    assert report.outcomes[1].status == "completed"
    for request_id in (0, 2):
        outcome = report.outcomes[request_id]
        assert outcome.status == "failed" and outcome.results is None
        assert outcome.error.startswith("ExecutionError: k must be non-negative")


def test_rate_limit_stretches_makespan():
    requests = [_run_request(i, arrival=0.1, seed=i) for i in range(2)]
    fast = ServeScheduler(_manager(), ServeConfig()).run(requests)
    slow = ServeScheduler(
        _manager(), ServeConfig(default_service_rate=0.5)
    ).run(requests)
    assert fast.by_status() == {"completed": 2}
    assert slow.by_status() == {"completed": 2}
    assert slow.makespan > fast.makespan
    assert any(o.rate_wait > 0 for o in slow.completed())


def test_scheduler_is_deterministic():
    templates = default_templates()
    workload = generate_workload(
        templates, WorkloadConfig(num_requests=12, rate=2.0, seed=5)
    )

    def serve():
        manager = _manager(
            plan_cache=PlanCache(),
            invocation_cache=InvocationCache(max_size=None),
        )
        report = ServeScheduler(manager, ServeConfig()).run(workload)
        return (
            {rid: o.status for rid, o in report.outcomes.items()},
            {
                o.request.request_id: result_digest(o.results or ())
                for o in report.completed()
            },
            report.makespan,
            report.total_round_trips,
        )

    assert serve() == serve()


# ---------------------------------------------------------------------------
# Session manager
# ---------------------------------------------------------------------------


def test_session_manager_unknown_template():
    manager = _manager()
    request = Request(
        request_id=0, kind="run", template="nope", schema="x", arrival=0.0
    )
    with pytest.raises(SearchComputingError):
        manager.open(request)


def test_session_manager_tracks_sessions_and_round_trips():
    manager = _manager()
    request = _run_request(0, arrival=0.0)
    session = manager.open(request)
    assert manager.pool_for(request) is session.pool
    assert manager.total_round_trips() == 0
    session.run()
    assert manager.total_round_trips() == session.pool.log.total_calls()


# ---------------------------------------------------------------------------
# Sharing equivalence — the subsystem's headline property
# ---------------------------------------------------------------------------


def test_sharing_preserves_results_and_saves_round_trips():
    kwargs = dict(rate=1.5, num_requests=14, seed=2009)
    isolated = serve_seeded(cache_mode="isolated", **kwargs)
    shared = serve_seeded(cache_mode="shared", **kwargs)
    assert isolated.by_status() == shared.by_status()
    # Byte-identical per-request results...
    assert isolated.digests() == shared.digests()
    # ...for strictly less service work.
    assert shared.total_round_trips < isolated.total_round_trips
    # ...and a shorter tail (54.5 -> 33.8 virtual s p95 at this size).
    assert shared.latency_summary()["p95"] < isolated.latency_summary()["p95"]
    # One optimizer search per template; every other request reuses a plan.
    assert shared.plan_cache_stats["misses"] == 2
    assert shared.plan_cache_stats["hits"] > 0
    invocations = shared.invocation_cache_stats
    assert invocations["hits"] > 0
    assert invocations["entries"] <= invocations["misses"]
    assert isolated.plan_cache_stats is None
    assert isolated.invocation_cache_stats is None
