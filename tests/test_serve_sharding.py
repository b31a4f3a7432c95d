"""Sharded serving: ring properties, determinism, stealing, cache stats.

The contracts of :mod:`repro.serve.sharding`:

* the consistent-hash ring balances ~1M session ids within tolerance and
  remaps only onto the new shard when the shard count grows by one;
* one shard is *instruction-for-instruction* the plain scheduler — and
  result digests are byte-identical across shard counts, cache modes,
  stealing on/off, and the parallel worker-process path;
* work stealing never lets a session interleave with its own in-flight
  interaction, and steal counters reconcile exactly with per-shard
  completion totals;
* shared cache counters have a single source of truth: per-shard
  attribution views sum to the global stats, and a report accounts only
  its own run's traffic even when the cache outlives the run.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import InvocationCache
from repro.errors import ExecutionError
from repro.serve import (
    HashRing,
    PlanCache,
    ServeConfig,
    ServeScheduler,
    SessionManager,
    ShardedInvocationCache,
    ShardedServeScheduler,
    WorkloadConfig,
    default_templates,
    generate_workload,
    partition_workload,
    result_digest,
    session_key,
)
from repro.serve.workload import zipf_index
from tests.conftest import serve_seeded


def make_workload(num_requests=60, rate=2.0, seed=7, **kwargs):
    return generate_workload(
        default_templates(),
        WorkloadConfig(num_requests=num_requests, rate=rate, seed=seed, **kwargs),
    )


def make_manager(templates=None, seed=7, shared=True):
    templates = templates or default_templates()
    return SessionManager(
        templates={t.name: t for t in templates},
        data_seed=seed,
        plan_cache=PlanCache() if shared else None,
        invocation_cache=InvocationCache(max_size=None) if shared else None,
    )


# ---------------------------------------------------------------------------
# Consistent-hash ring
# ---------------------------------------------------------------------------


@given(num_shards=st.integers(min_value=1, max_value=16))
@settings(max_examples=10, deadline=None)
def test_ring_covers_every_shard(num_shards):
    ring = HashRing(num_shards)
    owners = {ring.shard_for(i) for i in range(2000 * num_shards)}
    assert owners == set(range(num_shards))


@given(
    num_shards=st.sampled_from([2, 4, 8, 16]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=15, deadline=None)
def test_ring_balance_within_tolerance(num_shards, seed):
    import random

    rng = random.Random(seed)
    ids = [rng.randrange(1_000_000) for _ in range(20_000)]
    ring = HashRing(num_shards)
    counts = Counter(ring.shard_for(i) for i in ids)
    mean = len(ids) / num_shards
    assert min(counts.values()) > 0.75 * mean
    assert max(counts.values()) < 1.35 * mean


@pytest.mark.slow
def test_ring_balance_at_one_million_sessions():
    """The ISSUE-scale property: ~1M distinct ids, ±15% of the mean."""
    for num_shards in (4, 8):
        counts = Counter()
        ring = HashRing(num_shards)
        for i in range(1_000_000):
            counts[ring.shard_for(i)] += 1
        mean = 1_000_000 / num_shards
        assert min(counts.values()) > 0.85 * mean
        assert max(counts.values()) < 1.15 * mean


@given(
    num_shards=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=15, deadline=None)
def test_ring_growth_remaps_only_onto_the_new_shard(num_shards, seed):
    """Growing N -> N+1 moves ~1/(N+1) of keys, all of them to shard N.

    Existing shards' ring points are a function of their index alone, so
    adding a shard adds points without moving any: a key changes owner
    iff its successor point is one of the new shard's — never between
    two old shards.
    """
    import random

    rng = random.Random(seed)
    ids = [rng.randrange(1_000_000) for _ in range(5_000)]
    before = HashRing(num_shards)
    after = HashRing(num_shards + 1)
    moved = 0
    for i in ids:
        old, new = before.shard_for(i), after.shard_for(i)
        if old != new:
            moved += 1
            assert new == num_shards  # only onto the newcomer
    expected = len(ids) / (num_shards + 1)
    assert moved < 2.0 * expected  # ~1/(N+1), generous vnode variance


# ---------------------------------------------------------------------------
# Determinism: one shard == plain scheduler; digests invariant to topology
# ---------------------------------------------------------------------------


def outcome_signature(report):
    return [
        (
            o.request.request_id,
            o.status,
            o.finished_at,
            o.queue_wait,
            o.round_trips,
        )
        for o in report.outcomes.values()
    ]


def test_one_shard_equals_plain_scheduler():
    workload = make_workload()
    config = ServeConfig(queue_limit=10_000, default_service_rate=4.0)
    plain = ServeScheduler(make_manager(), config).run(workload)
    sharded = serve_seeded(
        rate=2.0, num_requests=60, seed=7, num_shards=1,
        queue_limit=10_000,
    )
    assert sharded.makespan == plain.makespan
    assert sharded.total_round_trips == plain.total_round_trips
    assert outcome_signature(sharded) == outcome_signature(plain)


def test_digests_identical_across_shard_counts_and_modes():
    reference = None
    p95 = {}
    for num_shards, cache_mode, steal in [
        (1, "shared", False),
        (2, "shared", True),
        (3, "private", True),
        (4, "shared", True),
        (4, "shared", False),
        (4, "isolated", True),
    ]:
        report = serve_seeded(
            rate=2.0, num_requests=50, seed=11,
            num_shards=num_shards, cache_mode=cache_mode, steal=steal,
        )
        digests = report.digests()
        assert report.by_status() == {"completed": 50}
        if reference is None:
            reference = digests
        else:
            assert digests == reference
        p95[num_shards, cache_mode, steal] = report.latency_summary()["p95"]
    # More shards, more workers: the shared 4-shard run's tail beats the
    # 1-shard run's (93.9 -> 36.5 virtual s at this size).
    assert p95[4, "shared", True] < p95[1, "shared", False]


def test_sharded_replay_is_bit_deterministic():
    signatures = []
    for _ in range(2):
        report = serve_seeded(
            rate=2.0, num_requests=60, seed=7, num_shards=4,
        )
        signatures.append(
            [
                (o.request.request_id, o.status, o.finished_at, o.shard, o.stolen)
                for o in report.outcomes.values()
            ]
        )
    assert signatures[0] == signatures[1]


def test_digest_fn_replaces_materialised_results():
    report = serve_seeded(
        rate=2.0, num_requests=30, seed=7, num_shards=2,
        digest_fn=result_digest,
    )
    digests = report.digests()
    assert digests  # digests still produced
    for outcome in report.completed():
        assert outcome.results is None
        assert outcome.digest == digests[outcome.request.request_id]
    plain_digests = serve_seeded(
        rate=2.0, num_requests=30, seed=7, num_shards=2,
    ).digests()
    assert digests == plain_digests


def test_admission_peak_counts_executing_requests_across_shards():
    """One controller counts for every shard: four shards at the default
    ``max_concurrency`` run more requests at once than one shard may."""
    per_shard = ServeConfig().max_concurrency
    one = serve_seeded(rate=4.0, num_requests=40, seed=7)
    four = serve_seeded(rate=4.0, num_requests=40, seed=7, num_shards=4)
    assert one.admission_peak == per_shard
    assert per_shard < four.admission_peak <= 4 * per_shard


# ---------------------------------------------------------------------------
# Work stealing
# ---------------------------------------------------------------------------


class PinnedRing(HashRing):
    """A ring that homes every session on shard 0.

    With all arrivals funnelled to one shard, any work the other shards
    perform can only have been stolen — the sharpest setup for the
    stealing invariants.
    """

    def __init__(self, num_shards):
        super().__init__(num_shards)

    def shard_for(self, session_id):
        return 0


def serve_pinned(steal=True, num_requests=60, max_concurrency=2):
    workload = make_workload(num_requests=num_requests, rate=4.0)
    sessions = make_manager()
    scheduler = ShardedServeScheduler(
        sessions,
        ServeConfig(
            max_concurrency=max_concurrency,
            queue_limit=10_000,
            default_service_rate=4.0,
            num_shards=4,
            steal=steal,
        ),
        ring=PinnedRing(4),
    )
    return scheduler.run(workload), scheduler


def test_stealing_happens_and_only_from_loaded_shards():
    report, scheduler = serve_pinned(steal=True)
    stolen = [o for o in report.outcomes.values() if o.stolen]
    assert stolen, "a pinned ring under load must trigger steals"
    # Stolen requests executed away from home shard 0.
    assert all(o.shard != 0 for o in stolen)
    # Without stealing, shards 1-3 do nothing at all.
    no_steal, _ = serve_pinned(steal=False)
    assert all(o.shard == 0 for o in no_steal.outcomes.values())


def test_stealing_never_changes_results():
    with_steal, scheduler = serve_pinned(steal=True)
    without, _ = serve_pinned(steal=False)
    digest = lambda report: {
        o.request.request_id: result_digest(o.results or ())
        for o in report.completed()
    }
    assert digest(with_steal) == digest(without)
    assert with_steal.by_status() == without.by_status()


def test_stolen_session_never_interleaves_with_itself():
    report, _ = serve_pinned(steal=True)
    intervals: dict[int, list[tuple[float, float]]] = {}
    for outcome in report.outcomes.values():
        if outcome.status != "completed" and outcome.status != "failed":
            continue
        intervals.setdefault(session_key(outcome.request), []).append(
            (outcome.started_at, outcome.finished_at)
        )
    for spans in intervals.values():
        spans.sort()
        for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
            assert next_start >= prev_end


def test_steal_counters_reconcile_with_shard_totals():
    report, scheduler = serve_pinned(steal=True)
    metrics = report.metrics
    stolen_outcomes = sum(1 for o in report.outcomes.values() if o.stolen)
    total_steals = metrics.counter("serve.steals").value
    assert total_steals == stolen_outcomes
    per_shard_steals = sum(
        metrics.counter(f"serve.shard.{i}.steals").value for i in range(4)
    )
    per_shard_victim = sum(
        metrics.counter(f"serve.shard.{i}.stolen_from").value for i in range(4)
    )
    assert per_shard_steals == total_steals == per_shard_victim
    # Every started request finishes on its shard: started == completed
    # + failed, shard by shard, steals included.
    for stats in report.shard_stats:
        assert stats["started"] == stats["completed"] + stats["failed"]
        if stats["shard"] != 0:
            assert stats["steals"] == stats["started"]
    assert (
        sum(s["completed"] for s in report.shard_stats)
        == report.by_status().get("completed", 0)
    )


# ---------------------------------------------------------------------------
# Shared cache counters: single source of truth
# ---------------------------------------------------------------------------


def test_sharded_cache_attribution_sums_to_global_stats():
    workload = make_workload()
    sessions = make_manager(shared=False)
    cache = ShardedInvocationCache(4, max_size=8)  # small: force evictions
    sessions.plan_cache = PlanCache()
    sessions.invocation_cache = cache
    scheduler = ShardedServeScheduler(
        sessions,
        ServeConfig(queue_limit=10_000, default_service_rate=4.0, num_shards=4),
    )
    scheduler.run(workload)
    assert cache.stats.hits == sum(v.hits for v in cache.shard_stats)
    assert cache.stats.misses == sum(v.misses for v in cache.shard_stats)
    assert cache.stats.evictions == sum(v.evictions for v in cache.shard_stats)
    assert cache.stats.evictions > 0  # the small cache really evicted
    assert cache.stats.hits > 0


def test_report_counts_only_its_own_runs_traffic():
    """Regression: a cache outliving the run must not leak lifetime totals.

    Two schedulers sharing one PlanCache/InvocationCache each serve the
    same workload; the second report must account the second run's
    lookups only — previously it reported cumulative lifetime counters,
    double-counting the first run's traffic.
    """
    workload = make_workload(num_requests=30)
    plan_cache = PlanCache()
    invocation_cache = InvocationCache(max_size=None)
    reports = []
    for _ in range(2):
        sessions = make_manager(shared=False)
        sessions.plan_cache = plan_cache
        sessions.invocation_cache = invocation_cache
        reports.append(
            ServeScheduler(
                sessions,
                ServeConfig(queue_limit=10_000, default_service_rate=4.0),
            ).run(workload)
        )
    first, second = reports
    lookups = lambda stats: stats["hits"] + stats["misses"]
    # Same workload -> same number of lookups per run, NOT cumulative.
    assert lookups(second.invocation_cache_stats) == lookups(
        first.invocation_cache_stats
    )
    assert lookups(second.plan_cache_stats) == lookups(first.plan_cache_stats)
    # The second run is fully warm: every plan lookup hits.
    assert second.plan_cache_stats["misses"] == 0
    assert second.plan_cache_stats["hit_rate"] == 1.0
    # Lifetime totals on the cache object itself still accumulate.
    assert plan_cache.stats.hits + plan_cache.stats.misses == 2 * lookups(
        first.plan_cache_stats
    )


def test_private_mode_routes_sessions_to_per_shard_caches():
    report = serve_seeded(
        rate=2.0, num_requests=40, seed=7, num_shards=3, cache_mode="private",
    )
    digests = report.digests()
    assert report.invocation_cache_stats is None  # no global cache
    assert report.plan_cache_stats is not None  # plan cache stays shared
    reference = serve_seeded(
        rate=2.0, num_requests=40, seed=7, num_shards=3, cache_mode="shared",
    ).digests()
    assert digests == reference


def test_unknown_cache_mode_rejected():
    with pytest.raises(ExecutionError):
        serve_seeded(
            rate=2.0, num_requests=10, seed=7, num_shards=2,
            cache_mode="bogus",
        )


# ---------------------------------------------------------------------------
# Workload: session ids and the memoized Zipf draw
# ---------------------------------------------------------------------------


def test_run_session_ids_unique_and_inherited_by_followups():
    workload = make_workload(
        num_requests=200, followup_fraction=0.4, session_space=1_000_000
    )
    runs = {r.request_id: r for r in workload if r.kind == "run"}
    run_sids = [r.session_id for r in runs.values()]
    assert all(sid is not None for sid in run_sids)
    assert len(set(run_sids)) == len(run_sids)
    for request in workload:
        if request.target is not None:
            assert request.session_id == runs[request.target].session_id
            assert session_key(request) == request.session_id


def test_session_space_must_cover_requests():
    with pytest.raises(ExecutionError):
        WorkloadConfig(num_requests=100, session_space=50)


def test_session_ids_do_not_perturb_the_arrival_stream():
    """Two configs differing only in session_space draw the same stream."""
    small = make_workload(num_requests=80, session_space=80)
    large = make_workload(num_requests=80, session_space=10_000_000)
    strip = lambda reqs: [
        (r.request_id, r.kind, r.template, r.arrival, r.inputs, r.target)
        for r in reqs
    ]
    assert strip(small) == strip(large)


def test_param_scale_extends_universes_preserving_head():
    """Scaled templates keep base options in head position, tail distinct.

    The sharding sweep widens parameter universes with
    ``default_templates(param_scale=N)`` so the Zipf tail sustains real
    service traffic at 100k requests; the base (most popular) options
    must keep their exact positions so the head of the distribution is
    unchanged, and every appended tail value must be distinct.
    """
    base = default_templates()
    scaled = default_templates(param_scale=3)
    for b, s in zip(base, scaled):
        assert s.name == b.name and s.rerank_weights == b.rerank_weights
        for name, options in b.parameter_space.items():
            scaled_opts = s.parameter_space[name]
            assert list(scaled_opts[: len(options)]) == list(options)
            assert len(scaled_opts) == 3 * len(options)
            assert len({repr(v) for v in scaled_opts}) == len(scaled_opts)
    # Scale 1 is the identity — same objects, bit-identical workloads.
    assert default_templates(param_scale=1) == default_templates()
    with pytest.raises(ExecutionError):
        default_templates(param_scale=0)


def test_scaled_templates_serve_and_digest_identically_across_shards():
    templates = default_templates(param_scale=4)
    reference = None
    for num_shards in (1, 4):
        report = serve_seeded(
            rate=4.0, num_requests=30, seed=13, num_shards=num_shards,
            templates=templates,
        )
        digests = report.digests()
        assert report.by_status().get("completed", 0) == 30
        if reference is None:
            reference = digests
        else:
            assert digests == reference


def test_zipf_bisect_matches_linear_scan_reference():
    import random

    def reference(rng, n, skew):
        weights = [1.0 / (i + 1) ** skew for i in range(n)]
        total = sum(weights)
        point = rng.random() * total
        acc = 0.0
        for i, weight in enumerate(weights):
            acc += weight
            if point <= acc:
                return i
        return n - 1

    for seed in range(5):
        a, b = random.Random(seed), random.Random(seed)
        for n in (1, 2, 7, 100):
            for skew in (0.0, 0.8, 1.3):
                draws_new = [zipf_index(a, n, skew) for _ in range(200)]
                draws_ref = [reference(b, n, skew) for _ in range(200)]
                assert draws_new == draws_ref


# ---------------------------------------------------------------------------
# Partitioning & the parallel path
# ---------------------------------------------------------------------------


def test_partition_subsets_are_self_contained():
    workload = make_workload(num_requests=120, followup_fraction=0.4)
    subsets = partition_workload(workload, HashRing(4))
    assert sum(len(s) for s in subsets) == len(workload)
    for subset in subsets:
        ids = {r.request_id for r in subset}
        for request in subset:
            if request.target is not None:
                assert request.target in ids  # chain never crosses shards


@pytest.mark.slow
def test_parallel_workers_match_serial_digests():
    serial = serve_seeded(
        rate=2.0, num_requests=40, seed=7, num_shards=2,
    ).digests()
    parallel = serve_seeded(
        rate=2.0, num_requests=40, seed=7, num_shards=2, parallel=True,
    )
    assert parallel.digests() == serial
    assert parallel.by_status() == {"completed": 40}
