"""Sharded serving: ring properties, determinism, stealing, cache stats.

The contracts of :mod:`repro.serve.sharding`:

* the consistent-hash ring balances ~1M session ids within tolerance and
  remaps only onto the new shard when the shard count grows by one;
* result digests are byte-identical across shard counts, cache modes,
  stealing on/off, and the parallel worker-process path (the one-shard
  run itself is pinned by the ``shards1-*`` rows of
  ``tests/data/serve_golden.json``);
* work stealing never lets a session interleave with its own in-flight
  interaction, and steal counters reconcile exactly with per-shard
  completion totals;
* shared cache counters have a single source of truth: per-shard
  attribution views sum to the global stats, every report's shard rows
  add up to its global figures, and a resumed run's report accounts only
  its own traffic, not its journal replay's.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import InvocationCache
from repro.errors import ExecutionError
from repro.obs.serving import serving_metrics_summary
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
    serve,
    session_key,
)
from repro.serve.scheduler import MAX_CONCURRENCY
from repro.serve.workload import scenario_templates, zipf_index
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
# Determinism: digests invariant to topology
# ---------------------------------------------------------------------------


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
    """One controller counts for every shard: four shards at
    ``MAX_CONCURRENCY`` each run more requests at once than one shard may."""
    per_shard = MAX_CONCURRENCY
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


def serve_pinned(steal=True, num_requests=60):
    workload = make_workload(num_requests=num_requests, rate=8.0)
    sessions = make_manager()
    scheduler = ShardedServeScheduler(
        sessions,
        ServeConfig(
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
        ServeConfig(default_service_rate=4.0, num_shards=4),
    )
    scheduler.run(workload)
    assert cache.stats.hits == sum(v.hits for v in cache.shard_stats)
    assert cache.stats.misses == sum(v.misses for v in cache.shard_stats)
    assert cache.stats.evictions == sum(v.evictions for v in cache.shard_stats)
    assert cache.stats.evictions > 0  # the small cache really evicted
    assert cache.stats.hits > 0


class _Crash(Exception):
    pass


def _crash_at_second_checkpoint(checkpointer):
    if checkpointer.written >= 2:
        raise _Crash


def serve_resumed(tmp_path, monkeypatch, **config):
    """The 24-request seeded stream served durably (a checkpoint every 5),
    crashed at the 2nd checkpoint and resumed.  Returns the resumed
    report, the resumed run's session manager, and the ids of the
    requests it served itself."""
    from repro.durability.checkpoint import CheckpointStore
    from repro.serve import runtime

    managers = []
    build = runtime.build_sessions

    def keep(*args, **kwargs):
        managers.append(build(*args, **kwargs))
        return managers[-1]

    monkeypatch.setattr(runtime, "build_sessions", keep)
    config = ServeConfig(
        default_service_rate=4.0, checkpoint_dir=tmp_path, checkpoint_every=5,
        **config,
    )
    stream = WorkloadConfig(num_requests=24, rate=2.0, seed=2009)
    with pytest.raises(_Crash):
        serve(config, stream, on_checkpoint=_crash_at_second_checkpoint)
    store = CheckpointStore(tmp_path)
    before = {int(rid) for rid in store.load(store.latest("serve"))["outcomes"]}
    report = serve(replace(config, resume=True), stream)
    assert report.durability["resumed"] and before
    return report, managers[-1], set(report.outcomes) - before


def assert_shard_rows_add_up(report):
    """Every shard figure of ``report`` adds up to its global figure."""
    summary = serving_metrics_summary(report)
    completed = report.by_status().get("completed", 0)
    assert sum(row["completed"] for row in summary["shards"]) == completed
    assert summary["completed"] == completed
    rows = report.shard_stats
    assert len(rows) == report.num_shards == len(summary["shards"])
    assert [row["completed"] for row in rows] == [
        row["completed"] for row in summary["shards"]
    ]
    global_cache = report.invocation_cache_stats
    if global_cache is not None:
        for name in ("hits", "misses"):
            parts = [row["invocation_cache"][name] for row in rows]
            assert sum(parts) == global_cache[name], (name, parts)


@pytest.mark.parametrize(
    "num_shards, hits, misses", [(1, 162, 118), (2, 129, 131)]
)
def test_a_resumed_runs_shard_rows_add_up_to_its_cache_figures(
    tmp_path, monkeypatch, num_shards, hits, misses
):
    """Regression: the journal replay's lookups were charged to shard 0's
    row (292 / 193 at 1 shard, rows summing to 291 / 194 at 2), while
    the global figure subtracted them.  The global figures are pinned:
    zeroing the replay's counters gives what the run-start baseline gave."""
    report, _, _ = serve_resumed(tmp_path, monkeypatch, num_shards=num_shards)
    cache = report.invocation_cache_stats
    assert (cache["hits"], cache["misses"]) == (hits, misses)
    assert_shard_rows_add_up(report)


def test_a_resumed_report_counts_only_its_own_runs_traffic(tmp_path, monkeypatch):
    """A resume is the one run that starts with warm caches: its journal
    replay fetches through them.  The report counts the resumed run's own
    plan lookups, cache hits, misses and evictions, never the replay's."""
    report, sessions, served = serve_resumed(
        tmp_path, monkeypatch, num_shards=2, cache_size=32
    )
    assert served and len(served) < len(report.outcomes)
    runs = [
        report.outcomes[rid].plan_cached for rid in served
        if report.outcomes[rid].plan_cached is not None
    ]
    plan = report.plan_cache_stats
    assert plan["hits"] + plan["misses"] == len(runs) > 0
    assert plan["hits"] == sum(runs)
    cache = sessions.invocation_cache
    assert cache.stats.evictions > 0  # the bound really evicted
    for name in ("hits", "misses", "evictions"):
        assert report.invocation_cache_stats[name] == getattr(cache.stats, name)
        assert getattr(cache.stats, name) == sum(
            getattr(view, name) for view in cache.shard_stats
        )
    assert_shard_rows_add_up(report)


@pytest.mark.parametrize(
    "config",
    [
        dict(),
        dict(num_shards=4),
        dict(num_shards=4, cache_mode="private"),
        dict(num_shards=2, parallel=True, cache_mode="private"),
        dict(backend="asyncio"),
    ],
    ids=["plain", "4-shards", "4-private", "parallel", "asyncio"],
)
def test_every_reports_shard_rows_add_up(config):
    """Regression: the asyncio loop's shard row read ``completed 0`` in
    ``serving_metrics`` while 24 requests completed."""
    report = serve(
        ServeConfig(default_service_rate=4.0, **config),
        WorkloadConfig(num_requests=24, rate=2.0, seed=2009),
    )
    assert report.by_status() == {"completed": 24}
    assert report.plan_cache_stats is not None
    assert report.invocation_cache_stats is not None
    assert_shard_rows_add_up(report)


def test_a_parallel_reports_cache_figures_are_the_in_process_private_runs():
    """Regression: a worker-per-shard report carried no cache figures,
    though every worker counts its own caches.  Without stealing, which
    only the in-process run does, each worker's invocation cache sees what
    its shard's private cache sees in-process.  The plan cache is one per
    worker there and one per server in-process, so only its lookups
    agree."""
    stream = WorkloadConfig(num_requests=40, rate=2.0, seed=7)
    parallel, in_process = (
        serve(
            ServeConfig(
                default_service_rate=4.0, num_shards=4, cache_mode="private",
                steal=False, parallel=placement,
            ),
            stream,
        )
        for placement in (True, False)
    )
    assert parallel.invocation_cache_stats == in_process.invocation_cache_stats
    assert [row["invocation_cache"] for row in parallel.shard_stats] == [
        row["invocation_cache"] for row in in_process.shard_stats
    ]
    lookups = [
        report.plan_cache_stats["hits"] + report.plan_cache_stats["misses"]
        for report in (parallel, in_process)
    ]
    assert lookups[0] == lookups[1] > 0
    summary = serving_metrics_summary(parallel)
    cache = parallel.invocation_cache_stats
    assert summary["plan_cache_hit_rate"] == parallel.plan_cache_stats["hit_rate"]
    assert summary["invocation_cache_hit_rate"] == cache["hits"] / (
        cache["hits"] + cache["misses"]
    )


def test_private_mode_routes_sessions_to_per_shard_caches():
    report = serve_seeded(
        rate=2.0, num_requests=40, seed=7, num_shards=3, cache_mode="private",
    )
    digests = report.digests()
    # No global cache: the figure is the per-shard caches' sum.
    assert report.invocation_cache_stats is not None
    assert_shard_rows_add_up(report)
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


@pytest.mark.parametrize(
    "templates, pinned",
    [
        (lambda: default_templates(8), "4b5daaa994ba11a1"),
        (lambda: scenario_templates("all", 8), "79fe24b03d181050"),
    ],
    ids=["default-8", "all-8"],
)
def test_scaled_template_streams_are_pinned(templates, pinned):
    """The defaults and the packs scale through one ``_scale_template``;
    the 200-request streams of both at scale 8 are pinned."""
    stream = generate_workload(
        templates(), WorkloadConfig(num_requests=200, rate=2.0, seed=2009)
    )
    text = "\n".join(map(repr, stream))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == pinned


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
