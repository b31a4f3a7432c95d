"""E23 — Durability: crash-resume equivalence, scenario packs, cassettes.

The serving runtime now claims to survive a SIGKILL without changing a
single answer.  This bench drives the three durability gates end to end:

* **crash-resume** — serve a seeded workload with periodic checkpoints,
  SIGKILL the worker subprocess right after a checkpoint publishes,
  resume from the surviving checkpoint, and require the merged
  per-request digests to be byte-identical to an uninterrupted run;
* **scenario packs** — each heterogeneous pack (travel, shopping,
  scholar, and the all-schema mix) serves digest-identically across
  shard counts;
* **cassette replay** — a recorded run under fault injection replays
  deterministically: same digests, same virtual clock, same call log,
  twice.

Run standalone (``python benchmarks/bench_durability.py``) to
(re)generate ``BENCH_durability.json`` at the repo root; ``--smoke``
shrinks the workloads to CI size.  The exit code reflects the gates.
"""

from __future__ import annotations

from conftest import report

from repro.durability import run_crash_resume, serve_workload_durable
from repro.serve import ServeConfig, WorkloadConfig, serve
from repro.serve.bench import combined_digest
from repro.serve.sharding import serve_workload_sharded
from repro.serve.workload import scenario_templates

SEED = 2009
PACKS = ("travel", "shopping", "scholar", "all")
#: The benchmark posture: an effectively unbounded queue, 4 calls/s per service.
POSTURE = ServeConfig(data_seed=SEED, queue_limit=1_000_000, default_service_rate=4.0)


def collect_crash_resume(num_requests=300, checkpoint_every=25, kill_after=2):
    from dataclasses import replace

    return run_crash_resume(
        replace(POSTURE, checkpoint_every=checkpoint_every),
        WorkloadConfig(num_requests=num_requests, rate=4.0, seed=SEED),
        kill_after_checkpoints=kill_after,
    )


def collect_scenario_sweep(num_requests=60, shard_counts=(1, 2, 4)):
    """Digest equality across shard counts, one row per scenario pack."""
    rows = []
    for scenario in PACKS:
        templates = scenario_templates(scenario)
        digests = {}
        round_trips = {}
        for shards in shard_counts:
            report_obj, shard_digests = serve_workload_sharded(
                rate=4.0,
                num_requests=num_requests,
                seed=SEED,
                num_shards=shards,
                templates=templates,
            )
            digests[shards] = shard_digests
            round_trips[shards] = report_obj.total_round_trips
        reference = digests[shard_counts[0]]
        rows.append(
            {
                "scenario": scenario,
                "num_requests": num_requests,
                "shard_counts": list(shard_counts),
                "round_trips": {str(k): v for k, v in round_trips.items()},
                "combined_digest": combined_digest(reference),
                "identical_across_shards": all(
                    digests[shards] == reference for shards in shard_counts
                ),
            }
        )
    return rows


def collect_cassette_replay():
    """Record one faulty run, replay twice; everything must match."""
    from repro.core.optimizer import Optimizer, OptimizerConfig
    from repro.engine.executor import execute_plan
    from repro.engine.retry import RetryPolicy
    from repro.query.compile import compile_query
    from repro.query.parser import parse_query
    from repro.serve.bench import result_digest
    from repro.services.marts import (
        RUNNING_EXAMPLE_INPUTS,
        RUNNING_EXAMPLE_QUERY,
        movie_night_registry,
    )
    from repro.services.recorded import Cassette, RecordedPool
    from repro.services.simulated import FaultModel

    registry = movie_night_registry()
    compiled = compile_query(parse_query(RUNNING_EXAMPLE_QUERY), registry)
    best = Optimizer(compiled, OptimizerConfig()).optimize().best
    retry = RetryPolicy(max_attempts=4, base_backoff=0.2)

    def run(pool):
        return execute_plan(
            best.plan, compiled, pool, dict(RUNNING_EXAMPLE_INPUTS),
            best.fetch_vector(), retry=retry,
        )

    cassette = Cassette()
    record_pool = RecordedPool(
        registry, cassette, mode="record", global_seed=SEED,
        fault_model=FaultModel.uniform(failure_rate=0.15),
    )
    recorded = run(record_pool)
    outcomes = []
    for _ in range(2):
        replay_pool = RecordedPool(
            registry, cassette, mode="replay", global_seed=SEED
        )
        replayed = run(replay_pool)
        outcomes.append(
            (
                result_digest(replayed.tuples),
                replay_pool.clock.now,
                len(replay_pool.log.records),
            )
        )
    expected = (
        result_digest(recorded.tuples),
        record_pool.clock.now,
        len(record_pool.log.records),
    )
    return {
        "keys_recorded": len(cassette.recordings),
        "recorded_digest": expected[0],
        "deterministic": all(outcome == expected for outcome in outcomes),
    }


def test_e23_crash_resume_equivalence(benchmark):
    def once():
        return collect_crash_resume(
            num_requests=120, checkpoint_every=15, kill_after=1
        )

    result = benchmark.pedantic(once, rounds=1, iterations=1)
    assert result["gates"]["worker_killed"], result["worker_stderr_tail"]
    assert result["gates"]["checkpoint_survived"]
    assert result["gates"]["digests_equal"]
    benchmark.extra_info["surviving_checkpoints"] = len(
        result["surviving_checkpoints"]
    )
    report(
        f"E23 crash-resume (seed {SEED})",
        [
            f"baseline digest {result['baseline_digest'][:16]}  "
            f"resumed digest {result['resumed_digest'][:16]}",
            f"worker returncode {result['worker_returncode']} (SIGKILL), "
            f"{len(result['surviving_checkpoints'])} surviving checkpoints",
        ],
    )


def test_e23_scenario_packs_shard_invariant(benchmark):
    def once():
        return collect_scenario_sweep(num_requests=30, shard_counts=(1, 2))

    rows = benchmark.pedantic(once, rounds=1, iterations=1)
    assert all(row["identical_across_shards"] for row in rows)
    report(
        "E23 scenario packs × shard counts",
        [
            f"{row['scenario']:<9} digest {row['combined_digest'][:16]}  "
            f"identical={row['identical_across_shards']}"
            for row in rows
        ],
    )


def test_e23_cassette_replay_deterministic():
    outcome = collect_cassette_replay()
    assert outcome["deterministic"]
    assert outcome["keys_recorded"] > 0


def test_e23_checkpointing_preserves_digests():
    import tempfile

    plain = serve(
        POSTURE, WorkloadConfig(num_requests=40, rate=4.0, seed=SEED)
    ).digests()
    with tempfile.TemporaryDirectory() as tmp:
        _, durable, info = serve_workload_durable(
            rate=4.0, num_requests=40, seed=SEED,
            checkpoint_dir=tmp, checkpoint_every=10,
        )
    assert durable == plain
    assert info["checkpoints_written"] > 0


if __name__ == "__main__":  # pragma: no cover - standalone report shim
    import argparse
    import json
    import pathlib
    import sys

    parser = argparse.ArgumentParser(
        description=(
            "Durability benchmark: crash-resume equivalence, scenario-pack "
            "shard invariance, cassette replay (BENCH_durability.json)."
        )
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized workloads (hundreds of requests, 2 shard counts)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        help="crash-resume workload size (default: 2000, smoke: 300)",
    )
    parser.add_argument(
        "--output",
        default=str(pathlib.Path(__file__).resolve().parent.parent
                    / "BENCH_durability.json"),
    )
    args = parser.parse_args()

    if args.smoke:
        crash_requests = args.requests or 300
        checkpoint_every = 25
        sweep_requests, shard_counts = 40, (1, 2)
    else:
        crash_requests = args.requests or 2_000
        checkpoint_every = 100
        sweep_requests, shard_counts = 200, (1, 2, 4)

    crash = collect_crash_resume(
        num_requests=crash_requests,
        checkpoint_every=checkpoint_every,
        kill_after=2,
    )
    sweep = collect_scenario_sweep(
        num_requests=sweep_requests, shard_counts=shard_counts
    )
    cassette = collect_cassette_replay()

    gates = {
        "worker_killed": crash["gates"]["worker_killed"],
        "checkpoint_survived": crash["gates"]["checkpoint_survived"],
        "crash_resume_digests_equal": crash["gates"]["digests_equal"],
        "scenario_packs_shard_invariant": all(
            row["identical_across_shards"] for row in sweep
        ),
        "cassette_replay_deterministic": cassette["deterministic"],
    }
    payload = {
        "benchmark": "durability",
        "seed": SEED,
        "smoke": args.smoke,
        "crash_resume": crash,
        "scenario_sweep": sweep,
        "cassette": cassette,
        "gates": gates,
    }
    out_path = pathlib.Path(args.output)
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {out_path}")
    for name, passed in sorted(gates.items()):
        print(f"gate {name}: {'PASS' if passed else 'FAIL'}")
    sys.exit(0 if all(gates.values()) else 1)
