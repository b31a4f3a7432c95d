"""E-SERVE — Multi-query serving: sharing vs. isolation under load.

The chapter's experiments run one query at a time; the ROADMAP's north
star is a system serving heavy concurrent traffic.  This bench drives
the serving runtime (``repro.serve``) with the same seeded workload —
movie-night and conference-trip templates, Zipf-skewed parameters,
``more``/``rerank``/``resubmit`` follow-ups — at several arrival rates,
twice per rate: **isolated** (every request plans and fetches alone) and
**shared** (one plan cache + one cross-query invocation cache).

Guarantees exercised (the acceptance gates of ISSUE 5):

* per-request results are byte-identical in both modes — sharing changes
  *work*, never *answers*;
* shared mode issues strictly fewer service round trips;
* shared mode improves p95 virtual-time latency;
* the whole comparison is deterministic under the seed.

Run standalone (``python benchmarks/bench_serving.py``) to (re)generate
``BENCH_serving.json`` at the repo root; the exit code reflects the
gates, which is what the CI smoke job checks.
"""

import pytest

from conftest import report

from repro.serve import (
    ServeConfig,
    WorkloadConfig,
    default_templates,
    run_serving_benchmark,
)

SEED = 2009
NUM_REQUESTS = 40
LOAD_LEVELS = (0.5, 2.0)
#: The benchmark posture: an effectively unbounded queue (both modes must
#: complete every request to stay per-request comparable), 4 calls/s per
#: service.
POSTURE = ServeConfig(data_seed=SEED, queue_limit=1_000_000, default_service_rate=4.0)


def collect_serving(num_requests=NUM_REQUESTS, load_levels=LOAD_LEVELS):
    return run_serving_benchmark(
        POSTURE,
        WorkloadConfig(num_requests=num_requests, seed=SEED),
        load_levels=load_levels,
    )


def test_eserve_sharing_vs_isolation(benchmark):
    def once():
        return collect_serving(num_requests=16, load_levels=(1.0,))

    benchmark.pedantic(once, rounds=3, iterations=1)

    result = collect_serving()
    gates = result["gates"]

    # The headline safety property: identical per-request answers.
    assert gates["results_identical"]
    # The headline win: strictly fewer round trips, better tail latency.
    assert gates["shared_never_more_round_trips"]
    assert gates["shared_strictly_fewer_round_trips"]
    assert gates["shared_improves_p95_latency"]

    # Determinism: a replay reproduces the report bit-for-bit.
    assert collect_serving() == result

    rows = []
    for level in result["levels"]:
        isolated, shared = level["isolated"], level["shared"]
        assert isolated["by_status"] == shared["by_status"]
        for mode, summary in (("isolated", isolated), ("shared", shared)):
            rows.append(
                f"rate={level['rate']:<4} {mode:<9} "
                f"calls={summary['total_round_trips']:4d}  "
                f"thr={summary['throughput']:.3f}/s  "
                f"p50={summary['latency_p50']:7.2f}  "
                f"p95={summary['latency_p95']:7.2f}  "
                f"p99={summary['latency_p99']:7.2f}"
            )
        rows.append(
            f"          sharing saves {level['round_trip_reduction']:.1%} "
            f"round trips; results identical: {level['results_identical']}"
        )
        benchmark.extra_info[f"rate={level['rate']}"] = {
            "calls_isolated": isolated["total_round_trips"],
            "calls_shared": shared["total_round_trips"],
            "p95_isolated": round(level["p95_latency_isolated"], 2),
            "p95_shared": round(level["p95_latency_shared"], 2),
            "identical": level["results_identical"],
        }

    report(
        f"E-SERVE shared vs. isolated serving (seed {SEED}, "
        f"{NUM_REQUESTS} requests/level)",
        rows,
    )


def test_eserve_plan_cache_reuses_optimizer_work():
    result = collect_serving(num_requests=20, load_levels=(1.0,))
    shared = result["levels"][0]["shared"]
    plan_cache = shared["plan_cache"]
    # Two templates -> two optimizer searches; every other run/resubmit
    # reuses a cached plan.
    assert plan_cache["misses"] == 2
    assert plan_cache["hits"] > 0
    isolated = result["levels"][0]["isolated"]
    assert isolated["plan_cache"] is None


def test_eserve_invocation_sharing_is_the_round_trip_saver():
    result = collect_serving(num_requests=20, load_levels=(1.0,))
    shared = result["levels"][0]["shared"]
    cache = shared["invocation_cache"]
    assert cache["hits"] > 0
    assert cache["entries"] <= cache["misses"]


if __name__ == "__main__":  # pragma: no cover - standalone report shim
    import argparse
    import json
    import pathlib
    import sys

    parser = argparse.ArgumentParser(
        description=(
            "Serving benchmarks. Without --shards: the PR 4 shared-vs-"
            "isolated comparison (BENCH_serving.json). With --shards: the "
            "sharded-runtime shard-count sweep (BENCH_sharding.json)."
        )
    )
    parser.add_argument(
        "--shards",
        help="comma-separated shard counts to sweep, e.g. 1,2,4,8",
    )
    parser.add_argument("--requests", type=int, default=100_000)
    parser.add_argument("--rate", type=float, default=4.0)
    parser.add_argument("--session-space", type=int, default=1_000_000)
    parser.add_argument(
        "--param-scale",
        type=int,
        default=2,
        help=(
            "multiply each template parameter universe (head options stay "
            "most popular) so the shared cache's Zipf tail keeps issuing "
            "real service traffic at scale"
        ),
    )
    parser.add_argument(
        "--no-steal", action="store_true", help="disable work stealing"
    )
    parser.add_argument(
        "--smoke-gates",
        action="store_true",
        help=(
            "enforce only the scale-independent gates (digest equality + "
            "p95 monotonically improving) — for scaled-down CI runs where "
            "the superlinear ratios have no room to develop"
        ),
    )
    parser.add_argument("--output", help="override the output JSON path")
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    if args.shards:
        from repro.serve import run_sharding_benchmark

        shard_counts = tuple(
            int(part) for part in args.shards.split(",") if part
        )
        from dataclasses import replace

        payload = run_sharding_benchmark(
            replace(
                POSTURE,
                templates=default_templates(args.param_scale),
                steal=not args.no_steal,
            ),
            WorkloadConfig(
                num_requests=args.requests,
                rate=args.rate,
                seed=SEED,
                session_space=max(args.session_space, args.requests),
            ),
            shard_counts=shard_counts,
        )
        payload["param_scale"] = args.param_scale
        out = pathlib.Path(args.output) if args.output else (
            root / "BENCH_sharding.json"
        )
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
        for run in payload["runs"]:
            print(
                f"  {run['label']:<18} p95={run['latency_p95']:9.2f}  "
                f"round_trips={run['total_round_trips']:8d}  "
                f"steals={run['steals']:5d}  digest={run['digest'][:12]}"
            )
        for name, value in sorted(payload["ratios"].items()):
            print(f"  ratio {name}: {value:.2f}x")
        gates = dict(payload["gates"])
        if args.smoke_gates:
            gates = {
                name: gates[name]
                for name in ("digests_identical", "p95_improves_with_shards")
                if name in gates
            }
        for name, passed in sorted(gates.items()):
            print(f"gate {name}: {'PASS' if passed else 'FAIL'}")
        sys.exit(0 if all(gates.values()) else 1)

    payload = collect_serving()
    out = pathlib.Path(args.output) if args.output else (
        root / "BENCH_serving.json"
    )
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    gates = payload["gates"]
    for name, passed in sorted(gates.items()):
        print(f"gate {name}: {'PASS' if passed else 'FAIL'}")
    sys.exit(0 if all(gates.values()) else 1)
