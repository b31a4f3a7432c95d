"""Benchmark harness: run the suite and emit ``BENCH_optimizer.json``.

Usage::

    PYTHONPATH=src python benchmarks/harness.py            # full run
    PYTHONPATH=src python benchmarks/harness.py --smoke    # CI: fast + JSON

The harness has two jobs:

* run the pytest-benchmark suite (every ``bench_*.py`` experiment, E01
  onwards) so its shape assertions gate regressions;
* collect the optimizer/join hot-path numbers from
  :mod:`bench_optimizer_hotpath` — wall time, expansions/sec, nodes
  deduped/dominated, annotation node evaluations, joined-pairs probed vs
  produced — and serialise them to a JSON report.

``--smoke`` skips the full suite sweep and measures with a single repeat:
a fast validity check (used by CI) that still exercises every hot-path
layer and writes well-formed JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

for path in (str(ROOT / "src"), str(BENCH_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)


def run_suite() -> dict:
    """Run every bench_*.py experiment through pytest; report the outcome."""
    started = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            str(BENCH_DIR),
            "-q",
            "-p",
            "no:cacheprovider",
            "--benchmark-disable",
        ],
        cwd=ROOT,
        env={
            **__import__("os").environ,
            "PYTHONPATH": str(ROOT / "src"),
        },
        capture_output=True,
        text=True,
    )
    wall = time.perf_counter() - started
    tail = "\n".join(proc.stdout.strip().splitlines()[-3:])
    return {
        "ran": True,
        "exit_status": proc.returncode,
        "wall_seconds": round(wall, 2),
        "summary": tail,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast validity run: single repeat, no full suite sweep",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=ROOT / "BENCH_optimizer.json",
        help="where to write the JSON report (default: BENCH_optimizer.json)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repeats per configuration; best-of is reported",
    )
    args = parser.parse_args(argv)

    from bench_optimizer_hotpath import collect_hotpath_metrics
    from bench_trace_overhead import (
        MAX_NOOP_SHARE,
        collect_trace_overhead,
        overhead_gates,
    )

    repeats = 1 if args.smoke else args.repeats
    metrics = collect_hotpath_metrics(repeats=repeats)
    observability = collect_trace_overhead(repeats=repeats)

    payload = {
        "benchmark": "optimizer & join hot-path (ISSUE-2 tentpole)",
        "smoke": args.smoke,
        "repeats": repeats,
        "workloads": {
            name: metrics[name]
            for name in ("movie_night", "conference_trip", "star6")
        },
        "join_kernel": metrics["join_kernel"],
        "suite": {"ran": False},
    }
    if not args.smoke:
        payload["suite"] = run_suite()
    payload["gates"] = {
        **{
            f"{name}_{gate}": row[gate]
            for name, row in payload["workloads"].items()
            for gate in ("identical_plan", "node_evals_per_child_gate")
        },
        "join_kernel_identical_output": payload["join_kernel"]["identical_output"],
    }

    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    obs_payload = {
        "benchmark": "observability: no-op tracer overhead (ISSUE-4)",
        "smoke": args.smoke,
        "repeats": repeats,
        "fig10": observability,
        "gates": overhead_gates(observability),
    }
    obs_output = args.output.parent / "BENCH_observability.json"
    obs_output.write_text(
        json.dumps(obs_payload, indent=2, sort_keys=True) + "\n"
    )
    fig10 = payload["workloads"]["movie_night"]
    print(f"wrote {args.output}")
    print(f"wrote {obs_output}")
    print(
        f"tracer: {observability['spans_recorded_when_enabled']} spans when "
        f"enabled; disabled-path overhead "
        f"{observability['noop_overhead_share']:.3%} of fig10 wall "
        f"(gate <{MAX_NOOP_SHARE:.0%}), traced run identical: "
        f"{observability['traced_run_identical']}"
    )
    print(
        f"fig10: {fig10['wall_speedup']}x wall, "
        f"{fig10['node_evals_reduction']}x fewer node evals, "
        f"{fig10['optimized']['expansions_per_second']} expansions/s, "
        f"deduped {fig10['optimized']['nodes_deduped']}, "
        f"dominated {fig10['optimized']['nodes_dominated']}"
    )
    execution = fig10["execution_join"]
    cache = execution["invocation_cache"]
    print(
        f"fig10 execution: {execution['pairs_probed']} pairs probed, "
        f"invocation cache hit rate {cache['hit_rate']:.0%} "
        f"({cache['hits']}/{cache['hits'] + cache['misses']})"
    )
    kernel = payload["join_kernel"]
    print(
        f"join kernel: probed {kernel['hash_indexed']['pairs_probed']} "
        f"(hash) vs {kernel['nested_loop']['pairs_probed']} (nested), "
        f"produced {kernel['hash_indexed']['pairs_produced']}"
    )
    if payload["suite"]["ran"] and payload["suite"]["exit_status"] != 0:
        print("benchmark suite FAILED:", file=sys.stderr)
        print(payload["suite"]["summary"], file=sys.stderr)
        return 1
    failed = [
        f"{report}.{name}"
        for report, document in (("optimizer", payload), ("observability", obs_payload))
        for name, passed in document["gates"].items()
        if passed is not True
    ]
    if failed:
        print(f"gates FAILED: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
