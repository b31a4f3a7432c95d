"""The wall-clock ledger: five workloads, end-to-end and per-layer metrics.

Two ways in:

* **one run** — ``python3 benchmarks/e2e/run.py --workload NAME --seed N
  --seconds S --trace 0|1`` measures one workload in this process and
  prints, as its last line, one JSON object ``{correct, attempted, failed,
  metrics}``: the end-to-end metrics with ``--trace 0``, the per-layer
  metrics with ``--trace 1`` (the contract ``BENCHMARK.json`` records);
* **the suite** — without ``--trace``, every workload (or the one named)
  is run both ways, each in a fresh subprocess, one at a time; every
  metric is printed by name with its unit and ``--json OUT`` keeps the
  report.  ``--compare A.json B.json`` judges two reports against the
  bounds; ``--check-repeat`` runs the suite twice and compares the two.

Exit status is non-zero on any correctness failure, any ``worse`` row, or
a missing entry point.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent
if str(E2E_DIR) not in sys.path:
    sys.path.insert(0, str(E2E_DIR))

import compare  # noqa: E402
import entrypoints  # noqa: E402
from layers import PER_LAYER, layer_metrics, percentile, ratio  # noqa: E402
from trace import (  # noqa: E402
    RequestClock,
    Tracer,
    self_ms_by_layer,
    tracing,
    write_trace,
)
from workloads import ARTIFACTS, WORKLOADS, Batch  # noqa: E402

SPEC = json.loads((entrypoints.ROOT / "BENCHMARK.json").read_text())
BASELINE = E2E_DIR / "baseline.json"

#: A batch whose CPU time is under this share of its wall time was
#: descheduled for the rest: it measured the machine, so it is re-run.
MIN_CPU_SHARE = 0.9
MAX_RETRIES = 2
MIN_BATCHES = 3

#: Seconds the calibration loop takes on the box the baseline was taken on,
#: undisturbed.  Wall metrics are scaled by ``REFERENCE_SPIN_S / spin``
#: measured beside each batch, i.e. reported at that box's speed.
REFERENCE_SPIN_S = 0.0288


def spin() -> float:
    """Seconds for a fixed piece of interpreter work: the host's speed now.

    The shared box this runs on slows by 10-20 % for seconds at a time
    (measured: the same 80-request batch between 0.95 and 1.6 s, this loop
    moving with it), which medians within one run cannot remove; scaling
    each batch by the loop beside it took the run-to-run spread of
    ``ops_per_s`` from 8 % to 4 %.  Pure arithmetic, no allocation: a loop
    that builds dicts and lists is itself bimodal and adds noise.
    """
    started = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i % 7
    return time.perf_counter() - started


def speed(*spins: float) -> float:
    """Factor that scales a wall time measured beside ``spins`` to reference speed."""
    return REFERENCE_SPIN_S / statistics.fmean(spins)


# -- one run --------------------------------------------------------------------


class Run:
    """One workload, set up and measured in this process."""

    def __init__(self, name: str, seed: int, scale: float) -> None:
        self.last_spin = spin()
        self.reference: dict | None = None
        self.mismatches: list[str] = []
        self.retries = 0
        self.setup_raw_s = self.setup_s = 0.0
        self.clock: RequestClock | None = None
        # Each stage of set-up is scaled by the calibration loops on either
        # side of it, like a batch.
        with self._setup_stage():
            self.ep = entrypoints.load()
        with self._setup_stage():
            self.workload = WORKLOADS[name](self.ep, seed, scale)
            self.workload.prepare()
            if self.workload.op == "request":
                self.clock = RequestClock()
        # The inputs stay alive for the whole run: keep them out of every
        # later garbage collection, so a batch pays for collecting what the
        # program allocates, not for rescanning what the benchmark built.
        gc.collect()
        gc.freeze()
        warm_up, _ = self.batch(None)  # discarded; its outputs are still checked
        self.setup_raw_s += warm_up["wall_raw_s"]
        self.setup_s += warm_up["wall_s"]

    @contextmanager
    def _setup_stage(self):
        before, started = self.last_spin, time.perf_counter()
        yield
        raw = time.perf_counter() - started
        self.last_spin = spin()
        self.setup_raw_s += raw
        self.setup_s += raw * speed(before, self.last_spin)

    def batch(self, tracer: Tracer | None) -> tuple[dict, Batch]:
        """Run one batch, again if the machine interfered.

        Returns the batch's record (numbers only, kept for the whole run)
        and the workload's :class:`Batch` (reports and result rows, which
        the caller drops once the per-layer metrics are read).
        """
        for attempt in range(MAX_RETRIES + 1):
            record, result = self._batch_once(tracer)
            if record["cpu_share"] >= MIN_CPU_SHARE:
                break
            if attempt < MAX_RETRIES:
                self.retries += 1
        record["disturbed"] = record["cpu_share"] < MIN_CPU_SHARE
        return record, result

    def _batch_once(self, tracer: Tracer | None) -> tuple[dict, Batch]:
        workload, ep = self.workload, self.ep
        context, mark = nullcontext(), lambda label: nullcontext()
        if tracer is not None:
            tracer.spans.clear()
            tracer.counts.clear()
            context = tracing(ep, tracer)
            mark = lambda label: tracer.span("bench.op", label)  # noqa: E731
        elif self.clock is not None:
            self.clock.seconds.clear()
            context = self.clock.installed(ep)
        spin_before = self.last_spin
        with context:  # installing the wrappers is not part of the batch
            wall_start, cpu_start = time.perf_counter(), time.process_time()
            with tracer.span("bench.batch") if tracer is not None else nullcontext():
                result = workload.batch(mark)
            wall = time.perf_counter() - wall_start
            cpu = time.process_time() - cpu_start
        self.last_spin = spin()
        factor = speed(spin_before, self.last_spin)
        if self.reference is None:
            self.reference = result.exact
        elif result.exact != self.reference:
            self.mismatches.append("outputs differ between batches of one run")
        if self.clock is not None and tracer is None:
            seconds = list(self.clock.seconds.values())
        else:
            seconds = [wall for _, wall in result.samples]
        record = {
            "ops": result.ops,
            "failed": result.failed,
            "wall_raw_s": wall,
            "wall_s": wall * factor,
            "cpu_share": cpu / wall,
            "spin_s": statistics.fmean((spin_before, self.last_spin)),
            "op_ms": [s * factor * 1e3 for s in seconds],
        }
        return record, result

    def check_pins(self, pins: dict) -> None:
        """Compare this run's outputs with the pinned ones, where they apply."""
        pinned = pins.get(self.workload.name)
        if pinned is None or pinned["scale"] != self.workload.scale:
            return
        for key, value in pinned["exact"].items():
            # Result digests hold on every seed; virtual latencies and round
            # trips follow the seed's arrival schedule.
            if key != "digest" and pinned["seed"] != self.workload.seed:
                continue
            if self.reference.get(key) != value:
                self.mismatches.append(
                    f"{key} is {self.reference.get(key)!r}, pinned {value!r}"
                )


def child_setup_seconds(name: str, seed: int, scale: float) -> float:
    """Set the workload up once more in a fresh process; its setup seconds."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--scale", str(scale), "--setup-only"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def load_pins(path: Path) -> dict:
    if not path.exists():
        return {}
    report = json.loads(path.read_text())
    return {
        name: {
            "seed": report["seed"],
            "scale": report["scale"],
            "exact": entry["exact"],
        }
        for name, entry in report["workloads"].items()
    }


def measure(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    scale: float = 1.0,
    setup_reps: int = 3,
    pins: dict | None = None,
) -> dict:
    """One run of one workload; the full record (``metrics`` is the contract's)."""
    run = Run(name, seed, scale)
    try:
        return _measure(run, seconds, traced, setup_reps, pins or {})
    finally:
        gc.unfreeze()


def _measure(
    run: Run, seconds: float, traced: bool, setup_reps: int, pins: dict
) -> dict:
    name, seed, scale = run.workload.name, run.workload.seed, run.workload.scale
    setups = [run.setup_s] + [
        child_setup_seconds(name, seed, scale) for _ in range(setup_reps - 1)
    ]
    tracer = Tracer() if traced else None
    plain: list[dict] = []
    traces: list[dict] = []
    layer_rows: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    # A traced run alternates plain and traced batches, so the tracing
    # overhead is a difference of neighbours, not of separate runs.
    while len(plain) < (1 if traced else MIN_BATCHES) or time.perf_counter() < deadline:
        plain.append(run.batch(None)[0])
        if traced:
            record, result = run.batch(tracer)
            traces.append(record)
            # Overhead from the calibrated walls: the two batches are seconds
            # apart, which is long enough for the machine to change speed.
            overhead = record["wall_s"] / plain[-1]["wall_s"] - 1.0
            layer_rows.append(
                layer_metrics(tracer, result, record["wall_raw_s"], overhead)
            )
    run.check_pins(pins)
    records = plain + traces
    attempted = sum(r["ops"] for r in records)
    failed = attempted if run.mismatches else sum(r["failed"] for r in records)
    detail = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "op": run.workload.op,
        "ops_per_batch": plain[0]["ops"],
        "batches": len(plain),
        "traced_batches": len(traces),
        "retries": run.retries,
        "disturbed": sum(r["disturbed"] for r in records),
        "mismatches": run.mismatches,
        "exact": dict(run.reference or {}),
        "failed_share": ratio(failed, attempted),
        "setup_raw_s": run.setup_raw_s,
        "spin_ms": statistics.median(r["spin_s"] for r in records) * 1e3,
        "batch_wall_raw_s": [r["wall_raw_s"] for r in plain],
        "batch_spin_ms": [r["spin_s"] * 1e3 for r in plain],
    }
    if traced:
        metrics = {
            metric: statistics.median(row[metric] for row in layer_rows)
            for metric in PER_LAYER
        }
        units = PER_LAYER
        metrics["failed_share"] = detail["failed_share"]
        p50s = [percentile(r["op_ms"], 0.5) for r in plain]
        metrics["op_ms_p50"] = statistics.median(p50s)
        detail["samples"] = {"op_ms_p50": p50s}
        detail["self_ms_by_layer"] = self_ms_by_layer(tracer.spans)
        write_trace(
            ARTIFACTS / f"{name}.trace.json", name, tracer.spans, tracer.counts,
            detail["self_ms_by_layer"],
        )
        detail["traced_wall_ms"] = traces[-1]["wall_raw_s"] * 1e3
    else:
        rates = [r["ops"] / r["wall_s"] for r in plain]
        p95s = [percentile(r["op_ms"], 0.95) for r in plain]
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": statistics.median(rates),
            # The slowest twentieth is a few ops per batch: pooled over the
            # run, a slow stretch of the machine would own the tail.
            "op_ms_p95": statistics.median(p95s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        # What --compare needs to tell a shift from the spread of one run.
        detail["samples"] = {
            "setup_s": setups,
            "ops_per_s": rates,
            "op_ms_p95": p95s,
            "peak_rss_mb": [metrics["peak_rss_mb"]],
        }
        detail["op_samples"] = sum(len(r["op_ms"]) for r in plain)
        detail["ops_per_s_raw"] = statistics.median(
            r["ops"] / r["wall_raw_s"] for r in plain
        )
    return {
        "correct": not run.mismatches and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
        "detail": detail,
    }


# -- the suite --------------------------------------------------------------------


def run_in_subprocess(name: str, args: argparse.Namespace, traced: bool) -> dict:
    """One run in a fresh process; its contract line plus its detail line."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--scale", str(args.scale), "--trace", str(int(traced)),
        "--baseline", str(args.baseline),
    ]
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if len(lines) < 2:
        raise SystemExit(
            f"{name} (trace {int(traced)}) printed no result, exit "
            f"{done.returncode}:\n{done.stderr}"
        )
    record = json.loads(lines[-1])
    record["detail"] = json.loads(lines[-2])["detail"]
    return record


def run_suite(args: argparse.Namespace) -> dict:
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    report = {"seed": args.seed, "scale": args.scale, "seconds": args.seconds,
              "workloads": {}}
    for name in names:
        plain = run_in_subprocess(name, args, traced=False)
        traced = run_in_subprocess(name, args, traced=True)
        entry = {
            "why": WORKLOADS[name].why,
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "exact": plain["detail"]["exact"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "detail": {"plain": plain["detail"], "traced": traced["detail"]},
        }
        if plain["detail"]["exact"] != traced["detail"]["exact"]:
            entry["correct"] = False
            entry["failed"] = entry["attempted"]
        report["workloads"][name] = entry
        print_entry(name, entry)
    return report


def print_entry(name: str, entry: dict) -> None:
    plain, traced = entry["detail"]["plain"], entry["detail"]["traced"]
    print(f"\n== {name}: {entry['why']}")
    print(
        f"   {plain['batches']} batches x {plain['ops_per_batch']} {plain['op']}s"
        f" (seed {plain['seed']}, scale {plain['scale']}),"
        f" {plain['op_samples']} op samples, {plain['retries']} retries,"
        f" {plain['disturbed']} disturbed, calibration {plain['spin_ms']:.1f} ms;"
        f" {'CORRECT' if entry['correct'] else 'FAILED'}"
        f" ({entry['failed']}/{entry['attempted']} failed)"
    )
    for problem in plain["mismatches"] + traced["mismatches"]:
        print(f"   MISMATCH: {problem}")
    print("   end to end (tracing off):")
    for metric, cell in entry["end_to_end"].items():
        print(f"     {metric:<44} {cell['value']:>14.4f} {cell['unit']}")
    for metric in compare.other_end_to_end(plain["op"]):
        cell = entry["per_layer"][metric]
        print(f"     {metric:<44} {cell['value']:>14.4f} {cell['unit']}")
    print(f"   per layer (traced batch, {traced['traced_batches']} batches):")
    for metric, cell in entry["per_layer"].items():
        if metric not in compare.OTHER_END_TO_END:
            print(f"     {metric:<44} {cell['value']:>14.4f} {cell['unit']}")
    layers = traced["self_ms_by_layer"]
    shares = ", ".join(
        f"{layer} {ms / traced['traced_wall_ms']:.1%}" for layer, ms in layers.items()
    )
    print(f"   self time by layer (last traced batch): {shares}")


# -- command line -------------------------------------------------------------------


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one run in this process: 0 end-to-end, 1 per-layer")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every batch size (smoke runs)")
    parser.add_argument("--baseline", type=Path, default=BASELINE,
                        help="report whose outputs are pinned (a missing file pins nothing)")
    parser.add_argument("--json", type=Path, help="write the suite report here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if args.compare:
        first, second = (json.loads(path.read_text()) for path in args.compare)
        return compare.report(first, second, SPEC)
    if args.setup_only:
        run = Run(args.workload, args.seed, args.scale)
        print(json.dumps({"setup_s": run.setup_s}))
        return 0
    if args.trace is not None:
        if args.workload == "all":
            raise SystemExit("--trace needs one --workload")
        record = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.scale, pins=load_pins(args.baseline),
        )
        detail = record.pop("detail")
        for problem in detail["mismatches"]:
            print(f"MISMATCH: {problem}", file=sys.stderr)
        print(json.dumps({"detail": detail}))
        print(json.dumps(record))
        return 0 if record["correct"] else 1
    report = run_suite(args)
    status = 0 if all(e["correct"] for e in report["workloads"].values()) else 1
    if args.check_repeat:
        again = run_suite(args)
        status = max(status, compare.report(report, again, SPEC, same_commit=True))
    if args.json:
        args.json.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
