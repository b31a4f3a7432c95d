"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``registry``  — print a built-in schema catalogue (marts, interfaces,
  patterns).
* ``plan``      — optimize a query and render the chosen fully
  instantiated plan, with optimizer statistics.
* ``run``       — optimize and execute a query on the simulator; print
  the top-k combinations and the call/time accounting.  ``--trace`` /
  ``--trace-format`` export the span tree (JSONL or Chrome
  ``trace_event`` JSON); ``--metrics json`` prints the unified metrics
  snapshot.  ``--backend asyncio`` executes the same plan with really
  concurrent service calls (digest-identical results, wall-clock
  overlap reported).
* ``explain``   — optimize, execute, and print the per-node explain
  tree: estimated vs. actual cardinality, calls, cache hits, probe
  counts, and bottleneck attribution.
* ``topologies``— enumerate the admissible topologies of a query.
* ``serve-bench`` — run the multi-query serving benchmark: the same
  seeded workload with and without plan/invocation sharing, reporting
  throughput, latency percentiles, and round-trip savings; ``--output``
  writes the full ``BENCH_serving.json`` report.  Exits nonzero when a
  sharing gate fails (shared mode issuing more round trips than
  isolated, or per-request results diverging), so CI can gate on it.
  ``--backend asyncio`` serves the same workload on the asyncio
  real-execution backend and gates per-request digests against the
  virtual scheduler's.  ``--scenario`` swaps the workload for a
  heterogeneous scenario pack; ``--checkpoint-every``/``--resume``
  turn the run into a durable serve with periodic checkpoints.
* ``scenarios`` — list the built-in scenario packs (schema, query,
  parameter universes) accepted by ``serve-bench --scenario``.
* ``checkpoint`` — run a query (optionally stopping mid-plan after
  ``--steps`` scheduler steps) and write the session to a checkpoint
  store.
* ``resume``    — restore a checkpointed session, finish any suspended
  interaction, and print the results; ``--list`` shows what a store
  holds.

``run`` exits 0 on success and, by default, also when execution
*degraded* (some services stayed down and results are best-effort
partial).  ``--strict`` turns degradation into exit code 3 with the
failed aliases on stderr — for scripts that must not mistake partial
answers for complete ones.

A malformed flag value (``--rates fast``, ``--shards 0``) exits 2 with
argparse's usage line naming the flag.  A ``serve-bench`` combination of
valid values that no run can honour (``--trace`` with two ``--rates``)
exits 1 with its rule's message.  A library error never reaches the
shell as a traceback: any :class:`~repro.errors.SearchComputingError` a
command lets through ends it with one line ``repro: <ErrorClass>:
<message>`` on stderr and exit code 2 (the query, schema or plan is
wrong, no plan exists, or the ``serve-bench`` flags describe no valid
``ServeConfig``), 4 (a checkpoint is corrupt, missing, of another
version or does not verify) or 1 (anything else, e.g. an execution
failure).  ``repro --traceback <command> ...`` re-raises instead.

Built-in schemas: ``movie`` (the running example), ``conference``
(Figs. 2/3), and the scenario-pack schemas ``travel``, ``shopping``,
and ``scholar``.  Custom queries are accepted with ``--query``; INPUT
bindings with repeated ``--input NAME=VALUE`` flags (values are parsed as
Python literals when possible, else kept as strings).
"""

from __future__ import annotations

import argparse
import ast as python_ast
import json
import math
import sys
from dataclasses import replace
from typing import Any

from repro.core.cost import DEFAULT_METRICS
from repro.core.optimizer import Optimizer, OptimizerConfig
from repro.core.topology import enumerate_topologies
from repro.engine.executor import execute_plan
from repro.engine.retry import RetryPolicy
from repro.errors import (
    CheckpointError,
    ExecutionError,
    OptimizationError,
    PlanError,
    QueryError,
    RetryExhaustedError,
    SchemaError,
    SearchComputingError,
)
from repro.obs.explain import build_explain
from repro.obs.export import TRACE_FORMATS, write_prometheus, write_trace
from repro.obs.metrics import snapshot_run
from repro.obs.serving import DEFAULT_SLO_THRESHOLDS as _DEFAULT_SLO
from repro.obs.serving import SloTracker, serving_metrics_summary
from repro.obs.tracer import NULL_TRACER, Tracer, wall_self_times
from repro.query.compile import compile_query
from repro.query.feasibility import enumerate_binding_choices
from repro.query.parser import parse_query
from repro.services.marts import (
    CONFERENCE_INPUTS,
    CONFERENCE_QUERY,
    RUNNING_EXAMPLE_INPUTS,
    RUNNING_EXAMPLE_QUERY,
    conference_trip_registry,
    movie_night_registry,
)
from repro.services.scenarios import SCENARIOS, scenario_names
from repro.services.simulated import FaultModel, ServicePool, SimulatedWorld

__all__ = ["main", "build_parser"]

_SCHEMAS = {
    "movie": (movie_night_registry, RUNNING_EXAMPLE_QUERY, RUNNING_EXAMPLE_INPUTS),
    "conference": (conference_trip_registry, CONFERENCE_QUERY, CONFERENCE_INPUTS),
}
# The scenario packs expose themselves as schemas too, so plan/run/
# explain/checkpoint work against the serving workloads' registries.
_SCHEMAS.update(
    (pack.schema, (pack.registry_factory, pack.query_text, pack.default_inputs))
    for pack in SCENARIOS.values()
)


def _parse_value(text: str) -> Any:
    try:
        return python_ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _load(args) -> tuple:
    registry_factory, default_query, default_inputs = _SCHEMAS[args.schema]
    registry = registry_factory()
    query_text = args.query or default_query
    inputs = dict(default_inputs)
    for binding in args.input or ():
        name, _, value = binding.partition("=")
        if not name or not value:
            raise SystemExit(f"--input needs NAME=VALUE, got {binding!r}")
        inputs[name.upper()] = _parse_value(value)
    compiled = compile_query(parse_query(query_text), registry)
    return registry, compiled, inputs, query_text


def _integer(text: str, low: int) -> int:
    """An integer ``low`` or more, for the argparse types below."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs an integer, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _at_least_one(text: str) -> int:
    """argparse type of a count: an integer, 1 or more."""
    return _integer(text, 1)


def _bound(text: str) -> int:
    """argparse type of an LRU bound: an integer, 0 (no bound) or more."""
    return _integer(text, 0)


def _at_least_zero(text: str) -> float:
    """argparse type of a rate or a scale: a finite number, 0 or more."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs a number, got {text!r}") from None
    if not (value >= 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text!r}"
        )
    return value


def _positive_numbers(text: str) -> tuple[float, ...]:
    """argparse type of a list: comma-separated numbers, each above 0
    (not NaN), at least one."""
    try:
        numbers = tuple(float(token) for token in text.split(",") if token.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"needs comma-separated numbers, got {text!r}"
        ) from None
    if not numbers:
        raise argparse.ArgumentTypeError("needs at least one number")
    if not all(number > 0 for number in numbers):  # NaN too
        raise argparse.ArgumentTypeError(f"needs positive numbers, got {text!r}")
    return numbers


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--schema",
        choices=sorted(_SCHEMAS),
        default="movie",
        help="built-in schema to use (default: movie)",
    )
    parser.add_argument("--query", help="query text (default: the schema's example)")
    parser.add_argument(
        "--input",
        action="append",
        metavar="NAME=VALUE",
        help="bind an INPUT variable (repeatable)",
    )
    parser.add_argument(
        "--metric",
        choices=sorted(DEFAULT_METRICS),
        default="execution-time",
        help="cost metric to optimize (default: execution-time)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        help="anytime expansion budget (default: run to exhaustion)",
    )


def _add_backend(parser: argparse.ArgumentParser) -> None:
    """Execution-backend knobs (shared by ``run``, ``explain``, ``serve-bench``)."""
    backend = parser.add_argument_group("execution backend")
    backend.add_argument(
        "--backend",
        choices=("virtual", "asyncio"),
        default="virtual",
        help="virtual: deterministic discrete-event simulation (default); "
        "asyncio: really concurrent service calls on an event loop — "
        "same results, real wall-clock overlap",
    )
    backend.add_argument(
        "--time-scale",
        type=_at_least_zero,
        default=0.001,
        help="asyncio backend: wall seconds slept per virtual second of "
        "simulated latency (default: 0.001)",
    )


def _add_execution(parser: argparse.ArgumentParser) -> None:
    """Simulator/fault knobs shared by ``run`` and ``explain``."""
    parser.add_argument("--seed", type=int, default=2009, help="simulator seed")
    parser.add_argument(
        "--fetch-boost",
        type=_at_least_one,
        default=1,
        help="multiply every fetch factor (ask for more results)",
    )
    parser.add_argument(
        "--invocation-cache-size",
        type=_bound,
        default=1024,
        metavar="N",
        help="LRU bound on memoised service invocations; 0 disables the "
        "bound (default: 1024)",
    )
    faults = parser.add_argument_group("fault injection & retries")
    faults.add_argument(
        "--failure-rate",
        type=float,
        default=0.0,
        help="per-call transient failure probability (default: 0)",
    )
    faults.add_argument(
        "--timeout-rate",
        type=float,
        default=0.0,
        help="per-call slow-response probability (default: 0)",
    )
    faults.add_argument(
        "--slow-factor",
        type=float,
        default=10.0,
        help="latency multiplier for slow calls (default: 10)",
    )
    faults.add_argument(
        "--outage",
        action="append",
        metavar="INTERFACE",
        help="mark an interface permanently down (repeatable)",
    )
    faults.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="attempts per service call before giving up (default: 3)",
    )
    faults.add_argument(
        "--backoff",
        type=float,
        default=0.5,
        help="base backoff before a retry, in virtual seconds (default: 0.5)",
    )
    faults.add_argument(
        "--call-timeout",
        type=float,
        help="per-call timeout in virtual seconds (default: none)",
    )
    faults.add_argument(
        "--degradation",
        choices=("fail", "partial"),
        default="fail",
        help="on exhausted retries: abort (fail) or return best-effort "
        "partial results (default: fail)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (exposed for shell-completion tooling)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Search Computing: multi-domain query optimization & execution",
    )
    parser.add_argument(
        "--traceback",
        action="store_true",
        help="let a library error propagate with its traceback instead of "
        "the one-line 'repro: <ErrorClass>: <message>' and an exit code",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    registry_cmd = commands.add_parser("registry", help="print a schema catalogue")
    registry_cmd.add_argument(
        "--schema", choices=sorted(_SCHEMAS), default="movie"
    )

    plan_cmd = commands.add_parser("plan", help="optimize and render a plan")
    _add_common(plan_cmd)

    run_cmd = commands.add_parser("run", help="optimize and execute a query")
    _add_common(run_cmd)
    _add_execution(run_cmd)
    _add_backend(run_cmd)
    run_cmd.add_argument(
        "--strict",
        action="store_true",
        help="exit with code 3 (and print the degraded aliases to stderr) "
        "when execution completes but some services stayed down",
    )
    telemetry = run_cmd.add_argument_group("observability")
    telemetry.add_argument(
        "--trace",
        metavar="PATH",
        help="record a span trace of the run and write it to PATH "
        "('-' for stdout)",
    )
    telemetry.add_argument(
        "--trace-format",
        choices=TRACE_FORMATS,
        default="jsonl",
        help="trace encoding: one span per line (jsonl) or Chrome "
        "trace_event JSON loadable in Perfetto (default: jsonl)",
    )
    telemetry.add_argument(
        "--metrics",
        choices=("json",),
        help="print the unified metrics snapshot (optimizer + executor + "
        "call log) in the given format",
    )

    explain_cmd = commands.add_parser(
        "explain",
        help="optimize, execute, and print the per-node explain tree",
    )
    _add_common(explain_cmd)
    _add_execution(explain_cmd)
    _add_backend(explain_cmd)

    topo_cmd = commands.add_parser(
        "topologies", help="enumerate admissible plan topologies"
    )
    _add_common(topo_cmd)

    serve_cmd = commands.add_parser(
        "serve-bench",
        help="benchmark the multi-query serving runtime "
        "(shared vs. isolated caches)",
    )
    serve_cmd.add_argument(
        "--requests", type=_at_least_one, default=40, help="requests per load level"
    )
    serve_cmd.add_argument(
        "--rates",
        type=_positive_numbers,
        default=(0.5, 2.0),
        help="comma-separated arrival rates (requests per virtual second)",
    )
    serve_cmd.add_argument("--seed", type=int, default=2009, help="workload/data seed")
    serve_cmd.add_argument(
        "--service-rate",
        type=_at_least_zero,
        default=4.0,
        help="per-service token-bucket rate in calls per virtual second; "
        "0 disables rate limiting (default: 4)",
    )
    serve_cmd.add_argument(
        "--shards",
        type=_at_least_one,
        metavar="N",
        help="serve on N scheduler shards (consistent-hash partitioned "
        "sessions, merged deterministic timeline) instead of the "
        "shared-vs-isolated comparison",
    )
    serve_cmd.add_argument(
        "--steal",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="work stealing between shards (default: on)",
    )
    serve_cmd.add_argument(
        "--shared-cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="one cross-shard invocation cache (default) vs. a private "
        "cache per shard (--no-shared-cache)",
    )
    serve_cmd.add_argument(
        "--parallel",
        action="store_true",
        help="run each shard in a real worker process, each with its own "
        "(private) caches whatever --shared-cache says (combine with "
        "--backend asyncio for wall-clock concurrency inside workers)",
    )
    serve_cmd.add_argument(
        "--scenario",
        choices=scenario_names(),
        default="default",
        help="workload scenario: the chapter's two example schemas "
        "(default), one named pack, or 'all' five schemas mixed into "
        "one arrival stream (see `repro scenarios`)",
    )
    serve_cmd.add_argument(
        "--plan-cache-size",
        type=int,
        metavar="N",
        help="LRU bound on the shared plan cache (default: unbounded)",
    )
    serve_cmd.add_argument(
        "--gates",
        choices=("hard", "all"),
        default="hard",
        help="which benchmark gates make the exit code nonzero: the "
        "correctness gates only (hard: identical results, sharing never "
        "costs round trips) or every reported gate including the "
        "performance ones (all)",
    )
    serve_cmd.add_argument(
        "--output",
        metavar="PATH",
        help="write the full benchmark report as JSON to PATH",
    )
    observability = serve_cmd.add_argument_group("observability")
    observability.add_argument(
        "--artifacts-dir",
        default="artifacts",
        metavar="DIR",
        help="directory relative observability artifact paths (--trace, "
        "--metrics-output, --prom, --output) are placed under; created "
        "on demand (default: artifacts)",
    )
    observability.add_argument(
        "--trace",
        metavar="PATH",
        help="record request span trees and write the trace to PATH "
        "('-' for stdout); needs a single --rates value",
    )
    observability.add_argument(
        "--trace-format",
        choices=TRACE_FORMATS,
        default="jsonl",
        help="trace encoding: one span per line (jsonl) or Chrome "
        "trace_event JSON loadable in Perfetto, one swimlane per shard "
        "(default: jsonl)",
    )
    observability.add_argument(
        "--metrics",
        choices=("json",),
        help="print the serving metrics snapshot (counters, gauges, "
        "latency histograms, SLO) as JSON on stdout",
    )
    observability.add_argument(
        "--metrics-output",
        metavar="PATH",
        help="write the metrics snapshot JSON to PATH (readable by "
        "`repro serve-report --metrics PATH`)",
    )
    observability.add_argument(
        "--prom",
        metavar="PATH",
        help="write the metrics in Prometheus text exposition format "
        "to PATH",
    )
    observability.add_argument(
        "--slo-thresholds",
        type=_positive_numbers,
        default=_DEFAULT_SLO,
        metavar="S1,S2,...",
        help="comma-separated latency SLO thresholds in virtual seconds "
        f"(default: {','.join(f'{t:g}' for t in _DEFAULT_SLO)})",
    )
    durability = serve_cmd.add_argument_group("durability")
    durability.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="serve durably, checkpointing every N terminal requests "
        "(0 disables; needs --checkpoint-dir and a single rate)",
    )
    durability.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="checkpoint store directory for durable serving",
    )
    durability.add_argument(
        "--resume",
        action="store_true",
        help="resume from the newest checkpoint in --checkpoint-dir "
        "(serves the whole workload from scratch when none exists)",
    )
    _add_backend(serve_cmd)

    scenarios_cmd = commands.add_parser(
        "scenarios",
        help="list the scenario packs accepted by serve-bench --scenario",
    )
    scenarios_cmd.add_argument(
        "--registry",
        action="store_true",
        help="also print each pack's full schema catalogue",
    )

    checkpoint_cmd = commands.add_parser(
        "checkpoint",
        help="run a query (optionally stopping mid-plan) and checkpoint "
        "the session",
    )
    _add_common(checkpoint_cmd)
    checkpoint_cmd.add_argument(
        "--seed", type=int, default=2009, help="simulator seed"
    )
    checkpoint_cmd.add_argument(
        "--steps",
        type=_at_least_one,
        metavar="N",
        help="advance the run only N scheduler steps, then checkpoint "
        "the suspended mid-plan state (default: run to completion)",
    )
    checkpoint_cmd.add_argument(
        "--dir", required=True, help="checkpoint store directory"
    )
    checkpoint_cmd.add_argument(
        "--key", default="session", help="checkpoint key (default: session)"
    )

    resume_cmd = commands.add_parser(
        "resume",
        help="restore a checkpointed session and finish the run",
    )
    resume_cmd.add_argument(
        "--dir", required=True, help="checkpoint store directory"
    )
    resume_cmd.add_argument(
        "--key",
        help="checkpoint key to restore (default: the newest in the store)",
    )
    resume_cmd.add_argument(
        "--list",
        action="store_true",
        help="list the store's checkpoints instead of restoring",
    )

    serve_report_cmd = commands.add_parser(
        "serve-report",
        help="summarise a serving trace: outcome mix, latency quantiles, "
        "request-time attribution, per-shard balance, SLO violations",
    )
    serve_report_cmd.add_argument(
        "--trace",
        required=True,
        metavar="PATH",
        help="JSONL span trace written by `serve-bench --trace PATH`",
    )
    serve_report_cmd.add_argument(
        "--metrics",
        metavar="PATH",
        help="metrics snapshot JSON written by `serve-bench "
        "--metrics-output PATH` (adds cache hit rates, queue peaks, SLO)",
    )
    return parser


def _cmd_registry(args) -> int:
    registry_factory, _, _ = _SCHEMAS[args.schema]
    print(registry_factory().describe())
    return 0


def _optimize(args, tracer=NULL_TRACER):
    with tracer.span("compile.query", schema=args.schema) as span:
        registry, compiled, inputs, query_text = _load(args)
        span.set("aliases", len(compiled.aliases))
    config = OptimizerConfig(
        metric=DEFAULT_METRICS[args.metric],
        budget=args.budget,
    )
    outcome = Optimizer(compiled, config, tracer=tracer).optimize()
    if outcome.best is None:
        raise SystemExit("no feasible plan found")
    return registry, compiled, inputs, query_text, outcome


def _cmd_plan(args) -> int:
    _, _, _, query_text, outcome = _optimize(args)
    best = outcome.best
    print(f"query:   {query_text}")
    print(
        f"metric:  {args.metric}  cost: {best.cost:.2f}  "
        f"estimated results: {best.estimated_results:.1f}"
    )
    print(
        f"search:  {outcome.stats.expanded} expanded, "
        f"{outcome.stats.pruned} pruned, {outcome.stats.leaves} plans priced"
    )
    print(f"fetches: {best.fetch_vector()}")
    print()
    print(best.render())
    return 0


def _execute(args, registry, compiled, inputs, best, tracer=NULL_TRACER, world=None):
    """Run ``best`` on the simulator (over ``world``, when the caller wants
    its counters afterwards); returns ``(exit_code, result)``."""
    fetches = {
        alias: factor * args.fetch_boost
        for alias, factor in best.fetch_vector().items()
    }
    for name in args.outage or ():
        if not registry.has_interface(name):
            print(
                f"error: --outage: unknown interface {name!r} "
                f"(known: {', '.join(registry.interface_names)})",
                file=sys.stderr,
            )
            return 2, None
    try:
        fault_model = FaultModel.uniform(
            failure_rate=args.failure_rate,
            timeout_rate=args.timeout_rate,
            slow_factor=args.slow_factor,
        )
        if args.outage:
            fault_model = fault_model.with_outage(*args.outage)
        retry = RetryPolicy(
            max_attempts=args.max_attempts,
            base_backoff=args.backoff,
            call_timeout=args.call_timeout,
        )
    except SearchComputingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None
    pool = ServicePool(
        registry, global_seed=args.seed, fault_model=fault_model, world=world
    )
    options: dict[str, Any] = {
        "retry": retry,
        "degradation": args.degradation,
        "invocation_cache_size": args.invocation_cache_size or None,
        "tracer": tracer,
    }
    if args.backend == "asyncio":
        from repro.engine.async_runner import run_plan_async as run

        options["time_scale"] = args.time_scale
    else:
        run = execute_plan
        tracer.bind_clock(pool.clock)
    try:
        result = run(best.plan, compiled, pool, inputs, fetches, **options)
    except RetryExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "hint: raise --max-attempts or use --degradation partial "
            "for best-effort results",
            file=sys.stderr,
        )
        return 1, None
    return 0, result


_LABEL_KEYS = (
    "Title", "Name", "HName", "CName", "Airline",
    "EName", "PName", "PTitle", "AName", "VName", "Reviewer",
)


def _print_combos(tuples) -> None:
    for rank, combo in enumerate(tuples, start=1):
        parts = []
        for alias in sorted(combo.aliases):
            values = combo.component(alias).values
            label = next(
                (
                    str(values[key])
                    for key in _LABEL_KEYS
                    if values.get(key) is not None
                ),
                "?",
            )
            parts.append(f"{alias}={label}")
        print(f"  {rank:2d}. score={combo.score:.3f}  " + "  ".join(parts))


def _cmd_run(args) -> int:
    tracer = Tracer() if args.trace else NULL_TRACER
    registry, compiled, inputs, _, outcome = _optimize(args, tracer)
    best = outcome.best
    code, result = _execute(args, registry, compiled, inputs, best, tracer)
    if code:
        return code
    print(
        f"{result.total_calls} service calls, "
        f"{result.execution_time:.2f} virtual seconds, "
        f"{len(result.tuples)} combinations"
    )
    if result.backend == "asyncio":
        serial = result.log.total_latency() * args.time_scale
        speedup = serial / result.wall_time if result.wall_time > 0 else 0.0
        print(
            f"backend asyncio: {result.wall_time:.3f}s wall "
            f"(serial would sleep {serial:.3f}s; {speedup:.2f}x overlap)"
        )
    failed = result.log.failed_calls()
    if failed or result.incomplete:
        print(
            f"faults: {failed} failed calls, {result.log.retries()} retries, "
            f"{result.log.retry_overhead():.2f}s retry overhead"
        )
    if result.incomplete:
        print(
            "WARNING: results are incomplete — services down for aliases "
            + ", ".join(result.failed_aliases)
        )
    _print_combos(result.tuples)
    _write_trace(args, tracer)
    if args.metrics == "json":
        snapshot = snapshot_run(
            outcome.stats,
            result,
            best_cost=best.cost,
            estimated_results=best.estimated_results,
        )
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    if args.strict and result.incomplete:
        print(
            "strict: execution degraded — services down for aliases "
            + ", ".join(result.failed_aliases),
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_explain(args) -> int:
    registry, compiled, inputs, query_text, outcome = _optimize(args)
    best = outcome.best
    world = SimulatedWorld(registry, args.seed)
    code, result = _execute(args, registry, compiled, inputs, best, world=world)
    if code:
        return code
    print(f"query:   {query_text}")
    print(
        f"metric:  {args.metric}  cost: {best.cost:.2f}  "
        f"estimated results: {best.estimated_results:.1f}"
    )
    stats, phase2 = outcome.stats, outcome.phase2
    # Priced / built / materialised over the whole optimization: the
    # search takes over the warm start's children, so its own share can
    # read 0.
    plans = phase2.plans_materialised
    print(
        f"search:  {stats.expanded} expanded, {stats.pruned} pruned "
        f"({stats.moves_bounded} bounded before building), "
        f"{phase2.children_priced} children priced, "
        f"{phase2.children_built} built, "
        f"{plans} plan{'' if plans == 1 else 's'} materialised"
    )
    print()
    report = build_explain(
        best.plan, best.annotations, result, world=world.stats.as_dict()
    )
    print(report.render())
    return 0


def _obs_requested(args) -> bool:
    """Did any serve-bench observability flag ask for telemetry output?"""
    return bool(
        args.trace or args.metrics or args.metrics_output or args.prom
    )


def _resolve_artifact_paths(args) -> None:
    """Place relative artifact paths under ``--artifacts-dir``.

    Applies to serve-bench's ``--trace``/``--metrics-output``/``--prom``/
    ``--output``: a bare filename like ``serve-trace.jsonl`` lands in the
    artifacts directory instead of littering the repository root.
    Absolute paths and ``-`` (stdout) pass through untouched; the
    directory is created on first use.
    """
    import os

    directory = getattr(args, "artifacts_dir", None)
    if not directory:
        return
    for attr in ("trace", "metrics_output", "prom", "output"):
        path = getattr(args, attr, None)
        if not path or path == "-" or os.path.isabs(path):
            continue
        os.makedirs(directory, exist_ok=True)
        setattr(args, attr, os.path.join(directory, path))


def _write_trace(args, tracer, label: str = "repro") -> None:
    """Write ``tracer``'s spans where ``--trace`` says (``-``: stdout)."""
    if not args.trace:
        return
    if args.trace == "-":
        write_trace(tracer.spans, sys.stdout, fmt=args.trace_format, label=label)
        return
    write_trace(tracer.spans, args.trace, fmt=args.trace_format, label=label)
    own = sorted(wall_self_times(tracer.spans).items(), key=lambda item: -item[1])
    wall = ", ".join(f"{name} {seconds * 1e3:.1f}" for name, seconds in own[:3])
    where = f"{args.trace} ({args.trace_format})"
    print(f"trace: {len(tracer.spans)} spans -> {where}; wall self ms: {wall}")


def _write_obs_artifacts(
    args, tracer, metrics, slo, *, serving=None, label="serve"
) -> None:
    """Emit the requested --trace/--metrics/--prom artifacts."""
    _write_trace(args, tracer, label)
    if args.metrics or args.metrics_output:
        payload: dict[str, Any] = {"metrics": metrics.snapshot()}
        if slo is not None:
            payload["slo"] = slo.snapshot()
        if serving is not None:
            payload["serving"] = serving
        if args.metrics == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        if args.metrics_output:
            with open(args.metrics_output, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            print(f"metrics -> {args.metrics_output}")
    if args.prom:
        write_prometheus(metrics, args.prom, slo=slo)
        print(f"prometheus -> {args.prom}")


def _serve_durable(args) -> bool:
    return bool(args.checkpoint_every or args.resume)


#: The serve-bench flag combinations no ``ServeConfig`` can see, checked in
#: order: (violated(args), message).  The first violated row ends the
#: command with its message on stderr and exit status 1.
_SERVE_FLAG_RULES = (
    (
        lambda args: _obs_requested(args) and len(args.rates) != 1,
        "--trace/--metrics/--prom take exactly one --rates value "
        "(one run, one trace)",
    ),
    (
        lambda args: _serve_durable(args) and len(args.rates) != 1,
        "durable serving (--checkpoint-every/--resume) takes exactly "
        "one --rates value",
    ),
    (
        lambda args: _serve_durable(args) and not args.checkpoint_dir,
        "--checkpoint-every/--resume need --checkpoint-dir",
    ),
    (
        lambda args: args.shards and args.parallel and _obs_requested(args),
        "--trace/--metrics/--prom need the in-process runtime (drop --parallel)",
    ),
)

#: mode -> (benchmark name, (reference label, subject label), the gate
#: that says the two runs' digests matched, title).
_SERVE_MODES = {
    "plain": ("serving", ("isolated", "shared"), "results_identical",
              "serving benchmark"),
    "sharded": ("serve-sharded", ("1-shard", "sharded"), "results_identical",
                "sharded serving"),
    "observed": ("serve-observed", ("untraced", "traced"),
                 "trace_noninterference", "observed serving"),
    "asyncio": ("serving-asyncio", ("virtual", "asyncio"), "results_identical",
                "async serving"),
    "durable": ("serve-durable", ("", "durable"), None, "durable serving"),
}


def _serve_configs(args):
    """serve-bench flags -> ``(mode, subject, reference)``.

    The one place argparse becomes a :class:`~repro.serve.ServeConfig`:
    ``subject`` is the run the flags ask for, ``reference`` the run its
    digests are gated against (``None``: a durable run is gated on its
    outcome mix alone).  A durable or sharded subject takes ``--backend``
    and ``--parallel`` as given, so ``ServeConfig`` refuses what it
    cannot run; every reference runs in-process on the virtual backend.
    """
    from repro.serve import ServeConfig
    from repro.serve.workload import scenario_templates

    observed = _obs_requested(args)
    sharing = "shared" if args.shared_cache else "isolated"
    base = ServeConfig(
        templates=scenario_templates(args.scenario),
        data_seed=args.seed,
        default_service_rate=args.service_rate or None,
        plan_cache_size=args.plan_cache_size,
        time_scale=args.time_scale,
    )
    if _serve_durable(args):
        subject = replace(
            base,
            backend=args.backend,
            parallel=args.parallel,
            num_shards=args.shards or 1,
            cache_mode=sharing,
            sample_metrics=observed,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
        )
        return "durable", subject, None
    if args.shards:
        base = replace(
            base,
            num_shards=args.shards,
            steal=args.steal,
            cache_mode="shared" if args.shared_cache else "private",
        )
        subject = replace(
            base, backend=args.backend, parallel=args.parallel,
            sample_metrics=observed,
            # A worker process owns its caches: nothing is shared across them.
            cache_mode="private" if args.parallel else base.cache_mode,
        )
        if observed:
            return "observed", subject, base
        return "sharded", subject, replace(base, num_shards=1, steal=False)
    if args.backend == "asyncio":
        return "asyncio", replace(base, backend="asyncio"), base
    if observed:
        base = replace(base, cache_mode=sharing)
        return "observed", replace(base, sample_metrics=True), base
    return "plain", base, replace(base, cache_mode="isolated")


def _print_serve_level(args, subject, labels, level, baseline, report) -> None:
    """One load level of serve-bench output, whatever the mode."""
    print(f"rate {level['rate']:g} req/s:")
    for label in labels:
        summary = level.get(label)
        if summary is not None:
            print(
                f"  {label:9s} round trips {summary['total_round_trips']:5d}  "
                f"throughput {summary['throughput']:.3f}/s  "
                f"latency p50 {summary['latency_p50']:7.2f}  "
                f"p95 {summary['latency_p95']:7.2f}  "
                f"p99 {summary['latency_p99']:7.2f}"
            )
    completed = len(report.completed())
    if subject.backend == "asyncio" and not subject.parallel:
        wall = report.makespan * subject.time_scale
        print(
            f"  {completed} completed in {wall:.3f}s wall "
            f"({completed / wall if wall else 0.0:.1f} req/s)"
        )
    for outcome in report.outcomes.values():
        if outcome.status == "failed":
            request = outcome.request
            print(f"  request {request.request_id} ({request.kind}): {outcome.error}")
    if report.num_shards > 1:
        steals = report.metrics.counters.get("serve.steals")
        print(f"  steals {int(steals.value) if steals else 0}")
        for stats in report.shard_stats:
            cache = stats.get("invocation_cache")
            print(
                f"  shard {stats['shard']}: started {stats['started']:4d}  "
                f"completed {stats['completed']:4d}  "
                f"steals {stats['steals']:3d}  "
                f"max queue {stats['max_queue_depth']:4d}"
                + (f"  cache hit rate {cache['hit_rate']:.1%}" if cache else "")
            )
    info = report.durability
    if info is not None:
        if info["resumed"]:
            print(
                f"  resumed from {info['resume_key']}: "
                f"{info['pre_terminal']} already terminal, "
                f"{info['restored_sessions']} sessions restored, "
                f"{info['served']} served now"
            )
        elif args.resume:
            print("  no checkpoint found — served from scratch")
        print(
            f"  checkpoints: {info['checkpoints_written']} written "
            f"(every {args.checkpoint_every or 'n/a'} terminals) "
            f"-> {args.checkpoint_dir}"
        )
        if info["telemetry_replayed"]:
            print(
                f"  telemetry: {info['telemetry_replayed']} pre-crash "
                "outcomes replayed into the trace/metrics"
            )
    print(
        f"  completed {completed}, statuses {report.by_status()}, "
        f"combined digest {level['combined_digest'][:16]}"
    )
    print(f"  cyclic garbage {report.cyclic_garbage} (the serving loop makes none)")
    if baseline is not None:
        print(
            f"  {labels[1]} vs {labels[0]}: round trips "
            f"{-level['round_trip_reduction']:+.1%}; results identical: "
            f"{level['results_identical']}"
        )


def _cmd_serve_bench(args) -> int:
    """Every serve-bench mode: reference run, subject run, digest gate,
    print, ``--output`` — once."""
    from repro.serve import WorkloadConfig
    from repro.serve.bench import benchmark_report, compare_serving, sharing_gates
    from repro.serve.scheduler import MAX_CONCURRENCY

    for violated, message in _SERVE_FLAG_RULES:
        if violated(args):
            raise SystemExit(message)
    try:  # flags no ServeConfig takes: usage, before anything is written
        mode, subject, reference = _serve_configs(args)
        workload = WorkloadConfig(
            num_requests=args.requests,
            seed=args.seed,
            session_space=max(WorkloadConfig.session_space, args.requests),
        )
    except ExecutionError as refused:
        return _refuse(args, refused, 2)
    _resolve_artifact_paths(args)
    name, labels, identity_gate, title = _SERVE_MODES[mode]
    observed = _obs_requested(args)
    tracer = Tracer() if observed else None
    slo = SloTracker(thresholds=args.slo_thresholds) if observed else None
    print(
        f"{title}: {args.requests} requests per rate, seed {args.seed}, "
        f"concurrency {MAX_CONCURRENCY}, scenario {args.scenario}, "
        f"{subject.num_shards} shard(s), "
        f"cache {subject.cache_mode}, steal {'on' if subject.steal else 'off'}"
        + (f", parallel ({subject.backend} workers)" if subject.parallel else "")
        + (f", time scale {subject.time_scale:g}" if subject.backend == "asyncio" else "")
    )
    last = []  # the latest level's subject report: artifacts read it live

    def on_level(level, baseline, report) -> None:
        last[:] = [report]
        _print_serve_level(args, subject, labels, level, baseline, report)

    levels = compare_serving(
        subject,
        workload,
        reference=reference,
        load_levels=args.rates,
        labels=labels,
        tracer=tracer,
        slo=slo,
        on_level=on_level,
    )
    (report,) = last
    by_status = report.by_status()
    if mode == "plain":
        gates = sharing_gates(levels)
    elif reference is not None:
        gates = {identity_gate: all(level["results_identical"] for level in levels)}
    else:
        # No reference to compare with: failed or rejected requests
        # surface as a nonzero exit so crash/resume drills can gate on it.
        failures = by_status.get("failed", 0) + by_status.get("rejected", 0)
        gates = {"all_completed": failures == 0}
    for gate, passed in sorted(gates.items()):
        print(f"gate {gate}: {'PASS' if passed else 'FAIL'}")
    payload = benchmark_report(name, subject, workload, args.rates, levels, gates)
    payload.update(
        requests=args.requests,
        scenario=args.scenario,
        default_service_rate=subject.default_service_rate,
        by_status=by_status,
    )
    if report.durability is not None:
        payload.update(
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            info=report.durability,
        )
    if observed:
        state = payload["slo"] = slo.snapshot()
        payload["spans"] = len(tracer.spans)
        violation_bits = ", ".join(
            f">{key}s {entry['fraction']:.1%}"
            for key, entry in state["violations"].items()
        )
        print(f"slo: {state['count']} observed; violations {violation_bits}")
        _write_obs_artifacts(
            args,
            tracer,
            report.metrics,
            slo,
            serving=serving_metrics_summary(report),
            label="serve" if mode == "observed" else name,
        )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"report -> {args.output}")
    hard = {identity_gate, "shared_never_more_round_trips", "all_completed"}
    failed = sorted(
        gate
        for gate, passed in gates.items()
        if not passed and (args.gates == "all" or gate in hard)
    )
    if failed:
        print(f"gate failure ({args.gates}): " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def _cmd_serve_report(args) -> int:
    """Render the post-run bottleneck summary from trace artifacts."""
    from repro.obs.serving import load_trace_jsonl, render_serve_report

    try:
        spans = load_trace_jsonl(args.trace)
    except OSError as exc:
        raise SystemExit(f"cannot read trace {args.trace!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"{args.trace!r} is not a JSONL span trace ({exc}); "
            "serve-report reads --trace-format jsonl output"
        )
    metrics = slo = None
    if args.metrics:
        try:
            with open(args.metrics, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise SystemExit(f"cannot read metrics {args.metrics!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise SystemExit(
                f"{args.metrics!r} is not a metrics snapshot JSON ({exc})"
            )
        metrics = payload.get("metrics", payload)
        slo = payload.get("slo")
    print(
        render_serve_report(spans, metrics=metrics, slo=slo),
        end="",
    )
    return 0


def _cmd_scenarios(args) -> int:
    print(
        "scenario packs (serve-bench --scenario NAME; 'default' is the "
        "chapter's two schemas, 'all' mixes everything):"
    )
    for name in sorted(SCENARIOS):
        pack = SCENARIOS[name]
        print(f"\n{name}: {pack.description}")
        print(f"  schema:  {pack.schema}")
        print(f"  query:   {pack.query_text}")
        print(
            "  inputs:  "
            + ", ".join(
                f"{key}={value!r}"
                for key, value in sorted(pack.default_inputs.items())
            )
        )
        space = {
            key: len(values) for key, values in pack.parameter_space.items()
        }
        print(
            f"  workload: parameter universe {space}, "
            f"{len(pack.rerank_weights)} rerank presets"
        )
        if args.registry:
            print()
            print(pack.registry_factory().describe())
    return 0


def _cmd_checkpoint(args) -> int:
    from repro.durability import CheckpointStore
    from repro.engine.liquid import LiquidQuerySession

    registry, compiled, inputs, query_text, outcome = _optimize(args)
    pool = ServicePool(registry, global_seed=args.seed)
    session = LiquidQuerySession(
        candidate=outcome.best,
        query=compiled,
        pool=pool,
        inputs=dict(inputs),
    )
    if args.steps is not None:
        stepper = session.steps("run")
        taken = 0
        try:
            for _ in range(args.steps):
                next(stepper)
                taken += 1
        except StopIteration:
            pass
    else:
        session.run()
    payload = session.checkpoint(
        schema=args.schema, query_text=query_text, metric=args.metric
    )
    store = CheckpointStore(args.dir)
    path = store.save(args.key, payload)
    print(f"checkpoint {args.key!r} -> {path}")
    print(
        f"  schema {args.schema}, clock {pool.clock.now:.2f}, "
        f"{pool.log.total_calls()} service calls"
    )
    inflight = session.inflight_interaction
    if inflight is not None:
        print(
            f"  mid-plan: {inflight['kind']!r} suspended after "
            f"{taken} of --steps {args.steps} scheduler steps"
        )
    else:
        print(
            f"  quiescent: {len(session.interaction_journal)} completed "
            "interaction(s)"
        )
    return 0


def _cmd_resume(args) -> int:
    from repro.durability import CheckpointStore, restore_session
    from repro.serve.bench import result_digest

    store = CheckpointStore(args.dir)
    if args.list:
        keys = store.keys()
        if not keys:
            print(f"no checkpoints in {args.dir}")
            return 0
        for key in keys:
            payload = store.load(key)
            if payload.get("kind") == "serve":
                print(
                    f"{key}: serving checkpoint, "
                    f"{len(payload.get('outcomes', {}))} terminal requests, "
                    f"{len(payload.get('sessions', {}))} live sessions"
                )
            else:
                print(
                    f"{key}: session checkpoint, schema "
                    f"{payload.get('schema')!r}, version "
                    f"{payload.get('version')}"
                )
        return 0
    key = args.key or store.latest()
    if key is None:
        print(f"error: no checkpoints in {args.dir}", file=sys.stderr)
        return 2
    payload = store.load(key)
    if payload.get("kind") == "serve":
        print(
            f"{key} is a serving checkpoint "
            f"({len(payload.get('outcomes', {}))} terminal requests); "
            "resume it with: repro serve-bench --resume --checkpoint-dir "
            f"{args.dir} ..."
        )
        return 2
    session = restore_session(payload)
    if session.pending_stepper is not None:
        stepper = session.pending_stepper
        steps = 0
        try:
            while True:
                next(stepper)
                steps += 1
        except StopIteration as stop:
            results = stop.value
        print(f"resumed {key!r} mid-plan: {steps} further scheduler steps")
    else:
        results = session.run()
        print(f"resumed {key!r} at a quiescent interaction boundary")
    pool = session.pool
    print(
        f"  schema {payload.get('schema')!r}, clock {pool.clock.now:.2f}, "
        f"{pool.log.total_calls()} service calls"
    )
    print(
        f"  {len(results)} combinations, "
        f"digest {result_digest(results)[:16]}"
    )
    _print_combos(results)
    return 0


def _cmd_topologies(args) -> int:
    _, compiled, _, _ = _load(args)
    total = 0
    for index, choice in enumerate(enumerate_binding_choices(compiled)):
        deps = choice.dependencies_over(compiled.aliases)
        pipes = {a: sorted(d) for a, d in deps.items() if d}
        print(f"binding choice #{index}: pipe dependencies {pipes or 'none'}")
        for plan in enumerate_topologies(compiled, {}, choice):
            total += 1
            print(f"--- topology {total} ---")
            print(plan.render())
    print(f"\n{total} distinct topologies")
    return 0


#: Exit code per error family (first match); any other library error is 1.
_EXIT_CODES = (
    ((QueryError, SchemaError, PlanError, OptimizationError), 2),
    (CheckpointError, 4),
)


def _refuse(args, exc: SearchComputingError, code: int) -> int:
    """End a command on a library error: one stderr line and ``code``
    (``--traceback``: re-raise)."""
    if args.traceback:
        raise exc
    print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "registry": _cmd_registry,
        "plan": _cmd_plan,
        "run": _cmd_run,
        "explain": _cmd_explain,
        "topologies": _cmd_topologies,
        "serve-bench": _cmd_serve_bench,
        "serve-report": _cmd_serve_report,
        "scenarios": _cmd_scenarios,
        "checkpoint": _cmd_checkpoint,
        "resume": _cmd_resume,
    }
    try:
        return handlers[args.command](args)
    except SearchComputingError as exc:
        code = next(
            (code for family, code in _EXIT_CODES if isinstance(exc, family)), 1
        )
        return _refuse(args, exc, code)
    except BrokenPipeError:  # e.g. `python -m repro ... | head`
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - module CLI shim
    sys.exit(main())
