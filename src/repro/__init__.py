"""Search Computing reproduction: join methods and query optimization.

Public API (the names a downstream user needs):

>>> from repro import parse_query, compile_query, optimize_query, execute_plan
>>> from repro.services import movie_night_registry, RUNNING_EXAMPLE_QUERY

Subpackages:

* :mod:`repro.model` -- service marts, interfaces, scoring, tuples.
* :mod:`repro.query` -- query language, compilation, feasibility.
* :mod:`repro.plans` -- query-plan DAG model.
* :mod:`repro.joins` -- join search space, strategies, methods, top-k.
* :mod:`repro.core` -- cost metrics, annotation, branch-and-bound optimizer.
* :mod:`repro.engine` -- dataflow execution over simulated services.
* :mod:`repro.obs` -- tracing on virtual time, metrics, trace exporters,
  and the query-explain surface.
* :mod:`repro.serve` -- multi-query serving runtime: workload
  generation, cooperative scheduling, plan cache, cross-query sharing.
* :mod:`repro.durability` -- checkpoint/resume for sessions and the
  serving schedulers, plus the crash-injection harness; the
  record/replay cassette adapter lives in :mod:`repro.services.recorded`.
* :mod:`repro.services` -- simulated service substrate, example
  schemas, and the heterogeneous scenario packs.
* :mod:`repro.baselines` -- exhaustive, WSMS, and naive planners.
* :mod:`repro.stats` -- selectivity and cardinality estimation.
"""

from repro.core.annotate import annotate
from repro.core.cost import DEFAULT_METRICS
from repro.core.optimizer import (
    OptimizationOutcome,
    Optimizer,
    OptimizerConfig,
    PlanCandidate,
    optimize_query,
)
from repro.core.optimizer import plan_signature
from repro.engine.async_runner import (
    AsyncExecutionContext,
    AsyncPlanExecutor,
    run_plan_async,
)
from repro.engine.executor import (
    ExecutionResult,
    InvocationCache,
    execute_plan,
)
from repro.engine.liquid import LiquidQuerySession
from repro.engine.retry import Degradation, RetryPolicy
from repro.errors import SearchComputingError
from repro.model.registry import ServiceRegistry
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    build_explain,
    snapshot_run,
    write_trace,
)
from repro.durability import (
    CheckpointStore,
    checkpoint_session,
    restore_session,
    serve_workload_durable,
)
from repro.query.compile import CompiledQuery, compile_query
from repro.query.parser import parse_query
from repro.serve import (
    PlanCache,
    ServeConfig,
    ServeScheduler,
    SessionManager,
    WorkloadConfig,
    generate_workload,
)
from repro.services.simulated import FaultModel, FaultProfile, ServicePool

__version__ = "1.0.0"

__all__ = [
    "annotate",
    "DEFAULT_METRICS",
    "OptimizationOutcome",
    "Optimizer",
    "OptimizerConfig",
    "PlanCandidate",
    "optimize_query",
    "plan_signature",
    "AsyncExecutionContext",
    "AsyncPlanExecutor",
    "Degradation",
    "ExecutionResult",
    "InvocationCache",
    "LiquidQuerySession",
    "execute_plan",
    "run_plan_async",
    "FaultModel",
    "FaultProfile",
    "RetryPolicy",
    "SearchComputingError",
    "ServiceRegistry",
    "CompiledQuery",
    "compile_query",
    "parse_query",
    "ServicePool",
    "PlanCache",
    "ServeConfig",
    "ServeScheduler",
    "SessionManager",
    "WorkloadConfig",
    "generate_workload",
    "CheckpointStore",
    "checkpoint_session",
    "restore_session",
    "serve_workload_durable",
    "Tracer",
    "NULL_TRACER",
    "MetricsRegistry",
    "build_explain",
    "snapshot_run",
    "write_trace",
    "__version__",
]
