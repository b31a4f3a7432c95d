"""Multi-query serving runtime over the virtual clock.

The single-query engine answers *one* liquid query; this package is the
runtime above it that serves *traffic* — the concurrent, production-scale
regime the ROADMAP's north star calls for:

* :mod:`repro.serve.workload` — parameterized query templates sampled
  into seeded arrival streams (rates, Zipf parameter skew, follow-up
  interactions);
* :mod:`repro.serve.scheduler` — what every serving loop shares: the
  config, the session table, request outcomes, result digests and the
  report;
* :mod:`repro.serve.plancache` — optimizer reuse across requests keyed
  by normalized plan signature;
* :mod:`repro.serve.sessions` — liquid-query sessions
  (``more``/``rerank``/``resubmit``) routed through the same scheduler,
  optionally sharing one cross-query invocation cache;
* :mod:`repro.serve.sharding` — the cooperative discrete-event scheduler:
  admission control, bounded concurrency and per-service token buckets
  on N shards of one deterministic virtual timeline (``N = 1`` included),
  the consistent-hash ring, work stealing;
* :mod:`repro.serve.async_serve` — the same workload on the asyncio
  real-execution backend, digest-comparable request by request with the
  virtual scheduler and reporting through the same ``ServeReport``;
* :mod:`repro.serve.runtime` — **the one door**: ``serve(config,
  workload)`` composes sessions, backend, placement and durability from
  one picklable :class:`~repro.serve.scheduler.ServeConfig`;
* :mod:`repro.serve.bench` — the reference-vs-subject comparison behind
  ``repro serve-bench`` and its ``BENCH_serving.json`` report.
"""

from repro.serve.bench import compare_serving
from repro.serve.plancache import PlanCache, PlanCacheStats
from repro.serve.runtime import build_sessions, serve
from repro.serve.scheduler import (
    RequestOutcome,
    ServeConfig,
    ServeReport,
    SessionTable,
    combined_digest,
    result_digest,
)
from repro.serve.sessions import SessionManager
from repro.serve.sharding import (
    HashRing,
    ServeScheduler,
    ShardedInvocationCache,
    ShardedServeScheduler,
    partition_workload,
    serve_workload_sharded,
)
from repro.serve.workload import (
    QueryTemplate,
    Request,
    WorkloadConfig,
    default_templates,
    generate_workload,
    scenario_names,
    scenario_templates,
    session_key,
)

__all__ = [
    "HashRing",
    "PlanCache",
    "PlanCacheStats",
    "QueryTemplate",
    "Request",
    "RequestOutcome",
    "ServeConfig",
    "ServeReport",
    "ServeScheduler",
    "SessionManager",
    "SessionTable",
    "ShardedInvocationCache",
    "ShardedServeScheduler",
    "WorkloadConfig",
    "build_sessions",
    "combined_digest",
    "compare_serving",
    "default_templates",
    "generate_workload",
    "partition_workload",
    "result_digest",
    "scenario_names",
    "scenario_templates",
    "serve",
    "serve_workload_sharded",
    "session_key",
]
