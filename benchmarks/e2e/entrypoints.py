"""The benchmark's whole view of ``repro``: every entry point, by name.

This is the **only** module under ``benchmarks/e2e`` that imports from
``repro``.  :data:`ENTRY_POINTS` lists each symbol the benchmark calls or
wraps, where it lives, and the keyword arguments the benchmark passes —
the explicit surface later refactors (a single ``ServeConfig``, one join
layer) must keep, as shims if need be.  :func:`load` resolves them all up
front and exits with a message naming the first missing symbol or
keyword, so a broken contract fails before anything is timed.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

E2E_DIR = Path(__file__).resolve().parent
ROOT = E2E_DIR.parent.parent

#: key -> (module, attribute path, keywords the benchmark passes).
#: ``called`` entries are invoked by the workloads; ``traced`` entries are
#: only wrapped with timers in the traced run (see ``trace.py``).
ENTRY_POINTS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    # -- called ------------------------------------------------------------
    "parse_query": ("repro", "parse_query", ()),
    "compile_query": ("repro", "compile_query", ()),
    "Optimizer": ("repro", "Optimizer", ()),
    "optimize": ("repro", "Optimizer.optimize", ()),
    "OptimizerConfig": ("repro", "OptimizerConfig", ("metric",)),
    "plan_signature": ("repro", "plan_signature", ("metric",)),
    "ExecutionTimeMetric": ("repro.core.cost", "ExecutionTimeMetric", ()),
    "SumCostMetric": ("repro.core.cost", "SumCostMetric", ()),
    "star_workload": ("repro.services.synth", "star_workload", ()),
    "chain_workload": ("repro.services.synth", "chain_workload", ()),
    "mixed_workload": ("repro.services.synth", "mixed_workload", ()),
    "default_templates": ("repro.serve.workload", "default_templates", ()),
    "scenario_templates": (
        "repro.serve.workload", "scenario_templates", ("param_scale",),
    ),
    "generate_workload": ("repro", "generate_workload", ()),
    "WorkloadConfig": (
        "repro", "WorkloadConfig",
        ("num_requests", "rate", "skew", "seed", "followup_fraction"),
    ),
    # Request is re-timed with dataclasses.replace(arrival=, session_id=).
    "Request": ("repro.serve.workload", "Request", ("arrival", "session_id")),
    "serve_workload_sharded": (
        "repro.serve.sharding", "serve_workload_sharded",
        ("rate", "num_requests", "seed", "num_shards", "steal", "skew",
         "followup_fraction", "cache_size", "templates", "workload",
         "digest_fn"),
    ),
    "serve_workload_durable": (
        "repro", "serve_workload_durable",
        ("rate", "num_requests", "seed", "checkpoint_dir",
         "checkpoint_every", "resume", "skew", "followup_fraction",
         "templates", "workload", "on_checkpoint"),
    ),
    "result_digest": ("repro.serve.bench", "result_digest", ()),
    "combined_digest": ("repro.serve.bench", "combined_digest", ()),
    "topk_join": ("repro.joins.topk", "topk_join", ("k", "kernel")),
    "Relation": ("repro.joins", "Relation", ("alias", "tuples")),
    "JoinGraph": ("repro.joins", "JoinGraph", ()),
    "EquiPredicate": ("repro.joins", "EquiPredicate", ()),
    "triangle_graph": ("repro.joins", "triangle_graph", ()),
    "ServiceTuple": (
        "repro.model.tuples", "ServiceTuple", ("score", "source", "position"),
    ),
    "LinearScoring": ("repro.model.scoring", "LinearScoring", ("horizon",)),
    "ListChunkSource": ("repro.joins", "ListChunkSource", ()),
    "make_executor": ("repro.joins", "make_executor", ("k",)),
    "JoinMethodSpec": (
        "repro.joins", "JoinMethodSpec", ("invocation", "completion"),
    ),
    "InvocationStrategy": ("repro.joins", "InvocationStrategy", ()),
    "CompletionStrategy": ("repro.joins", "CompletionStrategy", ()),
    "PipeJoinExecutor": ("repro.joins", "PipeJoinExecutor", ("fetches", "k")),
    # -- traced (and the always-on per-request clock) ----------------------
    "satisfies": ("repro.query.predicates", "satisfies", ()),
    "plancache_plan": ("repro", "PlanCache.plan", ()),
    "session_open": ("repro", "SessionManager.open", ()),
    "session_stepper": ("repro", "SessionManager.stepper", ()),
    "session_rerank": ("repro", "SessionManager.rerank", ()),
    "execute_steps": ("repro", "LiquidQuerySession.execute_steps", ()),
    "pool_invoke": ("repro", "ServicePool.invoke", ()),
    "scheduler_run": ("repro", "ServeScheduler.run", ()),
    "sharded_run": (
        "repro.serve.sharding", "ShardedServeScheduler.run", (),
    ),
    "store_save": ("repro", "CheckpointStore.save", ()),
    "store_load": ("repro", "CheckpointStore.load", ()),
    "checkpoint_session": ("repro", "checkpoint_session", ()),
    "restore_session": ("repro", "restore_session", ()),
    "parallel_run": ("repro.joins", "ParallelJoinExecutor.run", ()),
    "pipe_run": ("repro.joins", "PipeJoinExecutor.run", ()),
}


def _accepts(target: Any, keyword: str) -> bool:
    fields = getattr(target, "__dataclass_fields__", None)
    if fields is not None:
        return keyword in fields
    try:
        parameters = inspect.signature(target).parameters
    except (TypeError, ValueError):
        return True
    return keyword in parameters or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )


class EntryPoints(SimpleNamespace):
    """Resolved entry points as attributes, plus rebinding for the tracer."""

    def owner_of(self, key: str) -> tuple[Any, str]:
        """``(object, attribute)`` the entry point is defined on."""
        module_name, path, _ = ENTRY_POINTS[key]
        owner: Any = sys.modules[module_name]
        *parents, leaf = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, leaf

    def rebind(self, key: str, replacement: Callable) -> list[tuple[Any, str, Any]]:
        """Install ``replacement`` wherever the entry point is reachable.

        A method is replaced on its class.  A module-level function is
        replaced in every loaded ``repro`` module that imported it by name
        (``from repro.query.predicates import satisfies`` binds a copy the
        defining module's attribute does not reach) and on this namespace.
        Returns ``(owner, attribute, original)`` triples for :meth:`restore`.
        """
        owner, leaf = self.owner_of(key)
        original = getattr(owner, leaf)
        undo: list[tuple[Any, str, Any]] = []
        if inspect.isclass(owner):
            undo.append((owner, leaf, original))
        else:
            for name, module in list(sys.modules.items()):
                if module is None or not (
                    name == "repro" or name.startswith("repro.")
                ):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, original))
        if getattr(self, key, None) is original:
            undo.append((self, key, original))
        for target, attr, _ in undo:
            setattr(target, attr, replacement)
        return undo

    @staticmethod
    def restore(undo: list[tuple[Any, str, Any]]) -> None:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)


def load() -> EntryPoints:
    """Import ``repro`` from ``src/`` and resolve every entry point."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    resolved = EntryPoints()
    for key, (module_name, path, keywords) in ENTRY_POINTS.items():
        symbol = f"{module_name}:{path}"
        try:
            target: Any = importlib.import_module(module_name)
            for part in path.split("."):
                target = getattr(target, part)
        except (ImportError, AttributeError) as exc:
            raise SystemExit(
                f"benchmarks/e2e: entry point {symbol} is missing "
                f"({type(exc).__name__}: {exc}); keep it or shim it — see "
                "benchmarks/e2e/entrypoints.py"
            ) from None
        for keyword in keywords:
            if not _accepts(target, keyword):
                raise SystemExit(
                    f"benchmarks/e2e: entry point {symbol} no longer "
                    f"accepts {keyword!r}; keep it or shim it — see "
                    "benchmarks/e2e/entrypoints.py"
                )
        setattr(resolved, key, target)
    return resolved
