"""Execution engine: virtual time, call logging, plan execution."""

from repro.engine.events import CallLog, CallRecord, VirtualClock
from repro.engine.liquid import LiquidQuerySession
from repro.engine.retry import NO_RETRY, Degradation, Retrier, RetryPolicy
from repro.engine.executor import (
    ExecutionResult,
    NodeRunStats,
    PlanExecutor,
    execute_plan,
)

__all__ = [
    "AsyncExecutionContext",
    "AsyncPlanExecutor",
    "run_plan_async",
    "LiquidQuerySession",
    "CallLog",
    "CallRecord",
    "VirtualClock",
    "RetryPolicy",
    "Retrier",
    "Degradation",
    "NO_RETRY",
    "ExecutionResult",
    "NodeRunStats",
    "PlanExecutor",
    "execute_plan",
]

#: Exported names that live in :mod:`repro.engine.async_runner`, which
#: loads :mod:`asyncio`: imported on first access (PEP 562).
_ASYNC_NAMES = ("AsyncExecutionContext", "AsyncPlanExecutor", "run_plan_async")


def __getattr__(name: str):
    if name in _ASYNC_NAMES:
        from repro.engine import async_runner

        return getattr(async_runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
