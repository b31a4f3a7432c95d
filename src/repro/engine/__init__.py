"""Execution engine: virtual time, call logging, clocks, plan execution."""

from repro.engine.async_runner import (
    AsyncExecutionContext,
    AsyncPlanExecutor,
    run_plan_async,
)
from repro.engine.clock import JoinClock
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
    "JoinClock",
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
