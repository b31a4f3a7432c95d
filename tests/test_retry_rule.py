"""One retry rule, two ways of waiting.

``Retrier.retry_or_give_up`` decides and books every failed attempt on
both backends: give up on a permanent outage or the last attempt, else
draw the backoff, amend it onto the failed attempt's own call record and
count the retry.  The virtual driver (``Retrier.call``) advances the
clock by the wait; the asyncio driver sleeps it under the connection pool.

* on a one-service plan, under transient failures, timeouts and an
  outage, both backends log the same calls record for record —
  service, chunk index, attempt, outcome and backoff wait;
* under ``fail`` both raise the same ``RetryExhaustedError`` message;
* both count retries and give-ups on the executor's one ``Retrier``;
* an AST guard: in ``src`` only ``engine/retry.py`` constructs
  ``RetryExhaustedError`` or calls ``RetryPolicy.backoff``.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from repro.core.optimizer import optimize_query
from repro.engine.async_runner import AsyncExecutionContext, AsyncPlanExecutor
from repro.engine.executor import PlanExecutor
from repro.engine.retry import RetryPolicy
from repro.errors import RetryExhaustedError
from repro.query.compile import compile_query
from repro.query.parser import parse_query
from repro.services.marts import RUNNING_EXAMPLE_INPUTS, movie_night_registry
from repro.services.simulated import FaultModel, ServicePool

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

QUERY = (
    "SELECT Theatre1 AS T WHERE T.UAddress = INPUT4 "
    "AND T.UCity = INPUT5 AND T.UCountry = INPUT2 LIMIT 5"
)

#: (fault model, call timeout): transient errors, slow calls cut by the
#: timeout, and a permanent outage.
FAULTS = {
    "failures": (FaultModel.uniform(failure_rate=0.3), None),
    "timeouts": (FaultModel.uniform(timeout_rate=0.3, slow_factor=10.0), 1.0),
    "outage": (FaultModel().with_outage("Theatre1"), None),
}


@pytest.fixture(scope="module")
def one_service():
    registry = movie_night_registry()
    query = compile_query(parse_query(QUERY), registry)
    return registry, query, optimize_query(query).plan


def _executors(one_service, faults, retry, degradation):
    """The same one-service run on the virtual and the asyncio driver."""
    registry, query, plan = one_service

    def build(cls, **options):
        pool = ServicePool(registry, global_seed=7, fault_model=faults)
        return cls(
            plan,
            query,
            pool,
            RUNNING_EXAMPLE_INPUTS,
            {"T": 6},
            retry=retry,
            degradation=degradation,
            **options,
        )

    return build(PlanExecutor), build(
        AsyncPlanExecutor, context=AsyncExecutionContext(time_scale=0.0)
    )


def _log(executor):
    return [
        (r.service, r.chunk_index, r.attempt, r.outcome, r.backoff_wait)
        for r in executor.pool.log.records
    ]


@pytest.mark.parametrize("case", sorted(FAULTS))
def test_both_drivers_log_the_same_calls(one_service, case):
    faults, timeout = FAULTS[case]
    retry = RetryPolicy(
        max_attempts=3, base_backoff=0.25, jitter_fraction=0.0, call_timeout=timeout
    )
    virtual, real = _executors(one_service, faults, retry, "partial")
    virtual.run()
    real.run()
    assert _log(real) == _log(virtual)
    assert any(record[3] != "ok" for record in _log(virtual))
    if case != "outage":
        assert any(record[4] > 0 for record in _log(virtual))
    assert (real._retrier.retries, real._retrier.gave_up) == (
        virtual._retrier.retries,
        virtual._retrier.gave_up,
    )
    assert real._retrier.retries == sum(1 for r in _log(real) if r[4] > 0)
    assert real._retrier.gave_up == (1 if case == "outage" else 0)


@pytest.mark.parametrize("case", ["failures", "outage"])
def test_both_drivers_give_up_with_the_same_message(one_service, case):
    faults, _ = FAULTS[case]
    retry = RetryPolicy(max_attempts=1, base_backoff=0.25, jitter_fraction=0.0)
    messages = []
    for executor in _executors(one_service, faults, retry, "fail"):
        with pytest.raises(RetryExhaustedError) as raised:
            executor.run()
        messages.append(str(raised.value))
        assert (executor._retrier.retries, executor._retrier.gave_up) == (0, 1)
        assert raised.value.service == "Theatre1" and raised.value.attempts == 1
    assert messages[0] == messages[1]
    assert "failed after 1 attempt:" in messages[0]


def test_asyncio_keeps_its_own_jitter_stream(one_service):
    """The asyncio driver draws its backoff jitter from
    ``global_seed ^ 0xA51C``, the virtual one from ``global_seed ^ 0xB0FF``:
    no backoff wait moves on either backend."""
    faults, _ = FAULTS["failures"]
    virtual, real = _executors(one_service, faults, RetryPolicy(), "partial")
    assert real._retrier is not virtual._retrier
    assert real._retrier.rng.getstate() == random.Random(7 ^ 0xA51C).getstate()
    assert virtual._retrier.rng.getstate() == random.Random(7 ^ 0xB0FF).getstate()
    assert not hasattr(real, "_backoff_rng")
    assert not hasattr(real, "retries") and not hasattr(real, "gave_up")


# -- the guard: the rule has one home ---------------------------------------------


def _rule_sites(tree: ast.AST) -> list[tuple[str, int]]:
    """Lines constructing ``RetryExhaustedError`` or calling ``.backoff``."""
    sites = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name == "RetryExhaustedError" or (
            isinstance(func, ast.Attribute) and name == "backoff"
        ):
            sites.append((name, call.lineno))
    return sites


def test_guard_sees_planted_sites():
    planted = (
        "raise RetryExhaustedError('x')\n"
        "wait = policy.backoff(1, rng)\n"
        "errors.RetryExhaustedError('y')\n"
        "backoff(1)\n"  # a bare name is not the policy's method
    )
    assert sorted(_rule_sites(ast.parse(planted)), key=lambda s: s[1]) == [
        ("RetryExhaustedError", 1),
        ("backoff", 2),
        ("RetryExhaustedError", 3),
    ]


def test_retry_rule_lives_only_in_engine_retry():
    offenders = {
        str(path.relative_to(SRC)): sites
        for path in sorted(SRC.rglob("*.py"))
        if (sites := _rule_sites(ast.parse(path.read_text())))
    }
    assert set(offenders) == {"engine/retry.py"}, offenders
