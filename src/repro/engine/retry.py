"""Retry policies over virtual time.

Remote search services fail: transiently (a dropped connection survives a
re-issue), slowly (a response that arrives after the caller gave up), or
permanently (an outage).  The chapter's cost model charges per
request-response round trip, so a production-honest simulator must charge
for the failed attempts *and* the waits between them.  This module
provides:

* :class:`RetryPolicy` — max attempts, exponential backoff with
  deterministic jitter, and an optional per-call timeout;
* :class:`Retrier` — the retry rule, once for both backends
  (:meth:`Retrier.retry_or_give_up`), and a harness executing one fetch
  under it on virtual time.  Every backoff wait is amended onto the
  failed call's :class:`~repro.engine.events.CallRecord` and advances the
  shared :class:`~repro.engine.events.VirtualClock` (the asyncio driver
  sleeps it instead), so retry latency enters measured execution time
  exactly like request-response latency does;
* :class:`Degradation` — what an executor does once retries are
  exhausted: propagate (``fail``) or return best-effort partial results
  (``partial``).

Determinism: backoff jitter is drawn from the retrier's own seeded RNG
(``global_seed ^ 0xB0FF`` on the virtual backend, ``^ 0xA51C`` on the
asyncio one), and injected faults from per-invocation RNGs derived from
the global seed — the same seed replays the same failures, retries, and
waits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, TypeVar

from repro.engine.events import CallLog, VirtualClock
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.errors import (
    ExecutionError,
    RetryExhaustedError,
    ServiceTimeoutError,
    ServiceUnavailableError,
)

__all__ = ["RetryPolicy", "Retrier", "Degradation", "NO_RETRY"]

T = TypeVar("T")


class Degradation(Enum):
    """Executor behaviour once a service's retries are exhausted."""

    #: Propagate the failure: the whole execution aborts.
    FAIL = "fail"
    #: Degrade: the failed branch contributes nothing and the output is
    #: flagged incomplete, but execution finishes.
    PARTIAL = "partial"

    @classmethod
    def coerce(cls, value: "Degradation | str") -> "Degradation":
        if isinstance(value, Degradation):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ExecutionError(
                f"unknown degradation mode {value!r}; expected one of "
                f"{[m.value for m in cls]}"
            ) from None


@dataclass(frozen=True)
class RetryPolicy:
    """How a caller re-issues failed service calls.

    A call is attempted up to ``max_attempts`` times.  Before retry ``n``
    (1-based), the caller waits ``base_backoff * backoff_multiplier**(n-1)``
    virtual seconds, jittered uniformly by ``±jitter_fraction``.
    ``call_timeout`` bounds how long one attempt may take: a simulated
    call whose latency draw exceeds it costs exactly ``call_timeout``
    (the caller stops waiting at the deadline) and raises
    :class:`~repro.errors.ServiceTimeoutError`.
    """

    max_attempts: int = 3
    base_backoff: float = 0.5
    backoff_multiplier: float = 2.0
    jitter_fraction: float = 0.1
    call_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ExecutionError("max_attempts must be at least 1")
        if self.base_backoff < 0:
            raise ExecutionError("base_backoff must be non-negative")
        if self.backoff_multiplier <= 0:
            raise ExecutionError("backoff_multiplier must be positive")
        if not 0 <= self.jitter_fraction < 1:
            raise ExecutionError("jitter_fraction must be in [0, 1)")
        if self.call_timeout is not None and self.call_timeout <= 0:
            raise ExecutionError("call_timeout must be positive")

    def backoff(self, retry_number: int, rng: random.Random | None = None) -> float:
        """Wait before retry ``retry_number`` (1-based), in virtual seconds."""
        if retry_number < 1:
            raise ExecutionError("retry_number is 1-based")
        wait = self.base_backoff * self.backoff_multiplier ** (retry_number - 1)
        if rng is not None and self.jitter_fraction and wait:
            wait *= 1.0 + rng.uniform(-self.jitter_fraction, self.jitter_fraction)
        return max(0.0, wait)


#: A policy that never retries and never waits — the pre-fault-model
#: behaviour, used when callers pass no policy.
NO_RETRY = RetryPolicy(max_attempts=1, base_backoff=0.0, jitter_fraction=0.0)


@dataclass
class Retrier:
    """The retry rule (:meth:`retry_or_give_up`) and its virtual-time
    driver (:meth:`call`); the asyncio driver sleeps the same rule's waits.

    ``clock`` and ``log`` are the shared execution context (typically the
    service pool's): backoff waits advance the clock and are amended onto
    the failed attempt's call record.  ``rng`` seeds the backoff jitter;
    construct it from the global seed for reproducible schedules.
    """

    policy: RetryPolicy = NO_RETRY
    clock: VirtualClock | None = None
    log: CallLog | None = None
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    #: Total re-attempts issued across all calls.
    retries: int = 0
    #: Calls abandoned after exhausting the policy.
    gave_up: int = 0
    #: Observability context; backoff waits become ``retry.backoff`` spans
    #: on virtual time (the default no-op tracer drops them for free).
    tracer: "Tracer | NullTracer" = NULL_TRACER

    def call(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` until it succeeds or the policy is exhausted.

        Raises :class:`~repro.errors.RetryExhaustedError` (chained from
        the last fault) when every attempt failed, or immediately on a
        permanent outage — retrying a dead service only burns time.
        """
        attempt = 1
        while True:
            logged_before = len(self.log) if self.log is not None else 0
            try:
                return fn()
            except (ServiceTimeoutError, ServiceUnavailableError) as exc:
                wait = self.retry_or_give_up(
                    exc, attempt, self.failed_record(logged_before, exc.service)
                )
                with self.tracer.span(
                    "retry.backoff", service=exc.service, attempt=attempt, wait=wait
                ):
                    if wait and self.clock is not None:
                        self.clock.advance(wait)
                attempt += 1

    def retry_or_give_up(
        self,
        exc: ServiceTimeoutError | ServiceUnavailableError,
        attempt: int,
        failed_index: int,
    ) -> float:
        """The wait before retrying ``attempt``; the caller waits it.

        Gives up (:class:`~repro.errors.RetryExhaustedError`) on a
        permanent outage or the policy's last attempt.  Otherwise draws
        the backoff and amends it onto the failed attempt's record at
        ``failed_index`` (:meth:`failed_record`), so the wait is charged
        like request-response latency.
        """
        service = exc.service
        if getattr(exc, "permanent", False) or attempt >= self.policy.max_attempts:
            self.gave_up += 1
            raise RetryExhaustedError(
                f"service {service!r} failed after {attempt} "
                f"attempt{'s' if attempt != 1 else ''}: {exc}",
                service=service,
                attempts=attempt,
            ) from exc
        wait = self.policy.backoff(attempt, self.rng)
        if wait and failed_index >= 0 and self.log is not None:
            self.log.amend_at(failed_index, backoff_wait=wait)
        self.retries += 1
        return wait

    def failed_record(self, logged_before: int, service: str | None) -> int:
        """Index of the failed attempt's own record, ``-1`` if it has none.

        Run when the fault is raised, on the records appended since
        ``logged_before``.  A fault can fire before the attempt appends its
        record, and with a shared log another caller may append afterwards
        — "the last record" may be an unrelated call's.  Only a record this
        attempt appended, failed and of the failing service, qualifies.
        """
        if self.log is None:
            return -1
        records = self.log.records
        for index in range(len(records) - 1, logged_before - 1, -1):
            record = records[index]
            if record.failed and (service is None or record.service == service):
                return index
        return -1
