"""Exception hierarchy for the Search Computing reproduction.

All library-specific errors derive from :class:`SearchComputingError` so that
callers can catch a single base class at API boundaries while still being
able to discriminate failure modes (schema problems, query problems,
planning problems, execution problems).
"""

from __future__ import annotations


class SearchComputingError(Exception):
    """Base class for every error raised by this library."""


class SchemaError(SearchComputingError):
    """A service mart, interface, or connection pattern is ill-formed.

    Raised during schema construction and registration, e.g. for duplicate
    attribute names, adornments referring to unknown attributes, or
    connection patterns over attributes with incompatible types.
    """


class QueryError(SearchComputingError):
    """A query is syntactically or semantically invalid."""


class QueryParseError(QueryError):
    """The textual query could not be parsed.

    Attributes
    ----------
    position:
        Zero-based character offset in the query string where the
        problem was detected, or ``None`` when not applicable.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class UnfeasibleQueryError(QueryError):
    """No choice of access patterns makes every service reachable.

    Carries the set of services that could not be reached so callers can
    report precisely which inputs are missing bindings.
    """

    def __init__(self, message: str, unreachable: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.unreachable = unreachable


class PlanError(SearchComputingError):
    """A query plan is structurally invalid (cycles, arity violations...)."""


class OptimizationError(SearchComputingError):
    """The optimizer could not produce a plan."""


class ExecutionError(SearchComputingError):
    """Plan execution failed at runtime."""


class ServiceInvocationError(ExecutionError):
    """A (simulated) service call failed or was invoked incorrectly.

    Typical causes: missing input bindings, fetching past exhaustion on a
    non-resumable invocation, or an injected fault from the failure-injection
    test harness.
    """


class ServiceTimeoutError(ServiceInvocationError):
    """A service call exceeded its per-call timeout.

    The caller waited until the deadline, so the timed-out round trip still
    costs ``timeout`` virtual seconds of execution time.

    Attributes
    ----------
    service:
        Interface name of the service that timed out (or ``None``).
    timeout:
        The per-call deadline that was exceeded, in virtual seconds.
    """

    def __init__(
        self,
        message: str,
        service: str | None = None,
        timeout: float | None = None,
    ) -> None:
        super().__init__(message)
        self.service = service
        self.timeout = timeout


class ServiceUnavailableError(ServiceInvocationError):
    """A service call failed outright (transient fault or permanent outage).

    Attributes
    ----------
    service:
        Interface name of the failing service (or ``None``).
    permanent:
        ``True`` for a permanent outage — retrying is pointless and retry
        harnesses give up immediately; ``False`` for a transient fault
        that a later attempt may survive.
    """

    def __init__(
        self,
        message: str,
        service: str | None = None,
        permanent: bool = False,
    ) -> None:
        super().__init__(message)
        self.service = service
        self.permanent = permanent


class RetryExhaustedError(ServiceInvocationError):
    """A retried service call failed on every allowed attempt.

    Raised by the retry harness after ``max_attempts`` failures (or
    immediately on a permanent outage); chains from the last underlying
    fault.  Under ``partial`` degradation the executors catch this and
    degrade instead of propagating.

    Attributes
    ----------
    service:
        Interface name of the failing service (or ``None``).
    attempts:
        How many attempts were made before giving up.
    """

    def __init__(
        self,
        message: str,
        service: str | None = None,
        attempts: int = 0,
    ) -> None:
        super().__init__(message)
        self.service = service
        self.attempts = attempts


class CheckpointError(SearchComputingError):
    """A durability checkpoint could not be written, read, or restored."""


class CheckpointIntegrityError(CheckpointError):
    """A checkpoint failed verification.

    Raised when the stored content hash does not match the payload (the
    file was truncated or tampered with), or when the state rebuilt by
    journal replay diverges from the witnesses recorded at checkpoint
    time (plan signature, result digest, clock offset, call log).
    """
