"""Virtual time and call accounting for simulated execution.

The paper's cost metrics are defined over service request-response times.
Executing against live Web services would make every measurement
irreproducible, so the engine runs on **virtual time**: each simulated
request-response advances a :class:`VirtualClock` by a deterministic,
seeded latency draw, and every call is appended to a :class:`CallLog`.
Measured metrics (execution time, bottleneck, time-to-screen) are then
exact functions of the log, reproducible under a seed.

Failed round trips are logged too: a :class:`CallRecord` carries an
``outcome`` (``ok``/``slow``/``error``/``timeout``/``unavailable``), the
``attempt`` number within a retry sequence, and the ``backoff_wait`` the
retry harness slept *after* the call — so retry overhead is an exact
function of the log, just like the paper's cost metrics.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.errors import ExecutionError
from repro.model.scoring import fold

__all__ = ["VirtualClock", "CallRecord", "CallLog", "FAILURE_OUTCOMES"]

#: Outcomes that did not deliver a usable response.
FAILURE_OUTCOMES = frozenset({"error", "timeout", "unavailable"})


@dataclass
class VirtualClock:
    """A monotonically advancing virtual timestamp."""

    now: float = 0.0

    def advance(self, delta: float) -> float:
        """Advance by ``delta`` (must be non-negative); returns the new time."""
        if delta < 0:
            raise ExecutionError("cannot advance the clock backwards")
        self.now += delta
        return self.now

    def reset(self) -> None:
        """Rewind to time zero *in place*, keeping existing references live."""
        self.now = 0.0


@dataclass(frozen=True)
class CallRecord:
    """One simulated request-response round trip."""

    service: str
    alias: str
    chunk_index: int
    started_at: float
    latency: float
    tuples: int
    #: ``ok`` | ``slow`` (served, above nominal latency) | ``error``
    #: (transient fault) | ``timeout`` | ``unavailable`` (outage).
    outcome: str = "ok"
    #: 1-based attempt number for the chunk this call tried to fetch.
    attempt: int = 1
    #: Virtual seconds the retry harness waited *after* this call before
    #: the next attempt (0.0 when no retry followed).
    backoff_wait: float = 0.0

    @property
    def finished_at(self) -> float:
        return self.started_at + self.latency

    @property
    def failed(self) -> bool:
        return self.outcome in FAILURE_OUTCOMES


@dataclass
class CallLog:
    """Append-only log of simulated service calls."""

    records: list[CallRecord] = field(default_factory=list)

    def record(self, record: CallRecord) -> None:
        self.records.append(record)

    def clear(self) -> None:
        """Drop all records *in place*, keeping existing references live."""
        self.records.clear()

    def amend_at(self, index: int, **changes: object) -> CallRecord:
        """Replace fields of the record at ``index``.

        Concurrent callers (the asyncio backend) interleave appends from
        many services, so "the last record" is not necessarily "my
        record" — amending by the index captured when the call was
        issued is.
        """
        if not -len(self.records) <= index < len(self.records):
            raise ExecutionError(f"no call record at index {index}")
        amended = dataclasses.replace(self.records[index], **changes)
        self.records[index] = amended
        return amended

    def __len__(self) -> int:
        return len(self.records)

    def calls_by_alias(self, ok_only: bool = False) -> dict[str, int]:
        """Round trips per alias; ``ok_only`` counts only the calls that
        delivered a usable response (the figure the chapter's per-call
        cost metrics mean — a retried chunk is one delivered response
        however many attempts it took)."""
        out: dict[str, int] = {}
        for record in self.records:
            if ok_only and record.failed:
                continue
            out[record.alias] = out.get(record.alias, 0) + 1
        return out

    def total_calls(self) -> int:
        return len(self.records)

    def total_latency(self) -> float:
        """Total virtual time attributable to calls: latencies plus the
        backoff waits spent between retry attempts."""
        return fold(r.latency + r.backoff_wait for r in self.records)

    def busy_time(self, alias: str) -> float:
        """Total request-response time spent by one alias's service,
        including retry backoff waits."""
        return fold(
            r.latency + r.backoff_wait for r in self.records if r.alias == alias
        )

    def tuples_transferred(self, alias: str | None = None) -> int:
        return sum(
            r.tuples
            for r in self.records
            if alias is None or r.alias == alias
        )

    # -- retry accounting -------------------------------------------------------

    def failed_calls(self, alias: str | None = None) -> int:
        """Round trips that did not deliver a usable response."""
        return sum(
            1
            for r in self.records
            if r.failed and (alias is None or r.alias == alias)
        )

    def retries(self, alias: str | None = None) -> int:
        """Calls that were re-attempts (attempt number above 1)."""
        return sum(
            1
            for r in self.records
            if r.attempt > 1 and (alias is None or r.alias == alias)
        )

    def retry_overhead(self, alias: str | None = None) -> float:
        """Virtual time spent on failed calls and backoff waits — the part
        of measured execution time a fault-free run would not pay."""
        total = 0.0
        for r in self.records:
            if alias is not None and r.alias != alias:
                continue
            total += r.backoff_wait
            if r.failed:
                total += r.latency
        return total
