"""Unit tests for the virtual clock and call log."""

import pytest

from repro.engine.events import CallLog, CallRecord, VirtualClock
from repro.errors import ExecutionError


class TestVirtualClock:
    def test_advances(self):
        clock = VirtualClock()
        assert clock.advance(1.5) == 1.5
        assert clock.advance(0.5) == 2.0
        assert clock.now == 2.0

    def test_rejects_negative_delta(self):
        with pytest.raises(ExecutionError):
            VirtualClock().advance(-1.0)


def record(service="S", alias="A", idx=0, start=0.0, latency=1.0, tuples=5):
    return CallRecord(
        service=service,
        alias=alias,
        chunk_index=idx,
        started_at=start,
        latency=latency,
        tuples=tuples,
    )


class TestCallLog:
    def test_counts(self):
        log = CallLog()
        log.record(record(service="S1", alias="A"))
        log.record(record(service="S1", alias="A", idx=1))
        log.record(record(service="S2", alias="B"))
        assert log.total_calls() == 3
        assert log.calls_by_alias() == {"A": 2, "B": 1}

    def test_latency_accounting(self):
        log = CallLog()
        log.record(record(alias="A", latency=1.0))
        log.record(record(alias="A", latency=2.0))
        log.record(record(alias="B", latency=4.0))
        assert log.total_latency() == pytest.approx(7.0)
        assert log.busy_time("A") == pytest.approx(3.0)
        assert log.busy_time("B") == pytest.approx(4.0)

    def test_tuples_transferred(self):
        log = CallLog()
        log.record(record(alias="A", tuples=5))
        log.record(record(alias="B", tuples=7))
        assert log.tuples_transferred() == 12
        assert log.tuples_transferred("A") == 5

    def test_finished_at(self):
        rec = record(start=2.0, latency=1.5)
        assert rec.finished_at == pytest.approx(3.5)

    def test_len(self):
        log = CallLog()
        assert len(log) == 0
        log.record(record())
        assert len(log) == 1
