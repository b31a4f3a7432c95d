"""S2/S3 regressions: scheduler accounting under rejection and failure.

S2 — ``_reject`` used to skip the per-kind counter and drop the queue
context of parked follow-ups:

* ``serve.kind.{kind}`` was only incremented on *finish*, so with
  rejections the per-kind totals stopped reconciling with
  ``by_status()``;
* a follow-up parked behind a run that later failed was rejected with
  ``queue_wait == 0`` even though it had been waiting since arrival.

S3 — failed requests were invisible to latency accounting: they skipped
``serve.latency`` (by design — percentiles stay completed-only) but were
observed nowhere.  They now land in ``serve.latency_failed``.
"""

from __future__ import annotations

import pytest

from repro.serve import ServeConfig, ServeScheduler, serve
from repro.serve.sessions import SessionManager
from repro.serve.workload import Request, default_templates
from repro.services.simulated import FaultModel, FaultProfile
from tests.conftest import orphaned_followups, serve_seeded


def _kind_counts(metrics) -> dict[str, float]:
    prefix = "serve.kind."
    return {
        name[len(prefix):]: counter.value
        for name, counter in metrics.counters.items()
        if name.startswith(prefix)
    }


def _first_bindings(template) -> dict[str, object]:
    return {name: values[0] for name, values in template.parameter_space.items()}


def _failing_run_with_parked_followup():
    """A run that fails mid-execution with a ``more`` parked behind it.

    Every interface is permanently down, so the run's first round trip
    raises; the follow-up arrived while the run was executing, parked,
    and is rejected the instant the run fails.
    """
    template = default_templates()[0]
    sessions = SessionManager(
        templates={template.name: template},
        data_seed=2009,
        fault_model=FaultModel(default=FaultProfile(outage=True)),
    )
    run = Request(
        request_id=1,
        kind="run",
        template=template.name,
        schema=template.schema,
        arrival=0.0,
        inputs=_first_bindings(template),
        k=5,
    )
    followup = Request(
        request_id=2,
        kind="more",
        template=template.name,
        schema=template.schema,
        arrival=0.0,
        target=1,
        k=5,
    )
    scheduler = ServeScheduler(sessions, ServeConfig())
    report = scheduler.run([run, followup])
    return report


def test_kind_counters_reconcile_under_admission_pressure():
    """Sum of ``serve.kind.*`` == total outcomes, even with rejections."""
    report = serve(ServeConfig(default_service_rate=4.0), orphaned_followups())
    by_status = report.by_status()
    assert by_status.get("rejected", 0) > 0, (
        "scenario must actually exercise the rejection path"
    )
    assert report.shard_stats[0]["max_queue_depth"] > 0, (
        "scenario must put the admission queue under pressure"
    )
    kinds = _kind_counts(report.metrics)
    assert sum(kinds.values()) == len(report.outcomes) == sum(by_status.values())
    # And per kind: every workload request of a kind reached a terminal
    # counter, regardless of whether it completed or was rejected.
    per_kind_outcomes: dict[str, int] = {}
    for outcome in report.outcomes.values():
        kind = outcome.request.kind
        per_kind_outcomes[kind] = per_kind_outcomes.get(kind, 0) + 1
    assert kinds == pytest.approx(per_kind_outcomes)


def test_rejected_parked_followup_keeps_queue_context():
    """A follow-up parked behind a failing run carries its real wait."""
    report = _failing_run_with_parked_followup()

    run_outcome = report.outcomes[1]
    followup_outcome = report.outcomes[2]
    assert run_outcome.status == "failed"
    assert followup_outcome.status == "rejected"
    # The run burned virtual time before failing (the outage round trip
    # is still a charged request-response); the parked follow-up waited
    # exactly that long.
    assert run_outcome.finished_at > 0.0
    assert followup_outcome.queue_wait == pytest.approx(
        run_outcome.finished_at - followup_outcome.request.arrival
    )
    assert followup_outcome.queue_wait > 0.0
    # S2 counter half: both terminal outcomes counted toward their kind.
    assert _kind_counts(report.metrics) == {"run": 1, "more": 1}


def test_failed_requests_observed_in_failed_latency_histogram():
    """Failed latencies land in ``serve.latency_failed``; the completed
    histogram stays empty — the completed-only contract of
    ``ServeReport.latency_summary``."""
    report = _failing_run_with_parked_followup()

    run_outcome = report.outcomes[1]
    completed = report.latency_summary()
    failed = report.failed_latency_summary()
    assert completed["count"] == 0
    assert failed["count"] == 1
    assert failed["sum"] == pytest.approx(run_outcome.latency)
    assert report.summary()["latency_failed"]["count"] == 1


def test_completed_latency_histogram_excludes_failures():
    """Mixed workloads keep the two histograms disjoint and exhaustive:
    completed observations + failed observations == executed requests."""
    report = serve_seeded(
        rate=4.0,
        num_requests=16,
        seed=7,
        followup_fraction=0.25,
    )
    by_status = report.by_status()
    completed = report.latency_summary()["count"]
    failed = report.failed_latency_summary()["count"]
    assert completed == by_status.get("completed", 0)
    assert failed == by_status.get("failed", 0)
