"""Serving-stack observability: tracing, SLO metrics, export, reports.

The layer's contract, stated once and enforced many ways below:
observability must describe the serving run without ever perturbing it.
Concretely —

* traced and untraced runs produce byte-identical per-request digests
  on every serving path (plain, sharded, durable crash-resume,
  asyncio);
* a trace is a deterministic artifact: same seed, same spans, same
  JSONL bytes;
* a resumed durable run's trace/metrics reconcile with an
  uninterrupted traced run's (span trees match modulo live-only steal
  spans and lane attributes);
* the exporters (Chrome trace_event with per-shard swimlanes,
  Prometheus text format) emit the documented schema.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.durability import CheckpointStore
from repro.obs.export import (
    metrics_to_prometheus,
    spans_to_chrome_trace,
    spans_to_jsonl,
)
from repro.obs.serving import (
    DEFAULT_SLO_THRESHOLDS,
    SloTracker,
    load_trace_jsonl,
    render_serve_report,
    replay_outcome_telemetry,
    serving_metrics_summary,
)
from repro.obs.tracer import Tracer
from repro.serve.bench import combined_digest, result_digest
from tests.conftest import MAX_NOOP_SHARE, noop_share, serve_seeded

SEED = 2009
RATE = 4.0


def serve_traced(num_requests=40, **kwargs):
    tracer = Tracer()
    slo = SloTracker()
    report = serve_seeded(
        rate=RATE,
        num_requests=num_requests,
        seed=SEED,
        tracer=tracer,
        slo=slo,
        sample_metrics=True,
        **kwargs,
    )
    digests = report.digests()
    return report, digests, tracer, slo


def serve_sharded_traced(num_requests=40, num_shards=2, tracer=None, **kwargs):
    report = serve_seeded(
        rate=RATE,
        num_requests=num_requests,
        seed=SEED,
        num_shards=num_shards,
        digest_fn=result_digest,
        tracer=tracer,
        **kwargs,
    )
    return report, report.digests()


# -- SloTracker ---------------------------------------------------------------


class TestSloTracker:
    def test_counts_violations_per_threshold(self):
        slo = SloTracker(thresholds=(1.0, 10.0))
        for latency in (0.5, 2.0, 3.0, 12.0):
            slo.observe(latency)
        snap = slo.snapshot()
        assert snap["count"] == 4
        assert snap["violations"]["1"] == {"count": 3, "fraction": 0.75}
        assert snap["violations"]["10"] == {"count": 1, "fraction": 0.25}

    def test_quantiles_include_p999(self):
        slo = SloTracker()
        for i in range(1000):
            slo.observe(float(i))
        quantiles = slo.snapshot()["quantiles"]
        assert set(quantiles) == {"p50", "p95", "p99", "p999"}
        assert quantiles["p50"] <= quantiles["p95"] <= quantiles["p99"]
        assert quantiles["p999"] >= 990.0

    def test_thresholds_are_sorted_and_validated(self):
        assert SloTracker(thresholds=(20.0, 5.0)).thresholds == (5.0, 20.0)
        with pytest.raises(ValueError):
            SloTracker(thresholds=(0.0,))

    def test_defaults_match_documented_bands(self):
        assert SloTracker().thresholds == DEFAULT_SLO_THRESHOLDS


# -- non-interference: tracing must not change results ------------------------


class TestNonInterference:
    def test_plain_serving_digests_identical(self):
        untraced = serve_seeded(rate=RATE, num_requests=40, seed=SEED).digests()
        _, traced, tracer, slo = serve_traced(num_requests=40)
        assert traced == untraced
        assert tracer.spans, "tracing was on but recorded nothing"
        assert slo.count > 0

    def test_sharded_serving_digests_identical(self):
        """Digests hold with tracing on, and with it off its plumbing costs
        under 5 % of the untraced serve's wall time."""
        started = time.perf_counter()
        _, untraced = serve_sharded_traced(num_requests=40)
        wall = time.perf_counter() - started
        tracer = Tracer()
        _, traced = serve_sharded_traced(
            num_requests=40,
            tracer=tracer,
            slo=SloTracker(),
            sample_metrics=True,
        )
        assert traced == untraced
        shards = {s.attrs.get("shard") for s in tracer.spans} - {None}
        assert shards == {0, 1}
        share = noop_share(len(tracer.spans), wall)
        assert share < MAX_NOOP_SHARE, (len(tracer.spans), wall, share)

    def test_durable_crash_resume_digests_identical(self, tmp_path):
        baseline = serve_seeded(
            rate=RATE,
            num_requests=40,
            seed=SEED,
            checkpoint_dir=tmp_path / "base",
            checkpoint_every=0,
        ).digests()
        ckpt = tmp_path / "ckpt"
        serve_seeded(
            rate=RATE,
            num_requests=40,
            seed=SEED,
            checkpoint_dir=ckpt,
            checkpoint_every=10,
        )
        store = CheckpointStore(ckpt)
        for key in store.keys()[1:]:  # crash: only the earliest survives
            store.delete(key)
        tracer = Tracer()
        report = serve_seeded(
            rate=RATE,
            num_requests=40,
            seed=SEED,
            checkpoint_dir=ckpt,
            checkpoint_every=10,
            resume=True,
            tracer=tracer,
            slo=SloTracker(),
            sample_metrics=True,
        )
        resumed = report.digests()
        info = report.durability
        assert info["resumed"]
        assert combined_digest(resumed) == combined_digest(baseline)
        assert info["telemetry_replayed"] > 0
        traced_ids = {
            s.attrs["request"]
            for s in tracer.spans
            if s.name == "serve.request"
        }
        assert traced_ids == set(resumed), (
            "every request (replayed and live) must appear in the trace"
        )


# -- trace determinism --------------------------------------------------------


class TestTraceDeterminism:
    def test_sharded_trace_is_byte_deterministic(self):
        payloads = []
        for _ in range(2):
            tracer = Tracer()
            serve_sharded_traced(num_requests=30, tracer=tracer)
            payloads.append(spans_to_jsonl(tracer.spans))
        assert payloads[0] == payloads[1]
        assert payloads[0]  # non-empty

    def test_span_tree_shape(self):
        _, _, tracer, _ = serve_traced(num_requests=30)
        by_name: dict[str, int] = {}
        roots = {}
        for span in tracer.spans:
            by_name[span.name] = by_name.get(span.name, 0) + 1
            if span.name == "serve.request":
                roots[span.span_id] = span
        assert by_name["serve.request"] == 30
        assert by_name["serve.execute"] >= 1
        assert by_name.get("serve.plan", 0) >= 1
        for span in tracer.spans:
            if span.name in ("serve.park", "serve.queue", "serve.execute"):
                assert span.parent_id in roots, (
                    f"{span.name} span not parented to a serve.request root"
                )


# -- exporters ----------------------------------------------------------------


class TestChromeExport:
    def test_multi_shard_swimlanes(self):
        tracer = Tracer()
        serve_sharded_traced(num_requests=40, num_shards=2, tracer=tracer)
        doc = spans_to_chrome_trace(tracer.spans, label="serve")
        events = doc["traceEvents"]
        # Every shard renders as its own named process (pid = shard + 1).
        names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names[1] == "serve: shard 0"
        assert names[2] == "serve: shard 1"
        spans = [e for e in events if e["ph"] == "X"]
        pids = {e["pid"] for e in spans if e["name"] == "serve.request"}
        assert pids == {1, 2}
        # Lanes map to stable tids, each announced by thread_name metadata.
        threads = {
            (e["pid"], e["tid"])
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {(e["pid"], e["tid"]) for e in spans} <= threads
        # The document is plain JSON — what Perfetto actually loads.
        assert json.loads(json.dumps(doc)) == doc

    def test_durations_in_microseconds(self):
        tracer = Tracer()
        tracer.record_span("serve.request", start=1.0, end=3.5, shard=0)
        (event,) = [
            e
            for e in spans_to_chrome_trace(tracer.spans)["traceEvents"]
            if e["ph"] == "X"
        ]
        assert event["ts"] == 1_000_000.0
        assert event["dur"] == 2_500_000.0
        assert event["pid"] == 1  # shard 0 -> pid 1


class TestPrometheusExport:
    def test_shard_counters_become_labels(self):
        report, _ = serve_sharded_traced(
            num_requests=30, slo=None, sample_metrics=True
        )
        text = metrics_to_prometheus(report.metrics)
        assert "# TYPE repro_serve_shard_started counter" in text
        assert 'repro_serve_shard_started{shard="0"}' in text
        assert 'repro_serve_shard_started{shard="1"}' in text
        # Histograms render as summaries with quantile labels.
        assert "# TYPE repro_serve_latency summary" in text
        assert 'repro_serve_latency{quantile="0.999"}' in text
        assert "repro_serve_latency_count" in text

    def test_slo_families_and_determinism(self):
        slo = SloTracker(thresholds=(5.0,))
        slo.observe(2.0)
        slo.observe(9.0)
        report, _ = serve_sharded_traced(num_requests=20)
        one = metrics_to_prometheus(report.metrics, slo=slo)
        two = metrics_to_prometheus(report.metrics.snapshot(), slo=slo.snapshot())
        assert one == two  # registry and snapshot render identically
        assert 'repro_slo_violation_ratio{threshold="5"} 0.5' in one
        assert "repro_slo_requests 2" in one


# -- durable telemetry reconciliation ----------------------------------------


def span_key(span):
    """Identity of one span for resume reconciliation.

    Live runs additionally record ``serve.steal`` spans and ``lane``
    attributes (shard-local concurrency slots exist only while the
    scheduler actually runs); everything else must reconcile exactly.
    """
    attrs = {k: v for k, v in span.attrs.items() if k != "lane"}
    return (span.name, round(span.start, 9), round(span.end, 9),
            tuple(sorted(attrs.items())))


class TestResumeReconciliation:
    def test_resumed_trace_and_counters_match_uninterrupted(self, tmp_path):
        """Replayed (pre-crash) outcomes reconcile span-for-span with an
        uninterrupted traced run; post-crash requests are re-served on a
        fresh scheduler (empty queue, reset token buckets), so their
        *timing* legitimately differs — the durable contract for them is
        digest equality plus presence in the trace and outcome counters.
        """
        live_tracer = Tracer()
        live_report = serve_seeded(
            rate=RATE,
            num_requests=40,
            seed=SEED,
            checkpoint_dir=tmp_path / "live",
            checkpoint_every=0,
            tracer=live_tracer,
            slo=SloTracker(),
        )
        live_digests = live_report.digests()
        ckpt = tmp_path / "ckpt"
        serve_seeded(
            rate=RATE,
            num_requests=40,
            seed=SEED,
            checkpoint_dir=ckpt,
            checkpoint_every=10,
        )
        store = CheckpointStore(ckpt)
        survivor = store.keys()[0]
        for key in store.keys()[1:]:
            store.delete(key)
        replayed_ids = {
            int(rid) for rid in store.load(survivor)["outcomes"]
        }
        resumed_tracer = Tracer()
        resumed_slo = SloTracker()
        resumed_report = serve_seeded(
            rate=RATE,
            num_requests=40,
            seed=SEED,
            checkpoint_dir=ckpt,
            checkpoint_every=10,
            resume=True,
            tracer=resumed_tracer,
            slo=resumed_slo,
        )
        resumed_digests = resumed_report.digests()
        info = resumed_report.durability
        assert info["resumed"]
        assert info["telemetry_replayed"] == len(replayed_ids) > 0
        assert resumed_digests == live_digests

        def request_spans(tracer):
            roots = {
                s.attrs["request"]: s.span_id
                for s in tracer.spans
                if s.name == "serve.request"
            }
            trees: dict[int, set] = {rid: set() for rid in roots}
            owner = {sid: rid for rid, sid in roots.items()}
            for span in tracer.spans:
                rid = owner.get(span.span_id) or owner.get(span.parent_id)
                if rid is None:
                    continue
                owner.setdefault(span.span_id, rid)
                trees[rid].add(span_key(span))
            return trees

        live_trees = request_spans(live_tracer)
        resumed_trees = request_spans(resumed_tracer)
        assert set(resumed_trees) == set(live_trees) == set(live_digests)
        for rid in replayed_ids:
            assert resumed_trees[rid] == live_trees[rid], (
                f"replayed request {rid} span tree diverged"
            )
        assert resumed_slo.count == len(live_digests)
        # Outcome counters reconcile (latency histograms need not: the
        # post-crash requests saw a different queue).
        live_counters = live_report.metrics.snapshot()["counters"]
        resumed_counters = resumed_report.metrics.snapshot()["counters"]
        for name in ("serve.completed", "serve.failed", "serve.rejected"):
            assert resumed_counters.get(name, 0) == live_counters.get(name, 0)
        for name, value in live_counters.items():
            if name.startswith("serve.kind."):
                assert resumed_counters.get(name, 0) == value

    def test_replay_is_deterministic_and_ordered(self, tmp_path):
        tracer = Tracer()
        report = serve_seeded(
            rate=RATE,
            num_requests=30,
            seed=SEED,
            checkpoint_dir=tmp_path,
            checkpoint_every=0,
            tracer=tracer,
        )
        outcomes = list(report.outcomes.values())
        one, two = Tracer(), Tracer()
        replay_outcome_telemetry(outcomes, tracer=one)
        replay_outcome_telemetry(list(reversed(outcomes)), tracer=two)
        # Input order never matters: replay sorts by request id, so span
        # ids — and hence the JSONL bytes — are deterministic.
        assert spans_to_jsonl(one.spans) == spans_to_jsonl(two.spans)
        ids = [
            s.attrs["request"] for s in one.spans if s.name == "serve.request"
        ]
        assert ids == sorted(ids)
        # And a replayed trace matches the live one modulo live-only
        # steal spans and lane attributes.
        live = {
            span_key(s) for s in tracer.spans if s.name != "serve.steal"
        }
        assert {span_key(s) for s in one.spans} == live


# -- serving metrics summary + serve-report ----------------------------------


class TestServeReport:
    def test_serving_metrics_summary_shape(self):
        report, _ = serve_sharded_traced(num_requests=30, sample_metrics=True)
        summary = serving_metrics_summary(report)
        assert summary["completed"] + summary["failed"] > 0
        assert len(summary["shards"]) == 2
        shard0 = summary["shards"][0]
        assert {"shard", "started", "completed", "queue_depth_peak"} <= set(
            shard0
        )
        total_started = sum(s["started"] for s in summary["shards"])
        assert total_started == summary["completed"] + summary["failed"]
        assert json.loads(json.dumps(summary)) == summary

    def test_render_report_from_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer()
        slo = SloTracker()
        report, _ = serve_sharded_traced(
            num_requests=40, tracer=tracer, slo=slo, sample_metrics=True
        )
        trace_path = tmp_path / "trace.jsonl"
        trace_path.write_text(spans_to_jsonl(tracer.spans))
        spans = load_trace_jsonl(trace_path)
        text = render_serve_report(
            spans, metrics=report.metrics.snapshot(), slo=slo.snapshot()
        )
        assert "serve-report — 40 requests, 2 shard(s)" in text
        assert "request-time attribution:" in text
        assert "bottleneck:" in text
        assert "shard 0:" in text and "shard 1:" in text
        assert "slo:" in text
        # Rendering from live SpanRecords gives the same report.
        assert (
            render_serve_report(
                tracer.spans, metrics=report.metrics, slo=slo
            )
            == text
        )

    def test_report_without_request_spans(self):
        assert "no serve.request spans" in render_serve_report([])


# -- CLI ----------------------------------------------------------------------


def run_cli(capsys, *argv):
    from repro.cli import main

    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCli:
    ARGS = (
        "serve-bench",
        "--requests",
        "25",
        "--rates",
        "4.0",
        "--shards",
        "2",
    )

    def test_observed_serve_bench_writes_artifacts(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        prom = tmp_path / "metrics.prom"
        code, out = run_cli(
            capsys,
            *self.ARGS,
            "--trace",
            str(trace),
            "--metrics-output",
            str(metrics),
            "--prom",
            str(prom),
        )
        assert code == 0
        assert "gate trace_noninterference: PASS" in out
        spans = load_trace_jsonl(trace)
        assert any(s["name"] == "serve.request" for s in spans)
        payload = json.loads(metrics.read_text())
        assert "metrics" in payload and "slo" in payload
        assert payload["serving"]["shards"]
        assert "# TYPE repro_serve_completed counter" in prom.read_text()

    def test_observed_chrome_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        code, _ = run_cli(
            capsys,
            *self.ARGS,
            "--trace",
            str(trace),
            "--trace-format",
            "chrome",
        )
        assert code == 0
        doc = json.loads(trace.read_text())
        pids = {
            e["pid"]
            for e in doc["traceEvents"]
            if e.get("name") == "serve.request"
        }
        assert pids == {1, 2}  # shards 0 and 1

    def test_observed_requires_single_rate(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(
                capsys,
                "serve-bench",
                "--rates",
                "0.5,2.0",
                "--trace",
                "-",
            )

    def test_serve_report_subcommand(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code, _ = run_cli(
            capsys,
            *self.ARGS,
            "--trace",
            str(trace),
            "--metrics-output",
            str(metrics),
        )
        assert code == 0
        code, out = run_cli(
            capsys,
            "serve-report",
            "--trace",
            str(trace),
            "--metrics",
            str(metrics),
        )
        assert code == 0
        assert "serve-report — 25 requests" in out
        assert "bottleneck:" in out

    def test_serve_report_missing_trace(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(capsys, "serve-report", "--trace", str(tmp_path / "no.jsonl"))

    def test_bad_slo_thresholds(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(
                capsys, *self.ARGS, "--trace", "-", "--slo-thresholds", "a,b"
            )


# -- asyncio backend ----------------------------------------------------------


@pytest.mark.async_backend
class TestAsyncBackend:
    def test_traced_async_digests_match_virtual(self):
        virtual_digests = serve_seeded(
            rate=RATE, num_requests=15, seed=SEED
        ).digests()
        tracer = Tracer()
        report = serve_seeded(
            rate=RATE,
            num_requests=15,
            seed=SEED,
            backend="asyncio",
            tracer=tracer,
            slo=SloTracker(),
        )
        assert report.digests() == virtual_digests
        names = {s.name for s in tracer.spans}
        assert "serve.request" in names
        assert "service.invoke" in names  # the engine shares the tracer
        roots = [s for s in tracer.spans if s.name == "serve.request"]
        assert all(s.attrs["backend"] == "asyncio" for s in roots)
        counters = report.metrics.snapshot()["counters"]
        assert counters.get("serve.completed", 0) == len(report.completed())

    def test_untraced_async_unchanged(self):
        plain = serve_seeded(
            rate=RATE, num_requests=10, seed=SEED, backend="asyncio"
        )
        traced = serve_seeded(
            rate=RATE,
            num_requests=10,
            seed=SEED,
            backend="asyncio",
            tracer=Tracer(),
        )
        assert traced.digests() == plain.digests()
