"""Tests for the unified observability layer (``repro.obs``).

Covers the tracer's span-tree mechanics, the metrics registry and its
legacy-stat absorbers, trace exporters (JSONL byte-determinism, Chrome
``trace_event`` schema), the explain surface, the ``ok_only`` call-log
views under retried chunks, and — the layer's core contract — that
enabling tracing changes *nothing* about plan choice or execution.
"""

from __future__ import annotations

import json

import pytest

from repro.core.optimizer import Optimizer
from repro.core.topology import topology_signature
from repro.engine.events import CallLog, CallRecord, VirtualClock
from repro.engine.executor import execute_plan
from repro.engine.retry import RetryPolicy
from repro.errors import SearchComputingError
from repro.joins.methods import ListChunkSource, ParallelJoinExecutor
from repro.model.scoring import LinearScoring
from repro.model.tuples import ServiceTuple
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    SpanRecord,
    Tracer,
    build_explain,
    coerce_tracer,
    record_call_log,
    record_optimization,
    snapshot_run,
    spans_to_chrome_trace,
    spans_to_jsonl,
    write_trace,
)
from repro.obs.explain import q_error
from repro.services.marts import RUNNING_EXAMPLE_INPUTS
from repro.services.simulated import FaultModel, ServicePool


# -- helpers -------------------------------------------------------------------


def traced_run(
    movie_query,
    movie_registry,
    tracer=None,
    seed=2009,
    fault_model=None,
    retry=None,
):
    """Optimize and execute the running example under one tracer."""
    tracer = coerce_tracer(tracer)
    outcome = Optimizer(movie_query, tracer=tracer).optimize()
    best = outcome.best
    assert best is not None
    pool = ServicePool(
        movie_registry,
        global_seed=seed,
        fault_model=fault_model or FaultModel(),
    )
    tracer.bind_clock(pool.clock)
    result = execute_plan(
        best.plan,
        movie_query,
        pool,
        RUNNING_EXAMPLE_INPUTS,
        best.fetch_vector(),
        retry=retry,
        tracer=tracer,
    )
    return outcome, result


# -- tracer mechanics ----------------------------------------------------------


class TestTracer:
    def test_spans_nest_and_record_ids_in_start_order(self):
        tracer = Tracer()
        with tracer.span("outer", a=1):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        spans = {s.name: s for s in tracer.spans}
        assert spans["outer"].parent_id is None
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["sibling"].parent_id == spans["outer"].span_id
        assert spans["outer"].span_id == 1  # started first
        assert [s.span_id for s in tracer.ordered()] == [1, 2, 3]
        assert spans["outer"].attrs == {"a": 1}

    def test_timestamps_ride_the_virtual_clock(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("work"):
            clock.advance(2.5)
        (span,) = tracer.spans
        assert span.start == 0.0 and span.end == 2.5
        assert span.duration == 2.5

    def test_unbound_tracer_pins_time_to_zero_then_binds(self):
        tracer = Tracer()
        with tracer.span("compile"):
            pass
        clock = VirtualClock()
        tracer.bind_clock(clock)
        with tracer.span("execute"):
            clock.advance(1.0)
        compile_span, execute_span = tracer.ordered()
        assert compile_span.start == compile_span.end == 0.0
        assert execute_span.end == 1.0

    def test_set_add_and_error_attrs(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.set("k", "v")
            span.add("n")
            span.add("n", 4)
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        done, boom = tracer.ordered()
        assert done.attrs == {"k": "v", "n": 5}
        assert boom.attrs["error"] == "ValueError"

    def test_orphaned_children_are_closed_with_parent(self):
        tracer = Tracer()
        parent = tracer.span("parent")
        tracer.span("left-open")
        parent.__exit__(None, None, None)
        # Finish order: the orphan closes first; start order: parent first.
        assert [s.name for s in tracer.spans] == ["left-open", "parent"]
        assert [s.name for s in tracer.ordered()] == ["parent", "left-open"]
        # The stack is clean: the next span is a root again.
        with tracer.span("next"):
            pass
        assert tracer.finished("next")[0].parent_id is None

    def test_null_tracer_is_shared_disabled_and_recordless(self):
        assert coerce_tracer(None) is NULL_TRACER
        assert NULL_TRACER.enabled is False
        span = NULL_TRACER.span("anything", a=1)
        with span:
            span.set("k", 1)
            span.add("k")
        assert NULL_TRACER.spans == ()
        tracer = Tracer()
        assert coerce_tracer(tracer) is tracer


# -- metrics registry ----------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.0)
        for value in (1, 2, 3, 4):
            registry.histogram("h").observe(value)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 1.0}
        histogram = snap["histograms"]["h"]
        assert histogram["count"] == 4
        assert histogram["min"] == 1 and histogram["max"] == 4
        assert histogram["mean"] == 2.5
        assert histogram["p50"] == 3  # nearest-rank on the sorted values

    def test_counters_refuse_to_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_views_are_lazy_gauges(self):
        registry = MetricsRegistry()
        state = {"value": 1.0}
        registry.view("live", lambda: state["value"])
        state["value"] = 7.0
        assert registry.snapshot()["gauges"]["live"] == 7.0

    def test_snapshot_keys_are_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc()
        assert list(registry.snapshot()["counters"]) == ["a", "z"]

    def test_record_optimization_absorbs_bnb_stats(self, movie_query):
        outcome = Optimizer(movie_query).optimize()
        registry = MetricsRegistry()
        record_optimization(
            registry, outcome.stats, best_cost=outcome.best.cost
        )
        snap = registry.snapshot()
        assert snap["counters"]["optimizer.expanded"] == outcome.stats.expanded
        assert snap["counters"]["optimizer.deduped"] == outcome.stats.deduped
        assert snap["gauges"]["optimizer.best_cost"] == outcome.best.cost

    def test_snapshot_run_unifies_optimizer_and_execution(
        self, movie_query, movie_registry
    ):
        outcome, result = traced_run(movie_query, movie_registry)
        snap = snapshot_run(outcome.stats, result, best_cost=outcome.best.cost)
        assert snap["counters"]["executor.pairs_probed"] == result.pairs_probed
        assert snap["counters"]["calls.total"] == result.total_calls
        assert snap["gauges"]["executor.execution_time"] == result.execution_time
        assert snap["histograms"]["calls.latency"]["count"] == result.total_calls
        # Per-alias round trips and delivered responses both present.
        assert snap["counters"]["calls.by_alias.M"] >= 1
        assert snap["counters"]["calls.delivered.M"] >= 1
        # The one-call convenience on the result matches.
        assert result.metrics()["counters"]["calls.total"] == result.total_calls
        # JSON-serialisable as-is (what BENCH_*.json embeds).
        json.dumps(snap)


# -- ok_only call-log views (satellite: retried chunks) ------------------------


class TestOkOnlyCallViews:
    def _log_with_retries(self):
        log = CallLog()

        def call(alias, outcome, attempt=1):
            log.record(
                CallRecord(
                    service={"M": "Movie1", "T": "Theatre1"}[alias],
                    alias=alias,
                    chunk_index=0,
                    started_at=0.0,
                    latency=0.5,
                    tuples=0 if outcome != "ok" else 3,
                    outcome=outcome,
                    attempt=attempt,
                )
            )

        call("M", "ok")
        call("M", "error")          # chunk 2, attempt 1 fails...
        call("M", "ok", attempt=2)  # ...retry delivers it
        call("T", "timeout")
        call("T", "timeout", attempt=2)
        call("T", "ok", attempt=3)  # one chunk, three round trips
        return log

    def test_retried_chunk_counts_once_in_ok_only(self):
        log = self._log_with_retries()
        assert log.calls_by_alias() == {"M": 3, "T": 3}
        assert log.calls_by_alias(ok_only=True) == {"M": 2, "T": 1}

    def test_slow_calls_still_count_as_delivered(self):
        log = CallLog()
        log.record(
            CallRecord(
                service="Movie1",
                alias="M",
                chunk_index=0,
                started_at=0.0,
                latency=4.0,
                tuples=3,
                outcome="slow",
            )
        )
        assert log.calls_by_alias(ok_only=True) == {"M": 1}

    def test_ok_only_under_injected_faults(self, movie_query, movie_registry):
        """End-to-end: with retries, total round trips exceed delivered
        responses by exactly the failed attempts, per alias."""
        _, result = traced_run(
            movie_query,
            movie_registry,
            seed=2,
            fault_model=FaultModel.uniform(failure_rate=0.3),
            retry=RetryPolicy(max_attempts=6, base_backoff=0.1),
        )
        log = result.log
        assert log.retries() > 0
        total = log.calls_by_alias()
        delivered = log.calls_by_alias(ok_only=True)
        assert total != delivered
        for alias, count in total.items():
            assert count - delivered.get(alias, 0) == log.failed_calls(alias)
        assert result.calls_by_alias(ok_only=True) == delivered

    def test_record_call_log_separates_delivered_from_round_trips(self):
        registry = MetricsRegistry()
        record_call_log(registry, self._log_with_retries())
        snap = registry.snapshot()
        assert snap["counters"]["calls.by_alias.T"] == 3
        assert snap["counters"]["calls.delivered.T"] == 1
        assert snap["counters"]["calls.failed"] == 3
        assert snap["counters"]["calls.retries"] == 3


# -- exporters -----------------------------------------------------------------


class TestExporters:
    def test_jsonl_trace_is_byte_deterministic(
        self, movie_query, movie_registry
    ):
        """Same seed + query => byte-identical JSONL span log."""
        first = Tracer()
        second = Tracer()
        traced_run(movie_query, movie_registry, first, seed=7)
        traced_run(movie_query, movie_registry, second, seed=7)
        assert spans_to_jsonl(first.spans) == spans_to_jsonl(second.spans)

    def test_jsonl_is_one_parseable_object_per_span(self):
        tracer = Tracer()
        with tracer.span("a", z=1, b="x"):
            pass
        text = spans_to_jsonl(tracer.spans)
        assert text.endswith("\n")
        (line,) = text.strip().splitlines()
        parsed = json.loads(line)
        assert parsed["name"] == "a"
        assert parsed["attrs"] == {"b": "x", "z": 1}
        assert spans_to_jsonl([]) == ""

    def test_chrome_trace_schema_roundtrip(self, movie_query, movie_registry):
        tracer = Tracer()
        traced_run(movie_query, movie_registry, tracer)
        document = spans_to_chrome_trace(tracer.spans, label="fig10")
        # Round-trip through JSON (what Perfetto ingests).
        parsed = json.loads(json.dumps(document))
        events = parsed["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {m["name"] for m in metadata} == {"process_name", "thread_name"}
        assert len(complete) == len(tracer.spans)
        for event in complete:
            assert event["pid"] == 1 and event["tid"] == 1
            assert isinstance(event["ts"], float)
            assert event["dur"] >= 0
            assert event["cat"] == event["name"].split(".", 1)[0]
            assert "span_id" in event["args"]
        # Span durations in microseconds match the virtual-time spans.
        total_plan = [e for e in complete if e["name"] == "plan.execute"]
        assert len(total_plan) == 1

    def test_write_trace_formats_and_rejects_unknown(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        jsonl_path = tmp_path / "t.jsonl"
        chrome_path = tmp_path / "t.json"
        write_trace(tracer.spans, jsonl_path, fmt="jsonl")
        write_trace(tracer.spans, chrome_path, fmt="chrome")
        assert json.loads(jsonl_path.read_text())["name"] == "s"
        assert "traceEvents" in json.loads(chrome_path.read_text())
        with pytest.raises(SearchComputingError):
            write_trace(tracer.spans, jsonl_path, fmt="protobuf")


# -- tracing must not perturb the run ------------------------------------------


class TestTracerTransparency:
    def test_traced_and_untraced_runs_are_identical(
        self, movie_query, movie_registry
    ):
        """Acceptance: with tracing enabled, plan choice, execution result,
        and call log are identical to the untraced run."""
        plain_outcome, plain = traced_run(
            movie_query, movie_registry, tracer=None, seed=13
        )
        tracer = Tracer()
        traced_outcome, traced = traced_run(
            movie_query, movie_registry, tracer=tracer, seed=13
        )
        assert tracer.spans  # tracing actually happened
        assert plain_outcome.best.cost == traced_outcome.best.cost
        assert topology_signature(plain_outcome.best.plan) == topology_signature(
            traced_outcome.best.plan
        )
        assert plain_outcome.best.fetch_vector() == traced_outcome.best.fetch_vector()
        assert plain_outcome.stats == traced_outcome.stats
        assert plain.tuples == traced.tuples
        assert plain.execution_time == traced.execution_time
        assert plain.time_to_screen == traced.time_to_screen
        assert plain.pairs_probed == traced.pairs_probed
        assert plain.log.records == traced.log.records

    def test_expected_span_families_present(self, movie_query, movie_registry):
        tracer = Tracer()
        traced_run(movie_query, movie_registry, tracer)
        names = {s.name for s in tracer.spans}
        assert {
            "optimize.warm_start",
            "optimize.search",
            "bnb.expand",
            "plan.execute",
            "node.service",
            "node.join",
            "node.output",
            "service.invoke",
            "fetch.chunk",
            "join.probe",
        } <= names
        # bnb.expand spans are children of optimize.search, labelled by phase.
        (search,) = tracer.finished("optimize.search")
        expansions = [
            s for s in tracer.finished("bnb.expand")
            if s.parent_id == search.span_id
        ]
        assert expansions
        assert all(s.attrs["kind"].startswith("phase") for s in expansions)

    def test_retry_backoff_spans_on_virtual_time(
        self, movie_query, movie_registry
    ):
        tracer = Tracer()
        _, result = traced_run(
            movie_query,
            movie_registry,
            tracer,
            seed=2,
            fault_model=FaultModel.uniform(failure_rate=0.3),
            retry=RetryPolicy(max_attempts=6, base_backoff=0.1),
        )
        backoffs = tracer.finished("retry.backoff")
        assert len(backoffs) == result.log.retries()
        for span in backoffs:
            assert span.duration == pytest.approx(span.attrs["wait"])


# -- join tile spans -----------------------------------------------------------


class TestJoinTileSpans:
    def _source(self, seed, label, n=30, chunk=5):
        scoring = LinearScoring(horizon=n)
        tuples = [
            ServiceTuple(
                {"key": (i * seed) % 7},
                score=scoring.score_at(i),
                source=label,
                position=i,
            )
            for i in range(n)
        ]
        return ListChunkSource(tuples, chunk, scoring)

    def test_tile_spans_account_for_all_probes(self):
        tracer = Tracer()
        executor = ParallelJoinExecutor(
            self._source(3, "X"),
            self._source(5, "Y"),
            lambda a, b: a.values["key"] == b.values["key"],
            tracer=tracer,
        )
        outcome = executor.run()
        tiles = tracer.finished("join.tile")
        assert tiles
        assert (
            sum(s.attrs["pairs_probed"] for s in tiles)
            == outcome.stats.pairs_probed
        )
        assert sum(s.attrs["matches"] for s in tiles) == outcome.stats.results

    def test_untraced_executor_matches_traced(self):
        predicate = lambda a, b: a.values["key"] == b.values["key"]  # noqa: E731
        plain = ParallelJoinExecutor(
            self._source(3, "X"), self._source(5, "Y"), predicate
        ).run()
        traced = ParallelJoinExecutor(
            self._source(3, "X"),
            self._source(5, "Y"),
            predicate,
            tracer=Tracer(),
        ).run()
        assert [
            (p.left.position, p.right.position) for p in plain.pairs
        ] == [(p.left.position, p.right.position) for p in traced.pairs]
        assert plain.stats.pairs_probed == traced.stats.pairs_probed


# -- explain -------------------------------------------------------------------


class TestExplain:
    def test_tree_lines_up_estimates_and_measurements(
        self, movie_query, movie_registry
    ):
        outcome, result = traced_run(movie_query, movie_registry)
        best = outcome.best
        report = build_explain(best.plan, best.annotations, result)
        text = report.render()
        assert report.root.kind == "OutputNode"
        assert report.actual_results == len(result.tuples)
        assert report.pairs_probed == result.pairs_probed
        assert "[est " in text and "| act " in text
        assert "probes=" in text
        assert "bottleneck" in text
        # Exactly one service is flagged as the bottleneck.
        flagged = [
            line for line in text.splitlines() if "<- bottleneck" in line
        ]
        assert len(flagged) == 1
        assert report.bottleneck_alias is not None

    def test_estimates_only_when_not_executed(self, movie_query):
        outcome = Optimizer(movie_query).optimize()
        best = outcome.best
        report = build_explain(best.plan, best.annotations)
        text = report.render()
        assert report.actual_results is None
        assert "est" in text
        assert "measured:" not in text

    def test_service_nodes_carry_delivered_call_counts(
        self, movie_query, movie_registry
    ):
        outcome, result = traced_run(
            movie_query,
            movie_registry,
            seed=2,
            fault_model=FaultModel.uniform(failure_rate=0.3),
            retry=RetryPolicy(max_attempts=6, base_backoff=0.1),
        )
        report = build_explain(
            outcome.best.plan, outcome.best.annotations, result
        )
        delivered = result.log.calls_by_alias(ok_only=True)

        services = []

        def collect(node):
            if node.kind == "ServiceNode":
                services.append(node)
            for child in node.children:
                collect(child)

        collect(report.root)
        assert services
        by_alias = {node.alias: node for node in services}
        for alias, node in by_alias.items():
            assert node.act_calls_ok == delivered[alias]
        # At least one alias needed retries, so ok != total there.
        assert any(
            node.act_calls_ok != node.act_calls for node in services
        )


# -- CLI surface ---------------------------------------------------------------


class TestObservabilityCLI:
    def run_cli(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    def test_run_writes_jsonl_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, out = self.run_cli(capsys, "run", "--trace", str(path))
        assert code == 0
        assert "trace:" in out
        lines = path.read_text().strip().splitlines()
        spans = [json.loads(line) for line in lines]
        assert {"compile.query", "plan.execute"} <= {s["name"] for s in spans}

    def test_run_writes_chrome_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        code, _ = self.run_cli(
            capsys, "run", "--trace", str(path), "--trace-format", "chrome"
        )
        assert code == 0
        document = json.loads(path.read_text())
        assert document["traceEvents"]
        assert any(e["ph"] == "X" for e in document["traceEvents"])

    def test_run_metrics_json(self, capsys):
        code, out = self.run_cli(capsys, "run", "--metrics", "json")
        assert code == 0
        snapshot = json.loads(out[out.index("{"):])
        assert "optimizer.expanded" in snapshot["counters"]
        assert "calls.total" in snapshot["counters"]
        assert "executor.execution_time" in snapshot["gauges"]

    def test_run_without_trace_matches_traced_run(self, capsys, tmp_path):
        """The CLI output itself is identical with and without --trace."""
        code_plain, out_plain = self.run_cli(capsys, "run", "--seed", "3")
        path = tmp_path / "t.jsonl"
        code_traced, out_traced = self.run_cli(
            capsys, "run", "--seed", "3", "--trace", str(path)
        )
        assert code_plain == code_traced == 0
        trace_line_prefix = "trace:"
        stripped = "\n".join(
            line
            for line in out_traced.splitlines()
            if not line.startswith(trace_line_prefix)
        )
        assert stripped.strip() == out_plain.strip()

    def test_explain_subcommand(self, capsys):
        code, out = self.run_cli(capsys, "explain")
        assert code == 0
        assert "OUTPUT" in out
        assert "[est " in out and "| act " in out
        assert "bottleneck:" in out
        assert "world: " in out and "0 fallback constraint checks" in out

    def test_explain_reports_the_movie_querys_k_shortfall(self, capsys):
        """The default movie query returns 2 of ``LIMIT 10`` while its ``M``
        and ``T`` lists stop at their fetch factors: 8 short.  A plan that
        returns ``k`` prints no shortfall."""
        code, out = self.run_cli(capsys, "explain")
        assert code == 0
        (line,) = [row for row in out.splitlines() if row.startswith("results:")]
        assert line == "results: estimated 11.2, actual 2, k-shortfall 8"
        code, out = self.run_cli(capsys, "explain", "--schema", "conference")
        assert code == 0 and "k-shortfall" not in out

    def test_explain_prints_each_nodes_q_error_and_the_worst(self, capsys):
        """``q = max(e', a') / min(e', a')`` with both floored at 1: on the
        default movie query ``R`` estimates 8 tuples and yields 1 (8.0),
        and 20 calls for 11 made (1.82); the join and the output 11.2 for
        2 (5.6)."""
        code, out = self.run_cli(capsys, "explain")
        assert code == 0
        lines = {row.split("[")[0].strip(): row for row in out.splitlines()}
        assert "q(tout)=8.0  q(calls)=1.82  " in lines["R:Restaurant1 (search)"]
        assert "]  q(tout)=5.6  probes=" in lines["JOIN MS/tri"]
        assert "]  q(tout)=5.6  final_check=" in lines["OUTPUT"]
        assert "q(tout)=1.0  q(calls)=1.0  " in lines["T:Theatre1 (search)"]
        assert "q(calls)" not in lines["JOIN MS/tri"] + lines["OUTPUT"]
        assert lines["q-error: worst tout 8.0 at R, worst calls 1.82 at R"]
        assert q_error(8, 1) == q_error(1, 8) == 8.0
        assert q_error(0.2, 0) == 1.0 and q_error(None, 3) is None

    def test_k_shortfall_counts_only_lists_cut_at_their_factor(self):
        from repro.cli import _optimize, build_parser

        _, compiled, inputs, _, outcome = _optimize(build_parser().parse_args(["run"]))
        best = outcome.best
        run = lambda fetches, k=None: execute_plan(  # noqa: E731
            best.plan, compiled, ServicePool(compiled.registry, global_seed=2009),
            inputs, fetches, k=k,
        )
        result = run(best.fetch_vector())
        assert (len(result.tuples), result.k_shortfall) == (2, 8)
        # Far more than any list holds, for every combination there is: each
        # list ends before its factor, so the run returned all there is.
        wide = run({alias: 10_000 for alias in best.fetch_vector()}, k=10**9)
        assert len(wide.tuples) < 10**9 and wide.k_shortfall == 0
        assert run(best.fetch_vector(), k=10**9).k_shortfall == 10**9 - 2

    def test_serve_summary_counts_the_runs_that_fell_short(self):
        from repro.serve import ServeConfig, WorkloadConfig, serve

        report = serve(ServeConfig(), WorkloadConfig(num_requests=40, seed=2009))
        runs = [o for o in report.outcomes.values() if o.request.kind == "run"]
        short = [o for o in runs if o.k_shortfall]
        assert report.summary()["k_shortfall_runs"] == len(short) == 14
        assert all(len(o.results) + o.k_shortfall == 10 for o in short)
        assert len(runs) == 32

    def test_explain_search_line_counts_the_whole_optimization(self, capsys):
        """The ``search:`` line reads warm start plus search: the search
        takes over the dive's children, so its own share can read 0."""
        import re

        from repro.cli import _optimize, build_parser

        code, out = self.run_cli(capsys, "explain")
        assert code == 0
        (line,) = [row for row in out.splitlines() if row.startswith("search:")]
        match = re.search(
            r"(\d+) children priced, (\d+) built, (\d+) plans? materialised",
            line,
        )
        assert match, line
        priced, built, plans = map(int, match.groups())
        outcome = _optimize(build_parser().parse_args(["explain"]))[-1]
        phase2 = outcome.phase2
        assert (priced, built, plans) == (
            phase2.children_priced,
            phase2.children_built,
            phase2.plans_materialised,
        )
        assert 0 < built <= priced and plans >= 1
        assert outcome.stats.children_priced <= priced

    def test_explain_with_faults_shows_delivered(self, capsys):
        code, out = self.run_cli(
            capsys,
            "explain",
            "--seed",
            "2",
            "--failure-rate",
            "0.3",
            "--max-attempts",
            "6",
        )
        assert code == 0
        assert "ok)" in out or "delivered" in out
