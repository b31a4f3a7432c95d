"""Tests for the ``python -m repro`` command-line interface."""

import argparse
import json
import os

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestRegistry:
    def test_movie_catalogue(self, capsys):
        code, out = run_cli(capsys, "registry", "--schema", "movie")
        assert code == 0
        assert "Movie1" in out and "pattern Shows" in out

    def test_conference_catalogue(self, capsys):
        code, out = run_cli(capsys, "registry", "--schema", "conference")
        assert code == 0
        assert "Flight1" in out and "pattern Stay" in out


class TestPlan:
    def test_default_plan(self, capsys):
        code, out = run_cli(capsys, "plan")
        assert code == 0
        assert "OUTPUT" in out
        assert "fetches:" in out
        assert "expanded" in out

    def test_metric_selection(self, capsys):
        code, out = run_cli(capsys, "plan", "--metric", "call-count")
        assert code == 0
        assert "call-count" in out

    def test_budget(self, capsys):
        code, out = run_cli(capsys, "plan", "--budget", "3")
        assert code == 0
        assert "cost" in out

    def test_custom_query(self, capsys):
        code, out = run_cli(
            capsys,
            "plan",
            "--schema",
            "movie",
            "--query",
            "SELECT Theatre1 AS T WHERE T.UAddress = INPUT4 "
            "AND T.UCity = INPUT5 AND T.UCountry = INPUT2 LIMIT 5",
        )
        assert code == 0
        assert "T:Theatre1" in out


class TestRun:
    def test_run_prints_combinations(self, capsys):
        code, out = run_cli(capsys, "run", "--seed", "3", "--fetch-boost", "2")
        assert code == 0
        assert "service calls" in out
        assert "score=" in out

    def test_input_override(self, capsys):
        code, out = run_cli(
            capsys, "run", "--seed", "3", "--input", "INPUT1=genre#5"
        )
        assert code == 0

    def test_bad_input_binding(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--input", "MALFORMED"])

    def test_cache_bound_and_recovered_faults_keep_the_combinations(self, capsys):
        def combinations(out):
            return [line for line in out.splitlines() if "score=" in line]

        code, plain = run_cli(capsys, "run", "--seed", "3")
        assert code == 0
        code, bounded = run_cli(
            capsys, "run", "--seed", "3", "--invocation-cache-size", "2"
        )
        assert code == 0 and combinations(bounded) == combinations(plain)
        # One slow call trips the 3 s timeout and is retried after the
        # backoff: the run pays for it in time, not in results.
        code, faulted = run_cli(
            capsys, "run", "--seed", "3", "--timeout-rate", "0.3",
            "--slow-factor", "5", "--call-timeout", "3", "--backoff", "0.1",
        )
        assert code == 0
        assert "faults: 1 failed calls, 1 retries" in faulted
        assert combinations(faulted) == combinations(plain)


class TestRunStrict:
    """``repro run`` exit-code contract under degraded execution."""

    DEGRADED = (
        "run",
        "--seed",
        "3",
        "--outage",
        "Restaurant1",
        "--degradation",
        "partial",
    )

    def test_degraded_run_exits_zero_by_default(self, capsys):
        code, out = run_cli(capsys, *self.DEGRADED)
        assert code == 0

    def test_strict_degraded_run_exits_nonzero_with_stderr(self, capsys):
        code = main([*self.DEGRADED, "--strict"])
        captured = capsys.readouterr()
        assert code == 3
        assert "strict: execution degraded" in captured.err
        # The degraded aliases are named on stderr, not swallowed.
        assert "R" in captured.err.split("aliases", 1)[1]

    def test_strict_healthy_run_exits_zero(self, capsys):
        code = main(["run", "--seed", "3", "--strict"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""


class TestServeBench:
    def test_smoke_prints_gates_and_exits_zero(self, capsys, tmp_path):
        out_file = tmp_path / "BENCH_serving.json"
        code, out = run_cli(
            capsys,
            "serve-bench",
            "--requests",
            "10",
            "--rates",
            "1.0",
            "--output",
            str(out_file),
        )
        assert code == 0
        assert "results_identical" in out
        assert "PASS" in out
        assert out_file.exists()
        import json

        payload = json.loads(out_file.read_text())
        assert payload["benchmark"] == "serving"
        assert payload["gates"]["results_identical"] is True

    def test_rejects_bad_rates(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve-bench", "--rates", "fast"])

    def test_scenario_and_plan_cache_flags(self, capsys):
        code, out = run_cli(
            capsys,
            "serve-bench",
            "--requests", "12",
            "--rates", "2.0",
            "--scenario", "travel",
            "--plan-cache-size", "4",
            "--gates", "all",
        )
        assert code == 0
        assert "scenario travel" in out

    def test_requested_gate_failure_is_nonzero(self, capsys):
        # At this tiny seeded scale the soft p95 gate deterministically
        # fails: the default (hard gates only) run exits 0, but asking
        # for all gates turns the same run into a nonzero exit.
        argv = [
            "serve-bench",
            "--requests", "8",
            "--rates", "1.0",
            "--scenario", "travel",
        ]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert "shared_improves_p95_latency: FAIL" in out
        code = main(argv + ["--gates", "all"])
        captured = capsys.readouterr()
        assert code == 1
        assert "shared_improves_p95_latency" in captured.err

    def test_durable_serve_and_resume(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpt"
        argv = [
            "serve-bench",
            "--requests", "20",
            "--rates", "3.0",
            "--checkpoint-every", "5",
            "--checkpoint-dir", str(ckpt),
        ]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert "durable serving" in out
        digest = next(
            line for line in out.splitlines() if "combined digest" in line
        )
        code, out = run_cli(capsys, *argv, "--resume")
        assert code == 0
        assert "resumed from" in out
        assert digest in out  # resume reproduces the digest exactly

    def test_durable_serve_needs_dir_and_single_rate(self):
        with pytest.raises(SystemExit):
            main(["serve-bench", "--checkpoint-every", "5"])
        with pytest.raises(SystemExit):
            main([
                "serve-bench", "--checkpoint-every", "5",
                "--checkpoint-dir", "/tmp/x", "--rates", "1.0,2.0",
            ])

    #: Malformed values: argparse refuses them with its usage line naming
    #: the flag (the last one in the argv) and exit status 2.
    MALFORMED = [
        ["--rates", "fast"],
        ["--rates", " , "],
        ["--rates", "1.0,nan"],
        ["--rates", "1.0", "--service-rate", "nan"],
    ]
    #: Valid values that describe no ``ServeConfig``: one ``repro:
    #: ExecutionError`` line and exit status 2.
    NO_CONFIG = [
        ["--rates", "1.0", "--checkpoint-every", "5", "--checkpoint-dir", "d",
         "--backend", "asyncio"],
        ["--rates", "1.0", "--shards", "2", "--backend", "asyncio"],
    ]
    #: One argv per row of ``cli._SERVE_FLAG_RULES``, in table order, each
    #: violating that row and none before it: the row's message, status 1.
    INCOMPATIBLE = [
        ["--rates", "0.5,2.0", "--trace", "-"],
        ["--rates", "0.5,2.0", "--checkpoint-every", "5", "--checkpoint-dir", "d"],
        ["--rates", "1.0", "--resume"],
        ["--rates", "1.0", "--shards", "2", "--parallel", "--prom", "m.prom"],
    ]
    REFUSED = MALFORMED + NO_CONFIG + INCOMPATIBLE

    def test_every_flag_rule_has_a_case(self):
        from repro.cli import _SERVE_FLAG_RULES

        assert len(self.INCOMPATIBLE) == len(_SERVE_FLAG_RULES)

    @pytest.mark.parametrize("row", range(len(REFUSED)))
    def test_incompatible_flags_exit_with_the_rule_message(self, row, capsys):
        # Each argv is refused by the one rule that owns it, before
        # anything is served or printed.
        from repro.cli import _SERVE_FLAG_RULES

        argv = self.REFUSED[row]
        try:
            status = main(["serve-bench", *argv])
        except SystemExit as exit_info:
            status = exit_info.code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        if argv in self.MALFORMED:
            assert status == 2
            assert captured.err.splitlines()[-1].startswith(
                f"repro serve-bench: error: argument {argv[-2]}: "
            )
        elif argv in self.NO_CONFIG:
            assert status == 2
            (line,) = captured.err.splitlines()
            assert line.startswith("repro: ExecutionError: ")
        else:
            # ``SystemExit(message)``: the message goes to stderr, status 1.
            _, message = _SERVE_FLAG_RULES[self.INCOMPATIBLE.index(argv)]
            assert status == message

    def test_incompatible_flags_exit_status_is_one(self):
        import subprocess
        import sys

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve-bench", *self.INCOMPATIBLE[0]],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == (
            "--trace/--metrics/--prom take exactly one --rates value "
            "(one run, one trace)\n"
        )

    def test_every_mode_reports_the_same_combined_digest(self, capsys, tmp_path):
        import json

        digests = {}
        for benchmark, flags in {
            "serving": (),
            "serve-sharded": ("--shards", "2"),
            "serve-observed": ("--shards", "2", "--trace", "trace.jsonl"),
            "serve-durable": ("--checkpoint-every", "4", "--checkpoint-dir",
                              str(tmp_path / "ckpt")),
        }.items():
            code, _ = run_cli(
                capsys, "serve-bench", "--requests", "12", "--rates", "2.0",
                "--artifacts-dir", str(tmp_path), "--output", "report.json", *flags,
            )
            assert code == 0
            payload = json.loads((tmp_path / "report.json").read_text())
            assert payload["benchmark"] == benchmark
            digests[benchmark] = payload["combined_digest"]
        # Same seeded workload, so one digest whatever the mode.
        assert len(set(digests.values())) == 1, digests


class TestScenarios:
    def test_lists_all_packs(self, capsys):
        code, out = run_cli(capsys, "scenarios")
        assert code == 0
        for name in ("travel", "shopping", "scholar"):
            assert name in out
        assert "serve-bench --scenario" in out


class TestCheckpointResume:
    def test_midplan_checkpoint_then_resume(self, capsys, tmp_path):
        code, out = run_cli(
            capsys,
            "checkpoint",
            "--schema", "shopping",
            "--steps", "3",
            "--dir", str(tmp_path),
            "--key", "demo",
        )
        assert code == 0
        assert "mid-plan" in out
        code, out = run_cli(capsys, "resume", "--dir", str(tmp_path))
        assert code == 0
        assert "resumed 'demo' mid-plan" in out
        assert "combinations" in out

    def test_quiescent_checkpoint_and_listing(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "checkpoint", "--dir", str(tmp_path), "--key", "full"
        )
        assert code == 0
        assert "quiescent" in out
        code, out = run_cli(capsys, "resume", "--dir", str(tmp_path), "--list")
        assert code == 0
        assert "full: session checkpoint" in out

    def test_resume_empty_store_fails(self, capsys, tmp_path):
        code = main(["resume", "--dir", str(tmp_path)])
        assert code == 2


class TestTypedFailureAtTheDoor:
    """A library error ends a command with one stderr line and a documented
    exit code, never a traceback — unless ``--traceback`` asks for one."""

    @staticmethod
    def failing(capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err + captured.out
        (line,) = captured.err.splitlines()
        return code, line

    def test_malformed_query_exits_two(self, capsys):
        code, line = self.failing(capsys, "run", "--query", "SELECT")
        assert code == 2
        assert line.startswith("repro: QueryParseError: ")

    def test_unknown_interface_in_a_plan_exits_two(self, capsys):
        code, line = self.failing(
            capsys, "plan", "--query", "SELECT Nowhere1 AS N WHERE N.X = 1"
        )
        assert code == 2 and line.startswith("repro: ")

    def test_truncated_checkpoint_exits_four(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "checkpoint", "--schema", "scholar", "--steps", "2",
            "--dir", str(tmp_path), "--key", "v",
        )
        assert code == 0
        (path,) = tmp_path.iterdir()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        code, line = self.failing(capsys, "resume", "--dir", str(tmp_path))
        assert code == 4
        assert line.startswith("repro: CheckpointIntegrityError: ")

    def test_checkpoint_that_is_not_an_object_exits_four(self, capsys, tmp_path):
        # Regression: ``[]`` raised AttributeError (exit 1, a traceback).
        (tmp_path / "v.ckpt.json").write_text("[]")
        code, line = self.failing(capsys, "resume", "--dir", str(tmp_path))
        assert code == 4
        assert line == "repro: CheckpointIntegrityError: checkpoint 'v' is not a JSON object"

    def test_checksummed_payload_that_is_not_an_object_exits_four(
        self, capsys, tmp_path
    ):
        # Regression: a list payload with a valid checksum raised
        # AttributeError reading its version.
        from repro.durability import CheckpointStore

        CheckpointStore(tmp_path).save("v", [1, 2])
        code, line = self.failing(capsys, "resume", "--dir", str(tmp_path))
        assert code == 4
        assert line == (
            "repro: CheckpointIntegrityError: checkpoint 'v''s payload is not "
            "a JSON object"
        )

    def test_session_checkpoint_without_its_query_exits_four(self, capsys, tmp_path):
        # Regression: a session payload without ``query_text`` raised KeyError.
        from repro.durability import CheckpointStore

        code, _ = run_cli(
            capsys, "checkpoint", "--schema", "scholar", "--steps", "2",
            "--dir", str(tmp_path), "--key", "v",
        )
        assert code == 0
        store = CheckpointStore(tmp_path)
        payload = store.load("v")
        del payload["query_text"]
        store.save("v", payload)
        code, line = self.failing(capsys, "resume", "--dir", str(tmp_path))
        assert code == 4
        assert line == (
            "repro: CheckpointIntegrityError: session checkpoint has no query_text"
        )

    def test_session_checkpoint_of_an_unknown_metric_exits_four(self, capsys, tmp_path):
        # Regression: an unknown metric name raised KeyError at restore.
        from repro.durability import CheckpointStore

        code, _ = run_cli(
            capsys, "checkpoint", "--schema", "scholar", "--steps", "2",
            "--dir", str(tmp_path), "--key", "v",
        )
        assert code == 0
        store = CheckpointStore(tmp_path)
        payload = store.load("v")
        payload["metric"] = "bogus"
        store.save("v", payload)
        code, line = self.failing(capsys, "resume", "--dir", str(tmp_path))
        assert code == 4
        assert line == (
            "repro: CheckpointError: unknown metric 'bogus' in a session checkpoint"
        )

    @pytest.mark.parametrize(
        "damage, message",
        [
            (
                lambda p: p["witness"].pop("plan_signature"),
                "session checkpoint's witness has no plan_signature",
            ),
            (
                lambda p: p["journal"].__setitem__(0, 3),
                "session checkpoint journal entry 0 is not a JSON object",
            ),
            (
                lambda p: p["journal"][0].update(kind="rerank"),
                "session checkpoint journal entry 0 has no weights",
            ),
            (
                lambda p: p["witness"].pop("fetches"),
                "session checkpoint's witness has no fetches",
            ),
        ],
        ids=[
            "witness without plan_signature",
            "journal entry not an object",
            "rerank entry without weights",
            "witness without fetches",
        ],
    )
    def test_damaged_session_checkpoint_exits_four_on_resume(
        self, capsys, tmp_path, damage, message
    ):
        # Regression: KeyError / TypeError escaped ``repro resume`` (exit 1).
        from repro.durability import CheckpointStore

        code, _ = run_cli(
            capsys, "checkpoint", "--schema", "scholar",
            "--dir", str(tmp_path), "--key", "v",
        )
        assert code == 0
        store = CheckpointStore(tmp_path)
        payload = store.load("v")
        damage(payload)
        store.save("v", payload)
        code, line = self.failing(capsys, "resume", "--dir", str(tmp_path))
        assert code == 4
        assert line == f"repro: CheckpointIntegrityError: {message}"

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda p: p.pop("outcomes"), "checkpoint 'serve-000002' has no outcomes"),
            (lambda p: p.pop("sessions"), "checkpoint 'serve-000002' has no sessions"),
            (
                lambda p: p["outcomes"].update(x=p["outcomes"].popitem()[1]),
                "checkpoint 'serve-000002''s outcomes is keyed by a non-request id: "
                "invalid literal for int() with base 10: 'x'",
            ),
            (
                lambda p: next(iter(p["sessions"].values())).pop("query_text"),
                "checkpoint 'serve-000002' session 0 has no query_text",
            ),
        ],
        ids=["no outcomes", "no sessions", "non-integer id", "session without query"],
    )
    def test_damaged_serve_checkpoint_exits_four_on_resume(
        self, capsys, tmp_path, damage, message
    ):
        # Regression: KeyError / ValueError escaped ``serve-bench --resume``.
        from repro.durability import CheckpointStore

        common = [
            "serve-bench", "--requests", "8", "--rates", "2",
            "--checkpoint-every", "4", "--checkpoint-dir", str(tmp_path),
        ]
        code, _ = run_cli(capsys, *common)
        assert code == 0
        store = CheckpointStore(tmp_path)
        key = store.latest()
        payload = store.load(key)
        damage(payload)
        store.save(key, payload)
        code, line = self.failing(capsys, *common, "--resume")
        assert code == 4
        assert line == f"repro: CheckpointIntegrityError: {message}"

    @pytest.mark.parametrize("version", [0, 2])
    def test_checkpoint_of_another_version_exits_four(
        self, capsys, tmp_path, version
    ):
        from repro.durability import CheckpointStore

        code, _ = run_cli(
            capsys, "checkpoint", "--schema", "scholar", "--steps", "2",
            "--dir", str(tmp_path), "--key", "v",
        )
        assert code == 0
        (path,) = tmp_path.iterdir()
        payload = json.loads(path.read_text())["payload"]
        payload["version"] = version
        CheckpointStore(tmp_path).save("v", payload)
        code, line = self.failing(capsys, "resume", "--dir", str(tmp_path))
        assert code == 4
        assert line == (
            f"repro: CheckpointError: checkpoint version {version} is not 1, "
            "the version this build reads"
        )

    def test_negative_budget_exits_two(self, capsys):
        code, line = self.failing(capsys, "plan", "--budget", "-1")
        assert code == 2
        assert line.startswith("repro: OptimizationError: ")
        assert "budget" in line

    def test_negative_checkpoint_cadence_exits_two(self, capsys, tmp_path):
        # Regression: it served, printed ``gate all_completed: PASS``, exited
        # 0 and left the checkpoint directory empty.
        store = tmp_path / "ckpt"
        code, line = self.failing(
            capsys, "serve-bench", "--requests", "6", "--rates", "2",
            "--checkpoint-every", "-1", "--checkpoint-dir", str(store),
        )
        assert code == 2
        assert line == "repro: ExecutionError: checkpoint_every cannot be negative"
        assert not store.exists()

    def test_zero_plan_cache_size_exits_two_before_serving(self, capsys, tmp_path):
        # Regression: the header printed, then PlanCache died with exit 1;
        # and --artifacts-dir was created before the config was refused.
        artifacts = tmp_path / "D"
        code = main([
            "serve-bench", "--requests", "6", "--rates", "2", "--plan-cache-size", "0",
            "--artifacts-dir", str(artifacts), "--output", "r.json",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "repro: ExecutionError: plan_cache_size must be positive "
            "(None: unbounded)\n"
        )
        assert not artifacts.exists()

    @pytest.mark.parametrize("thresholds", ["0", "1,-2"])
    def test_non_positive_slo_thresholds_are_refused(self, thresholds, capsys):
        # Regression: SloTracker's ValueError escaped as a traceback.
        with pytest.raises(SystemExit) as exit_info:
            main([
                "serve-bench", "--requests", "8", "--rates", "1",
                f"--slo-thresholds={thresholds}", "--metrics", "json",
            ])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "repro serve-bench: error: argument --slo-thresholds: needs "
            f"positive numbers, got {thresholds!r}"
        )

    def test_execution_failure_keeps_exit_one_and_its_hint(self, capsys):
        code = main(["run", "--seed", "3", "--outage", "Restaurant1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "hint:" in captured.err and "Traceback" not in captured.err

    def test_traceback_flag_reraises(self, capsys, tmp_path):
        from repro.errors import CheckpointError, QueryParseError

        with pytest.raises(QueryParseError):
            main(["--traceback", "run", "--query", "SELECT"])
        (tmp_path / "v.ckpt.json").write_text("{")
        with pytest.raises(CheckpointError):
            main(["--traceback", "resume", "--dir", str(tmp_path)])


class TestTopologies:
    def test_running_example_lists_four(self, capsys):
        code, out = run_cli(capsys, "topologies")
        assert code == 0
        assert "4 distinct topologies" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_metric_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--metric", "nope"])

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--fetch-boost", "0"),
            ("run", "--fetch-boost", "-3"),
            ("explain", "--fetch-boost", "0"),
            ("serve-bench", "--shards", "0"),
            ("serve-bench", "--shards", "-1"),
            ("serve-bench", "--requests", "0"),
        ],
    )
    def test_counts_below_one_are_usage_errors(self, argv, capsys):
        # Regression: --fetch-boost 0 ran with every factor clamped to 1,
        # --shards 0 silently served the unsharded comparison, and
        # --requests 0 printed the header, then exited 1.
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert f"argument {argv[1]}: must be at least 1" in captured.err

    def test_artifacts_dir_parses_and_the_kernel_flag_is_gone(self):
        parser = build_parser()
        serve_args = parser.parse_args(["serve-bench", "--artifacts-dir", "out"])
        assert serve_args.artifacts_dir == "out"
        # The engine has no kernel knob (DESIGN.md, "Why the engine has no
        # kernel knob"): the flag is rejected, not silently accepted.
        for command in ("plan", "run", "explain", "serve-bench"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--join-kernel", "wcoj"])


# -- artifact-path plumbing (--artifacts-dir) ------------------------------------


def _artifact_args(**kwargs):
    defaults = {
        "artifacts_dir": "artifacts",
        "trace": None,
        "metrics_output": None,
        "prom": None,
        "output": None,
    }
    defaults.update(kwargs)
    return argparse.Namespace(**defaults)


def test_artifact_paths_land_under_artifacts_dir(tmp_path, monkeypatch):
    from repro.cli import _resolve_artifact_paths

    monkeypatch.chdir(tmp_path)
    args = _artifact_args(trace="serve-trace.jsonl", prom="serve-metrics.prom")
    _resolve_artifact_paths(args)
    assert args.trace == os.path.join("artifacts", "serve-trace.jsonl")
    assert args.prom == os.path.join("artifacts", "serve-metrics.prom")
    assert (tmp_path / "artifacts").is_dir()
    assert args.output is None  # untouched when unset


def test_artifact_paths_leave_stdout_and_absolute_alone(tmp_path, monkeypatch):
    from repro.cli import _resolve_artifact_paths

    monkeypatch.chdir(tmp_path)
    absolute = str(tmp_path / "elsewhere" / "t.json")
    args = _artifact_args(trace="-", output=absolute)
    _resolve_artifact_paths(args)
    assert args.trace == "-"
    assert args.output == absolute
    assert not (tmp_path / "artifacts").exists()  # nothing to place

    disabled = _artifact_args(artifacts_dir="", trace="x.jsonl")
    _resolve_artifact_paths(disabled)
    assert disabled.trace == "x.jsonl"
