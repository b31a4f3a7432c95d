"""Tests of the benchmark itself (not collected by tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  The smoke
runs every workload at ``--scale 0.05`` in this process, both ways.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import entrypoints  # noqa: E402
import run  # noqa: E402
from layers import EXACT, PER_LAYER  # noqa: E402
from trace import covered, self_seconds_by, self_times, layer_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCALE = 0.05
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def smoke(name: str, traced: bool, seed: int = 2009, pins: dict | None = None) -> dict:
    return run.measure(
        name, seed, seconds=0.0, traced=traced, scale=SCALE, setup_reps=1, pins=pins
    )


@pytest.fixture(scope="module")
def suite() -> dict:
    """Every workload, tracing off and on, at smoke scale; must take < 15 s."""
    started = time.perf_counter()
    records = {
        name: {"plain": smoke(name, False), "traced": smoke(name, True)}
        for name in WORKLOADS
    }
    records["seconds"] = time.perf_counter() - started
    return records


def test_smoke_is_fast_and_correct(suite):
    assert suite["seconds"] < 15
    for name in WORKLOADS:
        for mode in ("plain", "traced"):
            record = suite[name][mode]
            assert record["correct"], (name, mode, record["detail"]["mismatches"])
            assert record["failed"] == 0 and record["attempted"] >= 1
            assert record["detail"]["failed_share"] == 0


def test_metric_names_match_benchmark_json(suite):
    spec = run.SPEC
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    assert "setup_s" in end_to_end
    names = end_to_end + per_layer + [w["name"] for w in spec["workloads"]]
    assert len(set(end_to_end + per_layer)) == len(end_to_end + per_layer)
    assert all(NAME.match(name) for name in names), names
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert per_layer == list(PER_LAYER)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in WORKLOADS:
        plain, traced = suite[name]["plain"], suite[name]["traced"]
        assert list(plain["metrics"]) == end_to_end
        assert list(traced["metrics"]) == per_layer
        for metric, cell in {**plain["metrics"], **traced["metrics"]}.items():
            assert cell["unit"] == units[metric]
        # End-to-end metrics are never zero, on any workload.
        assert all(cell["value"] > 0 for cell in plain["metrics"].values())


def test_layers_the_workload_bypasses_read_zero(suite):
    def value(name, metric):
        return suite[name]["traced"]["metrics"][metric]["value"]

    for name in ("serve_hot", "serve_tail", "serve_durable", "plan_cold"):
        assert all(value(name, m) == 0 for m in PER_LAYER if m.startswith("joins."))
    for name in ("serve_hot", "serve_tail", "plan_cold", "join_kernels"):
        assert all(value(name, m) == 0 for m in PER_LAYER if m.startswith("durability."))
    assert value("serve_durable", "durability.checkpoint_writes") > 0
    assert value("serve_durable", "durability.restore_ms_total") > 0
    assert value("plan_cold", "services.invoke_calls") == 0
    assert value("plan_cold", "core.optimize_calls") > 0
    assert value("join_kernels", "joins.wcoj.triangle_ms") > 0
    assert value("join_kernels", "query.satisfies_calls") == 0
    assert value("serve_tail", "serve.shard_imbalance") >= 1


def test_layer_self_times_add_up_to_the_batch(suite):
    for name in WORKLOADS:
        detail = suite[name]["traced"]["detail"]
        layers = detail["self_ms_by_layer"]
        assert sum(layers.values()) == pytest.approx(detail["traced_wall_ms"], rel=0.05)


def test_exact_metrics_repeat_bit_for_bit(suite):
    for name in WORKLOADS:
        again = smoke(name, True)
        first = suite[name]["traced"]
        assert again["detail"]["exact"] == first["detail"]["exact"]
        assert first["detail"]["exact"] == suite[name]["plain"]["detail"]["exact"]
        for metric in EXACT:
            assert again["metrics"][metric] == first["metrics"][metric], (name, metric)


def test_another_seed_passes_its_own_checks_with_the_same_outputs(suite):
    # The seed redraws timing, placement and order, never what is asked
    # (see workloads.py), so result digests are the same on every seed.
    for name in WORKLOADS:
        other = smoke(name, False, seed=7)
        assert other["correct"], (name, other["detail"]["mismatches"])
        assert (
            other["detail"]["exact"]["digest"]
            == suite[name]["plain"]["detail"]["exact"]["digest"]
        )


def test_tampered_pin_fails_the_whole_run(tmp_path, capsys):
    pins = tmp_path / "baseline.json"
    pins.write_text(
        json.dumps(
            {
                "seed": 1,
                "scale": SCALE,
                "workloads": {"join_kernels": {"exact": {"digest": "0" * 64}}},
            }
        )
    )
    status = run.main(
        ["--workload", "join_kernels", "--trace", "0", "--scale", str(SCALE),
         "--seconds", "0", "--baseline", str(pins)]
    )
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status != 0
    assert record["correct"] is False
    assert record["failed"] == record["attempted"] > 0


def test_missing_entry_point_is_named(monkeypatch):
    monkeypatch.setitem(
        entrypoints.ENTRY_POINTS, "gone", ("repro.serve", "serve_everything", ())
    )
    with pytest.raises(SystemExit, match="repro.serve:serve_everything is missing"):
        entrypoints.load()
    monkeypatch.setitem(
        entrypoints.ENTRY_POINTS, "gone", ("repro", "compile_query", ("dialect",))
    )
    with pytest.raises(SystemExit, match="no longer accepts 'dialect'"):
        entrypoints.load()


def test_self_time_on_a_hand_built_tree():
    #           0: batch      [0, 10]
    #   1: a [1, 4]      3: b [5, 9]     (and 5: overlaps b, [8, 9.5])
    #   2: a.x [2, 3]    4: b.y [6, 7]
    spans = [
        ["bench.batch", 0.0, 10.0, -1, None],
        ["a.call", 1.0, 4.0, 0, "op1"],
        ["a.inner", 2.0, 3.0, 1, "op1"],
        ["b.call", 5.0, 9.0, 0, "op2"],
        ["b.inner", 6.0, 7.0, 3, "op2"],
        ["b.call", 8.0, 9.5, 0, "op2"],
    ]
    # The root's children cover [1,4] and [5,9.5]: 7.5 of its 10.
    assert self_times(spans) == [2.5, 2.0, 1.0, 3.0, 1.0, 1.5]
    assert self_seconds_by(spans, layer_of) == {"bench": 2.5, "a": 3.0, "b": 5.5}
    assert covered([(0, 2), (1, 3), (5, 6)], 0.5, 5.5) == 3.0


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0]
    assert compare.verdict(steady, [100.5, 100.0, 101.5], 0.1, "higher")[2] == "unchanged"
    assert compare.verdict(steady, [80.0, 81.0, 79.0], 0.1, "higher")[2] == "worse"
    assert compare.verdict(steady, [80.0, 81.0, 79.0], 0.1, "lower")[2] == "better"
    # Spread over the bound and overlapping ranges: cannot tell.
    assert compare.verdict([100.0, 130.0, 90.0], [95.0, 80.0, 120.0], 0.1, "higher")[2] == "unresolved"
    # Spread over the bound, but every B beats every A: the verdict stands.
    assert compare.verdict([100.0, 130.0, 90.0], [200.0, 260.0, 180.0], 0.1, "higher")[2] == "better"
    # Exact metrics: any difference is a verdict.
    assert compare.verdict([7.0], [7.0], 0.0, "lower")[2] == "unchanged"
    assert compare.verdict([7.0], [7.5], 0.0, "lower")[2] == "worse"
