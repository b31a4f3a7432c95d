"""Golden pin: every serving configuration through the one ``serve()``.

``tests/data/serve_golden.json`` was recorded at the parent of the
``serve()`` refactor through the entry points it replaced
(``serve_workload`` / ``_sharded`` / ``_durable``, traced and untraced).
Served through ``serve(config, workload)``, every configuration must
reproduce its record exactly — combined digest, makespan, round trips,
latency mean and p95, outcome mix — which is what proves the five paths
were one.  Re-record (``python tests/test_serve_golden.py``) only for a
change that is *meant* to move virtual time or round trips.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.obs.serving import SloTracker
from repro.obs.tracer import Tracer
from repro.serve import (
    ServeConfig,
    WorkloadConfig,
    combined_digest,
    scenario_templates,
    serve,
)

GOLDEN = Path(__file__).parent / "data" / "serve_golden.json"

#: The benchmark posture the replaced entry points defaulted to.
BASE = ServeConfig(default_service_rate=4.0)
WORKLOAD = WorkloadConfig(num_requests=60, rate=2.0, seed=2009)
TAIL_WORKLOAD = replace(WORKLOAD, rate=1.0, skew=1.0, followup_fraction=0.5)


class Crash(Exception):
    """Raised from ``on_checkpoint`` to stop a durable run mid-way."""


def crash_at_third_checkpoint(checkpointer) -> None:
    if checkpointer.written >= 3:
        raise Crash


def configurations() -> dict[str, tuple[ServeConfig, WorkloadConfig, dict]]:
    """name -> (config, workload, serve() keywords), in recording order."""
    table: dict[str, tuple[ServeConfig, WorkloadConfig, dict]] = {}
    for mode in ("shared", "isolated"):
        table[f"plain-{mode}"] = (replace(BASE, cache_mode=mode), WORKLOAD, {})
    for shards in (1, 2, 4):
        for mode in ("shared", "private", "isolated"):
            for steal in (True, False):
                name = f"shards{shards}-{mode}-{'steal' if steal else 'nosteal'}"
                config = replace(BASE, num_shards=shards, cache_mode=mode, steal=steal)
                table[name] = (config, WORKLOAD, {})
    traced = replace(BASE, sample_metrics=True)
    table["traced-plain-shared"] = (traced, WORKLOAD, {"observed": True})
    table["traced-shards2-shared-steal"] = (
        replace(traced, num_shards=2), WORKLOAD, {"observed": True},
    )
    table["tail-shards4"] = (
        replace(
            BASE,
            templates=scenario_templates("all", param_scale=8),
            num_shards=4,
            cache_size=256,
        ),
        TAIL_WORKLOAD,
        {},
    )
    for shards in (1, 2):
        durable = replace(BASE, num_shards=shards, checkpoint_every=10)
        table[f"durable-n{shards}-straight"] = (durable, WORKLOAD, {"durable": True})
        table[f"durable-n{shards}-crash3-resume"] = (
            durable, WORKLOAD, {"durable": True, "crash": True},
        )
    return table


def measure(config, workload, tmp_path, *, observed=False, durable=False, crash=False):
    keywords = {}
    if observed:
        keywords.update(tracer=Tracer(), slo=SloTracker())
    if durable:
        config = replace(config, checkpoint_dir=tmp_path / "ckpt")
    if crash:
        with pytest.raises(Crash):
            serve(config, workload, on_checkpoint=crash_at_third_checkpoint)
        config = replace(config, resume=True)
    report = serve(config, workload, **keywords)
    if crash:
        assert report.durability["resumed"]
    latency = report.latency_summary()
    return {
        "combined_digest": combined_digest(report.digests()),
        "makespan": report.makespan,
        "total_round_trips": report.total_round_trips,
        "latency_mean": latency.get("mean", 0.0),
        "latency_p95": latency.get("p95", 0.0),
        "by_status": report.by_status(),
    }


CONFIGURATIONS = configurations()
RECORDED = json.loads(GOLDEN.read_text())


def test_golden_file_covers_exactly_these_configurations():
    assert sorted(RECORDED) == sorted(CONFIGURATIONS)


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_serve_reproduces_the_recorded_run(name, tmp_path):
    config, workload, options = CONFIGURATIONS[name]
    assert measure(config, workload, tmp_path, **options) == RECORDED[name]


def test_tracing_moves_nothing():
    assert RECORDED["traced-plain-shared"] == RECORDED["plain-shared"]
    assert RECORDED["traced-shards2-shared-steal"] == RECORDED["shards2-shared-steal"]


if __name__ == "__main__":  # pragma: no cover - deliberate re-record
    import tempfile

    recorded = {}
    for name, (config, workload, options) in CONFIGURATIONS.items():
        with tempfile.TemporaryDirectory() as tmp:
            recorded[name] = measure(config, workload, Path(tmp), **options)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
