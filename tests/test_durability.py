"""Durability subsystem: checkpoint/resume, crash recovery, durable serving.

The claims under test, in increasing scope:

* a session checkpoint restores to a state whose continuation is
  byte-identical (results, virtual clock, call log) to never having
  stopped — including mid-plan, and including mid-retry under active
  fault injection;
* the checkpoint store never serves a torn or tampered payload, nor one
  of another version;
* a serving run resumed from a mid-run checkpoint produces the same
  per-request digests as an uninterrupted run, on one shard and on
  many;
* a worker killed with SIGKILL loses nothing a checkpoint covered
  (the subprocess crash harness).
"""

from __future__ import annotations

import json

import pytest

from repro.core.optimizer import Optimizer, OptimizerConfig
from repro.durability import (
    CHECKPOINT_VERSION,
    CheckpointStore,
    restore_session,
    serve_workload_durable,
)
from repro.durability.checkpoint import canonical_json, content_hash
from repro.engine.liquid import LiquidQuerySession
from repro.engine.retry import RetryPolicy
from repro.errors import CheckpointError, CheckpointIntegrityError
from repro.query.compile import compile_query
from repro.query.parser import parse_query
from repro.serve import ServeConfig, WorkloadConfig, scenario_templates
from repro.serve.bench import combined_digest, result_digest
from repro.services.marts import (
    RUNNING_EXAMPLE_INPUTS,
    RUNNING_EXAMPLE_QUERY,
    movie_night_registry,
)
from repro.services.simulated import FaultModel, ServicePool
from tests.conftest import serve_seeded


def _session(seed=2009, failure_rate=0.0, retry=None):
    registry = movie_night_registry()
    compiled = compile_query(parse_query(RUNNING_EXAMPLE_QUERY), registry)
    best = Optimizer(compiled, OptimizerConfig()).optimize().best
    kwargs = {}
    if failure_rate:
        kwargs["fault_model"] = FaultModel.uniform(failure_rate=failure_rate)
    pool = ServicePool(registry, global_seed=seed, **kwargs)
    options = {"retry": retry} if retry is not None else {}
    session = LiquidQuerySession(
        candidate=best,
        query=compiled,
        pool=pool,
        inputs=dict(RUNNING_EXAMPLE_INPUTS),
        executor_options=options,
    )
    return session, pool


def _log_signature(pool):
    return tuple(
        (r.service, r.alias, r.chunk_index, r.latency, r.tuples, r.outcome,
         r.attempt, r.backoff_wait, r.started_at)
        for r in pool.log.records
    )


def _drain(stepper):
    while True:
        try:
            next(stepper)
        except StopIteration as stop:
            return stop.value


def test_quiescent_checkpoint_roundtrip(tmp_path):
    session, pool = _session()
    results = session.run()
    payload = session.checkpoint(schema="movie", query_text=RUNNING_EXAMPLE_QUERY)
    assert payload["version"] == CHECKPOINT_VERSION

    store = CheckpointStore(tmp_path)
    store.save("s1", payload)
    restored = restore_session(store.load("s1"))

    assert restored.pending_stepper is None
    assert result_digest(restored.run()) == result_digest(results)
    assert restored.pool.clock.now == pool.clock.now
    assert _log_signature(restored.pool) == _log_signature(pool)


def test_midplan_checkpoint_matches_uninterrupted(tmp_path):
    baseline, baseline_pool = _session()
    expected = baseline.run()

    session, _ = _session()
    stepper = session.steps("run")
    for _ in range(5):
        next(stepper)
    payload = session.checkpoint(schema="movie", query_text=RUNNING_EXAMPLE_QUERY)
    inflight = payload["inflight"]
    assert inflight is not None and inflight["steps"] == 5

    restored = restore_session(payload)
    assert restored.pending_stepper is not None
    results = _drain(restored.pending_stepper)

    assert result_digest(results) == result_digest(expected)
    assert restored.pool.clock.now == baseline_pool.clock.now
    assert _log_signature(restored.pool) == _log_signature(baseline_pool)


def test_travel_chain_checkpoint_mid_journal_keeps_its_witness(tmp_path):
    """The travel plan ends in a service node: the executor ranks its
    combinations and a row is built when read.  The checkpoint witness
    digests the *whole* raw list — the rows not built from their unbuilt
    source, building none — and must be the digest of the list built
    eagerly; the restored session, which re-drives the journal and defers
    again, must reproduce it."""
    from repro.engine.executor import PlanExecutor
    from repro.services.scenarios import SCENARIOS
    from tests.test_row_life import _built_then_checked

    pack = SCENARIOS["travel"]

    def travel():
        registry = pack.registry_factory()
        compiled = compile_query(parse_query(pack.query_text), registry)
        return LiquidQuerySession(
            candidate=Optimizer(compiled, OptimizerConfig()).optimize().best,
            query=compiled,
            pool=ServicePool(registry, global_seed=2009),
            inputs=dict(pack.default_inputs),
        )

    session = travel()
    session.run()
    session.more()
    raw = session._raw
    built = len(raw.built)
    assert 0 < built < len(raw) and raw.digest is None
    payload = session.checkpoint(schema="travel", query_text=pack.query_text)
    witness = payload["witness"]
    assert witness["result_count"] == len(raw) and len(raw.built) == built
    # The same rows with nothing staged and nothing deferred.
    eager = _built_then_checked(
        PlanExecutor(
            session.candidate.plan, session.query,
            ServicePool(pack.registry_factory(), global_seed=2009),
            session.inputs, session.fetch_factors, k=10**9,
        )
    )
    assert witness["result_digest"] == raw.digest == result_digest(eager.run().tuples)

    store = CheckpointStore(tmp_path)
    store.save("travel", payload)
    restored = restore_session(store.load("travel"))  # verifies the witnesses
    assert [e["kind"] for e in restored.interaction_journal] == ["run", "more"]
    assert restored.result_count == session.result_count
    assert restored.pool.clock.now == session.pool.clock.now
    assert _log_signature(restored.pool) == _log_signature(session.pool)
    weights = {"F": 0.2, "H": 0.2, "E": 0.6}
    for step in (
        lambda s: s.run(),
        lambda s: s.rerank(weights, k=25),
        lambda s: s.more(k=40),
    ):
        assert result_digest(step(restored)) == result_digest(step(session))
    again = restored.checkpoint(schema="travel", query_text=pack.query_text)
    assert again["witness"] == session.checkpoint(
        schema="travel", query_text=pack.query_text
    )["witness"]

    payload["witness"]["result_digest"] = "0" * 64
    with pytest.raises(CheckpointIntegrityError, match="result digest"):
        restore_session(payload)


def test_checkpoint_mid_retry_continues_retry_state(tmp_path):
    """Satellite: checkpoint while retries are in flight, resume, and the
    retry counters/backoffs *continue* — the resumed call log is the
    uninterrupted one, not a reset one."""
    retry = RetryPolicy(max_attempts=4, base_backoff=0.3)
    baseline, baseline_pool = _session(failure_rate=0.25, retry=retry)
    expected = baseline.run()
    baseline_log = _log_signature(baseline_pool)
    assert any(r.attempt > 1 for r in baseline_pool.log.records), (
        "fault injection produced no retries; test needs a faultier seed"
    )

    session, pool = _session(failure_rate=0.25, retry=retry)
    stepper = session.steps("run")
    # Step until the log shows a retried call: the checkpoint boundary
    # lands inside an active retry sequence.
    steps = 0
    while not any(r.attempt > 1 for r in pool.log.records):
        next(stepper)  # raises StopIteration if the workload never retries
        steps += 1
    payload = session.checkpoint(schema="movie", query_text=RUNNING_EXAMPLE_QUERY)
    assert payload["inflight"]["steps"] == steps
    pre_boundary = len(pool.log.records)

    restored = restore_session(payload)
    # The replayed prefix already re-derived the pre-boundary retries.
    assert _log_signature(restored.pool) == baseline_log[:pre_boundary]
    results = _drain(restored.pending_stepper)

    assert result_digest(results) == result_digest(expected)
    assert _log_signature(restored.pool) == baseline_log
    # Retries continued after the boundary rather than restarting.
    assert any(
        r.attempt > 1 for r in restored.pool.log.records[pre_boundary:]
    )
    assert restored.pool.clock.now == baseline_pool.clock.now


def test_store_rejects_tampered_and_unknown(tmp_path):
    session, _ = _session()
    session.run()
    store = CheckpointStore(tmp_path)
    store.save("ok", session.checkpoint(schema="movie", query_text=RUNNING_EXAMPLE_QUERY))

    path = store.path_for("ok")
    record = json.loads(path.read_text())
    record["payload"]["data_seed"] = 1234  # bit-flip the payload
    path.write_text(json.dumps(record))
    with pytest.raises(CheckpointIntegrityError):
        store.load("ok")

    with pytest.raises(CheckpointError):
        store.load("never-written")
    with pytest.raises(CheckpointError):
        store.path_for("../escape")


def test_store_writes_one_canonical_rendering_and_reads_the_indented_form(tmp_path):
    session, _ = _session()
    session.run()
    payload = session.checkpoint(schema="movie", query_text=RUNNING_EXAMPLE_QUERY)
    store = CheckpointStore(tmp_path)
    path = store.save("ok", payload)
    text = path.read_text()
    assert text == '{"checksum":"%s","payload":%s}' % (
        content_hash(payload), canonical_json(payload)
    )
    loaded = store.load("ok")
    assert loaded == json.loads(canonical_json(payload))

    # What every earlier writer produced: the record dumped with indent.
    record = {"checksum": content_hash(payload), "payload": payload}
    path.write_text(json.dumps(record, sort_keys=True, indent=1))
    assert store.load("ok") == loaded

    plan_render = payload["witness"]["plan_render"]
    flipped = "0" if plan_render[0] != "0" else "1"
    for damaged in (
        text[: len(text) // 2],  # truncated
        text.replace('"data_seed":', '"data_seed":1', 1),  # one byte added
        text.replace(plan_render, flipped + plan_render[1:], 1),  # edited witness
    ):
        assert damaged != text
        path.write_text(damaged)
        with pytest.raises(CheckpointIntegrityError):
            store.load("ok")


@pytest.mark.parametrize(
    "version", [0, CHECKPOINT_VERSION - 1, CHECKPOINT_VERSION + 1]
)
def test_checkpoint_of_another_version_is_refused(tmp_path, version):
    """One rule for version skew, older or newer: the error names both."""
    session, _ = _session()
    session.run()
    payload = session.checkpoint(schema="movie", query_text=RUNNING_EXAMPLE_QUERY)
    payload["version"] = version  # as another build would have written it
    expected = f"checkpoint version {version} is not {CHECKPOINT_VERSION}"
    with pytest.raises(CheckpointError, match=expected):
        restore_session(payload)
    store = CheckpointStore(tmp_path)
    store.save("other", payload)
    with pytest.raises(CheckpointError, match=expected):
        store.load("other")


def test_serve_durable_matches_plain_serving(tmp_path):
    plain_digests = serve_seeded(rate=4.0, num_requests=40, seed=2009, ).digests()
    report = serve_seeded(
        rate=4.0,
        num_requests=40,
        seed=2009,
        checkpoint_dir=tmp_path,
        checkpoint_every=10,
    )
    durable_digests = report.digests()
    info = report.durability
    assert durable_digests == plain_digests
    assert info["checkpoints_written"] >= 3


@pytest.mark.parametrize("num_shards", [1, 2])
def test_serve_resume_midrun_digest_equal(tmp_path, num_shards):
    """Resume from an *early* checkpoint (later ones deleted, as after a
    crash) and the merged digests equal an uninterrupted run's."""
    workdir = tmp_path / f"shards-{num_shards}"
    baseline = serve_seeded(
        rate=4.0,
        num_requests=60,
        seed=2009,
        templates=scenario_templates("all"),
        num_shards=num_shards,
        checkpoint_dir=workdir / "baseline",
        checkpoint_every=0,
    ).digests()
    ckpt_dir = workdir / "ckpt"
    serve_seeded(
        rate=4.0,
        num_requests=60,
        seed=2009,
        templates=scenario_templates("all"),
        num_shards=num_shards,
        checkpoint_dir=ckpt_dir,
        checkpoint_every=10,
    )
    store = CheckpointStore(ckpt_dir)
    keys = store.keys()
    assert len(keys) >= 3
    for key in keys[1:]:  # keep only the earliest checkpoint
        store.delete(key)

    report = serve_seeded(
        rate=4.0,
        num_requests=60,
        seed=2009,
        templates=scenario_templates("all"),
        num_shards=num_shards,
        checkpoint_dir=ckpt_dir,
        checkpoint_every=10,
        resume=True,
    )
    resumed = report.digests()
    info = report.durability
    assert info["resumed"] and info["resume_key"] == keys[0]
    assert info["served"] > 0, "the early checkpoint left nothing to serve"
    assert combined_digest(resumed) == combined_digest(baseline)
    assert len(resumed) == len(baseline)


@pytest.mark.parametrize("every", [-1, -2])
def test_negative_checkpoint_cadence_is_refused(tmp_path, every):
    """Regression: a negative cadence served without writing a single
    checkpoint, so durability was silently off.  ``0`` (no periodic
    writes) stays valid."""
    from repro.errors import ExecutionError

    with pytest.raises(ExecutionError, match="checkpoint_every cannot be negative"):
        ServeConfig(checkpoint_dir=tmp_path, checkpoint_every=every)
    assert not any(tmp_path.iterdir())
    assert ServeConfig(checkpoint_dir=tmp_path, checkpoint_every=0).checkpoint_every == 0


def test_resume_rejects_mismatched_workload(tmp_path):
    serve_workload_durable(
        rate=4.0, num_requests=30, seed=2009,
        checkpoint_dir=tmp_path, checkpoint_every=10,
    )
    with pytest.raises(CheckpointError):
        serve_workload_durable(
            rate=4.0, num_requests=30, seed=7,  # different workload
            checkpoint_dir=tmp_path, checkpoint_every=10, resume=True,
        )


def test_crash_harness_sigkill_and_resume(tmp_path):
    from tests.support.crash import run_crash_resume

    report = run_crash_resume(
        ServeConfig(default_service_rate=4.0, checkpoint_every=15),
        WorkloadConfig(num_requests=120, rate=4.0, seed=2009),
        kill_after_checkpoints=1,
        workdir=tmp_path,
        timeout=600.0,
    )
    assert report["gates"]["worker_killed"], report["worker_stderr_tail"]
    assert report["gates"]["checkpoint_survived"]
    assert report["gates"]["digests_equal"]
    # The killed worker said nothing before it died.
    assert report["worker_stderr_tail"] == ""


def test_crash_worker_module_runs_without_warnings():
    """The harness's worker runs as a script with only ``src`` on the
    path, and says nothing on stderr; the harness is not in ``repro``."""
    import os
    import subprocess
    import sys

    import repro
    from tests.support import crash

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, crash.__file__, "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0
    assert done.stderr == ""
    assert "--kill-after" in done.stdout
    from repro import durability

    assert not hasattr(durability, "run_crash_resume")


@pytest.mark.async_backend
def test_asyncio_session_checkpoint_at_interaction_boundary():
    """The asyncio backend has no steppers, so checkpoints are taken at
    quiescent interaction boundaries — results must still restore
    digest-identically (clock/log witnesses are virtual-only).  The payload
    records the driver of the last execution; a restore replays on the
    virtual clock."""
    import asyncio

    from repro.engine.async_runner import AsyncExecutionContext

    virtual, _ = _session()
    expected = result_digest(virtual.run())

    session, _ = _session()
    context = AsyncExecutionContext(time_scale=0.0)
    results = asyncio.run(session.perform_async("run", context=context))
    assert result_digest(results) == expected
    payload = session.checkpoint(schema="movie", query_text=RUNNING_EXAMPLE_QUERY)
    assert payload["backend"] == "asyncio"
    assert payload["witness"]["exact"] is False
    restored = restore_session(payload)
    assert restored._last.backend == "virtual"
    assert result_digest(restored.run()) == expected
    assert virtual.checkpoint(
        schema="movie", query_text=RUNNING_EXAMPLE_QUERY
    )["backend"] == "virtual"


def _checkpointed_run(tmp_path, **options):
    """A durable run cut back to its middle checkpoint, as after a crash."""
    serve_seeded(checkpoint_dir=tmp_path, checkpoint_every=10, **options)
    store = CheckpointStore(tmp_path)
    keys = store.keys()
    for key in keys[len(keys) // 2 + 1 :]:
        store.delete(key)
    return store, store.latest("serve")


def test_resume_searches_no_template_it_restored(tmp_path, monkeypatch):
    options = dict(
        rate=4.0, num_requests=60, seed=2009, templates=scenario_templates("all")
    )
    baseline = serve_seeded(
        checkpoint_dir=tmp_path / "baseline", checkpoint_every=0, **options
    ).digests()
    store, key = _checkpointed_run(tmp_path / "ckpt", **options)
    sessions = store.load(key)["sessions"]
    templates = {payload["template"] for payload in sessions.values()}
    assert len(sessions) > len(templates) > 1

    searches = []
    optimize = Optimizer.optimize
    monkeypatch.setattr(
        Optimizer, "optimize", lambda self: searches.append(self) or optimize(self)
    )
    report = serve_seeded(
        checkpoint_dir=tmp_path / "ckpt", checkpoint_every=10, resume=True, **options
    )
    resumed = report.digests()
    info = report.durability
    assert info["resumed"] and info["restored_sessions"] == len(sessions)
    assert combined_digest(resumed) == combined_digest(baseline)
    # Each restored template's plan is rebuilt from its checkpoint and held
    # by the plan cache the requests served after the resume share: only a
    # template no checkpointed session ran could still be searched.
    assert len(searches) <= len(options["templates"]) - len(templates)
    assert len(searches) == len({id(search.query) for search in searches})

    # Without a plan cache the resume itself searches nothing either; each
    # run served after it searches once.
    searches.clear()
    isolated = serve_seeded(
        checkpoint_dir=tmp_path / "ckpt", checkpoint_every=0, resume=True,
        cache_mode="isolated", **options
    ).digests()
    assert combined_digest(isolated) == combined_digest(baseline)
    served_runs = 60 - len(sessions)  # an upper bound on post-resume runs
    assert len(searches) <= served_runs


def test_resume_with_shared_plans_still_verifies_the_plan_witness(tmp_path):
    options = dict(rate=4.0, num_requests=30, seed=2009)
    store, key = _checkpointed_run(tmp_path, **options)
    payload = store.load(key)
    victim = next(iter(payload["sessions"].values()))
    victim["witness"]["plan_render"] = "0" * 64
    store.save(key, payload)
    with pytest.raises(CheckpointIntegrityError, match="plan differs"):
        serve_workload_durable(
            checkpoint_dir=tmp_path, checkpoint_every=10, resume=True, **options
        )
    # A session opened on another definition of its template is refused
    # before anything is replayed.
    payload = store.load(key)
    victim = next(iter(payload["sessions"].values()))
    victim["witness"]["plan_render"] = "unused"
    victim["query_text"] += " "
    store.save(key, payload)
    with pytest.raises(CheckpointError, match="another definition"):
        serve_workload_durable(
            checkpoint_dir=tmp_path, checkpoint_every=10, resume=True, **options
        )
