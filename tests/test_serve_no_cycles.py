"""The serving loop makes no reference cycles, so ``serve()`` pauses the
cyclic collector for the whole run.

Reference counting frees everything a run drops; the collector only ever
walked the live world, caches and sessions to find nothing.  These tests
keep that true: every serving mode leaves nothing for a collection
(``ServeReport.cyclic_garbage`` and a full collection under
``DEBUG_SAVEALL`` both read 0), and ``serve()`` hands the caller back the
collector state it had, exceptions included.  A recursive closure, a
stored exception or a back-reference added to the serving path fails
here, in the mode that made it.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter
from contextlib import contextmanager
from functools import partial

import pytest

from repro.core.optimizer import Optimizer
from repro.durability import CheckpointStore
from repro.engine.executor import execute_plan
from repro.obs.explain import build_explain
from repro.obs.tracer import Tracer
from repro.serve import Request, ServeConfig, SessionManager, default_templates, serve
from repro.serve import runtime
from repro.serve.workload import scenario_templates
from repro.services.marts import RUNNING_EXAMPLE_INPUTS
from repro.services.simulated import FaultModel, FaultProfile, ServicePool
from tests.conftest import orphaned_followups, serve_seeded


@contextmanager
def saved_garbage():
    """Yield a list that ends up holding whatever the block left for a
    full collection (run under ``DEBUG_SAVEALL``, so it is kept)."""
    gc.collect()
    found: list[object] = []
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield found
        gc.collect()
    finally:
        gc.set_debug(0)
        found.extend(gc.garbage)
        gc.garbage.clear()


def named(garbage) -> Counter:
    """What the cycles are made of, by type (functions by qualified name)."""
    return Counter(getattr(obj, "__qualname__", type(obj).__name__) for obj in garbage)


@contextmanager
def collector(enabled: bool):
    """Run the block with the collector on or off, then put it back."""
    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was else gc.disable()


class _Crash(Exception):
    """Raised from ``on_checkpoint`` to stop a durable server mid-run."""


def _crash_at(written: int, checkpointer) -> None:
    if checkpointer.written >= written:
        raise _Crash


# -- the three renderers -------------------------------------------------------


def test_rendering_a_plan_a_span_tree_or_an_explain_leaves_no_cycle(
    movie_query, movie_registry
):
    """Regression: each was a recursive closure, a cycle through its own
    cell that kept the plan (on the checkpoint path also the compiled
    query and the registries) alive until a collection ran.
    ``QueryPlan.render`` runs on every durable checkpoint refresh and
    restore.  The span tree is traced here; its text renderer is gone."""
    tracer = Tracer()
    best = Optimizer(movie_query, tracer=tracer).optimize().best
    pool = ServicePool(movie_registry, global_seed=2009)
    tracer.bind_clock(pool.clock)
    inputs = RUNNING_EXAMPLE_INPUTS
    fetches = best.fetch_vector()
    result = execute_plan(best.plan, movie_query, pool, inputs, fetches, tracer=tracer)
    report = build_explain(best.plan, best.annotations, result)
    with collector(False), saved_garbage() as garbage:
        best.plan.render()
        best.plan.render(best.annotations)
        report.render()
    assert not garbage, named(garbage)


# -- every serving mode ----------------------------------------------------------

WORKLOAD = dict(rate=4.0, num_requests=24, seed=2009)


def _durable(directory, **options):
    return serve_seeded(
        **WORKLOAD, checkpoint_dir=directory / "ckpt", checkpoint_every=5, **options
    )


MODES = {
    "shared": lambda directory: serve_seeded(**WORKLOAD),
    "private": lambda directory: serve_seeded(
        **WORKLOAD, cache_mode="private", num_shards=2
    ),
    "isolated": lambda directory: serve_seeded(**WORKLOAD, cache_mode="isolated"),
    "sharded_stealing": lambda directory: serve_seeded(
        **WORKLOAD,
        num_shards=4,
        steal=True,
        cache_size=64,
        templates=scenario_templates("all", 8),
    ),
    "rejections": lambda directory: serve(
        ServeConfig(default_service_rate=4.0), orphaned_followups()
    ),
    "traced": lambda directory: serve_seeded(**WORKLOAD, tracer=Tracer()),
    "asyncio": lambda directory: serve_seeded(**WORKLOAD, backend="asyncio"),
    "parallel": lambda directory: serve_seeded(
        **WORKLOAD, num_shards=2, parallel=True, cache_mode="private"
    ),
    "durable": _durable,
}


@pytest.mark.parametrize("mode", sorted(MODES))
def test_serving_leaves_nothing_for_the_collector(mode, tmp_path):
    serving = MODES[mode]
    serving(tmp_path / "warm-up")  # first use imports and memoises
    with collector(True), saved_garbage() as garbage:
        report = serving(tmp_path / "measured")
        assert gc.isenabled()
    assert report.cyclic_garbage == 0
    assert report.summary()["cyclic_garbage"] == 0
    assert not garbage, named(garbage)
    if mode == "rejections":
        assert report.by_status().get("rejected", 0) > 0


def test_a_crash_and_its_resume_leave_nothing_for_the_collector(tmp_path):
    """The crash leaves ``serve()`` by an exception, abandoning suspended
    steppers; the resume restores sessions and re-renders their plans."""
    crash = partial(_crash_at, 2)
    with pytest.raises(_Crash):  # warm-up
        _durable(tmp_path / "warm-up", on_checkpoint=crash)
    _durable(tmp_path / "warm-up", resume=True)
    with collector(True):
        with saved_garbage() as crash_garbage, pytest.raises(_Crash):
            _durable(tmp_path, on_checkpoint=crash)
        assert CheckpointStore(tmp_path / "ckpt").keys()
        with saved_garbage() as garbage:
            report = _durable(tmp_path, resume=True)
    assert report.durability["resumed"]
    assert report.cyclic_garbage == 0
    assert not garbage, named(garbage)
    # Closing an abandoned stepper throws GeneratorExit through its
    # ``@contextmanager`` blocks; CPython 3.10's ``contextlib`` keeps that
    # exception in a frame its traceback holds (3.11 resets the traceback).
    if sys.version_info >= (3, 11):
        assert not crash_garbage, named(crash_garbage)


def _failing_stream() -> list[Request]:
    """A run every service is down for, with a ``more`` parked behind it."""
    template = default_templates()[0]
    inputs = {name: values[0] for name, values in template.parameter_space.items()}
    common = dict(template=template.name, schema=template.schema, arrival=0.0, k=5)
    return [
        Request(request_id=1, kind="run", inputs=inputs, **common),
        Request(request_id=2, kind="more", target=1, **common),
    ]


def test_a_failed_request_leaves_nothing_for_the_collector(monkeypatch):
    """Regression: a fetch that exhausted its retries kept the
    ``RetryExhaustedError`` in a local of a frame the exception's own
    traceback holds, so every failed request left its call stack behind."""
    outage = FaultModel(default=FaultProfile(outage=True))
    monkeypatch.setattr(
        runtime, "SessionManager", partial(SessionManager, fault_model=outage)
    )
    serve(ServeConfig(), _failing_stream())
    with saved_garbage() as garbage:
        report = serve(ServeConfig(), _failing_stream())
    assert report.by_status() == {"failed": 1, "rejected": 1}
    assert report.cyclic_garbage == 0
    assert not garbage, named(garbage)


# -- the caller's collector state ------------------------------------------------


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_serve_hands_back_the_callers_collector_state(enabled, tmp_path):
    with collector(enabled):
        serve_seeded(**WORKLOAD)
        assert gc.isenabled() is enabled
        with pytest.raises(_Crash):
            _durable(tmp_path, on_checkpoint=partial(_crash_at, 1))
        assert gc.isenabled() is enabled


def test_the_collector_is_paused_while_serving(tmp_path):
    seen: list[bool] = []
    _durable(tmp_path, on_checkpoint=lambda _: seen.append(gc.isenabled()))
    assert seen and not any(seen)
