"""The package's public API surface: ``__all__`` must be importable.

A downstream user's contract with the repro is ``from repro import X``
for every ``X`` the package advertises.  These tests import every
advertised name (top-level and :mod:`repro.serve`), so an export that
goes stale — renamed, moved, or deleted without updating ``__all__`` —
fails loudly here instead of in user code.
"""

from __future__ import annotations

import importlib

import pytest

import repro
import repro.serve


@pytest.mark.parametrize("name", sorted(repro.__all__))
def test_top_level_export_resolves(name):
    assert hasattr(repro, name), f"repro.__all__ lists {name!r} but it is missing"
    assert getattr(repro, name) is not None


@pytest.mark.parametrize("name", sorted(repro.serve.__all__))
def test_serve_export_resolves(name):
    assert hasattr(repro.serve, name)


def test_star_import_matches_all():
    namespace: dict = {}
    exec("from repro import *", namespace)  # noqa: S102 - the point of the test
    missing = [name for name in repro.__all__ if name not in namespace]
    assert not missing, f"star import missed {missing}"


def test_key_serving_entry_points_exported():
    # The one door lives in the subpackage (``repro.serve`` *is* the
    # package, so the function cannot also be a top-level attribute).
    assert callable(repro.serve.serve) and callable(repro.serve.build_sessions)
    # The serving runtime's user-facing surface, by name.
    for name in (
        "LiquidQuerySession",
        "SessionManager",
        "ServeScheduler",
        "ServeConfig",
        "PlanCache",
        "InvocationCache",
        "WorkloadConfig",
        "generate_workload",
        "plan_signature",
    ):
        assert name in repro.__all__, f"{name} missing from repro.__all__"


def test_all_names_unique():
    assert len(repro.__all__) == len(set(repro.__all__))


def test_subpackages_importable():
    for module in (
        "repro.serve.workload",
        "repro.serve.scheduler",
        "repro.serve.sessions",
        "repro.serve.plancache",
        "repro.serve.bench",
    ):
        assert importlib.import_module(module) is not None


def test_benchmark_ledger_contract_resolves():
    """``benchmarks/e2e/entrypoints.py`` names every ``repro`` symbol and
    keyword the wall-clock ledger uses; ``load()`` exits naming the first
    one a refactor dropped.  Checked here so that fails in tier-1, not in
    the benchmark pipeline.  Read-only: the file is loaded by path."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parents[1] / "benchmarks" / "e2e" / "entrypoints.py"
    spec = importlib.util.spec_from_file_location("e2e_entrypoints", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    resolved = module.load()
    assert set(vars(resolved)) == set(module.ENTRY_POINTS)


def test_serve_config_pickles_with_builtin_templates_and_packs(tmp_path):
    """The crash harness and the one-process-per-shard placement pass the
    config whole, so it must survive pickling with everything built in."""
    import pickle

    from repro.serve import ServeConfig, scenario_templates

    for templates in (None, scenario_templates("all", param_scale=8)):
        config = ServeConfig(
            templates=templates,
            default_service_rate=2.0,
            num_shards=4,
            cache_mode="private",
            checkpoint_dir=tmp_path,
        )
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert [t.name for t in clone.templates] == [t.name for t in config.templates]


def test_import_leaves_the_asyncio_backend_unloaded():
    """``import repro`` (CLI and every subpackage included) must not load
    ``asyncio`` or the asyncio backend; its three names still resolve on
    first access.  Run in a fresh interpreter: in this one an earlier
    test has already imported the backend."""
    import os
    import subprocess
    import sys

    script = (
        "import importlib, pkgutil, sys\n"
        "import repro, repro.cli\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if info.ispkg:\n"
        "        importlib.import_module(info.name)\n"
        "loaded = [m for m in ('asyncio', 'repro.engine.async_runner') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "from repro import AsyncExecutionContext, AsyncPlanExecutor, run_plan_async\n"
        "from repro.engine import AsyncPlanExecutor as engine_executor\n"
        "assert engine_executor is AsyncPlanExecutor\n"
        "assert 'repro.engine.async_runner' in sys.modules\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
