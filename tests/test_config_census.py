"""Every ``ServeConfig`` field is set by name somewhere outside the tests.

A field only tests vary has one value in use, its default, yet it still
costs a declaration, a validation branch and a code path every reader
must follow (DESIGN.md, "A knob with one value in use is a constant").
This guard lists :class:`repro.serve.ServeConfig`'s fields and fails for
any that no ``ServeConfig(...)`` or ``replace(...)`` call passes as a
keyword in

* ``cli.py`` (where ``serve-bench``'s flags become a config);
* the two keyword adapters ``benchmarks/e2e`` serves through,
  :func:`repro.serve.sharding.serve_workload_sharded` and
  :func:`repro.durability.serve.serve_workload_durable`;
* a script under ``benchmarks/`` or ``examples/``.

A field that fails is deleted (its default becomes a constant of the
code that read it) or gets a caller that needs it.

The census goes on below ``ServeConfig``, to the classes and functions a
served request or a restore passes through (``SEAMS``): each parameter
must be passed by a call in ``src/``, ``benchmarks/`` or ``examples/`` —
or be allowlisted in ``TEST_SEAMS`` with the reason it stays; none takes
a ``backend`` (a session's driver is its backend); and each public method
of a class among them is called outside the tests.  A restore
(``durability/checkpoint.py``) passes back what a writer recorded, so its
calls set no knob.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import textwrap
from pathlib import Path

import pytest

from repro import cli
from repro.durability.checkpoint import restore_session
from repro.durability.serve import (
    ServeCheckpointer,
    resume_state_from,
    serve_workload_durable,
)
from repro.engine.async_runner import AsyncExecutionContext
from repro.engine.liquid import LiquidQuerySession
from repro.obs.serving import SloTracker
from repro.serve import ServeConfig
from repro.serve.sessions import SessionManager
from repro.serve.sharding import HashRing, serve_workload_sharded

ROOT = Path(__file__).resolve().parents[1]

#: The calls that build or derive a config.
BUILDERS = ("ServeConfig", "replace")


def _callers() -> dict[str, str]:
    """Source text of every caller that counts, by a name for messages."""
    sources = {"cli.py": Path(cli.__file__).read_text()}
    for adapter in (serve_workload_sharded, serve_workload_durable):
        sources[adapter.__name__] = textwrap.dedent(inspect.getsource(adapter))
    for folder in ("benchmarks", "examples"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            sources[str(path.relative_to(ROOT))] = path.read_text()
    return sources


def _keywords(source: str) -> set[str]:
    """Keywords passed by name to a ``ServeConfig(...)`` or ``replace(...)``
    call anywhere in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in BUILDERS:
            found |= {keyword.arg for keyword in node.keywords if keyword.arg}
    return found


def test_the_callers_are_found():
    sources = _callers()
    assert {"cli.py", "serve_workload_sharded", "serve_workload_durable"} <= set(sources)
    assert any(name.startswith("benchmarks/") for name in sources)
    assert any(name.startswith("examples/") for name in sources)
    assert "templates" in _keywords(sources["serve_workload_durable"])


def test_every_config_field_is_set_outside_the_tests():
    passed = set().union(*map(_keywords, _callers().values()))
    unset = [
        field.name for field in dataclasses.fields(ServeConfig)
        if field.init and field.name not in passed
    ]
    assert not unset, (
        "no CLI path, adapter, benchmark or example sets these ServeConfig "
        f"fields: make them constants or give them a caller: {unset}"
    )


# -- below ServeConfig ----------------------------------------------------------

#: What a served request or a restore is built through.
SEAMS = (
    LiquidQuerySession,
    SessionManager,
    AsyncExecutionContext,
    HashRing,
    SloTracker,
    restore_session,
    resume_state_from,
    ServeCheckpointer,
)

#: Parameters only tests pass that stay, each with its reason.
TEST_SEAMS = {
    "SessionManager.retry": "the only way a test reaches serving's retry path",
    "SessionManager.degradation": (
        "the only way a test reaches serving's partial-degradation path"
    ),
    "SessionManager.fault_model": "the only way a test reaches serving's fault paths",
}

#: Where a call counts: not a test, not a restore.
CALLER_FOLDERS = ("src", "benchmarks", "examples")
RESTORE = Path("src", "repro", "durability", "checkpoint.py")


def _parameters(seam) -> list[str]:
    return [
        name for name, parameter in inspect.signature(seam).parameters.items()
        if not name.startswith("_") and parameter.kind not in (
            parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD
        )
    ]


def _sources() -> dict[Path, ast.AST]:
    trees = {}
    for folder in CALLER_FOLDERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            trees[path.relative_to(ROOT)] = ast.parse(path.read_text())
    return trees


class _Calls(ast.NodeVisitor):
    """The names each seam is passed (keyword or position), by seam name; a
    ``cls(...)`` call in a seam's own class body counts as the seam's."""

    def __init__(self, params: dict[str, list[str]]) -> None:
        self.params = params
        self.passed: dict[str, set[str]] = {name: set() for name in params}
        self._class: list[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class.append(node.name)
        self.generic_visit(node)
        self._class.pop()

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "cls" and self._class:
            name = self._class[-1]
        if name in self.params:
            names = self.params[name]
            positional = [arg for arg in node.args if not isinstance(arg, ast.Starred)]
            self.passed[name] |= set(names[: len(positional)])
            self.passed[name] |= {kw.arg for kw in node.keywords if kw.arg}
        self.generic_visit(node)


def _census() -> _Calls:
    calls = _Calls({seam.__name__: _parameters(seam) for seam in SEAMS})
    for path, tree in _sources().items():
        if path != RESTORE:
            calls.visit(tree)
    return calls


def _called_names() -> set[str]:
    """Attribute names read outside the tests, and the leaf of each name
    ``benchmarks/e2e/entrypoints.py`` pins: the ledger reaches the product
    through those, and its harness's own attributes (``EntryPoints.restore``)
    are no product calls."""
    names = set()
    for path, tree in _sources().items():
        ledger = path.parts[:2] == ("benchmarks", "e2e")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and not ledger:
                names.add(node.attr)
            elif ledger and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value.rsplit(".", 1)[-1])
    return names


def test_every_seam_is_found_and_every_allowlisted_name_exists():
    calls = _census()
    assert calls.passed["SessionManager"] >= {"templates", "data_seed"}
    assert calls.passed["HashRing"] == {"num_shards"}
    assert calls.passed["ServeCheckpointer"] >= {"store", "sessions", "every"}
    for name in TEST_SEAMS:
        seam, parameter = name.split(".")
        assert parameter in _parameters(globals()[seam]), name


def test_every_parameter_below_serve_config_has_a_caller_or_a_reason():
    calls = _census()
    unset = [
        f"{seam.__name__}.{name}"
        for seam in SEAMS
        for name in _parameters(seam)
        if name not in calls.passed[seam.__name__]
        and f"{seam.__name__}.{name}" not in TEST_SEAMS
    ]
    assert not unset, (
        "only tests pass these parameters: make them constants, give them a "
        f"caller, or allowlist them with a reason: {unset}"
    )


@pytest.mark.parametrize("seam", SEAMS, ids=lambda seam: seam.__name__)
def test_no_seam_takes_a_backend(seam):
    """The virtual clock or the asyncio backend is the driver's choice
    (``perform`` / ``steps`` or ``perform_async``), made once per serve by
    ``ServeConfig.backend``; nothing below it is told."""
    assert "backend" not in _parameters(seam)
    fields = getattr(seam, "__dataclass_fields__", {})
    assert "backend" not in fields and "async_context" not in fields


@pytest.mark.parametrize(
    "seam", [seam for seam in SEAMS if isinstance(seam, type)],
    ids=lambda seam: seam.__name__,
)
def test_every_public_method_is_called_outside_the_tests(seam):
    attributes = _called_names()
    uncalled = [
        name for name, value in vars(seam).items()
        if not name.startswith("_")
        and callable(getattr(value, "__func__", value))
        and name not in attributes
    ]
    assert not uncalled, f"only tests call {seam.__name__}: {uncalled}"
