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
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import textwrap
from pathlib import Path

from repro import cli
from repro.durability.serve import serve_workload_durable
from repro.serve import ServeConfig
from repro.serve.sharding import serve_workload_sharded

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
