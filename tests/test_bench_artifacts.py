"""Committed benchmark artifacts must be true: no ``BENCH_*.json`` at the
repository root may record a failing gate — a ``False`` under a ``gates``
map or under a key ending in ``_gate``, anywhere in the document."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = sorted(ROOT.glob("BENCH_*.json"))


def failing_gates(node, path=()):
    """Dotted paths of every ``False`` gate in a decoded JSON document."""
    found = []
    if isinstance(node, dict):
        for key, value in node.items():
            here = (*path, key)
            if key == "gates" and isinstance(value, dict):
                found += [
                    ".".join((*here, name))
                    for name, passed in value.items()
                    if passed is False
                ]
            if key.endswith("_gate") and value is False:
                found.append(".".join(here))
            found += failing_gates(value, here)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            found += failing_gates(value, (*path, str(index)))
    return found


def test_artifacts_exist():
    assert ARTIFACTS


@pytest.mark.parametrize("artifact", ARTIFACTS, ids=lambda path: path.name)
def test_no_committed_gate_reads_false(artifact):
    assert failing_gates(json.loads(artifact.read_text())) == []


def test_the_walk_finds_nested_failures():
    document = {
        "gates": {"ok": True, "bad": False},
        "rows": [{"speed_gate": False, "ratio_gate": 5.0}],
    }
    assert failing_gates(document) == ["gates.bad", "rows.0.speed_gate"]
