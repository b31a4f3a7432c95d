"""DESIGN.md's memo census names what the source holds.

The census ("Memo census" under "Performance architecture") has one row
per memo or cache: the names it is read by, the module it lives in, and a
verdict.  A kept row's names must all occur in that module's source, so
the table cannot outlive a deletion or a rename; a deleted row's memo
names must occur there no more, so a memo cannot come back without a row.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def census_rows() -> list[tuple[str, list[str], list[str], str]]:
    """``(memo cell, names, modules, verdict)`` per row of the census."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    start = text.index("### Memo census")
    end = text.index("\n#", start + 1)
    rows = []
    for line in text[start:end].splitlines():
        if not line.startswith("|") or set(line) <= set("|-: "):
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[0] == "memo":
            continue  # the header
        names = re.findall(r"`([^`]+)`", cells[0])
        modules = re.findall(r"`([^`]+)`", cells[1])
        rows.append((cells[0], names, modules, cells[-1]))
    return rows


ROWS = census_rows()


def identifiers(name: str) -> list[str]:
    """The identifiers a memo name is spelled with (``A.b`` -> A, b)."""
    return re.findall(r"[A-Za-z_][A-Za-z0-9_]*", name)


def test_the_census_has_rows_and_each_names_a_module_and_a_verdict():
    assert len(ROWS) >= 20
    for memo, names, modules, verdict in ROWS:
        assert names and modules, memo
        assert verdict.startswith(("keep", "deleted")), (memo, verdict)
        for module in modules:
            assert (PACKAGE / module).is_file(), (memo, module)


@pytest.mark.parametrize(
    "memo, names, modules, verdict", ROWS, ids=[row[0] for row in ROWS]
)
def test_each_row_matches_the_source(memo, names, modules, verdict):
    source = "\n".join(
        (PACKAGE / module).read_text(encoding="utf-8") for module in modules
    )
    for name in names:
        present = [
            re.search(rf"\b{re.escape(part)}\b", source) is not None
            for part in identifiers(name)
        ]
        if verdict.startswith("keep"):
            assert all(present), f"{memo}: {name!r} is not in {modules}"
        else:
            # The deleted memo's own name (its last part) is gone.
            assert not present[-1], f"{memo}: {name!r} is back in {modules}"
