"""Every ``src/repro`` module some command enters, or a stated reason why not.

The audit (``tests/support/reachability.py``) runs the CLI matrix and the
served ``benchmarks/e2e`` workloads under :func:`sys.setprofile` in a
fresh interpreter, merges in what the forked ``serve-bench --parallel``
workers entered, and lists the modules none of whose functions was
entered.  That set must *equal* :data:`UNREACHED`: a new module no command
enters fails, and so does an allowlisted module that a command now enters
(its entry must go).  Package ``__init__`` modules whose only functions
are PEP 562 hooks (a lazy ``__getattr__``) are exempt.  The total of
unreached function lines may not exceed :data:`UNREACHED_LINES_MAX`, so a
function no command enters fails inside a reached module too; lower the
ceiling when a change deletes such code.

The audit is ``slow`` (run with ``-m slow``); tier-1 checks only the
allowlist's shape.  It writes ``artifacts/reachability.json``: per module,
the reached and unreached function lines and the unreached functions.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REPORT = ROOT / "artifacts" / "reachability.json"

_JOIN_METHODS = (
    "the chapter's join methods (Sec. 4): the paper reproductions and the "
    "join_kernels workload run them; ROADMAP item 4 step 2 serves them"
)
_MULTIWAY = (
    "multiway top-k join kernels pinned by benchmarks/e2e/entrypoints.py "
    "for join_kernels; ROADMAP item 6 serves them or moves them out"
)

#: Module -> why no command enters it.
UNREACHED = {
    "repro.baselines.exhaustive": (
        "oracle: the optimum branch and bound must equal (E12, E17)"
    ),
    "repro.baselines.naive": "oracle: the unoptimised plans the optimizer must beat",
    "repro.baselines.wsms": "oracle, and E15's WSMS bottleneck baseline",
    "repro.joins.completion": _JOIN_METHODS,
    "repro.joins.extraction": _JOIN_METHODS,
    "repro.joins.methods": _JOIN_METHODS,
    "repro.joins.ranked": _MULTIWAY,
    "repro.joins.searchspace": _JOIN_METHODS,
    "repro.joins.strategies": _JOIN_METHODS,
    "repro.joins.topk": _MULTIWAY,
    "repro.joins.wcoj": _MULTIWAY,
    "repro.query.augment": (
        "Sec. 2.3 query augmentation; ROADMAP item 6 (c) serves it through "
        "`repro run` on an unfeasible query"
    ),
}

#: Ceiling on the audit's total of unreached function lines (its measured
#: total, the same on Python 3.10, 3.11 and 3.12).
UNREACHED_LINES_MAX = 2767


def test_the_allowlist_names_real_modules_with_one_line_reasons():
    assert list(UNREACHED) == sorted(UNREACHED)
    for module, reason in UNREACHED.items():
        assert module.startswith("repro."), module
        path = SRC.joinpath(*module.split(".")).with_suffix(".py")
        assert path.is_file(), f"{module}: no {path.relative_to(ROOT)}"
        assert reason.strip() and "\n" not in reason, module
    assert type(UNREACHED_LINES_MAX) is int


@pytest.mark.slow
def test_every_module_no_command_enters_is_allowlisted():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "support" / "reachability.py"),
         "--output", str(REPORT)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(REPORT.read_text())
    unreached = set(report["unreached_modules"])
    assert not unreached - set(UNREACHED), (
        "no command enters these modules: serve, delete or allowlist them "
        f"with a reason: {sorted(unreached - set(UNREACHED))}"
    )
    assert not set(UNREACHED) - unreached, (
        "a command now enters these allowlisted modules: drop their "
        f"entries: {sorted(set(UNREACHED) - unreached)}"
    )
    lines = report["total"]["unreached"]
    assert lines <= UNREACHED_LINES_MAX, (
        f"{lines} function lines no command enters, over the ceiling of "
        f"{UNREACHED_LINES_MAX}: serve or delete the new ones (the report "
        "lists them per module)"
    )
