"""Every ``repro`` flag is set somewhere outside the parser that declares it.

A flag nobody sets has one value in use, its default, yet it still costs a
declaration, a help line and a branch every reader must follow (DESIGN.md,
"A knob with one value in use is a constant").  This guard walks
:func:`repro.cli.build_parser` and fails for any option none of whose
strings appears in

* a CI workflow under ``.github/``;
* a command line of README.md, DESIGN.md or EXPERIMENTS.md: a fenced block
  or an inline code span that runs ``repro``;
* a file under ``examples/``;
* a string literal of a test under ``tests/``.

A ``BooleanOptionalAction`` counts either of its two forms.  A flag that
fails is deleted (its default becomes the value the code uses) or gets a
caller that needs it.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

_FENCED = re.compile(r"```.*?```", re.DOTALL)
_INLINE = re.compile(r"`[^`]+`")
_RUNS_REPRO = re.compile(r"\brepro\s|-m repro\b")


def _options(parser: argparse.ArgumentParser, command: str = ""):
    """``(command, option strings)`` of every option below ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _options(sub, name)
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            yield command, tuple(action.option_strings)


def _command_lines(text: str):
    """The fenced blocks and inline code spans of a markdown text that run
    ``repro``."""
    blocks = _FENCED.findall(text)
    spans = _INLINE.findall(_FENCED.sub("", text))
    return [unit for unit in blocks + spans if _RUNS_REPRO.search(unit)]


def _shipped() -> str:
    """CI workflows, the documents' command lines and the examples."""
    texts = [path.read_text() for path in sorted(ROOT.glob(".github/**/*.yml"))]
    for name in DOCS:
        texts += _command_lines((ROOT / name).read_text())
    texts += [
        path.read_text()
        for path in sorted((ROOT / "examples").rglob("*"))
        if path.is_file()
    ]
    return "\n".join(texts)


def _tests() -> str:
    this = Path(__file__).resolve()
    return "\n".join(
        path.read_text()
        for path in sorted((ROOT / "tests").rglob("*.py"))
        if path.resolve() != this
    )


def _finds(before: str, option: str, corpus: str) -> bool:
    pattern = before + re.escape(option) + r"(?![\w-])"
    return re.search(pattern, corpus) is not None


def test_the_walk_sees_every_command():
    commands = {command for command, _ in _options(build_parser())}
    assert commands >= {"", "run", "serve-bench", "checkpoint", "resume"}


def test_every_flag_is_set_outside_its_parser():
    shipped, tests = _shipped(), _tests()
    unset = [
        f"{command or 'repro'} {'/'.join(strings)}"
        for command, strings in _options(build_parser())
        if not any(
            _finds(r"(?<![\w-])", option, shipped) or _finds("[\"']", option, tests)
            for option in strings
        )
    ]
    assert not unset, (
        "no CI step, documented command line, example or test sets these "
        f"flags: delete them or give them a caller: {unset}"
    )
