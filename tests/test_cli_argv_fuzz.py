"""A typed failure at the CLI door for every numeric flag.

Each numeric flag of ``run``, ``explain``, ``checkpoint`` and
``serve-bench`` has a domain (:data:`FLAGS`).  Hypothesis gives one flag
at a time an integer, a decimal, a negative, ``nan``, ``inf`` or text that
is no number, on a small command (:data:`COMMANDS`), through
:func:`repro.cli.main` in-process.  Every example must

* exit 0, 1, 2 or 4 and print no traceback;
* print at most one error line (``repro: ...``, ``error: ...`` or
  argparse's ``repro <command>: error: ...``);
* exit 2 when the value is outside the flag's domain: refused at the
  door, by argparse or by the configuration the value feeds;
* otherwise run (exit 0, or 1 when the run itself fails: retries
  exhausted), and print no ``nan`` figure when it exits 0.

Tier-1 draws a few dozen examples; the ``slow`` twin draws ten times as many.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cli import main


def _parsed(kind, text: str):
    try:
        return kind(text)
    except ValueError:
        return None


def integer(low: float = -math.inf):
    """An integer ``low`` or more."""
    def valid(text: str) -> bool:
        value = _parsed(int, text)
        return value is not None and value >= low

    return valid


def number(test):
    """A number passing ``test`` (NaN passes no comparison)."""
    return lambda text: _parsed(float, text) is not None and test(float(text))


def at_least(low):
    """A finite number ``low`` or more."""
    return number(lambda value: low <= value < math.inf)


def numbers(test):
    """A comma-separated list of at least one number, each passing ``test``."""
    def valid(text: str) -> bool:
        tokens = [token for token in text.split(",") if token.strip()]
        return bool(tokens) and all(map(number(test), tokens))

    return valid


#: Small working commands; ``{tmp}`` is a fresh directory per example.
COMMANDS = {
    "run": ("run",),
    "explain": ("explain",),
    "checkpoint": ("checkpoint", "--steps", "2", "--dir", "{tmp}/store"),
    "serve-bench": (
        "serve-bench", "--requests", "2", "--rates", "1", "--artifacts-dir", "{tmp}",
    ),
}

_EXECUTION = {
    "--budget": (integer(0), ()),
    "--seed": (integer(), ()),
    "--fetch-boost": (integer(1), ()),
    "--invocation-cache-size": (integer(0), ()),
    "--failure-rate": (number(lambda p: 0 <= p <= 1), ()),
    "--timeout-rate": (number(lambda p: 0 <= p <= 1), ()),
    "--slow-factor": (at_least(1), ("--timeout-rate", "0.5")),
    "--max-attempts": (integer(1), ("--failure-rate", "0.3")),
    "--backoff": (at_least(0), ("--failure-rate", "0.3")),
    "--call-timeout": (number(lambda s: s > 0), ("--timeout-rate", "0.5")),
    "--time-scale": (at_least(0), ()),
}

#: ``(command, flag) -> (in the domain?, flags the value needs to matter)``.
FLAGS = {
    **{("run", flag): spec for flag, spec in _EXECUTION.items()},
    **{("explain", flag): spec for flag, spec in _EXECUTION.items()},
    ("checkpoint", "--budget"): (integer(0), ()),
    ("checkpoint", "--seed"): (integer(), ()),
    ("checkpoint", "--steps"): (integer(1), ()),
    ("serve-bench", "--requests"): (integer(1), ()),
    ("serve-bench", "--rates"): (numbers(lambda r: r > 0), ()),
    ("serve-bench", "--seed"): (integer(), ()),
    ("serve-bench", "--service-rate"): (at_least(0), ()),
    ("serve-bench", "--shards"): (integer(1), ()),
    ("serve-bench", "--plan-cache-size"): (integer(1), ()),
    ("serve-bench", "--slo-thresholds"): (numbers(lambda s: s > 0), ()),
    ("serve-bench", "--checkpoint-every"): (
        integer(0), ("--checkpoint-dir", "{tmp}/serve"),
    ),
    ("serve-bench", "--time-scale"): (at_least(0), ()),
}

values = st.one_of(
    st.integers(-3, 4).map(str),
    st.integers(-300, 300).map(lambda n: str(n / 100)),
    st.sampled_from(["nan", "NaN", "inf", "-inf", "1e-9", "x", "", "1,2", "0x1"]),
)

_ERROR_LINE = re.compile(r"^(repro: |error: |repro [\w-]+: error: )")
_NAN = re.compile(r"\bnan\b", re.IGNORECASE)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def check(case: tuple[str, str], value: str) -> None:
    command, flag = case
    valid, context = FLAGS[case]
    with tempfile.TemporaryDirectory(prefix="repro-argv-") as tmp:
        argv = [part.format(tmp=tmp) for part in (*COMMANDS[command], *context)]
        code, out, err = _run([*argv, flag, value])
        created = any(Path(tmp).iterdir())
    shown = f"{command} {flag} {value!r} exited {code}:\n{err}{out[-600:]}"
    assert code in (0, 1, 2, 4), shown
    assert "Traceback" not in out + err, shown
    assert sum(bool(_ERROR_LINE.match(line)) for line in err.splitlines()) <= 1, shown
    if not valid(value):
        assert code == 2 and not created, shown
        return
    assert code in (0, 1), shown
    if code == 0:
        assert not _NAN.search(out), shown


cases = st.sampled_from(sorted(FLAGS))


@settings(max_examples=60, deadline=None)
@given(case=cases, value=values)
def test_every_numeric_flag_fails_typed(case, value):
    check(case, value)


@pytest.mark.slow
@settings(max_examples=600, deadline=None)
@given(case=cases, value=values)
def test_every_numeric_flag_fails_typed_at_length(case, value):
    check(case, value)


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--invocation-cache-size", "-5"),
        ("run", "--backend", "asyncio", "--time-scale", "nan"),
        ("checkpoint", "--steps", "0", "--dir", "{tmp}/store"),
        ("checkpoint", "--steps", "-1", "--dir", "{tmp}/store"),
        # An infinite scale sleeps forever on the first simulated call.
        ("run", "--backend", "asyncio", "--time-scale", "inf"),
        ("serve-bench", "--requests", "4", "--rates", "1", "--backend", "asyncio",
         "--time-scale", "inf", "--artifacts-dir", "{tmp}"),
    ],
)
def test_a_malformed_count_or_scale_is_argparse_usage_error(argv):
    """In a child process with a deadline: a value the door lets through
    may hang the command instead of failing it."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    with tempfile.TemporaryDirectory(prefix="repro-argv-") as tmp:
        done = subprocess.run(
            [sys.executable, "-m", "repro", *(part.format(tmp=tmp) for part in argv)],
            capture_output=True, text=True, timeout=20, env=env,
        )
        assert not any(Path(tmp).iterdir())
    code, out, err = done.returncode, done.stdout, done.stderr
    assert (code, out) == (2, "")
    flag = next(part for part in argv if part in ("--invocation-cache-size",
                                                  "--time-scale", "--steps"))
    assert f"error: argument {flag}:" in err.splitlines()[-1]
