"""A typed failure at the query-text door.

Hypothesis mutates the five built-in query texts (the chapter's movie and
conference queries and the travel, shopping and scholar packs) by token
and by character, then sends each text through both ways in:

* the library: :func:`parse_query` → :func:`compile_query` →
  :meth:`Optimizer.optimize` → :func:`execute_plan` on a fresh
  :class:`ServicePool`, where only a :class:`SearchComputingError` may
  escape;
* the CLI: ``repro run --schema S --query TEXT`` through
  :func:`repro.cli.main`, which exits 0, or exits with one stderr line and
  no traceback: 2 for ``repro: <Error>: ...`` (a refused query) and 1 for
  ``no feasible plan found``.

Tier-1 draws 150 examples (about 2 s); the ``slow`` twin draws ten times as many.
"""

from __future__ import annotations

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Optimizer,
    OptimizerConfig,
    ServicePool,
    compile_query,
    execute_plan,
    parse_query,
)
from repro.cli import main
from repro.errors import SearchComputingError
from repro.services.marts import (
    CONFERENCE_INPUTS,
    CONFERENCE_QUERY,
    RUNNING_EXAMPLE_INPUTS,
    RUNNING_EXAMPLE_QUERY,
    conference_trip_registry,
    movie_night_registry,
)
from repro.services.scenarios import SCENARIOS

#: schema -> (registry factory, query text, default inputs).
SCHEMAS = {
    "movie": (movie_night_registry, RUNNING_EXAMPLE_QUERY, RUNNING_EXAMPLE_INPUTS),
    "conference": (conference_trip_registry, CONFERENCE_QUERY, CONFERENCE_INPUTS),
    **{
        pack.schema: (pack.registry_factory, pack.query_text, pack.default_inputs)
        for pack in SCENARIOS.values()
    },
}

_TOKEN = re.compile(r"\w+|\W")

#: Every token of the five texts, and some that none of them has, by
#: kind: a number, a name (or keyword) or one other character.
_TOKENS = {token for _, text, _ in SCHEMAS.values() for token in _TOKEN.findall(text)}
NUMBERS = sorted(
    {token for token in _TOKENS if token[0].isdigit()}
    | {"0", "00", "1e309", "100000", "9" * 30}
)
NAMES = sorted(
    {token for token in _TOKENS if re.match(r"[^\W\d]", token)}
    | {"OR", "NOT", "INPUT9", "Nowhere", "é", "_"}
)
MARKS = sorted(
    {token for token in _TOKENS if not re.match(r"\w| ", token)}
    | set("(;!'\"<>-")
)


def _kind(token: str) -> list[str]:
    if token[0].isdigit():
        return NUMBERS
    return NAMES if re.match(r"\w", token) else MARKS


#: (unit, edit, position, choice): a token or a character deleted,
#: duplicated, swapped with its successor or replaced — a token by one of
#: its own kind, so that most edited texts still parse and go deeper.
mutations = st.lists(
    st.tuples(
        st.sampled_from(["token", "token", "char"]),
        st.sampled_from(["replace", "replace", "delete", "duplicate", "swap"]),
        st.integers(0, 400),
        st.integers(0, 400),
    ),
    min_size=1,
    max_size=2,
)


def mutate(text: str, edits) -> str:
    for unit, edit, position, choice in edits:
        parts = _TOKEN.findall(text) if unit == "token" else list(text)
        # A token edit leaves the blanks between tokens alone.
        spots = [i for i, part in enumerate(parts) if unit == "char" or part != " "]
        if not spots:
            break
        at = spots[position % len(spots)]
        if edit == "delete":
            del parts[at]
        elif edit == "duplicate":
            parts.insert(at, parts[at])
        elif edit == "swap" and at + 1 < len(parts):
            parts[at], parts[at + 1] = parts[at + 1], parts[at]
        elif edit == "replace" and unit == "char":
            parts[at] = chr(32 + choice % 95) if choice < 380 else "\u00e9"
        elif edit == "replace":
            kind = _kind(parts[at])
            parts[at] = kind[choice % len(kind)]
        text = "".join(parts)
    return text


def through_the_library(schema: str, text: str) -> None:
    registry_factory, _, inputs = SCHEMAS[schema]
    registry = registry_factory()
    try:
        query = compile_query(parse_query(text), registry)
        best = Optimizer(query, OptimizerConfig()).optimize().best
        if best is None:
            return
        pool = ServicePool(registry, global_seed=2009)
        execute_plan(best.plan, query, pool, inputs, best.fetch_vector())
    except SearchComputingError:
        pass


_REFUSED = re.compile(r"^repro: \w+Error: ")


def through_the_cli(schema: str, text: str) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["run", "--schema", schema, "--query", text])
        except SystemExit as stop:  # what `python -m repro` would print
            code = stop.code
            if isinstance(code, str):
                print(code, file=err)
                code = 1
    err = err.getvalue()
    shown = f"run --schema {schema} --query {text!r} exited {code}:\n{err}"
    assert "Traceback" not in out.getvalue() + err, shown
    if code == 0:
        return
    assert err.count("\n") == 1, shown
    if code == 2:
        assert _REFUSED.match(err), shown
    else:
        assert (code, err) == (1, "no feasible plan found\n"), shown


schemas = st.sampled_from(sorted(SCHEMAS))


def check(schema: str, edits) -> None:
    text = mutate(SCHEMAS[schema][1], edits)
    through_the_library(schema, text)
    through_the_cli(schema, text)


@settings(max_examples=150, deadline=None)
@given(schema=schemas, edits=mutations)
def test_a_mutated_query_text_fails_typed(schema, edits):
    check(schema, edits)


@pytest.mark.slow
@settings(max_examples=1500, deadline=None)
@given(schema=schemas, edits=mutations)
def test_a_mutated_query_text_fails_typed_at_length(schema, edits):
    check(schema, edits)


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_every_unmutated_text_runs(schema):
    through_the_cli(schema, SCHEMAS[schema][1])
