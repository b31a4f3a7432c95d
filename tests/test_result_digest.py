"""``result_digest`` renders each part once and still writes the same bytes.

The digest is the equality witness of every serving mode and of every
checkpoint, so its bytes are a contract: a row is, per alias in sorted
order, ``alias|name=repr(value)|…`` over its component's sorted
attributes, then ``score=repr(round(score, 12))``, lines joined by
``\\n`` and hashed with SHA-256.  ``result_digest`` sorts the aliases only
when a row's key set changes, keeps a tuple's line per alias on the tuple
and formats a non-zero float score once per call; :func:`oracle` is the
renderer as it was before those memos, recomputing every part per row.
"""

from __future__ import annotations

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import ResultRows
from repro.model.tuples import CompositeTuple, ServiceTuple
from repro.serve.bench import result_digest


def oracle(rows) -> str:
    """Every part rendered afresh for every row."""
    parts: list[str] = []
    for comp in rows:
        components = comp.components
        for alias in sorted(components):
            values = components[alias].values
            parts.append(
                alias + "|" + "|".join(
                    f"{name}={value!r}" for name, value in sorted(values.items())
                )
            )
        parts.append(f"score={round(comp.score, 12)!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _tuple(position: int, **values) -> ServiceTuple:
    return ServiceTuple(values, score=0.5, source="S", position=position)


M = _tuple(0, title="Up", year=2009, cast=({"name": "Ed"}, {"name": "Jo"}))
T = _tuple(1, name="Odeon", city="Milano")
R = _tuple(2, name="Da Gino", rating=4.5, open=True, phone=None)
BARE = _tuple(3)


def _same_bytes(rows) -> str:
    cold = result_digest(rows)
    assert cold == oracle(rows)
    assert result_digest(rows) == cold  # warm: every line from a memo
    return cold


CASES = {
    "empty list": [],
    "empty composite": [CompositeTuple({}, 0.5), CompositeTuple({}, 0.25)],
    "a tuple with no attributes": [CompositeTuple({"B": BARE}, 0.5)],
    "alias sets switch": [
        CompositeTuple({"M": M, "T": T}, 0.9),
        CompositeTuple({"T": T, "M": M}, 0.8),  # same set, other insertion order
        CompositeTuple({"M": M, "R": R}, 0.7),
        CompositeTuple({"M": M, "T": T, "R": R}, 0.6),
        CompositeTuple({"M": M}, 0.5),
        CompositeTuple({}, 0.4),
        CompositeTuple({"M": M, "T": T}, 0.3),
    ],
    "one tuple under two aliases": [
        CompositeTuple({"A": T, "B": T}, 0.5),
        CompositeTuple({"B": T}, 0.5),
        CompositeTuple({"C": T, "A": M}, 0.5),
    ],
    "scores that compare equal but render apart": [
        CompositeTuple({"M": M}, score)
        for score in (0.0, -0.0, 0, 0.0, 1, 1.0, True, 1, -0.0, 1.0)
    ],
    "nan and inf": [
        CompositeTuple({"M": M}, score)
        for score in (math.nan, float("nan"), math.inf, -math.inf, math.inf, 0.5)
    ],
    "scores past 12 decimals": [
        CompositeTuple({"M": M}, score)
        for score in (0.1 + 0.2, 0.3, 1 / 3, 1 / 3, 2.5e-13, 1e-12)
    ],
}


@pytest.mark.parametrize("rows", CASES.values(), ids=CASES.keys())
def test_the_digest_is_the_renderers_bytes(rows):
    _same_bytes(rows)


def test_an_unbuilt_result_list_is_built_and_digested_like_the_list():
    rows = CASES["alias sets switch"]
    unbuilt = ResultRows(iter(rows), length=len(rows))
    assert unbuilt.built == []
    assert result_digest(unbuilt) == oracle(rows)
    assert unbuilt.built == rows


def test_equal_scores_of_another_type_or_sign_do_not_share_a_text():
    def digest(*scores):
        return result_digest([CompositeTuple({"M": M}, s) for s in scores])

    assert digest(0.0, -0.0) != digest(0.0, 0.0) != digest(-0.0, -0.0)
    assert digest(1.0, 1) != digest(1.0, 1.0)
    assert digest(1, 1.0) != digest(1, 1)


def test_a_hand_built_list_has_a_pinned_digest():
    assert result_digest(CASES["alias sets switch"]) == (
        "fe6c5415dd2e49a7aa53eb5ae9b5506eb396f2c555a612bd2879f601afca6fa2"
    )


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=3)
)
VALUES = st.dictionaries(
    st.text(min_size=1, max_size=2),
    st.one_of(SCALARS, st.lists(st.dictionaries(st.sampled_from("xy"), SCALARS))),
    max_size=3,
)
SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 1, 1.0, True, math.nan, math.inf]),
    st.floats(),
    st.integers(-2, 2),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(VALUES, min_size=1, max_size=4),
    st.lists(
        st.tuples(
            st.dictionaries(st.sampled_from("ABC"), st.integers(0, 3), max_size=3),
            SCORES,
        ),
        max_size=8,
    ),
)
def test_any_list_digests_to_the_renderers_bytes(values, specs):
    tuples = [
        ServiceTuple(v, score=1.0, source="S", position=i) for i, v in enumerate(values)
    ]
    rows = [
        CompositeTuple(
            {alias: tuples[index % len(tuples)] for alias, index in parts.items()},
            score,
        )
        for parts, score in specs
    ]
    _same_bytes(rows)
