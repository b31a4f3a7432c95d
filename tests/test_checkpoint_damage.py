"""A damaged session checkpoint restores or is refused with a typed error.

A checkpoint file carries a checksum, so damage that reaches
:func:`~repro.durability.restore_session` is damage that was re-saved
through :meth:`~repro.durability.CheckpointStore.save`: a hand edit, a
buggy writer, another build.  Each example takes a real session payload —
one suspended mid-plan (``repro checkpoint --steps 2``), one quiescent —
deletes, retypes or replaces one member at any depth of its ``witness``,
``journal`` or ``inflight``, re-saves it, and restores it.  The restore
either succeeds or raises a :class:`~repro.errors.CheckpointError`; any
other exception (a ``KeyError``, a ``TypeError``, an engine error) is the
traceback ``repro resume`` must never show.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.durability import CheckpointStore, restore_session
from repro.engine.liquid import INTERACTIONS
from repro.errors import CheckpointError

#: The payload members the journal replay and the witness checks read.
DAMAGED = ("witness", "journal", "inflight")

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(sorted(INTERACTIONS)),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    store = CheckpointStore(tmp_path_factory.mktemp("sessions"))
    with contextlib.redirect_stdout(io.StringIO()):
        for key, steps in (("mid", ["--steps", "2"]), ("done", [])):
            argv = ["checkpoint", "--schema", "scholar", *steps,
                    "--dir", str(store.root), "--key", key]
            assert main(argv) == 0
    return store


def _paths(value, path=()):
    """Every member path below ``value``, shallowest first."""
    children = (
        value.items() if isinstance(value, dict)
        else enumerate(value) if isinstance(value, list)
        else ()
    )
    for key, child in children:
        yield (*path, key)
        yield from _paths(child, (*path, key))


def _damage(payload, path, replacement):
    """Delete the member at ``path`` (``replacement`` is ``None``) or set
    it to ``replacement[0]``."""
    *parents, last = path
    holder = payload
    for key in parents:
        holder = holder[key]
    if replacement is None:
        del holder[last]
    else:
        holder[last] = replacement[0]


def test_both_payloads_are_real_sessions(store):
    mid, done = store.load("mid"), store.load("done")
    assert mid["journal"] == [] and mid["inflight"]["steps"] == 2
    assert len(done["journal"]) == 1 and done["inflight"] is None
    for key in ("mid", "done"):
        restore_session(store.load(key))  # undamaged: restores and verifies


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_damaged_member_restores_or_is_refused(store, data):
    key = data.draw(st.sampled_from(["mid", "done"]), label="payload")
    payload = store.load(key)
    root = {name: payload[name] for name in DAMAGED}
    path = data.draw(st.sampled_from(sorted(_paths(root), key=repr)), label="path")
    replacement = data.draw(st.none() | st.tuples(JSON), label="replacement")
    _damage(payload, path, replacement)
    damaged = f"{key}-damaged"
    store.save(damaged, payload)
    try:
        restore_session(store.load(damaged))
    except CheckpointError:
        pass
