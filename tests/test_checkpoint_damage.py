"""A damaged checkpoint restores or is refused with a typed error.

A checkpoint file carries a checksum, so damage that reaches
:func:`~repro.durability.restore_session` is damage that was re-saved
through :meth:`~repro.durability.CheckpointStore.save`: a hand edit, a
buggy writer, another build.  Each example takes a real session payload —
one suspended mid-plan (``repro checkpoint --steps 2``), one quiescent —
deletes, retypes or replaces one member at any depth of its ``witness``,
``journal``, ``inflight``, ``plan`` (the search trail the plan is rebuilt
from) or recipe (``RECIPE``), re-saves it, and restores it.  The restore
either succeeds or raises a :class:`~repro.errors.CheckpointError`; any
other exception (a ``KeyError``, a ``TypeError``, an engine error) is the
traceback ``repro resume`` must never show.  A serve checkpoint is damaged
the same way in its ``outcomes`` and ``sessions`` members, and resumed by
``serve(resume=True)`` or ``repro serve-bench --resume``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.durability import CheckpointStore, restore_session
from repro.engine.liquid import INTERACTIONS
from repro.errors import CheckpointError, CheckpointIntegrityError
from repro.serve import ServeConfig, WorkloadConfig, serve

#: The recipe members a restore builds the session from.
RECIPE = (
    "metric", "data_seed", "latency_jitter", "retry", "degradation", "inputs",
    "invocation_cache_size", "fault_model", "growth", "backend",
)
#: The payload members the plan rebuild, the journal replay, the witness
#: checks and the session's construction read.
DAMAGED = ("witness", "journal", "inflight", "plan", *RECIPE)

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


#: A member of the ``plan`` and what to set it to: ``(path, value)``.
PLAN_DAMAGE = {
    "unknown interface": (("interfaces",), [["P", "NoSuchInterface"]]),
    "choice out of range": (("choice",), 7),
    "negative choice": (("choice",), -1),
    "choice past every search's": (("choice",), 10**20),
    "choice not a count": (("choice",), True),
    "move after a missing node": (("moves", 1, 2), "svc:Nowhere"),
    "move of a missing alias": (("moves", 0, 1), "Q"),
    "merge of a missing leaf": (("moves", 3, 2), 5),
    "merge of one leaf twice": (("moves", 3, 2), 0),
    "unknown move kind": (("moves", 0, 0), "teleport"),
    "move of the wrong width": (("moves", 3), ["merge", 0, 1]),
    "a move missing": (("moves",), "drop-last"),
    "unknown join topology": (("moves", 3, 3, 0), "sideways"),
    "zero ratio": (("moves", 3, 3, 3), 0),
    "zero denominator": (("moves", 3, 3, 4), 0),
    "zero step chunks": (("moves", 3, 3, 5), 0),
    "float step chunks": (("moves", 3, 3, 5), 1.0),
    "join method too short": (("moves", 3, 3), ["parallel", "merge-scan"]),
    "fetches of another plan": (("fetches",), [["P", 1]]),
    "fetch factor zero": (("fetches", 0, 1), 0),
}


@pytest.mark.parametrize("case", sorted(PLAN_DAMAGE))
def test_a_damaged_plan_trail_is_refused(store, case):
    path, value = PLAN_DAMAGE[case]
    payload = store.load("done")
    assert payload["plan"]["moves"][3][0] == "merge"  # scholar: a fork, a merge
    if value == "drop-last":
        payload["plan"]["moves"].pop()
    else:
        _damage(payload, ("plan", *path), (value,))
    store.save("plan-damaged", payload)
    with pytest.raises(CheckpointIntegrityError, match="plan"):
        restore_session(store.load("plan-damaged"))


#: The serve checkpoint's run: 24 requests at rate 2.0 (seed 2009), a
#: checkpoint every 8 outcomes, so ``serve-000003`` is the newest; as
#: ``serve-bench`` flags and as the ``serve()`` call they make.
SERVE_BENCH = ("serve-bench", "--requests", "24", "--rates", "2.0",
               "--checkpoint-every", "8")
SERVE = ServeConfig(default_service_rate=4.0, checkpoint_every=8)
WORKLOAD = WorkloadConfig(num_requests=24, rate=2.0, seed=2009)
NEWEST = "serve-000003"


def _serve_bench(root, *flags):
    """``serve-bench`` on the serve checkpoint's run, checkpointing under
    ``root``: its exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*SERVE_BENCH, "--checkpoint-dir", str(root / "ckpt"),
                     "--artifacts-dir", str(root), *flags])
    return code, err.getvalue()


def _resume(root, payload):
    """Save ``payload`` as the only checkpoint under ``root`` and serve the
    run again from it."""
    CheckpointStore(root / "ckpt").save(NEWEST, payload)
    return serve(
        replace(SERVE, checkpoint_dir=root / "ckpt", resume=True), WORKLOAD
    )


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """The newest checkpoint of a durable ``serve-bench`` run."""
    root = tmp_path_factory.mktemp("serve")
    assert _serve_bench(root) == (0, "")
    return CheckpointStore(root / "ckpt").load(NEWEST)


def test_the_serve_checkpoint_resumes_undamaged(served, tmp_path):
    assert served["outcomes"]["0"]["status"] == "completed"  # request 0 is a
    assert served["sessions"]["0"]["template"] == "conference-trip"  # run
    report = _resume(tmp_path / "library", copy.deepcopy(served))
    assert report.durability["restored_sessions"] == len(served["sessions"])
    CheckpointStore(tmp_path / "ckpt").save(NEWEST, served)
    assert _serve_bench(tmp_path, "--resume") == (0, "")


#: What the serve resume itself reads of a session payload (the rest is
#: :func:`restore_session`'s, fuzzed above).
SESSION_KEYS = ("template", "schema", "query_text")


def _read_by_resume(path):
    """Any outcome member, a session whole, or one of its ``SESSION_KEYS``."""
    return (
        path[0] == "outcomes" or len(path) <= 2
        or (len(path) == 3 and path[2] in SESSION_KEYS)
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_damaged_serve_member_resumes_or_is_refused(served, data):
    payload = copy.deepcopy(served)
    root = {name: payload[name] for name in ("outcomes", "sessions")}
    paths = sorted(filter(_read_by_resume, _paths(root)), key=repr)
    path = data.draw(st.sampled_from(paths), label="path")
    replacement = data.draw(st.none() | st.tuples(JSON), label="replacement")
    _damage(payload, path, replacement)
    with tempfile.TemporaryDirectory(prefix="repro-damage-") as tmp:
        try:
            _resume(Path(tmp), payload)
        except CheckpointError:
            pass


#: A member of request 0's outcome or session and what to set it to; a
#: session moved to request 24 names a request the workload does not have.
SERVE_DAMAGE = {
    "outcome a list": (("outcomes", "0"), []),
    "outcome a number": (("outcomes", "0"), 7),
    "finished_at a string": (("outcomes", "0", "finished_at"), "x"),
    "session of no request": (("sessions", "24"), "moved from 0"),
    "template a list": (("sessions", "0", "template"), ["conference-trip"]),
    "status a number": (("outcomes", "0", "status"), 7),
    "status not terminal": (("outcomes", "0", "status"), "running"),
    "steps null": (("outcomes", "0", "steps"), None),
    "shard a string": (("outcomes", "0", "shard"), "a"),
}


@pytest.mark.parametrize("case", sorted(SERVE_DAMAGE))
def test_a_damaged_serve_checkpoint_is_refused_in_one_line(served, tmp_path, case):
    """Regression: an outcome that is a list or a number, a string
    ``finished_at``, a session of no request and a list ``template``
    escaped ``serve-bench --resume`` as a ``TypeError`` or ``KeyError``
    traceback; the four status, steps and shard cases resumed."""
    path, value = SERVE_DAMAGE[case]
    payload = copy.deepcopy(served)
    if value == "moved from 0":
        value = payload["sessions"].pop("0")
    _damage(payload, path, (value,))
    with pytest.raises(CheckpointError):
        _resume(tmp_path / "library", copy.deepcopy(payload))
    CheckpointStore(tmp_path / "ckpt").save(NEWEST, payload)
    code, err = _serve_bench(tmp_path, "--resume")
    assert code == 4 and err.count("\n") == 1, err
    assert err.startswith("repro: Checkpoint"), err


#: A session recipe member (a path into the payload) and a damaged value.
#: Before the recipe was checked, each one escaped ``repro resume`` or
#: ``serve-bench --resume`` as a traceback or an exit 1, or restored.
RECIPE_DAMAGE = {
    "metric a list": (("metric",), ["execution-time"]),
    "data_seed a string": (("data_seed",), "2009"),
    "latency_jitter a string": (("latency_jitter",), "x"),
    "retry of no attempts": (("retry",), {
        "max_attempts": 0, "base_backoff": 0.5, "backoff_multiplier": 2.0,
        "jitter_fraction": 0.1, "call_timeout": None,
    }),
    "degradation unknown": (("degradation",), "sometimes"),
    "inputs a list": (("inputs",), []),
    "invocation_cache_size a string": (("invocation_cache_size",), "many"),
    "failure_rate of 2": (("fault_model", "default", "failure_rate"), 2),
    "outage not a bool": (("fault_model", "default", "outage"), 0),
    "growth of 1": (("growth",), 1),
    "backend unknown": (("backend",), "threads"),
}


def _refused_in_one_line(code, err):
    assert code == 4 and err.count("\n") == 1, err
    assert err.startswith("repro: CheckpointIntegrityError:"), err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", sorted(RECIPE_DAMAGE))
def test_a_damaged_recipe_member_is_refused_in_one_line(store, served, tmp_path, case):
    """Through ``repro resume`` on a session checkpoint and through
    ``serve-bench --resume`` on a serve checkpoint's session 0."""
    path, value = RECIPE_DAMAGE[case]
    payload = store.load("done")
    _damage(payload, path, (copy.deepcopy(value),))
    session_dir = tmp_path / "session"
    CheckpointStore(session_dir).save("done", payload)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["resume", "--dir", str(session_dir)])
    _refused_in_one_line(code, err.getvalue())
    serve_payload = copy.deepcopy(served)
    _damage(serve_payload, ("sessions", "0", *path), (copy.deepcopy(value),))
    CheckpointStore(tmp_path / "ckpt").save(NEWEST, serve_payload)
    _refused_in_one_line(*_serve_bench(tmp_path, "--resume"))


def test_a_served_session_of_another_data_seed_is_refused_in_one_line(served, tmp_path):
    """Regression: the server's pool factory raised ``ServiceInvocationError``
    (exit 1) for a session recorded under another data seed."""
    payload = copy.deepcopy(served)
    payload["sessions"]["0"]["data_seed"] = 2010
    with pytest.raises(CheckpointIntegrityError, match="data_seed"):
        _resume(tmp_path / "library", copy.deepcopy(payload))
    CheckpointStore(tmp_path / "ckpt").save(NEWEST, payload)
    _refused_in_one_line(*_serve_bench(tmp_path, "--resume"))
