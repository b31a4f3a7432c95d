"""A checkpoint does each unit of work once and writes the bytes it wrote.

Three kinds of work used to be repeated on every durable write:

* the witness digest of a deferred result list built every row only to
  hash it — it now reads the rows not built from their unbuilt source
  (:meth:`~repro.engine.executor.ResultRows.scored`) and builds none;
* each write re-encoded every session payload and terminal outcome —
  :class:`~repro.durability.serve.ServeCheckpointer` now keeps each one's
  canonical text and assembles the body from the texts
  (:func:`~repro.durability.checkpoint.canonical_object`);
* every refresh and restore re-derived its plan's witnesses — they are now
  derived once per plan candidate.

Each is held here against what it replaced: the digest of the list built
eagerly, ``canonical_json`` of the whole payload, and a count of renders.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.durability.serve as durable_serve
from repro.core.optimizer import Optimizer, OptimizerConfig, PlanCandidate
from repro.durability import CHECKPOINT_VERSION, CheckpointStore
from repro.durability.checkpoint import (
    _result_digest,
    canonical_json,
    canonical_object,
)
from repro.durability.serve import _OUTCOME_FIELDS, ResumeState, ServeCheckpointer
from repro.engine.executor import PlanExecutor, ResultRows
from repro.query.compile import compile_query
from repro.query.parser import parse_query
from repro.serve import ServeConfig, WorkloadConfig, scenario_templates
from repro.serve.bench import combined_digest, result_digest
from repro.serve.runtime import serve
from repro.serve.scheduler import RequestOutcome, SessionTable
from repro.serve.workload import Request
from repro.services.marts import (
    RUNNING_EXAMPLE_INPUTS,
    RUNNING_EXAMPLE_QUERY,
    movie_night_registry,
)
from repro.services.scenarios import SCENARIOS
from repro.services.simulated import ServicePool

# -- witness digests from unbuilt rows ---------------------------------------------

PLANS = {
    "movie": (movie_night_registry, RUNNING_EXAMPLE_QUERY, RUNNING_EXAMPLE_INPUTS),
    **{
        name: (pack.registry_factory, pack.query_text, pack.default_inputs)
        for name, pack in SCENARIOS.items()
    },
}


def _raw(name: str) -> ResultRows:
    """The raw list a session keeps: the plan executed at an unbounded ``k``."""
    factory, text, inputs = PLANS[name]
    registry = factory()
    compiled = compile_query(parse_query(text), registry)
    best = Optimizer(compiled, OptimizerConfig()).optimize().best
    executor = PlanExecutor(
        best.plan, compiled, ServicePool(registry, global_seed=2009), inputs,
        best.fetch_vector(), k=10**9,
    )
    return executor.run().tuples


def _deferred_lists():
    """Every plan whose last node hands the output its rows unbuilt, with
    that node's kind: ``join`` or ``service``."""
    found = {}
    for name in PLANS:
        rows = _raw(name)
        if rows._source is not None and len(rows) > 3:
            found[name] = "service" if rows._source[0].alias else "join"
    return found


DEFERRED = _deferred_lists()


def test_both_kinds_of_deferred_list_are_covered():
    assert set(DEFERRED.values()) == {"join", "service"}, DEFERRED


@pytest.mark.parametrize("name", sorted(DEFERRED))
@pytest.mark.parametrize("prefix", ["unbuilt", "partly built"])
def test_unbuilt_witness_digest_is_the_built_lists(name, prefix):
    rows = _raw(name)
    if prefix == "partly built":
        shown = rows[: len(rows) // 2]
        assert len(rows.built) == len(shown)
    built_before = list(rows.built)
    witness = _result_digest(rows)
    # Digesting built no row and kept nothing: the prefix is what it was.
    assert rows.built == built_before
    assert all(ours is theirs for ours, theirs in zip(rows.built, built_before))
    assert rows._source is not None
    assert witness == rows.digest == result_digest(list(rows))
    assert rows._source is None  # every row built now: the source is dropped
    assert witness == result_digest(list(_raw(name)))


def test_digesting_a_deferred_list_builds_no_row(monkeypatch):
    from repro.model.tuples import CompositeTuple

    name = sorted(DEFERRED)[0]
    rows = _raw(name)
    made = []
    owned = CompositeTuple._owned.__func__
    monkeypatch.setattr(
        CompositeTuple,
        "_owned",
        classmethod(lambda cls, *args: made.append(args) or owned(cls, *args)),
    )
    _result_digest(rows)
    assert made == [] and rows.built == []
    rows[0]
    assert len(made) == 1


# -- checkpoint bodies from kept texts ---------------------------------------------

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False),
    st.text(max_size=4),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=4), JSON, max_size=6))
def test_an_object_from_member_texts_is_its_canonical_json(obj):
    members = {key: canonical_json(value) for key, value in obj.items()}
    assert canonical_object(members) == canonical_json(obj)


#: Ids whose string order is not their numeric order.
IDS = [0, 1, 2, 9, 10, 11, 99, 100, 101, 1000]

FINISH = st.tuples(
    st.sampled_from(["completed", "failed", "rejected"]),
    st.floats(0, 1e6, allow_nan=False),
    st.one_of(st.none(), st.text(max_size=5)),
)

#: One step of a run: a request starts (running outcome, not terminal), a
#: started request finishes (turns terminal; a refreshed session gets a new
#: payload), or a checkpoint is written.
EVENTS = st.lists(
    st.one_of(
        st.tuples(st.just("start"), st.sampled_from(IDS)),
        st.tuples(st.just("finish"), st.sampled_from(IDS), FINISH, JSON),
        st.tuples(st.just("write")),
    ),
    min_size=1,
    max_size=25,
)


def _request(rid: int) -> Request:
    """Runs at even ids; a follow-up at an odd id targets the run below it."""
    if rid % 2 == 0:
        return Request(rid, "run", "t", "movie", 0.0)
    return Request(rid, "more", "t", "movie", 0.0, target=rid - 1)


class _Sessions:
    """What a checkpointer reads of a session manager, with sessions that
    are always quiescent."""

    def __init__(self) -> None:
        self._sessions = {
            root: SimpleNamespace(inflight_interaction=None, root=root)
            for rid in IDS
            for root in (rid, _request(rid).target)
            if root is not None
        }

    @staticmethod
    def template_of(root):
        return SimpleNamespace(schema="movie", query_text="q", name="t")


@settings(max_examples=150, deadline=None)
@given(
    EVENTS,
    st.one_of(
        st.none(),
        st.dictionaries(st.sampled_from(IDS), JSON, max_size=4),
    ),
    st.dictionaries(st.sampled_from(IDS), FINISH, max_size=4),
)
def test_the_assembled_body_is_canonical_json_of_the_payload(
    tmp_path_factory, events, seeded_sessions, seeded_outcomes
):
    """Whatever happens between writes — outcomes turning terminal, a
    session refreshed after its text was kept, payloads seeded by a resume
    — each file is ``{"checksum":…,"payload":canonical_json(payload)}`` of
    the payload the checkpointer used to build whole."""
    directory = tmp_path_factory.mktemp("ckpt")
    current: dict[int, object] = {}  # root id -> the payload last snapshotted

    def snapshot(session, **recipe):
        return current[session.root]

    sessions = _Sessions()
    checkpointer = ServeCheckpointer(
        store=CheckpointStore(directory), sessions=sessions, every=0,
        meta={"seed": 1, "templates": ["t"]},
    )
    expected_sessions: dict[int, object] = {}
    if seeded_sessions is not None:
        table = SessionTable()
        for rid, (status, at, error) in seeded_outcomes.items():
            table.outcomes[rid] = RequestOutcome(
                _request(rid), status, finished_at=at, error=error
            )
        state = ResumeState(
            key="serve-000007", table=table, remaining=[],
            session_payloads=dict(seeded_sessions),
            restored_sessions=len(seeded_sessions), pre_terminal=len(table.outcomes),
        )
        expected_sessions.update(seeded_sessions)
        resume_state_from = durable_serve.resume_state_from
        durable_serve.resume_state_from = lambda *args, **kwargs: state
        try:
            checkpointer.resume([], None, None, None)
        finally:
            durable_serve.resume_state_from = resume_state_from
    table = checkpointer.table
    checkpoint_session = durable_serve.checkpoint_session
    durable_serve.checkpoint_session = snapshot
    try:
        for event in events:
            if event[0] == "start" and event[1] not in table.outcomes:
                table.outcomes[event[1]] = RequestOutcome(_request(event[1]), "running")
            elif event[0] == "finish":
                outcome = table.outcomes.get(event[1])
                if outcome is None or outcome.status != "running":
                    continue
                (outcome.status, outcome.finished_at, outcome.error), payload = event[2:]
                request = outcome.request
                root = request.request_id if request.kind == "run" else request.target
                current[root] = payload
                refreshed = outcome.status == "completed" or (
                    request.kind != "run" and outcome.status == "failed"
                )
                if refreshed:
                    expected_sessions[root] = payload
                checkpointer.on_terminal(outcome)
            elif event[0] == "write":
                key = checkpointer.write(table)
                payload = {
                    "version": CHECKPOINT_VERSION,
                    "kind": "serve",
                    "meta": dict(checkpointer.meta),
                    "outcomes": {
                        str(rid): {name: getattr(o, name) for name in _OUTCOME_FIELDS}
                        for rid, o in table.outcomes.items()
                        if o.status in ("completed", "failed", "rejected")
                    },
                    "sessions": {str(r): p for r, p in expected_sessions.items()},
                }
                body = canonical_json(payload)
                checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
                text = checkpointer.store.path_for(key).read_text(encoding="utf-8")
                assert text == f'{{"checksum":"{checksum}","payload":{body}}}'
    finally:
        durable_serve.checkpoint_session = checkpoint_session


# -- plan witnesses once per plan ----------------------------------------------------


def test_plan_witnesses_are_derived_once_per_plan(tmp_path, monkeypatch):
    """A durable run and its resume render each plan candidate once for
    its witnesses, not once per refresh and per restored session — and
    the resumed run still serves the uninterrupted run's digests."""
    renders = []
    render = PlanCandidate.render
    monkeypatch.setattr(
        PlanCandidate, "render", lambda self: renders.append(id(self)) or render(self)
    )
    config = dict(
        templates=scenario_templates("all"), data_seed=2009,
        checkpoint_dir=tmp_path, checkpoint_every=10,
    )
    workload = WorkloadConfig(num_requests=60, rate=4.0, seed=2009)
    whole = serve(ServeConfig(**config), workload)
    store = CheckpointStore(tmp_path)
    keys = store.keys()
    for key in keys[len(keys) // 2 + 1 :]:
        store.delete(key)
    refreshes = whole.durability["terminal_seen"]
    assert len(renders) == len(set(renders)) < refreshes
    renders.clear()
    resumed = serve(ServeConfig(**config, resume=True), workload)
    restored = resumed.durability["restored_sessions"]
    assert restored > len(set(renders)) and len(renders) == len(set(renders))
    assert combined_digest(resumed.digests()) == combined_digest(whole.digests())
