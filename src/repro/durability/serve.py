"""Scheduler-level durability: periodic checkpoints and crash resume.

The serving runtime reaches a *consistent* durable state only at
interaction boundaries: a session checkpoint is replay-based (see
:mod:`repro.durability.checkpoint`), so it can be taken exactly when a
session is quiescent — no suspended step generator, journal complete.
The :class:`ServeCheckpointer` exploits the scheduler's own structure to
find those boundaries for free:

* every time a request reaches a **terminal outcome**, its session has
  just finished an interaction (per-session serialization guarantees no
  other interaction of that session is mid-flight), so the checkpointer
  refreshes that one session's payload in an in-memory cache;
* every N-th terminal outcome, it atomically writes a ``serve``
  checkpoint: the cached session payloads plus every terminal outcome's
  ``(status, digest)``.

Sessions that are mid-interaction at write time appear with the state
of their *last completed* interaction; the in-flight request's outcome
is still ``running`` (not terminal), so on resume it simply re-runs
from arrival against exactly the state it originally started from — the
deterministic substrate makes the re-run byte-identical.  The same
argument covers queued and parked requests.  The one special case is a
``rerank`` journaled in ``_start`` but whose finish event has not fired
yet: it is *not yet* in the cached payload (refresh happens at finish),
so like any running request it re-runs on resume — reranking is
idempotent and call-free, so digests are unaffected either way.

Resume (:meth:`ServeCheckpointer.resume`, over :func:`resume_state_from`)
pre-seeds a :class:`~repro.serve.scheduler.SessionTable` with the
pre-crash terminal outcomes and known runs, restores every checkpointed
session into the :class:`~repro.serve.sessions.SessionManager`, and
serves only the requests without a terminal outcome.  The merged report then covers
the full workload — pre-crash digests come from the checkpoint, the
rest from the resumed run — and must equal an uninterrupted run's
(``tests/support/crash.py`` gates exactly that under SIGKILL).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping, Sequence

from repro.durability.checkpoint import (
    CHECKPOINT_VERSION,
    _SESSION_FIELDS,
    CheckpointStore,
    canonical_json,
    canonical_object,
    checkpoint_session,
    require_fields,
    restore_session,
)
from repro.errors import CheckpointError, CheckpointIntegrityError
from repro.obs.serving import replay_outcome_telemetry
from repro.serve.runtime import serve
from repro.serve.scheduler import (
    RequestOutcome,
    ServeConfig,
    ServeReport,
    SessionTable,
)
from repro.serve.sessions import SessionManager
from repro.serve.workload import Request, WorkloadConfig

__all__ = [
    "ResumeState",
    "ServeCheckpointer",
    "resume_state_from",
    "serve_workload_durable",
]

#: Outcome statuses that will never change again.
_TERMINAL = ("completed", "failed", "rejected")

#: What a checkpoint keeps of a terminal :class:`RequestOutcome`.  The
#: first three are the durable contract; the rest is telemetry — what the
#: observability layer needs to re-emit the outcome's span tree and
#: re-absorb its metrics after a resume
#: (:func:`repro.obs.serving.replay_outcome_telemetry`).  Result lists are
#: never stored: the digest is the witness.
_OUTCOME_FIELDS = (
    "status", "digest", "error",
    "finished_at", "started_at", "queue_wait", "rate_wait", "rate_hits",
    "round_trips", "steps", "shard", "stolen", "stolen_from", "unparked_at",
    "wake_reason", "plan_cached",
)


@dataclass
class ServeCheckpointer:
    """Periodic serve-level checkpointing, driven by terminal outcomes.

    :func:`repro.serve.runtime.serve` builds one per durable run and
    hands the :class:`~repro.serve.sharding.ServeScheduler` both it and
    its :attr:`table`, the one session table of every shard, which
    :meth:`on_terminal` writes.  ``every=0`` disables periodic writes;
    :meth:`write` can still be called explicitly.
    """

    store: CheckpointStore
    sessions: SessionManager
    #: Write a checkpoint every N-th terminal outcome (0 = never).
    every: int = 25
    #: Run fingerprint stored in every checkpoint and verified on
    #: resume (seed, workload size, scenario, shard count, ...).
    meta: dict = field(default_factory=dict)
    #: Key prefix in the store; keys are ``{prefix}-{seq:06d}``.
    prefix: str = "serve"
    #: Called after each durable write with this checkpointer — the
    #: crash harness injects its SIGKILL here, *after* ``os.replace``
    #: published the file, so a kill never races a half-written state.
    on_write: "Callable[[ServeCheckpointer], None] | None" = None
    terminal_seen: int = 0
    written: int = 0
    #: The table the scheduler serves on; :meth:`resume` replaces it with
    #: one pre-seeded from the newest checkpoint.
    table: SessionTable = field(default_factory=SessionTable)
    #: What :meth:`resume` recovered (``None``: nothing to resume from).
    resumed: "ResumeState | None" = None
    telemetry_replayed: int = 0
    #: Request id -> canonical text: each session's payload, renewed at each
    #: refresh, and each terminal outcome, rendered once (it never changes).
    _session_texts: dict[str, str] = field(default_factory=dict)
    _outcome_texts: dict[str, str] = field(default_factory=dict)

    @classmethod
    def open(
        cls,
        config: ServeConfig,
        workload: Sequence[Request],
        sessions: SessionManager,
        on_write: "Callable[[ServeCheckpointer], None] | None" = None,
    ) -> "ServeCheckpointer":
        """The checkpointer ``config`` describes for serving ``workload``.

        The run fingerprint — data seed, templates, shard count and a hash
        of the request stream itself — is stored in every checkpoint and
        must match on resume.
        """
        stream = hashlib.sha256()
        for request in workload:
            stream.update(repr(request).encode())
        return cls(
            store=CheckpointStore(config.checkpoint_dir),
            sessions=sessions,
            every=config.checkpoint_every,
            meta={
                "seed": config.data_seed,
                "templates": [template.name for template in config.templates],
                "num_shards": config.num_shards,
                "num_requests": len(workload),
                "workload": stream.hexdigest(),
            },
            on_write=on_write,
        )

    def resume(
        self, workload: Sequence[Request], metrics: Any, tracer: Any, slo: Any
    ) -> Sequence[Request]:
        """Continue from the newest checkpoint; returns what is left to serve.

        Pre-crash terminal outcomes are **replayed** into the telemetry
        first (:func:`repro.obs.serving.replay_outcome_telemetry`), so the
        resumed run's trace and metrics cover the whole workload — span
        trees and counters continue across the crash, not restart at it.
        With no checkpoint in the store the whole workload is served.
        """
        state = resume_state_from(
            self.store, workload, self.sessions, expected_meta=self.meta
        )
        if state is None:
            return workload
        # Continue the durable state, don't restart it: keep every
        # restored session in the payload cache (a second crash must
        # still find sessions untouched since the first), and number
        # new checkpoints after the one we resumed from.
        self.resumed, self.table = state, state.table
        self._session_texts.update(
            (str(rid), canonical_json(payload))
            for rid, payload in state.session_payloads.items()
        )
        self.written = int(state.key.rsplit("-", 1)[1])
        self.telemetry_replayed = replay_outcome_telemetry(
            state.table.outcomes.values(),
            metrics=metrics,
            tracer=tracer,
            slo=slo,
            emit_shard_metrics=True,  # as the merged-loop scheduler does
        )
        return state.remaining

    def info(self, served: int) -> dict[str, Any]:
        """The run's durability record (:attr:`ServeReport.durability`)."""
        state = self.resumed
        return {
            "resumed": state is not None,
            "resume_key": state.key if state is not None else None,
            "restored_sessions": state.restored_sessions if state is not None else 0,
            "pre_terminal": state.pre_terminal if state is not None else 0,
            "served": served,
            "checkpoints_written": self.written,
            "terminal_seen": self.terminal_seen,
            "telemetry_replayed": self.telemetry_replayed,
        }

    def on_terminal(self, outcome: RequestOutcome) -> None:
        """Scheduler hook: one request just reached a terminal outcome."""
        self.terminal_seen += 1
        self._refresh(outcome)
        if self.every > 0 and self.terminal_seen % self.every == 0:
            self.write(self.table)

    def _refresh(self, outcome: RequestOutcome) -> None:
        """Re-snapshot the finished request's session payload.

        At this instant the session is quiescent and its journal ends
        with exactly this interaction, so the payload's witnesses are
        consistent with its journal — the invariant the resume path
        relies on.  Failed *runs* are skipped: their follow-ups are
        rejected on arrival, so the session can never be needed again.
        """
        request = outcome.request
        if request.kind == "run":
            if outcome.status != "completed":
                return
            root = request.request_id
        else:
            if outcome.status not in ("completed", "failed"):
                return
            root = request.target
            if root is None:
                return
        session = self.sessions._sessions.get(root)
        if session is None or session.inflight_interaction is not None:
            return
        template = self.sessions.template_of(root)
        self._session_texts[str(root)] = canonical_json(
            checkpoint_session(
                session,
                schema=template.schema,
                query_text=template.query_text,
                template=template.name,
                metric=self.sessions.optimizer_config.metric.name,
            )
        )

    def write(self, table: SessionTable) -> str:
        """Atomically persist the current durable state; returns the key.

        The body is assembled from the members' kept texts: the bytes of
        :func:`canonical_json` of the whole payload."""
        self.written += 1
        key = f"{self.prefix}-{self.written:06d}"
        outcomes = self._outcome_texts
        for rid, outcome in table.outcomes.items():
            if outcome.status in _TERMINAL and str(rid) not in outcomes:
                outcomes[str(rid)] = canonical_json(
                    {name: getattr(outcome, name) for name in _OUTCOME_FIELDS}
                )
        body = canonical_object({
            "version": canonical_json(CHECKPOINT_VERSION),
            "kind": canonical_json("serve"),
            "meta": canonical_json(self.meta),
            "outcomes": canonical_object(outcomes),
            "sessions": canonical_object(self._session_texts),
        })
        self.store.save(key, body)
        if self.on_write is not None:
            self.on_write(self)
        return key


@dataclass
class ResumeState:
    """What :func:`resume_state_from` recovered from the store."""

    key: str
    #: Pre-seeded table (terminal outcomes + known runs) for the
    #: resumed scheduler.
    table: SessionTable
    #: Requests without a terminal outcome — what still needs serving.
    remaining: list[Request]
    #: The checkpointed session payloads, keyed by root request id —
    #: seeded back into the resumed run's checkpointer so a *second*
    #: crash still has every session, touched again or not.
    session_payloads: dict[int, dict]
    restored_sessions: int
    pre_terminal: int


def resume_state_from(
    store: CheckpointStore,
    workload: Sequence[Request],
    manager: SessionManager,
    *,
    prefix: str = "serve",
    expected_meta: Mapping[str, Any] | None = None,
) -> ResumeState | None:
    """Rebuild serving state from the newest checkpoint in ``store``.

    Restores every checkpointed session into ``manager`` (reattaching
    its shared invocation cache), hands each template's rebuilt plan to
    its plan cache, and returns the pre-seeded table plus
    the remaining workload.  ``None`` when the store holds no
    checkpoint — the caller serves the full workload fresh.  A
    ``expected_meta`` mismatch (different seed/workload/scenario) fails
    loudly instead of merging incompatible runs.
    """
    key = store.latest(prefix)
    if key is None:
        return None
    payload = store.load(key)
    if payload.get("kind") != "serve":
        raise CheckpointError(
            f"checkpoint {key!r} is a {payload.get('kind')!r} payload, "
            "not a serve checkpoint"
        )
    if expected_meta is not None and payload.get("meta") != dict(expected_meta):
        raise CheckpointError(
            f"checkpoint {key!r} fingerprint {payload.get('meta')!r} does not "
            f"match this run {dict(expected_meta)!r} — refusing to resume"
        )
    require_fields(payload, ("outcomes", "sessions"), f"checkpoint {key!r}")
    by_id = {request.request_id: request for request in workload}
    table = SessionTable()
    for rid, data in _by_request(payload, "outcomes", key):
        request = by_id.get(rid)
        if request is None:
            raise CheckpointError(
                f"checkpoint {key!r} records request {rid} absent from the "
                "workload — workload/seed mismatch"
            )
        # Fields absent from an older checkpoint keep the outcome's
        # defaults: resume still works, the replayed spans just sit at t=0.
        table.outcomes[rid] = RequestOutcome(
            request=request,
            **{name: data[name] for name in _OUTCOME_FIELDS if name in data},
        )
        if request.kind == "run":
            table.known_runs.add(rid)
    restored = 0
    session_payloads: dict[int, dict] = {}
    plans: dict[str, Any] = {}  # template name -> plan candidate
    for rid, session_payload in _by_request(payload, "sessions", key):
        require_fields(
            session_payload, _SESSION_FIELDS, f"checkpoint {key!r} session {rid}"
        )
        template_name = session_payload.get("template")
        template = manager.templates.get(template_name)
        if template is None:
            raise CheckpointError(
                f"checkpoint {key!r} session {rid} names unknown template "
                f"{template_name!r}"
            )
        if (session_payload["schema"], session_payload["query_text"]) != (
            template.schema,
            template.query_text,
        ):
            raise CheckpointError(
                f"checkpoint {key!r} session {rid} was opened on another "
                f"definition of template {template_name!r}"
            )
        # Rebuild each template's plan once, from its first session's
        # ``plan`` member, with the manager's registry and compiled query
        # (both memoised there).  Every session's plan witnesses are still
        # verified against it.
        session = restore_session(
            session_payload,
            registry=manager._registry(template),
            compiled=manager._compile(template),
            candidate=plans.get(template_name),
            invocation_cache=manager.cache_for(by_id[rid]),
            pool_factory=partial(manager.open_pool, template),
        )
        plans.setdefault(template_name, session.candidate)
        manager.adopt(rid, session, template)
        session_payloads[rid] = session_payload
        restored += 1
    if manager.plan_cache is not None:
        # The plans the crashed server searched: its later ``run``s hit.
        for template_name, candidate in plans.items():
            template = manager.templates[template_name]
            manager.plan_cache.adopt(
                template.schema, manager._compile(template),
                manager.optimizer_config, candidate,
            )
    remaining = [
        request
        for request in workload
        if request.request_id not in table.outcomes
    ]
    return ResumeState(
        key=key,
        table=table,
        remaining=remaining,
        session_payloads=session_payloads,
        restored_sessions=restored,
        pre_terminal=len(table.outcomes),
    )


def _by_request(payload: Mapping[str, Any], name: str, key: str) -> list[tuple[int, Any]]:
    """``payload[name]``'s members as ``(request id, member)``; a key that
    is not a request id is damage."""
    require_fields(payload[name], (), f"checkpoint {key!r}'s {name}")
    try:
        return [(int(rid), member) for rid, member in payload[name].items()]
    except ValueError as exc:
        raise CheckpointIntegrityError(
            f"checkpoint {key!r}'s {name} is keyed by a non-request id: {exc}"
        ) from None


def serve_workload_durable(
    *, rate, num_requests, seed, checkpoint_dir, checkpoint_every=25,
    resume=False, skew=1.3, followup_fraction=0.25, templates=None,
    workload=None, on_checkpoint=None,
) -> tuple[ServeReport, dict[int, str], dict[str, Any]]:
    """Keyword adapter over :func:`repro.serve.runtime.serve`, durable.

    Kept for ``benchmarks/e2e``, which calls it by these names: one shard,
    shared unbounded caches and 4 calls/s per service, checkpointing into
    ``checkpoint_dir``.  Returns the report, its per-request digests
    (always the *whole* workload, resumed or not) and
    :attr:`ServeReport.durability`.
    """
    config = ServeConfig(
        templates=templates, data_seed=seed, default_service_rate=4.0,
        checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every,
        resume=resume,
    )
    stream = workload if workload is not None else WorkloadConfig(
        num_requests=num_requests, rate=rate, skew=skew, seed=seed,
        followup_fraction=followup_fraction,
    )
    report = serve(config, stream, on_checkpoint=on_checkpoint)
    return report, report.digests(), report.durability
