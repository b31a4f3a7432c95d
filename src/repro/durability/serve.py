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

Resume (:func:`resume_state_from`) pre-seeds a
:class:`~repro.serve.scheduler.SessionTable` with the pre-crash
terminal outcomes and known runs, restores every checkpointed session
into the :class:`~repro.serve.sessions.SessionManager`, and serves only
the requests without a terminal outcome.  The merged report then covers
the full workload — pre-crash digests come from the checkpoint, the
rest from the resumed run — and must equal an uninterrupted run's
(:func:`repro.durability.crash.run_crash_resume` gates exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.durability.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointStore,
    checkpoint_session,
    restore_session,
)
from repro.core.optimizer import OptimizerConfig
from repro.engine.executor import InvocationCache
from repro.errors import CheckpointError
from repro.serve.plancache import PlanCache
from repro.serve.scheduler import (
    RequestOutcome,
    ServeConfig,
    ServeReport,
    ServeScheduler,
    SessionTable,
)
from repro.serve.sessions import SessionManager
from repro.serve.workload import (
    QueryTemplate,
    Request,
    WorkloadConfig,
    generate_workload,
    scenario_templates,
)

__all__ = [
    "ResumeState",
    "ServeCheckpointer",
    "resume_state_from",
    "serve_workload_durable",
]

#: Outcome statuses that will never change again.
_TERMINAL = ("completed", "failed", "rejected")


@dataclass
class ServeCheckpointer:
    """Periodic serve-level checkpointing, driven by terminal outcomes.

    Attach one to a :class:`~repro.serve.scheduler.ServeScheduler` (or
    to every shard of a :class:`~repro.serve.sharding.ShardedServeScheduler`
    — they share the session table, so one checkpointer serves all
    shards).  ``every=0`` disables periodic writes; :meth:`write` can
    still be called explicitly.
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
    _payloads: dict[int, dict] = field(default_factory=dict)

    def on_terminal(self, scheduler: Any, outcome: RequestOutcome) -> None:
        """Scheduler hook: one request just reached a terminal outcome."""
        self.terminal_seen += 1
        self._refresh(outcome)
        if self.every > 0 and self.terminal_seen % self.every == 0:
            self.write(scheduler.table)

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
        self._payloads[root] = checkpoint_session(
            session,
            schema=template.schema,
            query_text=template.query_text,
            template=template.name,
            metric=self.sessions.optimizer_config.metric.name,
        )

    def write(self, table: SessionTable) -> str:
        """Atomically persist the current durable state; returns the key."""
        self.written += 1
        key = f"{self.prefix}-{self.written:06d}"
        outcomes = {
            str(rid): {
                "status": outcome.status,
                "digest": outcome.digest,
                "error": outcome.error,
                # Telemetry: everything the observability layer needs to
                # re-emit this outcome's span tree and re-absorb its
                # metrics after a resume (repro.obs.serving.
                # replay_outcome_telemetry).  Results/digests above stay
                # the durable contract; these fields only feed traces.
                "finished_at": outcome.finished_at,
                "started_at": outcome.started_at,
                "queue_wait": outcome.queue_wait,
                "rate_wait": outcome.rate_wait,
                "rate_hits": outcome.rate_hits,
                "round_trips": outcome.round_trips,
                "steps": outcome.steps,
                "shard": outcome.shard,
                "stolen": outcome.stolen,
                "stolen_from": outcome.stolen_from,
                "unparked_at": outcome.unparked_at,
                "wake_reason": outcome.wake_reason,
                "plan_cached": outcome.plan_cached,
            }
            for rid, outcome in table.outcomes.items()
            if outcome.status in _TERMINAL
        }
        payload = {
            "version": CHECKPOINT_VERSION,
            "kind": "serve",
            "meta": dict(self.meta),
            "outcomes": outcomes,
            "sessions": {str(rid): p for rid, p in self._payloads.items()},
        }
        self.store.save(key, payload)
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
    its shared invocation cache) and returns the pre-seeded table plus
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
    by_id = {request.request_id: request for request in workload}
    table = SessionTable()
    for rid_str, data in payload["outcomes"].items():
        rid = int(rid_str)
        request = by_id.get(rid)
        if request is None:
            raise CheckpointError(
                f"checkpoint {key!r} records request {rid} absent from the "
                "workload — workload/seed mismatch"
            )
        # Telemetry fields default to zero/None when absent (checkpoints
        # written before they were persisted): resume still works, the
        # replayed spans just sit at t=0.
        table.outcomes[rid] = RequestOutcome(
            request=request,
            status=data["status"],
            digest=data.get("digest"),
            error=data.get("error"),
            finished_at=data.get("finished_at", 0.0),
            started_at=data.get("started_at", 0.0),
            queue_wait=data.get("queue_wait", 0.0),
            rate_wait=data.get("rate_wait", 0.0),
            rate_hits=data.get("rate_hits", 0),
            round_trips=data.get("round_trips", 0),
            steps=data.get("steps", 0),
            shard=data.get("shard", 0),
            stolen=data.get("stolen", False),
            stolen_from=data.get("stolen_from"),
            unparked_at=data.get("unparked_at", 0.0),
            wake_reason=data.get("wake_reason"),
            plan_cached=data.get("plan_cached"),
        )
        if request.kind == "run":
            table.known_runs.add(rid)
    restored = 0
    session_payloads: dict[int, dict] = {}
    plans: dict[str, Any] = {}  # template name -> plan candidate
    for rid_str, session_payload in payload["sessions"].items():
        rid = int(rid_str)
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
        # Plan once per template, not once per session: the manager's
        # registry, compiled query (both memoised there) and plan are what
        # a fresh ``run`` of the template would use.  The plan witnesses
        # are still verified.
        compiled = manager._compile(template)
        candidate = plans.get(template_name)
        if candidate is None:
            candidate = plans[template_name] = manager._plan(template, compiled)
        session = restore_session(
            session_payload,
            registry=manager._registry(template),
            compiled=compiled,
            candidate=candidate,
            invocation_cache=manager.invocation_cache,
        )
        manager.adopt(rid, session, template)
        session_payloads[rid] = session_payload
        restored += 1
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


def serve_workload_durable(
    *,
    rate: float,
    num_requests: int,
    seed: int,
    checkpoint_dir,
    checkpoint_every: int = 25,
    resume: bool = False,
    scenario: str = "default",
    num_shards: int = 1,
    shared: bool = True,
    skew: float = 1.3,
    followup_fraction: float = 0.25,
    max_concurrency: int = 4,
    queue_limit: int = 1_000_000,
    default_service_rate: float | None = 4.0,
    session_space: int = 1_000_000,
    plan_cache_size: int | None = None,
    invocation_cache_size: int | None = None,
    templates: Sequence[QueryTemplate] | None = None,
    workload: Sequence[Request] | None = None,
    on_checkpoint: "Callable[[ServeCheckpointer], None] | None" = None,
    tracer: Any = None,
    slo: Any = None,
    sample_metrics: bool = False,
    join_kernel: str = "binary",
) -> tuple[ServeReport, dict[int, str], dict[str, Any]]:
    """Serve a seeded workload with periodic durable checkpoints.

    The durable twin of :func:`repro.serve.bench.serve_workload` /
    :func:`repro.serve.sharding.serve_workload_sharded`: same seeded
    workload and scheduler semantics, plus a :class:`ServeCheckpointer`
    writing to ``checkpoint_dir`` every ``checkpoint_every`` terminal
    outcomes.  With ``resume=True`` the newest checkpoint (if any) is
    loaded first and only the unfinished requests are served; the
    returned digests always cover the *whole* workload either way.

    ``tracer``/``slo``/``sample_metrics`` thread the observability layer
    through (see :func:`repro.serve.bench.serve_workload`).  On resume,
    pre-crash terminal outcomes are **replayed** into the telemetry
    first (:func:`repro.obs.serving.replay_outcome_telemetry`), so the
    resumed run's trace and metrics cover the whole workload — span
    trees and counters continue across the crash, not restart at it.

    Returns ``(report, digests, info)`` — ``info`` records whether a
    resume happened and from which key.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.serving import replay_outcome_telemetry
    from repro.serve.bench import result_digest

    templates = tuple(templates or scenario_templates(scenario))
    if workload is None:
        workload = generate_workload(
            templates,
            WorkloadConfig(
                num_requests=num_requests,
                rate=rate,
                skew=skew,
                seed=seed,
                followup_fraction=followup_fraction,
                session_space=max(session_space, num_requests),
            ),
        )
    store = CheckpointStore(checkpoint_dir)
    meta = {
        "seed": seed,
        "num_requests": num_requests,
        "rate": rate,
        "scenario": scenario,
        "num_shards": num_shards,
        "skew": skew,
        "followup_fraction": followup_fraction,
    }
    manager = SessionManager(
        templates={template.name: template for template in templates},
        data_seed=seed,
        optimizer_config=OptimizerConfig(join_kernel=join_kernel),
    )
    if shared:
        manager.plan_cache = PlanCache(max_size=plan_cache_size)
        if num_shards > 1:
            from repro.serve.sharding import ShardedInvocationCache

            manager.invocation_cache = ShardedInvocationCache(
                num_shards, max_size=invocation_cache_size
            )
        else:
            manager.invocation_cache = InvocationCache(
                max_size=invocation_cache_size
            )
    checkpointer = ServeCheckpointer(
        store=store,
        sessions=manager,
        every=checkpoint_every,
        meta=meta,
        on_write=on_checkpoint,
    )
    state = None
    if resume:
        state = resume_state_from(
            store, workload, manager, expected_meta=meta
        )
        if state is not None:
            # Continue the durable state, don't restart it: keep every
            # restored session in the payload cache (a second crash must
            # still find sessions untouched since the first), and number
            # new checkpoints after the one we resumed from.
            checkpointer._payloads.update(state.session_payloads)
            checkpointer.written = int(state.key.rsplit("-", 1)[1])
    config = ServeConfig(
        max_concurrency=max_concurrency,
        queue_limit=queue_limit,
        default_service_rate=default_service_rate,
    )
    table = state.table if state is not None else None
    to_serve = state.remaining if state is not None else list(workload)
    metrics = MetricsRegistry()
    telemetry_replayed = 0
    if state is not None:
        # Trace/metric continuity across the crash: re-emit the
        # checkpointed outcomes' span trees and counters before the
        # resumed scheduler adds the live ones.
        telemetry_replayed = replay_outcome_telemetry(
            state.table.outcomes.values(),
            metrics=metrics,
            tracer=tracer,
            slo=slo,
            emit_shard_metrics=(num_shards > 1),
        )
    if num_shards > 1:
        from repro.serve.sharding import ShardedServeScheduler

        scheduler: Any = ShardedServeScheduler(
            manager,
            config,
            metrics,
            tracer,
            num_shards=num_shards,
            digest_fn=result_digest,
            table=table,
            checkpointer=checkpointer,
            slo=slo,
            sample_metrics=sample_metrics,
        )
    else:
        scheduler = ServeScheduler(
            manager,
            config,
            metrics,
            tracer,
            table=table,
            digest_fn=result_digest,
            checkpointer=checkpointer,
            slo=slo,
            sample_metrics=sample_metrics,
        )
    report = scheduler.run(to_serve)
    # The table was shared (and pre-seeded on resume), so the report's
    # outcomes already cover the full workload: pre-crash digests from
    # the checkpoint, the rest from this run.
    digests = {
        outcome.request.request_id: (
            outcome.digest
            if outcome.digest is not None
            else result_digest(outcome.results or ())
        )
        for outcome in report.completed()
    }
    info = {
        "resumed": state is not None,
        "resume_key": state.key if state is not None else None,
        "restored_sessions": state.restored_sessions if state is not None else 0,
        "pre_terminal": state.pre_terminal if state is not None else 0,
        "served": len(to_serve),
        "checkpoints_written": checkpointer.written,
        "terminal_seen": checkpointer.terminal_seen,
        "telemetry_replayed": telemetry_replayed,
    }
    return report, digests, info
