"""Session checkpoints: versioned, seed-stable serialization by replay.

A :class:`~repro.engine.liquid.LiquidQuerySession` cannot be pickled
mid-plan: its execution state lives in a suspended step generator.  But
it does not need to be.  The simulated substrate derives *every* source
of nondeterminism — tuple data, latency draws, fault draws, retry
jitter, availability gates — from seeds and binding values alone, so a
session is fully determined by

* its **construction recipe** (schema, query text, optimizer metric,
  data seed, fault model, retry policy, growth factor, backend), and
* its **interaction journal** (the ordered ``run``/``more``/``rerank``/
  ``resubmit`` calls it has served, plus the in-flight interaction's
  step count).

A checkpoint stores exactly that, and restore *replays* it: rebuild the
session from the recipe, re-drive every journaled interaction, then
advance the in-flight stepper to its recorded step.  Chunk cursors,
retry attempt counters, backoff waits, RNG states, and the virtual-clock
offset all reappear bit-for-bit because they were never stored — they
are recomputed by the same deterministic machinery that produced them.

What is deliberately **not** captured: shared cross-query caches (their
content belongs to the serving runtime, and a cache hit advances no
clock — replaying one would corrupt the timeline), tracers, and asyncio
wall-clock context.  Callers reattach those at restore.

**Witnesses.**  Each checkpoint records integrity witnesses — plan
signature and render hash, result digest, fetch vector, ranking
weights, and (for exactly replayable sessions: virtual backend, private
invocation cache) the clock offset, call count, and a call-log digest.
Restore verifies them and raises
:class:`~repro.errors.CheckpointIntegrityError` on divergence, so a
stale registry or a changed seed fails loudly instead of silently
serving different data.

**Store.**  :class:`CheckpointStore` is an atomic file backend: write
to a temp file, fsync, ``os.replace`` — a crash mid-write leaves the
previous checkpoint intact, never a torn one.  Payloads carry a schema
``version`` and a content hash; a payload of any other version than
:data:`CHECKPOINT_VERSION` is refused on load.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.core.cost import DEFAULT_METRICS
from repro.core.optimizer import plan_signature, rebuild_candidate
from repro.core.topology import Move
from repro.engine.executor import ResultRows
from repro.engine.liquid import INTERACTIONS, LiquidQuerySession
from repro.engine.retry import Degradation, RetryPolicy
from repro.errors import (
    CheckpointError,
    CheckpointIntegrityError,
    OptimizationError,
    PlanError,
    SearchComputingError,
)
from repro.joins.spec import CompletionStrategy, InvocationStrategy
from repro.joins.spec import JoinMethodSpec, JoinTopology
from repro.query.compile import compile_query
from repro.query.parser import parse_query
from repro.services.marts import conference_trip_registry, movie_night_registry
from repro.services.scenarios import SCENARIOS
from repro.services.simulated import (
    FaultModel,
    FaultProfile,
    LatencyModel,
    ServicePool,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointStore",
    "REGISTRY_FACTORIES",
    "checkpoint_session",
    "decode_value",
    "encode_value",
    "restore_session",
]

#: Current checkpoint payload schema version (2: a session names its
#: plan's search trail, so restore rebuilds the plan instead of searching).
CHECKPOINT_VERSION = 2

#: Registries resolvable by schema name at restore time.
REGISTRY_FACTORIES: dict[str, Callable[[], Any]] = {
    "movie": movie_night_registry,
    "conference": conference_trip_registry,
    **{pack.schema: pack.registry_factory for pack in SCENARIOS.values()},
}


#: What a session payload holds for :func:`restore_session` to read it.
_SESSION_FIELDS = (
    "schema", "query_text", "metric", "backend", "growth", "data_seed",
    "latency_jitter", "fault_model", "inputs", "journal", "plan",
)
#: What its ``plan`` member holds for :func:`_rebuild` to read it.
_PLAN_FIELDS = ("interfaces", "choice", "moves", "fetches")
#: What its witness holds for the replay to be checked against.
_WITNESS_FIELDS = (
    "plan_signature", "plan_render", "fetch_vector", "fetches", "ranking",
    "result_digest", "clock", "total_calls", "log_digest",
)


def require_fields(payload: Any, fields: tuple[str, ...], what: str) -> None:
    """Refuse as damaged a ``payload`` that is not an object holding
    ``fields`` (``what`` names it in the error)."""
    if not isinstance(payload, dict):
        raise CheckpointIntegrityError(f"{what} is not a JSON object")
    missing = [name for name in fields if name not in payload]
    if missing:
        raise CheckpointIntegrityError(f"{what} has no {', '.join(missing)}")


def _check_version(payload: Mapping[str, Any]) -> None:
    """Refuse, naming both versions, a payload whose ``version`` this
    build does not read (older or newer alike)."""
    version = payload.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version!r} is not {CHECKPOINT_VERSION}, "
            "the version this build reads"
        )


# -- value codec ---------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """JSON-encode a binding/tuple value, preserving tuple-ness.

    Frozen tuple values (:func:`repro.model.tuples.freeze_value` turns
    repeating groups into nested tuples) round-trip through a tagged
    form; scalars pass through untouched.
    """
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return {"__list__": [encode_value(v) for v in value]}
    if isinstance(value, Mapping):
        return {"__map__": [[k, encode_value(v)] for k, v in value.items()]}
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict):
        if "__tuple__" in value:
            return tuple(decode_value(v) for v in value["__tuple__"])
        if "__list__" in value:
            return [decode_value(v) for v in value["__list__"]]
        if "__map__" in value:
            return {k: decode_value(v) for k, v in value["__map__"]}
    return value


def _encode_mapping(mapping: Mapping[str, Any] | None) -> dict | None:
    if mapping is None:
        return None
    return {key: encode_value(value) for key, value in mapping.items()}


def _decode_mapping(mapping: Mapping[str, Any] | None) -> dict | None:
    if mapping is None:
        return None
    return {key: decode_value(value) for key, value in mapping.items()}


def canonical_json(payload: Any) -> str:
    """Deterministic JSON rendering (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def canonical_object(members: Mapping[str, str]) -> str:
    """:func:`canonical_json` of an object, given each member's
    :func:`canonical_json` text: keys sorted, quoted as ``json`` quotes."""
    return "{" + ",".join([f"{_quote(key)}:{members[key]}" for key in sorted(members)]) + "}"


def content_hash(payload: Any) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


# -- store ---------------------------------------------------------------------

_KEY_RE = re.compile(r"^[A-Za-z0-9._-]{1,128}$")
_SUFFIX = ".ckpt.json"


@dataclass
class CheckpointStore:
    """Atomic, content-hashed file store for checkpoint payloads.

    One file per key under ``root``.  Writes go to a temp file in the
    same directory and are published with ``os.replace`` after fsync, so
    a reader (or a crash) never observes a torn checkpoint — at worst
    the previous one.  ``load`` verifies the content hash and the
    payload's version.
    """

    root: Path

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        if not _KEY_RE.match(key):
            raise CheckpointError(f"invalid checkpoint key {key!r}")
        return self.root / f"{key}{_SUFFIX}"

    def save(self, key: str, payload: dict | str) -> Path:
        """Write ``payload`` under ``key``; a ``str`` is taken as the
        payload's :func:`canonical_json` text, rendered by the caller."""
        path = self.path_for(key)
        # One canonical rendering is both what is hashed and what is written.
        body = payload if isinstance(payload, str) else canonical_json(payload)
        checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
        data = f'{{"checksum":"{checksum}","payload":{body}}}'
        tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return path

    def load(self, key: str) -> dict:
        path = self.path_for(key)
        if not path.exists():
            raise CheckpointError(f"no checkpoint {key!r} in {self.root}")
        # Bytes that are not UTF-8 are damage too, not a bare decode error.
        try:
            record = json.loads(path.read_bytes().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointIntegrityError(
                f"checkpoint {key!r} is not valid UTF-8 JSON: {exc}"
            ) from exc
        require_fields(record, ("payload", "checksum"), f"checkpoint {key!r}")
        payload = record["payload"]
        if content_hash(payload) != record["checksum"]:
            raise CheckpointIntegrityError(
                f"checkpoint {key!r} failed its content-hash check"
            )
        require_fields(payload, (), f"checkpoint {key!r}'s payload")
        _check_version(payload)
        return payload

    def keys(self, prefix: str = "") -> list[str]:
        found = []
        for path in self.root.iterdir():
            if path.name.endswith(_SUFFIX) and not path.name.startswith("."):
                key = path.name[: -len(_SUFFIX)]
                if key.startswith(prefix):
                    found.append(key)
        return sorted(found)

    def latest(self, prefix: str = "") -> str | None:
        """Highest-sorting key with the prefix (keys embed a sequence)."""
        keys = self.keys(prefix)
        return keys[-1] if keys else None

    def delete(self, key: str) -> None:
        path = self.path_for(key)
        if path.exists():
            path.unlink()


# -- checkpoint / restore ------------------------------------------------------


def _result_digest(rows) -> str:
    """The witness digest of a session's raw list.

    An executor's :class:`~repro.engine.executor.ResultRows` never changes
    once returned, so it keeps its digest: ``rerank``, a replayed
    execution and a refresh with no new execution all checkpoint a list
    that was digested before.  Its rows not built yet are digested from
    their unbuilt source, so a checkpoint builds none of them.
    """
    from repro.serve.bench import result_digest

    if not isinstance(rows, ResultRows):
        return result_digest(rows)
    if rows.digest is None:
        rows.digest = result_digest(rows.scored())
    return rows.digest


def _plan_witness(query, candidate, metric: str) -> tuple[str, str, dict[str, int]]:
    """``candidate``'s plan witnesses for ``query``: its signature's text,
    the hash of its rendering and its fetch vector.  Neither a candidate
    nor a compiled query changes once made, and a plan cache hands one
    candidate to every session of a template, so they are derived once and
    kept on the candidate (with the query, so its ``id`` stays unique)."""
    key = (id(query), metric)
    kept = candidate._witnesses.get(key)
    if kept is None:
        kept = candidate._witnesses[key] = (
            query,
            repr(plan_signature(query, metric=DEFAULT_METRICS[metric])),
            hashlib.sha256(candidate.render().encode("utf-8")).hexdigest(),
            dict(candidate.fetch_vector()),
        )
    return kept[1:]


def _plan_member(candidate) -> dict:
    """``candidate``'s search trail as a session payload's ``plan`` member:
    the interface per open alias, the binding-choice index, each phase-2
    move and the fetch vector.  Rendered once per candidate, in tuples, so
    the payloads that share it cannot change it."""
    kept = candidate._witnesses.get("plan")
    if kept is None:
        if candidate.trail is None:
            raise CheckpointError("the session's plan came from no search: no trail")
        choice, moves = candidate.trail
        kept = candidate._witnesses["plan"] = {
            "interfaces": tuple((a, i.name) for a, i in candidate.assignment.items()),
            "choice": choice,
            "moves": tuple(map(_encode_move, moves)),
            "fetches": tuple(candidate.fetch_vector().items()),
        }
    return dict(kept)


def _encode_move(move: Move) -> tuple:
    if move.kind != "merge":
        return (move.kind, move.alias, move.node)
    method = move.method
    return ("merge", move.stream, move.other, (
        method.topology.value, method.invocation.value, method.completion.value,
        method.ratio.numerator, method.ratio.denominator, method.step_chunks,
    ))


def _decode_move(kind: Any, *args: Any) -> Move:
    if kind != "merge":
        alias, node = args
        return Move(kind, alias=alias, node=node)
    stream, other, (topology, invocation, completion, *ratio, chunks) = args
    return Move(kind, stream=stream, other=other, method=JoinMethodSpec(
        JoinTopology(topology), InvocationStrategy(invocation),
        CompletionStrategy(completion), Fraction(*ratio), _count(chunks),
    ))


def _count(value: Any, least: int = 1) -> int:
    if type(value) is not int or value < least:
        raise ValueError(f"has {value!r} for a count")
    return value


def _rebuild(plan: Any, compiled, metric):
    """The plan candidate a session checkpoint's ``plan`` member names,
    built again without a search; a member it cannot be built from (or a
    trail no search could have taken) is damage."""
    require_fields(plan, _PLAN_FIELDS, "session checkpoint's plan")
    try:
        return rebuild_candidate(
            compiled,
            metric,
            [(alias, name) for alias, name in plan["interfaces"]],
            _count(plan["choice"], least=0),
            [_decode_move(*move) for move in plan["moves"]],
            [(alias, _count(factor)) for alias, factor in plan["fetches"]],
        )
    except (
        OptimizationError, PlanError, TypeError, ValueError, ZeroDivisionError
    ) as exc:
        raise CheckpointIntegrityError(
            f"session checkpoint's plan is damaged ({exc})"
        ) from None


def _log_digest(records) -> str:
    joined = "\n".join(repr(record) for record in records)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def _encode_profile(profile: FaultProfile) -> dict:
    return {
        "failure_rate": profile.failure_rate,
        "timeout_rate": profile.timeout_rate,
        "slow_factor": profile.slow_factor,
        "outage": profile.outage,
    }


def _decode_profile(data: Mapping[str, Any]) -> FaultProfile:
    return FaultProfile(
        failure_rate=data["failure_rate"],
        timeout_rate=data["timeout_rate"],
        slow_factor=data["slow_factor"],
        outage=data["outage"],
    )


def _encode_fault_model(model: FaultModel) -> dict:
    return {
        "default": _encode_profile(model.default),
        "per_interface": {
            name: _encode_profile(profile)
            for name, profile in sorted(model.per_interface.items())
        },
    }


def _decode_fault_model(data: Mapping[str, Any]) -> FaultModel:
    return FaultModel(
        default=_decode_profile(data["default"]),
        per_interface={
            name: _decode_profile(profile)
            for name, profile in data["per_interface"].items()
        },
    )


def _encode_retry(policy: RetryPolicy | None) -> dict | None:
    if policy is None:
        return None
    return {
        "max_attempts": policy.max_attempts,
        "base_backoff": policy.base_backoff,
        "backoff_multiplier": policy.backoff_multiplier,
        "jitter_fraction": policy.jitter_fraction,
        "call_timeout": policy.call_timeout,
    }


def _decode_retry(data: Mapping[str, Any] | None) -> RetryPolicy | None:
    if data is None:
        return None
    return RetryPolicy(
        max_attempts=data["max_attempts"],
        base_backoff=data["base_backoff"],
        backoff_multiplier=data["backoff_multiplier"],
        jitter_fraction=data["jitter_fraction"],
        call_timeout=data["call_timeout"],
    )


def _encode_entry(entry: Mapping[str, Any]) -> dict:
    encoded: dict[str, Any] = {
        "kind": entry["kind"],
        "k": entry.get("k"),
        "steps": entry.get("steps", 0),
        "failed": bool(entry.get("failed", False)),
    }
    if "inputs" in entry:
        encoded["inputs"] = _encode_mapping(entry["inputs"])
    if "weights" in entry:
        encoded["weights"] = _encode_mapping(entry["weights"])
    return encoded


def checkpoint_session(
    session: LiquidQuerySession,
    *,
    schema: str,
    query_text: str,
    template: str | None = None,
    metric: str = "execution-time",
) -> dict:
    """Serialize a session into a versioned, replayable payload.

    ``schema`` must resolve through :data:`REGISTRY_FACTORIES` (or a
    registry must be passed to :func:`restore_session` explicitly);
    ``query_text`` is the session's original query string (a compiled
    query keeps no source text); ``metric`` names the optimizer metric
    the plan was derived with.
    """
    if metric not in DEFAULT_METRICS:
        raise CheckpointError(
            f"unknown metric {metric!r}; expected one of {sorted(DEFAULT_METRICS)}"
        )
    pool = session.pool
    options = session.executor_options
    shared_cache = options.get("invocation_cache") is not None
    exact = session.backend == "virtual" and not shared_cache
    signature, render_hash, fetch_vector = _plan_witness(
        session.query, session.candidate, metric
    )
    witness = {
        "plan_signature": signature,
        "plan_render": render_hash,
        "fetch_vector": dict(fetch_vector),
        "fetches": dict(session.fetch_factors),
        "ranking": dict(session._ranking.weights),
        "result_digest": _result_digest(session._raw),
        "result_count": session.result_count,
        "exact": exact,
        "clock": pool.clock.now if exact else None,
        "total_calls": pool.log.total_calls() if exact else None,
        "log_digest": _log_digest(pool.log.records) if exact else None,
    }
    retry = options.get("retry")
    degradation = options.get("degradation")
    payload: dict[str, Any] = {
        "version": CHECKPOINT_VERSION,
        "kind": "liquid-session",
        "schema": schema,
        "template": template,
        "query_text": query_text,
        "metric": metric,
        "backend": session.backend,
        "growth": session.growth,
        "data_seed": pool.global_seed,
        "latency_jitter": pool.latency_model.jitter_fraction,
        "fault_model": _encode_fault_model(pool.fault_model),
        "retry": _encode_retry(retry),
        "degradation": (
            Degradation.coerce(degradation).value if degradation is not None else None
        ),
        "invocation_cache_size": options.get("invocation_cache_size"),
        "shared_cache": shared_cache,
        "inputs": _encode_mapping(session.initial_inputs),
        "plan": _plan_member(session.candidate),
        "journal": [_encode_entry(entry) for entry in session.interaction_journal],
        "inflight": (
            _encode_entry(session.inflight_interaction)
            if session.inflight_interaction is not None
            else None
        ),
        "witness": witness,
    }
    return payload


def _entry_args(entry: Any, what: str) -> tuple[str, dict[str, Any]]:
    """A journal entry as ``(kind, arguments)`` of a session driver
    (``what`` names it when it is refused as damaged)."""
    require_fields(entry, ("kind",), what)
    kind, k = entry["kind"], entry.get("k")
    if type(kind) is not str or kind not in INTERACTIONS:
        raise CheckpointError(f"unknown journal entry kind {kind!r}")
    if k is not None and (type(k) is not int or k < 0):
        raise CheckpointIntegrityError(f"{what} has k {k!r}, not a count")
    args: dict[str, Any] = {"k": k}
    _, name = INTERACTIONS[kind]
    if name is not None:
        require_fields(entry, (name,), what)
        require_fields(entry[name], (), f"{what}'s {name}")
        args[name] = _decode_mapping(entry[name])
    return kind, args


def _replay_entry(
    session: LiquidQuerySession, entry: Mapping[str, Any], what: str
) -> None:
    kind, args = _entry_args(entry, what)
    try:
        session.perform(kind, **args)
    except SearchComputingError:
        if not entry.get("failed"):
            raise
        return
    if entry.get("failed"):
        raise CheckpointIntegrityError(
            f"journaled {kind!r} interaction failed originally but "
            "succeeded on replay — the substrate diverged"
        )


def restore_session(
    payload: dict,
    *,
    registry=None,
    compiled=None,
    candidate=None,
    invocation_cache=None,
    tracer=None,
    pool_factory=None,
    verify: bool = True,
) -> LiquidQuerySession:
    """Rebuild a session from a checkpoint payload by journal replay.

    The restored session is returned with
    :attr:`~repro.engine.liquid.LiquidQuerySession.pending_stepper` set
    to the re-suspended mid-interaction step generator when the
    checkpoint captured one (``None`` otherwise).

    The session's plan is rebuilt from the payload's ``plan`` member —
    its search trail, replayed without a search.  ``registry``/
    ``compiled``/``candidate`` override the recipe (e.g. a custom registry
    not in :data:`REGISTRY_FACTORIES`, or the compiled query and the plan
    a serving runtime already rebuilt for the template, so resuming N
    sessions does not rebuild N times);
    ``invocation_cache``/``tracer`` reattach the shared state that
    checkpoints deliberately do not capture, and ``pool_factory`` — called
    with the checkpoint's ``global_seed``, ``latency_model`` and
    ``fault_model`` — builds the session's pool over the caller's
    simulated world (default: a private :class:`ServicePool` over
    ``registry``).  With ``verify`` (default) the replayed state is
    checked against the recorded witnesses.
    """
    require_fields(payload, _SESSION_FIELDS, "session checkpoint")
    _check_version(payload)
    if payload.get("kind") != "liquid-session":
        raise CheckpointError(
            f"payload kind {payload.get('kind')!r} is not a session checkpoint"
        )
    if not isinstance(payload["journal"], list):
        raise CheckpointIntegrityError("session checkpoint's journal is not a list")
    witness = payload.get("witness") or {}
    if verify and witness:
        require_fields(witness, _WITNESS_FIELDS, "session checkpoint's witness")
    schema = payload["schema"]
    if registry is None:
        factory = REGISTRY_FACTORIES.get(schema)
        if factory is None:
            raise CheckpointError(
                f"no registry factory for schema {schema!r}; pass registry="
            )
        registry = factory()
    if compiled is None:
        compiled = compile_query(parse_query(payload["query_text"]), registry)
    metric = DEFAULT_METRICS.get(payload["metric"])
    if metric is None:
        raise CheckpointError(f"unknown metric {payload['metric']!r} in a session checkpoint")
    if candidate is None:
        candidate = _rebuild(payload["plan"], compiled, metric)
    if verify and witness:
        signature, render_hash, fetch_vector = _plan_witness(
            compiled, candidate, payload["metric"]
        )
        if signature != witness["plan_signature"]:
            raise CheckpointIntegrityError(
                "plan signature mismatch: the registry or query no longer "
                "matches the checkpointed session"
            )
        if render_hash != witness["plan_render"]:
            raise CheckpointIntegrityError(
                "rebuilt plan differs from the checkpointed plan "
                "(its trail or the registry's statistics changed?)"
            )
        if fetch_vector != witness["fetch_vector"]:
            raise CheckpointIntegrityError(
                "the plan's fetch vector differs from the checkpointed one"
            )
    pool = (pool_factory or partial(ServicePool, registry))(
        global_seed=payload["data_seed"],
        latency_model=LatencyModel(jitter_fraction=payload["latency_jitter"]),
        fault_model=_decode_fault_model(payload["fault_model"]),
    )
    executor_options: dict[str, Any] = {}
    retry = _decode_retry(payload.get("retry"))
    if retry is not None:
        executor_options["retry"] = retry
    if payload.get("degradation") is not None:
        executor_options["degradation"] = Degradation(payload["degradation"])
    if payload.get("invocation_cache_size") is not None:
        executor_options["invocation_cache_size"] = payload["invocation_cache_size"]
    if invocation_cache is not None:
        executor_options["invocation_cache"] = invocation_cache
    if tracer is not None:
        executor_options["tracer"] = tracer
    session = LiquidQuerySession(
        candidate=candidate,
        query=compiled,
        pool=pool,
        inputs=_decode_mapping(payload["inputs"]),
        growth=payload["growth"],
        executor_options=executor_options,
        backend=payload["backend"],
    )
    stepper = None
    try:
        for index, entry in enumerate(payload["journal"]):
            _replay_entry(session, entry, f"session checkpoint journal entry {index}")
        inflight = payload.get("inflight")
        if inflight is not None:
            kind, args = _entry_args(inflight, "session checkpoint's inflight entry")
            steps = inflight.get("steps", 0)
            if type(steps) is not int:
                raise CheckpointIntegrityError(
                    f"session checkpoint's inflight entry has steps {steps!r}, "
                    "not a count"
                )
            stepper = session.steps(kind, **args)
            for _ in range(steps):
                next(stepper)
    except StopIteration:
        # The replay had fewer steps than the original consumed (possible
        # only for non-exact sessions, where a shared cache absorbed round
        # trips) — the interaction simply completed; nothing is left in
        # flight.
        stepper = None
    except CheckpointError:
        raise
    except SearchComputingError as exc:
        # The interaction did not fail when it was checkpointed.
        raise CheckpointIntegrityError(
            f"the replay failed where the checkpointed session did not "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    session.pending_stepper = stepper
    if verify and witness:
        _verify_replay(session, witness)
    return session


def _verify_replay(session: LiquidQuerySession, witness: Mapping[str, Any]) -> None:
    problems: list[str] = []
    if _result_digest(session._raw) != witness["result_digest"]:
        problems.append("result digest")
    if dict(session.fetch_factors) != witness["fetches"]:
        problems.append("fetch factors")
    if dict(session._ranking.weights) != witness["ranking"]:
        problems.append("ranking weights")
    if witness.get("exact"):
        pool = session.pool
        if pool.clock.now != witness["clock"]:
            problems.append(
                f"virtual clock ({pool.clock.now} != {witness['clock']})"
            )
        if pool.log.total_calls() != witness["total_calls"]:
            problems.append(
                f"call count ({pool.log.total_calls()} != {witness['total_calls']})"
            )
        if _log_digest(pool.log.records) != witness["log_digest"]:
            problems.append("call-log digest")
    if problems:
        raise CheckpointIntegrityError(
            "replayed session diverged from checkpoint witnesses: "
            + ", ".join(problems)
        )
