"""Record/replay service adapter: capture once, replay forever.

A :class:`RecordedService` wraps any service interface behind the same
``invoke → ChunkSource`` contract as
:class:`~repro.services.simulated.SimulatedService`, in one of two
modes:

* **record** — delegate every round trip to the wrapped service and
  capture it into a :class:`Cassette`: the chunk returned (or the fault
  raised), the latency charged, the log outcome.  The capture key is
  ``(interface, input bindings, constraints, availability, timeout)`` —
  the exact tuple the deterministic substrate derives behaviour from —
  so one recording stands in for *every* future invocation with those
  arguments, whichever alias or session issues it.
* **replay** — serve the recorded entries in order without any backing
  service: each ``next_chunk()`` advances the virtual clock by the
  recorded latency, appends a :class:`~repro.engine.events.CallRecord`,
  and returns the recorded chunk or re-raises the recorded fault.  An
  invocation for a key the cassette never saw, or one that asks for
  more round trips than were recorded, raises
  :class:`~repro.errors.CassetteError` — replay never silently invents
  data.

Because retries live *above* the chunk source (the
:class:`~repro.engine.retry.Retrier` re-calls ``next_chunk`` and the
failed round trips are ordinary recorded entries), a fault-and-recovery
sequence replays exactly: same errors in the same order, same latencies,
same eventual chunk.  Cassettes are deterministic JSON — sorted keys,
content-hashed like checkpoints — so they diff cleanly and detect
corruption on load.

:class:`RecordedPool` mirrors the :class:`~repro.services.simulated.ServicePool`
surface (``invoke`` / ``clock`` / ``log`` / ``global_seed`` /
``registry`` / ``reset``), so an executor or a
:class:`~repro.engine.liquid.LiquidQuerySession` runs against a cassette
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.query.ast import SelectionPredicate

from repro.engine.events import CallLog, CallRecord, VirtualClock
from repro.errors import (
    CassetteError,
    ServiceTimeoutError,
    ServiceUnavailableError,
)
from repro.joins.methods import ChunkSource
from repro.model.registry import ServiceRegistry
from repro.model.service import ServiceInterface
from repro.model.tuples import ServiceTuple
from repro.services.simulated import (
    FaultModel,
    FaultProfile,
    LatencyModel,
    ServicePool,
    SimulatedInvocation,
    SimulatedService,
    SimulatedWorld,
)

__all__ = [
    "Cassette",
    "RecordedPool",
    "RecordedService",
    "ReplayInvocation",
]

#: Cassette file format version.
CASSETTE_VERSION = 1


def _encode_tuple(tup: ServiceTuple) -> dict:
    from repro.durability.checkpoint import encode_value

    return {
        "values": {k: encode_value(v) for k, v in tup.values.items()},
        "score": tup.score,
        "source": tup.source,
        "position": tup.position,
    }


def _decode_tuple(data: Mapping[str, Any]) -> ServiceTuple:
    from repro.durability.checkpoint import decode_value

    return ServiceTuple(
        values={k: decode_value(v) for k, v in data["values"].items()},
        score=data["score"],
        source=data["source"],
        position=data["position"],
    )


@dataclass
class Cassette:
    """Deterministic store of recorded invocations, keyed by arguments.

    ``recordings`` maps an invocation key to the ordered list of round
    trips the recorded invocation made.  Each entry is
    ``{"chunk": [tuples] | None, "record": {...} | None, "raise": ...}``:
    the value ``next_chunk`` returned (or would have, had it not
    raised), the call-log record the round trip cost (``None`` for the
    free ``None`` a source returns once already exhausted), and the
    fault it raised (``None`` for success).  First recording wins;
    replays of the same key always start from entry zero — sound
    because the substrate is deterministic per key.
    """

    recordings: dict[str, list[dict]] = field(default_factory=dict)

    @staticmethod
    def key_for(
        interface_name: str,
        inputs: Mapping[str, Any],
        constraints: Sequence["SelectionPredicate"] = (),
        availability: float = 1.0,
        call_timeout: float | None = None,
    ) -> str:
        """Canonical key: everything the substrate derives behaviour from.

        The alias is deliberately excluded — data, latency, and fault
        draws all derive from ``(seed, interface, bindings)``, so two
        aliases invoking identically are the *same* interaction.
        """
        bindings = ",".join(
            f"{name}={inputs[name]!r}" for name in sorted(inputs)
        )
        constraint_text = ";".join(repr(c) for c in constraints)
        return (
            f"{interface_name}({bindings})"
            f"|constraints={constraint_text}"
            f"|availability={availability!r}"
            f"|timeout={call_timeout!r}"
        )

    def save(self, path: "str | Path") -> Path:
        """Write the cassette as checksummed, sorted, diff-stable JSON."""
        import json
        import os

        from repro.durability.checkpoint import content_hash

        payload = {"version": CASSETTE_VERSION, "recordings": self.recordings}
        record = {"checksum": content_hash(payload), "payload": payload}
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True, indent=1))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: "str | Path") -> "Cassette":
        import json

        from repro.durability.checkpoint import content_hash

        path = Path(path)
        if not path.exists():
            raise CassetteError(f"no cassette at {path}")
        with open(path, encoding="utf-8") as handle:
            try:
                record = json.load(handle)
            except json.JSONDecodeError as exc:
                raise CassetteError(
                    f"cassette {path} is not valid JSON: {exc}"
                ) from exc
        payload = record.get("payload")
        if payload is None or record.get("checksum") != content_hash(payload):
            raise CassetteError(
                f"cassette {path} failed its content-hash check"
            )
        if payload.get("version") != CASSETTE_VERSION:
            raise CassetteError(
                f"cassette {path} has version {payload.get('version')!r}; "
                f"this build reads {CASSETTE_VERSION}"
            )
        return cls(recordings=payload["recordings"])

    def __len__(self) -> int:
        return len(self.recordings)


def _encode_raise(exc: Exception) -> dict:
    if isinstance(exc, ServiceTimeoutError):
        return {"type": "timeout", "timeout": exc.timeout}
    assert isinstance(exc, ServiceUnavailableError)
    return {"type": "unavailable", "permanent": exc.permanent}


class _RecordingInvocation(ChunkSource):
    """Pass-through chunk source that captures each round trip."""

    def __init__(
        self, inner: SimulatedInvocation, entries: list[dict], log: CallLog
    ) -> None:
        self.inner = inner
        self.interface = inner.interface
        self.chunk_size = inner.chunk_size
        self.scoring = inner.scoring
        self._entries = entries
        self._log = log
        self._index = 0

    def next_chunk(self) -> list[ServiceTuple] | None:
        before = len(self._log.records)
        raised: Exception | None = None
        chunk: list[ServiceTuple] | None = None
        try:
            chunk = self.inner.next_chunk()
        except (ServiceTimeoutError, ServiceUnavailableError) as exc:
            raised = exc
        new_records = self._log.records[before:]
        entry: dict[str, Any] = {
            "chunk": (
                [_encode_tuple(t) for t in chunk] if chunk is not None else None
            ),
            "record": None,
            "raise": _encode_raise(raised) if raised is not None else None,
        }
        if new_records:
            # Exactly one record per round trip; backoff_wait is left to
            # the *replaying* retry harness to amend, like the original.
            record = new_records[-1]
            entry["record"] = {
                "latency": record.latency,
                "tuples": record.tuples,
                "outcome": record.outcome,
                "attempt": record.attempt,
            }
        self._capture(entry)
        if raised is not None:
            raise raised
        return chunk

    def _capture(self, entry: dict) -> None:
        """First recording wins; longer reruns extend past its end.

        A later invocation of the same key replays the same determinism,
        so entries at already-recorded indices are skipped (not
        re-verified round trip by round trip — the cassette checksum
        covers integrity); indices past the recorded end append, so the
        cassette always holds the longest round-trip sequence observed.
        A trailing free ``None`` (exhausted source, no log record) is
        not duplicated endlessly.
        """
        if self._index < len(self._entries):
            self._index += 1
            return
        if (
            entry["chunk"] is None
            and entry["record"] is None
            and entry["raise"] is None
            and self._entries
            and self._entries[-1] == entry
        ):
            return
        self._entries.append(entry)
        self._index += 1

    @property
    def remaining(self) -> int:
        return self.inner.remaining


class ReplayInvocation(ChunkSource):
    """Chunk source serving recorded round trips — no backing service."""

    def __init__(
        self,
        interface: ServiceInterface,
        entries: Sequence[Mapping[str, Any]],
        alias: str,
        clock: VirtualClock,
        log: CallLog,
        key: str,
    ) -> None:
        self.interface = interface
        self.chunk_size = interface.chunk_size
        self.scoring = interface.scoring
        self.alias = alias
        self.clock = clock
        self.log = log
        self.key = key
        self._entries = entries
        self._index = 0
        self._calls = 0

    def next_chunk(self) -> list[ServiceTuple] | None:
        if self._index >= len(self._entries):
            last = self._entries[-1] if self._entries else None
            if last is not None and last["chunk"] is None and last["raise"] is None:
                # The recording ended exhausted: further polls are the
                # free ``None`` a drained source keeps returning.
                return None
            raise CassetteError(
                f"cassette recording for {self.key} exhausted after "
                f"{len(self._entries)} round trips"
            )
        entry = self._entries[self._index]
        self._index += 1
        record = entry.get("record")
        if record is not None:
            self.log.record(
                CallRecord(
                    service=self.interface.name,
                    alias=self.alias,
                    chunk_index=self._calls,
                    started_at=self.clock.now,
                    latency=record["latency"],
                    tuples=record["tuples"],
                    outcome=record["outcome"],
                    attempt=record["attempt"],
                )
            )
            self.clock.advance(record["latency"])
            self._calls += 1
        raised = entry.get("raise")
        if raised is not None:
            if raised["type"] == "timeout":
                raise ServiceTimeoutError(
                    f"recorded timeout calling {self.interface.name!r}",
                    service=self.interface.name,
                    timeout=raised.get("timeout"),
                )
            raise ServiceUnavailableError(
                f"recorded failure calling {self.interface.name!r}",
                service=self.interface.name,
                permanent=bool(raised.get("permanent")),
            )
        chunk = entry.get("chunk")
        if chunk is None:
            return None
        return [_decode_tuple(t) for t in chunk]

    @property
    def calls(self) -> int:
        return self._calls


@dataclass
class RecordedService:
    """Record/replay wrapper around one service interface.

    In ``record`` mode ``inner`` (any object with the
    :class:`~repro.services.simulated.SimulatedService` ``invoke``
    contract) performs the real work; in ``replay`` mode no backing
    service exists and every invocation is served from the cassette.
    """

    interface: ServiceInterface
    cassette: Cassette
    mode: str = "replay"
    inner: SimulatedService | None = None
    #: Record mode: the recording pool's latency model and fault profile
    #: for this interface (``None``: the inner service's own).
    latency_model: LatencyModel | None = None
    fault_profile: FaultProfile | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("record", "replay"):
            raise CassetteError(
                f"unknown cassette mode {self.mode!r}; "
                "expected 'record' or 'replay'"
            )
        if self.mode == "record" and self.inner is None:
            raise CassetteError(
                "record mode needs an inner service to delegate to"
            )

    def invoke(
        self,
        inputs: Mapping[str, Any],
        clock: VirtualClock,
        log: CallLog,
        alias: str | None = None,
        constraints: Sequence["SelectionPredicate"] = (),
        availability: float = 1.0,
        call_timeout: float | None = None,
    ) -> ChunkSource:
        key = Cassette.key_for(
            self.interface.name, inputs, constraints, availability, call_timeout
        )
        if self.mode == "record":
            assert self.inner is not None
            inner_invocation = self.inner.invoke(
                inputs,
                clock=clock,
                log=log,
                alias=alias,
                constraints=constraints,
                availability=availability,
                call_timeout=call_timeout,
                latency_model=self.latency_model,
                fault_profile=self.fault_profile,
            )
            entries = self.cassette.recordings.setdefault(key, [])
            return _RecordingInvocation(inner_invocation, entries, log)
        entries = self.cassette.recordings.get(key)
        if entries is None:
            raise CassetteError(
                f"cassette has no recording for {key} "
                f"({len(self.cassette)} keys recorded)"
            )
        return ReplayInvocation(
            interface=self.interface,
            entries=entries,
            alias=alias or self.interface.name,
            clock=clock,
            log=log,
            key=key,
        )


@dataclass
class RecordedPool:
    """Cassette-backed drop-in for :class:`~repro.services.simulated.ServicePool`.

    ``record`` mode owns a private simulated pool over the same clock
    and log (and over ``world``, when the recording client shares one),
    so recorded latencies land on the same timeline the live run sees;
    ``replay`` mode needs only the registry (for interface metadata) and
    the cassette.
    """

    registry: ServiceRegistry
    cassette: Cassette
    mode: str = "replay"
    global_seed: int = 0
    latency_model: LatencyModel = field(default_factory=LatencyModel)
    fault_model: FaultModel = field(default_factory=FaultModel)
    clock: VirtualClock = field(default_factory=VirtualClock)
    log: CallLog = field(default_factory=CallLog)
    world: SimulatedWorld | None = None
    _services: dict[str, RecordedService] = field(default_factory=dict)
    _inner: ServicePool | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in ("record", "replay"):
            raise CassetteError(
                f"unknown cassette mode {self.mode!r}; "
                "expected 'record' or 'replay'"
            )
        if self.mode == "record":
            self._inner = ServicePool(
                self.registry,
                global_seed=self.global_seed,
                latency_model=self.latency_model,
                fault_model=self.fault_model,
                clock=self.clock,
                log=self.log,
                world=self.world,
            )

    def service(self, interface_name: str) -> RecordedService:
        if interface_name not in self._services:
            interface = self.registry.interface(interface_name)
            inner = (
                self._inner.service(interface_name)
                if self._inner is not None
                else None
            )
            self._services[interface_name] = RecordedService(
                interface=interface,
                cassette=self.cassette,
                mode=self.mode,
                inner=inner,
                latency_model=self.latency_model,
                fault_profile=self.fault_model.profile(interface_name),
            )
        return self._services[interface_name]

    def invoke(
        self,
        interface_name: str,
        inputs: Mapping[str, Any],
        alias: str | None = None,
        constraints: Sequence["SelectionPredicate"] = (),
        availability: float = 1.0,
        call_timeout: float | None = None,
    ) -> ChunkSource:
        return self.service(interface_name).invoke(
            inputs,
            clock=self.clock,
            log=self.log,
            alias=alias,
            constraints=constraints,
            availability=availability,
            call_timeout=call_timeout,
        )

    @property
    def can_fault(self) -> bool:
        """See :attr:`ServicePool.can_fault`.  A replayed cassette carries
        whatever failures were recorded, under any fault model."""
        return self.mode == "replay" or self.fault_model.active

    def reset(self) -> None:
        """Zero the clock and clear the log in place (shared references)."""
        self.clock.reset()
        self.log.clear()
