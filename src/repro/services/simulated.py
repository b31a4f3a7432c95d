"""Simulated Web services: the invokable substrate behind every benchmark.

A :class:`SimulatedService` wraps a service interface with a deterministic
:class:`~repro.services.datagen.TupleGenerator`.
Invoking it yields a :class:`SimulatedInvocation`, which is a
:class:`~repro.joins.methods.ChunkSource`: each ``next_chunk()`` models one
request-response round trip — it advances the virtual clock by a latency
draw, appends a :class:`~repro.engine.events.CallRecord` to the call log,
and returns the next chunk of the ranked result list.  The list itself is
a :class:`ResultList`: generated only as far as some invocation has read
it, and kept by the service, so invoking again with the same bindings
(``more`` does, at twice the fetch factor) costs the same round trips on
the clock but generates only what nobody drew before.

The services of one registry under one data seed are a
:class:`SimulatedWorld` — the *remote* side: data, result lists and the
per-binding seeds, all pure functions of ``(seed, interface, bindings)``.
A :class:`ServicePool` is one client's view of a world — its own clock,
call log, latency model and fault posture: the "execution environment ...
capable of executing query plans" of Section 3.  A pool built without a
world makes its own; a server hands every session's pool the same one,
so what one session made the world generate the next one is served.

Services can misbehave on demand: a :class:`FaultModel` assigns each
interface a :class:`FaultProfile` (transient-failure probability, slow-call
probability and multiplier, permanent-outage flag).  Fault draws come from
a per-invocation RNG derived from the global seed — *separate* from the
latency RNG, so a zero-rate fault model reproduces the fault-free timeline
exactly — and each faulty round trip is logged with its outcome before
``next_chunk()`` raises :class:`~repro.errors.ServiceTimeoutError` or
:class:`~repro.errors.ServiceUnavailableError`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.query.ast import SelectionPredicate

from repro.engine.events import CallLog, CallRecord, VirtualClock
from repro.errors import (
    ServiceInvocationError,
    ServiceTimeoutError,
    ServiceUnavailableError,
)
from repro.joins.methods import ChunkSource
from repro.model.registry import ServiceRegistry
from repro.model.scoring import ScoringFunction
from repro.model.service import ServiceInterface
from repro.model.tuples import ServiceTuple
from repro.services.datagen import TupleGenerator, WorldStats, derive_seed

__all__ = [
    "LatencyModel",
    "FaultProfile",
    "FaultModel",
    "NO_FAULTS",
    "ResultList",
    "SimulatedInvocation",
    "SimulatedService",
    "SimulatedWorld",
    "ServicePool",
    "WorldStats",
]


@dataclass(frozen=True)
class LatencyModel:
    """Seeded per-call latency: ``base + jitter`` plus per-tuple transfer.

    Jitter is uniform in ``[-jitter_fraction, +jitter_fraction]`` of the
    base, drawn from the invocation's own RNG, so latencies are
    reproducible under the global seed.
    """

    jitter_fraction: float = 0.1

    def draw(
        self, interface: ServiceInterface, tuples: int, rng: random.Random
    ) -> float:
        base = interface.stats.latency
        jitter = base * self.jitter_fraction
        latency = base + rng.uniform(-jitter, jitter) if jitter else base
        return max(0.0, latency) + tuples * interface.stats.per_tuple_latency


@dataclass(frozen=True)
class FaultProfile:
    """How one service interface misbehaves.

    ``failure_rate`` is the per-round-trip probability of a transient
    fault (the call costs a latency draw, delivers nothing, and raises
    :class:`~repro.errors.ServiceUnavailableError`).  ``timeout_rate`` is
    the probability a call is pathologically slow: its latency is
    multiplied by ``slow_factor``, and if a per-call timeout is in force
    and exceeded the call costs exactly the timeout and raises
    :class:`~repro.errors.ServiceTimeoutError` (with no timeout set, the
    slow call simply takes longer and is logged with outcome ``slow``).
    ``outage`` marks the service permanently down: every call fails.
    """

    failure_rate: float = 0.0
    timeout_rate: float = 0.0
    slow_factor: float = 10.0
    outage: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ServiceInvocationError("failure_rate must be in [0, 1]")
        if not 0.0 <= self.timeout_rate <= 1.0:
            raise ServiceInvocationError("timeout_rate must be in [0, 1]")
        if self.slow_factor < 1.0:
            raise ServiceInvocationError("slow_factor must be at least 1")

    @property
    def active(self) -> bool:
        """Whether this profile can produce any fault at all."""
        return bool(self.failure_rate or self.timeout_rate or self.outage)


#: The default, perfectly well-behaved profile.
NO_FAULTS = FaultProfile()


@dataclass(frozen=True)
class FaultModel:
    """Per-interface fault assignment for a :class:`ServicePool`.

    ``default`` applies to every interface not named in
    ``per_interface``.  Profiles are looked up by interface name.
    """

    default: FaultProfile = NO_FAULTS
    per_interface: Mapping[str, FaultProfile] = field(default_factory=dict)

    def profile(self, interface_name: str) -> FaultProfile:
        return self.per_interface.get(interface_name, self.default)

    @property
    def active(self) -> bool:
        """Whether any interface's profile can produce a fault.  While none
        can, a plan's results are a pure function of its inputs."""
        return self.default.active or any(
            profile.active for profile in self.per_interface.values()
        )

    @classmethod
    def uniform(
        cls,
        failure_rate: float = 0.0,
        timeout_rate: float = 0.0,
        slow_factor: float = 10.0,
    ) -> "FaultModel":
        """Same transient-fault behaviour for every interface."""
        return cls(
            default=FaultProfile(
                failure_rate=failure_rate,
                timeout_rate=timeout_rate,
                slow_factor=slow_factor,
            )
        )

    def with_outage(self, *interface_names: str) -> "FaultModel":
        """A copy with the named interfaces permanently down."""
        per = dict(self.per_interface)
        for name in interface_names:
            base = self.profile(name)
            per[name] = FaultProfile(
                failure_rate=base.failure_rate,
                timeout_rate=base.timeout_rate,
                slow_factor=base.slow_factor,
                outage=True,
            )
        return FaultModel(default=self.default, per_interface=per)


class ResultList:
    """One ranked result list, generated only as far as it has been read.

    ``tuples`` is the prefix generated so far.  Every invocation of one
    :class:`SimulatedService` with the same bindings reads the same
    instance, so a re-invocation that reads further (``more`` doubles
    the fetch factor) is served the same :class:`ServiceTuple` objects
    and generates only the chunks nobody drew before.
    """

    __slots__ = ("tuples", "_rest", "stats")

    def __init__(
        self,
        rest: Iterator[ServiceTuple] | None = None,
        stats: WorldStats | None = None,
    ) -> None:
        self.tuples: list[ServiceTuple] = []
        self._rest = rest
        self.stats = WorldStats() if stats is None else stats

    def through(self, end: int | None) -> list[ServiceTuple]:
        """The generated prefix, first extended to ``end`` tuples
        (``None``: the whole list) as far as the list goes."""
        rest = self._rest
        tuples = self.tuples
        if rest is not None and (end is None or end > len(tuples)):
            before = len(tuples)
            if end is None:
                tuples.extend(rest)
                self._rest = None
            else:
                tuples.extend(islice(rest, end - before))
                if len(tuples) < end:
                    self._rest = None
            self.stats.tuples_generated += len(tuples) - before
        return tuples


@dataclass
class SimulatedInvocation(ChunkSource):
    """One in-flight invocation: a chunk source over generated results."""

    interface: ServiceInterface
    source: ResultList
    alias: str
    clock: VirtualClock
    log: CallLog
    latency_model: LatencyModel
    rng: random.Random
    fault_profile: FaultProfile = NO_FAULTS
    fault_rng: random.Random | None = None
    call_timeout: float | None = None
    #: The invoking pool's read marks (result list -> tuples it has read),
    #: for :attr:`WorldStats.tuples_shared`; ``None``: not accounted.
    seen: "dict[ResultList, int] | None" = None
    chunk_size: int = field(init=False)
    scoring: ScoringFunction = field(init=False)
    _cursor: int = 0
    _calls: int = 0
    _attempt: int = 1
    _terminal_recorded: bool = False

    def __post_init__(self) -> None:
        self.chunk_size = self.interface.chunk_size
        self.scoring = self.interface.scoring

    def next_chunk(self) -> list[ServiceTuple] | None:
        """One request-response: advance time, log the call, return a chunk.

        Unchunked services ship their whole result list in the single
        first call and are exhausted afterwards.  A failing round trip is
        logged (it costs real time) before the corresponding
        :class:`~repro.errors.ServiceUnavailableError` /
        :class:`~repro.errors.ServiceTimeoutError` is raised; the cursor
        does not move, so a retry re-requests the same chunk.
        """
        profile = self.fault_profile
        if profile.outage:
            self._record_failure("unavailable")
            raise ServiceUnavailableError(
                f"service {self.interface.name!r} is down",
                service=self.interface.name,
                permanent=True,
            )
        if (
            profile.failure_rate
            and self._fault_draw() < profile.failure_rate
        ):
            self._record_failure("error")
            raise ServiceUnavailableError(
                f"transient failure calling {self.interface.name!r}",
                service=self.interface.name,
                permanent=False,
            )
        slow = bool(profile.timeout_rate) and self._fault_draw() < profile.timeout_rate

        # Generate through the requested chunk before asking whether the
        # list has ended: what lies beyond it may never be read.
        end = self._cursor + self.chunk_size if self.interface.is_chunked else None
        source = self.source
        generated = len(source.tuples)  # by whoever read this far first
        results = source.through(end)
        if self._cursor >= len(results):
            if not self._terminal_recorded:
                if self._calls == 0:
                    # An empty first response still costs one round trip.
                    self._record(0, slow=slow)
                elif self.interface.is_chunked:
                    # A chunked client cannot know the list ended: the
                    # round trip that discovers exhaustion costs a call.
                    self._record(0, slow=slow)
                self._terminal_recorded = True
            return None

        chunk = results[self._cursor : end]
        upto = self._cursor + len(chunk)
        if self.seen is not None:
            mark = self.seen.get(source, 0)
            if upto > mark:
                # New to this pool; what was generated before this call and
                # lies past the pool's own mark, another pool's read drew.
                self.seen[source] = upto
                source.stats.tuples_shared += max(0, min(upto, generated) - mark)
        self._record(len(chunk), slow=slow)
        self._cursor = upto
        return chunk

    def _fault_draw(self) -> float:
        rng = self.fault_rng
        if rng is None:
            return 1.0  # no fault RNG: never triggers
        return rng.random()

    def _record(self, tuples: int, slow: bool = False) -> None:
        """Log one round trip; a slow call past the deadline times out."""
        latency = self.latency_model.draw(self.interface, tuples, self.rng)
        if slow:
            latency *= self.fault_profile.slow_factor
        timed_out = (
            self.call_timeout is not None and latency > self.call_timeout
        )
        if timed_out:
            # The caller stops waiting at the deadline; nothing arrives.
            latency = float(self.call_timeout)  # type: ignore[arg-type]
            outcome = "timeout"
            tuples = 0
        else:
            outcome = "slow" if slow else "ok"
        self._append(tuples, latency, outcome)
        if timed_out:
            self._attempt += 1
            raise ServiceTimeoutError(
                f"call to {self.interface.name!r} exceeded its "
                f"{self.call_timeout}s timeout",
                service=self.interface.name,
                timeout=self.call_timeout,
            )
        self._attempt = 1

    def _record_failure(self, outcome: str) -> None:
        """Log a failed round trip: it costs a latency draw but ships nothing."""
        latency = self.latency_model.draw(self.interface, 0, self.rng)
        if self.call_timeout is not None:
            latency = min(latency, self.call_timeout)
        self._append(0, latency, outcome)
        self._attempt += 1

    def _append(self, tuples: int, latency: float, outcome: str) -> None:
        self.log.record(
            CallRecord(
                service=self.interface.name,
                alias=self.alias,
                chunk_index=self._calls,
                started_at=self.clock.now,
                latency=latency,
                tuples=tuples,
                outcome=outcome,
                attempt=self._attempt,
            )
        )
        self.clock.advance(latency)
        self._calls += 1

    @property
    def calls(self) -> int:
        return self._calls

    @property
    def results(self) -> list[ServiceTuple]:
        """The full ranked result list (generates whatever is still unread)."""
        return self.source.through(None)

    @property
    def remaining(self) -> int:
        return max(0, len(self.results) - self._cursor)


@dataclass
class SimulatedService:
    """A deterministic stand-in for one Web service interface.

    The remote side only: the lowered generator and, per distinct
    invocation, its lazily generated :class:`ResultList` and derived
    seeds.  ``latency_model`` and ``fault_profile`` are what a direct
    :meth:`invoke` applies; a :class:`ServicePool` passes its own.
    """

    interface: ServiceInterface
    global_seed: int = 0
    latency_model: LatencyModel = field(default_factory=LatencyModel)
    fault_profile: FaultProfile = NO_FAULTS
    stats: WorldStats = field(default_factory=WorldStats, repr=False)
    generator: TupleGenerator = field(init=False)
    #: ``(result list, latency seed, fault seed)`` by (bindings,
    #: constraints, availability), kept for the life of the service — of
    #: its world — so every invocation with one key reads one list.
    _opened: dict[tuple, tuple[ResultList, int, int]] = field(
        init=False, default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        self.generator = TupleGenerator(
            interface=self.interface, global_seed=self.global_seed
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
        *,
        latency_model: LatencyModel | None = None,
        fault_profile: FaultProfile | None = None,
        seen: "dict[ResultList, int] | None" = None,
    ) -> SimulatedInvocation:
        """Start one invocation with the given input bindings.

        ``constraints`` are server-side input predicates (resolved to
        constants) the simulated service filters by.  ``availability`` is
        the probability that this invocation has any results at all — the
        executor passes the pipe-join selectivity here, modelling e.g.
        "only 40% of theatres have a good restaurant close by"
        (Section 5.6's DinnerPlace estimate).  The draw is a deterministic
        function of the bindings.  ``call_timeout`` bounds each round
        trip's virtual duration (see :class:`FaultProfile`).
        ``latency_model`` / ``fault_profile`` / ``seen`` are the invoking
        pool's (see :class:`SimulatedInvocation`).  Raises
        :class:`~repro.errors.ServiceInvocationError` when a declared input
        path is missing from ``inputs``.
        """
        source, latency_seed, fault_seed = self._open(
            inputs, constraints, availability
        )
        profile = self.fault_profile if fault_profile is None else fault_profile
        return SimulatedInvocation(
            interface=self.interface,
            source=source,
            alias=alias or self.interface.name,
            clock=clock,
            log=log,
            latency_model=(
                self.latency_model if latency_model is None else latency_model
            ),
            rng=random.Random(latency_seed),
            fault_profile=profile,
            fault_rng=random.Random(fault_seed) if profile.active else None,
            call_timeout=call_timeout,
            seen=seen,
        )

    def _open(
        self,
        inputs: Mapping[str, Any],
        constraints: Sequence["SelectionPredicate"],
        availability: float,
    ) -> tuple[ResultList, int, int]:
        """The (shared, lazily generated) result list of one invocation,
        with the seeds of its latency and fault draws.

        Values are keyed the way :func:`derive_seed` renders them — by
        ``repr`` — because that rendering is what seeds the generator
        (``1`` and ``1.0`` hash alike but draw different data), and by
        type, because bound values are echoed into the tuples.
        """
        key = (
            tuple(
                sorted(
                    (path, type(value), repr(value))
                    for path, value in inputs.items()
                )
            ),
            tuple(
                (str(c.attr), c.comparator, type(c.operand), repr(c.operand))
                for c in constraints
            ),
            availability,
        )
        opened = self._opened.get(key)
        if opened is None:
            seed, name = self.global_seed, self.interface.name
            # The availability gate: a deterministic draw on the bindings.
            closed = availability < 1.0 and (
                random.Random(derive_seed(seed ^ 0xA7A11, name, inputs)).random()
                >= availability
            )
            source = ResultList(
                None
                if closed
                else self.generator.stream(inputs, constraints, self.stats),
                self.stats,
            )
            self.stats.result_lists_opened += 1
            opened = self._opened[key] = (
                source,
                derive_seed(seed ^ 0x5EC0, name, inputs),
                derive_seed(seed ^ 0xFA17, name, inputs),
            )
        return opened


@dataclass
class SimulatedWorld:
    """Every simulated service of one registry under one data seed.

    What a world holds is a pure function of ``(seed, interface,
    bindings, constraints)`` — never of a clock, a call log or the order
    of calls — so any number of :class:`ServicePool`\\ s may read one world
    and each sees exactly what it would have generated alone.
    """

    registry: ServiceRegistry
    seed: int = 0
    stats: WorldStats = field(default_factory=WorldStats)
    _services: dict[str, SimulatedService] = field(default_factory=dict, repr=False)

    def service(self, interface_name: str) -> SimulatedService:
        service = self._services.get(interface_name)
        if service is None:
            service = self._services[interface_name] = SimulatedService(
                self.registry.interface(interface_name),
                global_seed=self.seed,
                stats=self.stats,
            )
        return service


@dataclass
class ServicePool:
    """One client's execution context over a :class:`SimulatedWorld`:
    its clock, call log, latency model and fault posture.

    ``world`` defaults to a private one; a given world must be over this
    pool's registry and seed.
    """

    registry: ServiceRegistry
    global_seed: int = 0
    latency_model: LatencyModel = field(default_factory=LatencyModel)
    fault_model: FaultModel = field(default_factory=FaultModel)
    clock: VirtualClock = field(default_factory=VirtualClock)
    log: CallLog = field(default_factory=CallLog)
    world: SimulatedWorld | None = None
    #: Result list -> how many of its tuples this pool has read.
    _seen: dict[ResultList, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.world is None:
            self.world = SimulatedWorld(self.registry, self.global_seed)
        elif (
            self.world.registry is not self.registry
            or self.world.seed != self.global_seed
        ):
            raise ServiceInvocationError(
                f"pool (seed {self.global_seed}) handed the world of another "
                f"registry or seed ({self.world.seed}): their data would mix"
            )

    def service(self, interface_name: str) -> SimulatedService:
        return self.world.service(interface_name)

    def invoke(
        self,
        interface_name: str,
        inputs: Mapping[str, Any],
        alias: str | None = None,
        constraints: Sequence["SelectionPredicate"] = (),
        availability: float = 1.0,
        call_timeout: float | None = None,
    ) -> SimulatedInvocation:
        return self.world.service(interface_name).invoke(
            inputs,
            clock=self.clock,
            log=self.log,
            alias=alias,
            constraints=constraints,
            availability=availability,
            call_timeout=call_timeout,
            latency_model=self.latency_model,
            fault_profile=self.fault_model.profile(interface_name),
            seen=self._seen,
        )

    def reset(self) -> None:
        """Zero the clock and clear the log; data stays identical (same seed).

        Both are reset *in place*: in-flight :class:`SimulatedInvocation`\\ s
        hold references to the pool's clock and log, so swapping in fresh
        objects would leave them recording to an orphaned log and
        advancing a dead clock.
        """
        self.clock.reset()
        self.log.clear()


def ranked_order_ok(tuples: Iterable[ServiceTuple]) -> bool:
    """Check that a tuple stream is in non-increasing score order."""
    previous: float | None = None
    for tup in tuples:
        if previous is not None and tup.score > previous + 1e-9:
            return False
        previous = tup.score
    return True
