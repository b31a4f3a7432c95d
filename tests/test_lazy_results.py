"""Lazy, per-pool result lists against the eager list they replace.

A :class:`~repro.services.simulated.SimulatedInvocation` generates its
ranked result list only as far as it is read, and a pool keeps each list
for as long as it lives.  Neither may show: the chunk sequence, every
``CallRecord``, the clock and the round trip that discovers exhaustion
must equal those of an invocation whose whole list existed before the
first draw (``generate()`` sliced by ``chunk_size``), whatever the
interface shape, constraints, availability gate and fault profile.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ServiceInvocationError,
    ServiceTimeoutError,
    ServiceUnavailableError,
)
from repro.model.attributes import Attribute, DataType, Domain, RepeatingGroup
from repro.model.registry import ServiceRegistry
from repro.model.scoring import LinearScoring
from repro.model.service import (
    AccessPattern,
    ServiceInterface,
    ServiceKind,
    ServiceMart,
    ServiceStats,
)
from repro.query.ast import AttrRef, Comparator, SelectionPredicate
from repro.services.simulated import FaultModel, FaultProfile, ServicePool

MART = ServiceMart(
    "Thing",
    (
        Attribute("Key", Domain("key", DataType.INTEGER, size=10)),
        Attribute("Payload", Domain("payload", DataType.STRING)),
        RepeatingGroup(
            "R",
            (
                Attribute("A", Domain("a", DataType.INTEGER, size=5)),
                Attribute("B", Domain("b", DataType.STRING, size=5)),
            ),
        ),
    ),
)


def _registry() -> ServiceRegistry:
    registry = ServiceRegistry()
    registry.register_mart(MART)
    pattern = AccessPattern.from_spec({"Key": "I"})
    for name, kind, stats, scoring in (
        # Chunked: 23..37 tuples in chunks of 5, so most lists end mid-chunk.
        (
            "Chunked",
            ServiceKind.SEARCH,
            ServiceStats(30, chunk_size=5),
            LinearScoring(horizon=30),
        ),
        # A list that fits one chunk: the second call discovers the end.
        (
            "Short",
            ServiceKind.SEARCH,
            ServiceStats(3, chunk_size=4),
            LinearScoring(horizon=4),
        ),
        ("Unchunked", ServiceKind.EXACT, ServiceStats(6), None),
        # Selective: one tuple with probability 0.5, else none.
        ("Selective", ServiceKind.EXACT, ServiceStats(0.5), None),
    ):
        options = {} if scoring is None else {"scoring": scoring}
        registry.register_interface(
            ServiceInterface(
                name=name, mart=MART, access_pattern=pattern, kind=kind,
                stats=stats, **options,
            )
        )
    return registry


REGISTRY = _registry()
INTERFACES = st.sampled_from(["Chunked", "Short", "Unchunked", "Selective"])


def _constraint(path: str, comparator: Comparator, operand) -> SelectionPredicate:
    return SelectionPredicate(AttrRef.parse(f"X.{path}"), comparator, operand)


CONSTRAINTS = st.sampled_from(
    [
        (),
        (_constraint("R.A", Comparator.GE, 2),),
        # One member must witness both: the joint rule under rejection sampling.
        (
            _constraint("R.A", Comparator.GE, 3),
            _constraint("R.B", Comparator.EQ, "b#1"),
        ),
        # Unsatisfiable (the domain has five values): ``max_attempts`` ends it.
        (_constraint("R.A", Comparator.GT, 10),),
    ]
)
FAULTS = st.sampled_from(
    [
        FaultProfile(),
        FaultProfile(failure_rate=0.3),
        FaultProfile(timeout_rate=0.4, slow_factor=10.0),
        FaultProfile(failure_rate=0.2, timeout_rate=0.3, slow_factor=4.0),
    ]
)


def _pool(seed: int, faults: FaultProfile) -> ServicePool:
    return ServicePool(
        REGISTRY, global_seed=seed, fault_model=FaultModel(default=faults)
    )


def _drain(invocation, rounds: int = 60, past_the_end: bool = True) -> list:
    """Chunks, ``None``s and fault names of up to ``rounds`` calls, in order.

    ``past_the_end=False`` stops at the first ``None``, as the executor does.
    """
    events = []
    for _ in range(rounds):
        try:
            chunk = invocation.next_chunk()
        except (ServiceUnavailableError, ServiceTimeoutError) as exc:
            events.append(type(exc).__name__)
        else:
            events.append(chunk)
            if chunk is None and not past_the_end:
                break
    return events


@settings(max_examples=120, deadline=None)
@given(
    name=INTERFACES,
    key=st.integers(0, 9),
    seed=st.integers(0, 50),
    constraints=CONSTRAINTS,
    availability=st.sampled_from([1.0, 0.6, 0.2]),
    faults=FAULTS,
    call_timeout=st.sampled_from([None, 3.0]),
)
def test_lazy_invocation_equals_the_eager_list(
    name, key, seed, constraints, availability, faults, call_timeout
):
    options = dict(
        alias="X", constraints=constraints, availability=availability,
        call_timeout=call_timeout,
    )
    lazy_pool, eager_pool = _pool(seed, faults), _pool(seed, faults)
    lazy = lazy_pool.invoke(name, {"Key": key}, **options)
    eager = eager_pool.invoke(name, {"Key": key}, **options)
    # The eager path: the whole list exists before the first round trip.
    full = list(eager.results)
    generated = eager_pool.service(name).generator.generate({"Key": key}, constraints)
    assert full in ([], generated)  # the gate closes a list, never changes it
    assert [t.position for t in full] == list(range(len(full)))

    events = _drain(lazy)
    assert events == _drain(eager)
    assert lazy_pool.log.records == eager_pool.log.records
    assert lazy_pool.clock.now == eager_pool.clock.now
    assert (lazy.calls, lazy.remaining) == (eager.calls, eager.remaining)

    # The chunk sequence is the full list sliced by ``chunk_size``.
    chunks = [e for e in events if isinstance(e, list)]
    size = REGISTRY.interface(name).stats.chunk_size or max(1, len(full))
    assert chunks == [full[i : i + size] for i in range(0, len(full), size)]
    if not faults.active:
        # Exhaustion costs a chunked client one empty round trip; an empty
        # first response costs anyone one; then polling is free.
        chunked = REGISTRY.interface(name).is_chunked
        terminal = 1 if (chunked or not full) else 0
        assert lazy.calls == len(chunks) + terminal
        assert [r.tuples for r in lazy_pool.log.records] == (
            [len(c) for c in chunks] + [0] * terminal
        )


@settings(max_examples=60, deadline=None)
@given(
    key=st.integers(0, 9),
    seed=st.integers(0, 50),
    constraints=CONSTRAINTS,
    first=st.integers(0, 4),
    second=st.integers(0, 8),
)
def test_second_invocation_extends_the_first_ones_list(
    key, seed, constraints, first, second
):
    pool = _pool(seed, FaultProfile())
    options = dict(alias="X", constraints=constraints)

    def draw(invocation, chunks):
        out = []
        for _ in range(chunks):
            out.extend(invocation.next_chunk() or [])
        return out

    head = draw(pool.invoke("Chunked", {"Key": key}, **options), first)
    again = pool.invoke("Chunked", {"Key": key}, **options)
    longer = draw(again, second)
    shared = min(len(head), len(longer))
    # Same pool: the very same objects for what was drawn before ...
    assert all(a is b for a, b in zip(head[:shared], longer[:shared]))
    # ... generated no further than anybody has read ...
    assert len(again.source.tuples) <= max(first, second) * 5
    # ... and, read to the end, the list a fresh pool generates eagerly.
    other = _pool(seed, FaultProfile())
    fresh = other.invoke("Chunked", {"Key": key}, **options).results
    assert again.results == fresh
    assert all(a is not b for a, b in zip(again.results, fresh))
    assert longer == fresh[: len(longer)]
    # Another binding, constraint set or availability is another list.
    elsewhere = pool.invoke("Chunked", {"Key": (key + 1) % 10}, **options)
    assert elsewhere.source is not again.source
    gated = pool.invoke("Chunked", {"Key": key}, availability=0.5, **options)
    assert gated.source is not again.source


def test_binding_types_with_distinct_data_seeds_do_not_share_a_list():
    """``1`` and ``1.0`` hash alike but seed different data (``repr``)."""
    pool = _pool(7, FaultProfile())
    as_int = pool.invoke("Chunked", {"Key": 1}).results
    as_float = pool.invoke("Chunked", {"Key": 1.0}).results
    fresh = _pool(7, FaultProfile())
    assert as_float == fresh.invoke("Chunked", {"Key": 1.0}).results
    assert as_int == fresh.invoke("Chunked", {"Key": 1}).results
    assert as_int != as_float

    class Impostor:
        def __repr__(self):
            return "1"

    # Same rendering, same data seed — but bound values are echoed.
    echoed = pool.invoke("Chunked", {"Key": Impostor()}).results
    assert all(isinstance(t.values["Key"], Impostor) for t in echoed)
    assert all(t.values["Key"] == 1 for t in as_int)


def test_missing_bindings_raise_at_invoke_not_at_the_first_draw():
    with pytest.raises(ServiceInvocationError):
        _pool(1, FaultProfile()).invoke("Chunked", {})


def test_caller_may_reuse_its_bindings_dict():
    pool, inputs = _pool(3, FaultProfile()), {"Key": 4}
    invocation = pool.invoke("Chunked", inputs)
    inputs["Key"] = 5  # after invoke, before anything was generated
    assert invocation.results == _pool(3, FaultProfile()).invoke(
        "Chunked", {"Key": 4}
    ).results
