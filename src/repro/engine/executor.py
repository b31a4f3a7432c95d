"""Dataflow execution of fully instantiated query plans (Section 3.2).

The :class:`PlanExecutor` runs a validated plan against a
:class:`~repro.services.simulated.ServicePool`: it walks the DAG in
topological order, materialising each node's composite-tuple output —

* the **input node** emits the single user input tuple;
* a **service node** invokes its interface once per distinct input
  binding (invocations are memoised, so serial compositions that pipe no
  attributes cost one call batch), draws its fetch factor's worth of
  chunks, filters results through the alias's selection predicates — and
  the join predicates with upstream aliases no other node checks — with
  joint-witness semantics, and composes survivors with the upstream
  composite (the plan's last node only ranks them: rows are built when
  read, see :class:`ResultRows`);
* a **selection node** filters composites through its residual predicates;
* a **parallel-join node** matches the two branch outputs — composites
  must agree on shared aliases (tuples stemming from the same upstream
  row) and satisfy the join predicates; a triangular completion strategy
  restricts the candidate pairs to the most promising half of the rank
  Cartesian product, mirroring the annotation model (the plan's last
  join, too, only ranks what it matches);
* the **output node** applies the final joint-witness semantic check over
  the *entire* predicate set (the Section 3.1 semantics is defined over
  one witness mapping for all predicates, which staged evaluation alone
  cannot guarantee), sorts by the global ranking function, and returns the
  best ``k`` combinations.

Execution is measured on virtual time: every service call advances the
pool's clock and appends to its log; the executor derives per-node busy
times and a critical-path *measured execution time* comparable with the
optimizer's estimates.

Execution is **step-resumable**: :meth:`PlanExecutor.steps` is a
generator that yields a :class:`StepEvent` immediately *before* every
chunk-granular service round trip (retries included in the step), so a
scheduler can interleave many in-flight queries on one timeline —
pausing a query before each round trip, granting it when admission,
concurrency, and rate-limit checks pass.  :meth:`PlanExecutor.run`
simply drains the generator, so single-query behaviour is unchanged.

**One walk, two drivers.**  The node bodies (:meth:`PlanExecutor._run_node`,
:meth:`~PlanExecutor._run_service`) are written once.  A service node asks
for one *fetch batch* — its call specs in upstream order — and composes
the outcomes it gets back; *when* the fetches happen is the driver's.
This class fulfils a batch on the virtual clock (:meth:`~PlanExecutor._fetch_batch`:
spec by spec, a step before each round trip);
:class:`~repro.engine.async_runner.AsyncPlanExecutor` overrides that
seam to gather the batch on an event loop, and :meth:`~PlanExecutor._span`
to put spans on the wall axis (see DESIGN.md, "Execution backends").

The invocation memo is likewise factored into a standalone
:class:`InvocationCache` that may be **shared across executors**:
identical service calls issued by concurrent queries then coalesce into
one set of round trips (see :mod:`repro.serve`).

A shared cache also makes a completed execution **replayable**: the
executor hangs a :class:`Recording` — the ordered fetches it issued and
its deterministic counters — on the :class:`ResultRows` it returns and
indexes the list, weakly, on the cache.  A later execution with the same
key re-issues exactly those fetches through the same :meth:`PlanExecutor._fetch`
and returns the recorded rows, skipping compose, join, filter, score and
sort (see DESIGN.md, "Replaying a recorded execution").
"""

from __future__ import annotations

import random
import sys
from bisect import bisect_left
from collections import OrderedDict, abc
from contextlib import contextmanager
from functools import cached_property, partial
from itertools import chain, product, repeat
from operator import add, eq, itemgetter
from dataclasses import dataclass, field, replace
from weakref import WeakValueDictionary
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from repro.core.annotate import pipe_join_selectivity
from repro.engine.events import CallLog
from repro.engine.retry import NO_RETRY, Degradation, Retrier, RetryPolicy
from repro.errors import ExecutionError, RetryExhaustedError
from repro.joins.spec import CompletionStrategy
from repro.model.tuples import CompositeTuple, RankingFunction
from repro.obs.tracer import NullTracer, Tracer, coerce_tracer
from repro.plans.nodes import (
    InputNode,
    OutputNode,
    ParallelJoinNode,
    SelectionNode,
    ServiceNode,
)
from repro.plans.plan import QueryPlan
from repro.query.ast import Comparator, InputRef, JoinPredicate, SelectionPredicate
from repro.query.compile import CompiledQuery
from repro.query.feasibility import ProviderKind
from repro.query.predicates import PredicateCheck, satisfies
from repro.stats.estimate import Estimator

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.services.simulated import ServicePool

__all__ = [
    "NodeRunStats",
    "InvocationCache",
    "InvocationCacheStats",
    "ExecutionResult",
    "PlanExecutor",
    "Recording",
    "ResultRows",
    "StepEvent",
    "execute_plan",
    "invocation_cache_key",
]


#: Span-name suffix per plan-node kind (``node.<suffix>`` spans).
_SPAN_KINDS = {
    "InputNode": "input",
    "ServiceNode": "service",
    "SelectionNode": "selection",
    "ParallelJoinNode": "join",
    "OutputNode": "output",
}


def _value_key(value: Any) -> tuple:
    """Type-qualified repr of one value: ``repr`` alone conflates values
    of different types whose reprs coincide."""
    return (type(value).__qualname__, repr(value))


def invocation_cache_key(
    interface_name: str,
    alias: str,
    factor: int,
    bindings: Mapping[str, Any],
    *,
    constraints: Sequence[SelectionPredicate] = (),
    availability: float = 1.0,
) -> tuple:
    """Memo key for one service invocation.

    Each binding value is keyed by ``(type qualname, repr)``: ``repr``
    alone conflates values of different types whose reprs coincide, which
    would silently reuse another binding's results.

    ``constraints`` (server-side input predicates, already resolved to
    constants) and ``availability`` (the pipe-join selectivity gate) also
    shape the simulated response, so they participate in the key.  Within
    one execution both are constant per alias, making the extra
    components redundant there — but a cache **shared across queries**
    (see :mod:`repro.serve`) must distinguish, e.g., two parameterized
    instances of ``Date > INPUT3`` whose range constant differs while the
    bindings (``None`` for range-only inputs) coincide.
    """
    return (
        interface_name,
        alias,
        factor,
        tuple(
            sorted(
                (key, *_value_key(value)) for key, value in bindings.items()
            )
        ),
        tuple(
            sorted(
                (
                    str(constraint.attr),
                    constraint.comparator.value,
                    *_value_key(constraint.operand),
                )
                for constraint in constraints
            )
        ),
        round(float(availability), 12),
    )


@dataclass
class InvocationCacheStats:
    """Hit/miss/eviction accounting of the per-execution invocation memo."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class InvocationCache:
    """LRU memo of service invocations, shareable across executors.

    One entry per :func:`invocation_cache_key`, holding the
    ``(tuples, failed)`` outcome of drawing an invocation's chunks.  A
    :class:`PlanExecutor` builds a private instance by default; handing
    several executors the *same* instance coalesces identical service
    calls across queries — the simulated substrate is deterministic per
    ``(global seed, interface, bindings, constraints)``, so a cached
    outcome is byte-identical to what the second query would have fetched
    itself (see DESIGN.md, "Why cross-query sharing is safe").

    ``stats`` accounts lifetime totals; lookups additionally increment
    the per-execution :class:`InvocationCacheStats` the caller passes, so
    shared-cache hit rates remain attributable to individual queries.

    ``recorded`` is the result memo's index: execution key -> the
    :class:`ResultRows` of a completed execution, for replay.  It is
    **weak** — it points at lists live sessions hold and owns none, so it
    has no size and no eviction: an entry goes when its last holder does.
    ``replayable`` counts the executions that consulted it, ``replays``
    those it served.

    Beside an unfailed entry lives what selection checks kept of its list
    (:meth:`verdicts`); overwriting or evicting the entry drops them.
    ``verdicts_reused`` counts the lists an execution found checked there.
    Like ``replays`` it counts work skipped, not lookups: which execution
    checks a list first depends on the interleaving, and a replay checks
    nothing, so no per-execution figure could both count it and stay equal
    between a replayed and a fresh execution.
    """

    max_size: int | None = 1024
    stats: InvocationCacheStats = field(default_factory=InvocationCacheStats)
    _data: OrderedDict = field(default_factory=OrderedDict, repr=False)
    recorded: "WeakValueDictionary[tuple, ResultRows]" = field(
        default_factory=WeakValueDictionary, init=False, repr=False, compare=False
    )
    replayable: int = field(default=0, init=False)
    replays: int = field(default=0, init=False)
    verdicts_reused: int = field(default=0, init=False)
    _verdicts: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.max_size is not None and self.max_size <= 0:
            raise ExecutionError("invocation cache size must be positive or None")

    def get(
        self, key: tuple, stats: InvocationCacheStats | None = None
    ) -> tuple[list, bool] | None:
        entry = self._data.get(key)
        if entry is not None:
            self._data.move_to_end(key)
            self.stats.hits += 1
            if stats is not None:
                stats.hits += 1
        else:
            self.stats.misses += 1
            if stats is not None:
                stats.misses += 1
        return entry

    def put(
        self,
        key: tuple,
        value: tuple[list, bool],
        stats: InvocationCacheStats | None = None,
    ) -> None:
        self._data[key] = value
        self._verdicts.pop(key, None)
        if self.max_size is not None:
            while len(self._data) > self.max_size:
                self._verdicts.pop(self._data.popitem(last=False)[0], None)
                self.stats.evictions += 1
                if stats is not None:
                    stats.evictions += 1

    def verdicts(self, key: tuple, tuples: list) -> dict | None:
        """The survivors memo of the entry under ``key`` while it holds
        ``tuples`` (the object) unfailed, else ``None``: (check, the INPUT
        values it reads) -> the tuples it kept, for checks that read
        nothing else.  Neither a counted lookup nor an LRU touch."""
        entry = self._data.get(key)
        if entry is None or entry[0] is not tuples or entry[1]:
            return None
        return self._verdicts.setdefault(key, {})

    def __len__(self) -> int:
        return len(self._data)


@dataclass(frozen=True)
class StepEvent:
    """One impending service round trip, yielded by :meth:`PlanExecutor.steps`.

    The executor pauses *before* the round trip happens; resuming the
    generator performs it (retries and backoff included) plus any
    CPU-only work up to the next round trip.  A scheduler uses the event
    to decide *when* the paused query may proceed (rate limits, fairness)
    — the round trip then starts at whatever time the pool's clock shows.
    """

    alias: str
    interface: str
    #: 0-based index of the chunk this round trip requests.
    chunk_index: int


@dataclass
class NodeRunStats:
    """Actual (not estimated) tuple flow and call counts of one node."""

    tin: int = 0
    tout: int = 0
    calls: int = 0
    busy_time: float = 0.0
    #: Latency of the node's first request-response (0 for non-services).
    first_call_latency: float = 0.0
    #: Candidate pairs this node's join kernel examined (0 for non-joins).
    pairs_probed: int = 0
    #: Join nodes: the kernel that ran (``hash`` / ``hash_multikey`` /
    #: ``hash_shared``) or why the nested loop did (``non_eq``, ...).
    dispatch: str = ""
    #: Join nodes: key equality decided every pair, so none was checked.
    exact: bool = False
    #: Service nodes: join predicates checked here, with the selections.
    staged: int = 0
    #: Composite rows this node built, and how many it scored, during the
    #: execution: 0 where rows were ranked unbuilt (``len`` counts those).
    rows_built: int = 0
    rows_scored: int = 0
    #: Output node: ``elided``, ``residual(n predicates)`` or ``full(reason)``.
    final_check: str = ""


@dataclass(frozen=True, eq=False)
class Recording:
    """What replaying one completed execution takes (see :class:`ResultRows`).

    Everything here is a pure function of the execution's memo key in a
    fault-free world; what depends on the cache's state at the time —
    calls made, busy time, first-call latency — is measured again.
    """

    #: Held so the ``id``\ s in the memo key stay unique while this lives.
    plan: QueryPlan
    query: CompiledQuery
    #: Per node in execution order, with ``calls``/``busy_time``/
    #: ``first_call_latency`` as the recording run measured them.
    node_stats: dict[str, NodeRunStats]
    #: Service node id -> ``(node, factor, availability, call specs in
    #: issue order)``: the arguments of every :meth:`PlanExecutor._fetch`.
    fetches: dict[str, tuple[ServiceNode, int, float, list[tuple]]]
    total_candidates: int
    pairs_probed: int


class Scored(NamedTuple):
    """A row not built, as a result digest reads it."""

    components: dict
    score: float


#: ``Scored`` from a ``(components, score)`` pair, with no Python call per row.
_SCORED = partial(tuple.__new__, Scored)


class ResultRows(abc.Sequence):
    """The rows an execution returns, in final order; immutable from then on.

    Nothing appends to, reorders or drops from it once the executor hands
    it out (sessions present slices and re-scored copies), so what is
    derived from the whole list is kept on it: the witness ``digest``
    (:mod:`repro.durability.checkpoint`) and, for an execution recorded
    on a shared :class:`InvocationCache`, its :class:`Recording`.  Like
    :class:`~repro.model.tuples.ServiceTuple`'s memos, neither is copied
    or pickled — both yield a plain ``list`` of the rows.

    Given a ``source`` — a plan's last node's rows, unbuilt, and the
    positions of the ranked ones (:class:`_Unbuilt`, ``order``) — a row
    exists once it is read, as part of the prefix up to it (:attr:`built`,
    which only grows — so sessions replaying one recording share this
    object while presenting different ``k``); the source is dropped once
    every row is built.  Not a ``list``, whose C fast paths would take the
    prefix for the whole.
    """

    __slots__ = ("built", "_source", "_length", "recording", "digest", "__weakref__")

    def __init__(self, rows: Iterable[CompositeTuple] = (), source: tuple | None = None):
        #: The rows that exist so far, in order.
        self.built: list[CompositeTuple] = list(rows)
        self._source = source if source is not None and source[1] else None
        self._length = len(self.built) if source is None else len(source[1])
        self.recording: Recording | None = None
        self.digest: str | None = None

    def _first(self, count: int) -> list[CompositeTuple]:
        """:attr:`built`, grown to ``count`` rows if it was shorter."""
        rows = self.built
        if self._source is not None and count > len(rows):
            unbuilt, order = self._source
            row, components, scores = CompositeTuple._owned, unbuilt.components, unbuilt.scores
            rows.extend([row(components(i), scores[i]) for i in order[len(rows) : count]])
            if len(rows) == self._length:
                self._source = None
        return rows

    def scored(self) -> "Iterator[CompositeTuple | Scored]":
        """Every row in order, for what reads only ``components`` and
        ``score``: the built rows, then the others as :class:`Scored`
        views of the source, none of them built."""
        if self._source is None:
            return iter(self.built)
        (unbuilt, order), built = self._source, self.built[:]
        rest = order[len(built) :]
        scores = map(unbuilt.scores.__getitem__, rest)
        return chain(built, map(_SCORED, zip(map(unbuilt.components, rest), scores)))

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        wanted = range(self._length)[index]  # a position, or a slice's
        if isinstance(wanted, int):
            return self._first(wanted + 1)[wanted]
        rows = self._first(max(wanted[0], wanted[-1]) + 1 if wanted else 0)
        return [rows[i] for i in wanted]

    def __iter__(self) -> Iterator[CompositeTuple]:
        return iter(self._first(self._length))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, ResultRows)):
            return self._first(self._length) == list(other)
        return NotImplemented

    def __reduce__(self):
        return list, (list(self),)


@dataclass
class _Unbuilt:
    """A plan's last node's rows, unbuilt: per row, in order, its score,
    folded by that node, and its components — ``heads[i]`` plus ``alias:
    tails[i]`` from a service node, ``heads[i]`` merged with ``tails[i]``
    from a join (``alias`` ``None``).  :meth:`PlanExecutor._finalise`
    ranks, cuts, builds when read."""

    alias: str | None
    scores: list[float] = field(default_factory=list)
    heads: list[dict] = field(default_factory=list)
    tails: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.scores)

    def components(self, i: int) -> dict:
        if self.alias is None:
            return {**self.heads[i], **self.tails[i]}
        return {**self.heads[i], self.alias: self.tails[i]}


@dataclass
class ExecutionResult:
    """Outcome of one plan execution."""

    tuples: Sequence[CompositeTuple]
    log: CallLog
    node_stats: dict[str, NodeRunStats]
    execution_time: float
    #: Measured time until a first complete combination could exist: the
    #: critical path of per-node *first-call* latencies (compare with the
    #: TimeToScreenMetric estimate).
    time_to_screen: float = 0.0
    total_candidates: int = 0
    #: Candidate pairs the parallel-join assembly actually examined; equals
    #: ``total_candidates`` for the nested-loop path, smaller when the
    #: hash-indexed equi-join kernel skipped non-colliding pairs.
    pairs_probed: int = 0
    #: Invocation-memo accounting for this execution.
    cache_stats: InvocationCacheStats = field(default_factory=InvocationCacheStats)
    #: Aliases whose service was abandoned after exhausting retries
    #: (non-empty only under ``partial`` degradation).
    failed_aliases: tuple[str, ...] = ()
    #: Which backend produced this result: ``"virtual"`` (discrete-event
    #: simulation) or ``"asyncio"`` (real concurrent execution).
    backend: str = "virtual"
    #: Wall-clock seconds the run took (asyncio backend only; the
    #: virtual-clock backend reports 0.0 — its cost axis is virtual time).
    wall_time: float = 0.0
    #: ``hit`` (the rows are a recorded execution's, its fetches re-issued),
    #: ``miss`` (executed and recorded) or ``off(reason)`` — the memo was
    #: bypassed: ``private_cache``, ``faults``, ``call_timeout``, or
    #: ``backend`` (the asyncio executor never consults it).
    result_memo: str = "off(backend)"
    #: Results short of ``k`` while some fetched list stopped at its fetch
    #: factor, so fetching more could find more (0: every list ended first).
    k_shortfall: int = 0

    def __getstate__(self) -> dict[str, Any]:
        # Copies and pickles carry plain rows, never the live list with
        # its recording and its place in a cache's weak index.
        return {**self.__dict__, "tuples": list(self.tuples)}

    @property
    def incomplete(self) -> bool:
        """True when a branch was down and the results are best-effort:
        combinations may be missing the failed aliases' components."""
        return bool(self.failed_aliases)

    @property
    def total_calls(self) -> int:
        return self.log.total_calls()

    def calls_by_alias(self, ok_only: bool = False) -> dict[str, int]:
        return self.log.calls_by_alias(ok_only=ok_only)

    def metrics(self) -> dict:
        """Unified metrics snapshot of this execution (one snapshot API
        over the legacy per-field accounting; see :mod:`repro.obs.metrics`)."""
        from repro.obs.metrics import snapshot_run

        return dict(snapshot_run(None, self))


class PlanExecutor:
    """Executes one plan over a service pool.

    Parameters
    ----------
    plan:
        A validated plan.
    query:
        The compiled query the plan implements (predicates, ranking, k).
    pool:
        Simulated-service pool providing invocations, clock, and log.
    inputs:
        Bindings for the query's INPUT variables.
    fetches:
        Fetch factors per chunked-service alias (default 1 each).
    k:
        Result-list cut-off; defaults to the query's ``k``.
    final_semantic_check:
        Re-evaluate the full predicate set on every output combination
        with joint-witness semantics (recommended; see module docstring).
        ``False`` elides the *output node's* check only: what a service,
        selection or join node stages is always checked there.
    retry:
        Retry policy for failing service calls (default: no retries, no
        per-call timeout).  Backoff waits advance the pool's virtual
        clock, so retry cost shows up in measured execution time.
    degradation:
        What to do when a service's retries are exhausted:
        ``Degradation.FAIL`` propagates the error; ``Degradation.PARTIAL``
        keeps going — the dead branch contributes nothing, upstream
        combinations flow through without its component, and the result is
        flagged ``incomplete``.
    invocation_cache_size:
        LRU bound on the invocation memo (distinct ``(interface, alias,
        factor, bindings)`` entries kept); ``None`` means unbounded.
        Hits, misses, and evictions are reported via
        :attr:`ExecutionResult.cache_stats`.
    invocation_cache:
        An externally owned :class:`InvocationCache` to use instead of a
        private one — the cross-query sharing hook: executors handed the
        same instance coalesce identical service calls.  When given,
        ``invocation_cache_size`` is ignored (the owner sized the cache).
    tracer:
        Observability context (:class:`~repro.obs.tracer.Tracer`);
        execution emits spans for the plan, each node, each service
        invocation, each chunk fetch (retries included), and join probe
        batches — all on the pool's virtual clock.  ``None`` (the
        default) uses the shared no-op tracer: behaviour, results, and
        the call log are byte-identical to an untraced run.
    """

    #: The result memo's switch.  Private: the differential tests serve one
    #: stream with it off and compare everything observable.
    _RESULT_MEMO = True

    def __init__(
        self,
        plan: QueryPlan,
        query: CompiledQuery,
        pool: "ServicePool",
        inputs: Mapping[str, Any],
        fetches: Mapping[str, int] | None = None,
        k: int | None = None,
        final_semantic_check: bool = True,
        retry: RetryPolicy | None = None,
        degradation: Degradation | str = Degradation.FAIL,
        invocation_cache_size: int | None = 1024,
        tracer: "Tracer | NullTracer | None" = None,
        invocation_cache: InvocationCache | None = None,
    ) -> None:
        self.plan = plan
        self.query = query
        self.pool = pool
        self.inputs = dict(inputs)
        self.fetches = dict(fetches or {})
        self.k = query.k if k is None else k
        self.final_semantic_check = final_semantic_check
        self.retry = NO_RETRY if retry is None else retry
        self.degradation = Degradation.coerce(degradation)
        self.failed_aliases: set[str] = set()
        self.tracer = coerce_tracer(tracer)
        self._retrier = Retrier(
            policy=self.retry,
            clock=pool.clock,
            log=pool.log,
            rng=random.Random(pool.global_seed ^ 0xB0FF),
            tracer=self.tracer,
        )
        if invocation_cache_size is not None and invocation_cache_size <= 0:
            raise ExecutionError("invocation_cache_size must be positive or None")
        self._invocation_cache = (
            invocation_cache
            if invocation_cache is not None
            else InvocationCache(max_size=invocation_cache_size)
        )
        self._private_cache = invocation_cache is None
        self.cache_stats = InvocationCacheStats()
        self.result_memo = ""  # decided when execution starts (steps)
        #: Service node id -> the fetch batch it asked for, this run's
        #: (:attr:`Recording.fetches`).
        self._fetches_issued: dict[str, tuple] = {}
        self._pairs_probed = 0
        #: node id -> [rows built, rows scored] (see :class:`NodeRunStats`).
        self._rows: dict[str, list[int]] = {}
        self.final_check = ""  # what the output node checked (_finalise)
        #: Join node id -> (its dispatch, whether it was exact).
        self._dispatch: dict[str, tuple[str, bool]] = {}
        self._estimator = Estimator(query)
        #: (alias, id of a fetched tuple list, ids of the source tuples its
        #: staged joins read) -> (the list, its survivors under the node's
        #: check).
        self._survivors: dict[tuple, tuple[Sequence[Any], list]] = {}
        self._cut = False  # a fetched list stopped at its fetch factor

    # -- public entry points -----------------------------------------------------

    def run(self) -> ExecutionResult:
        """Execute to completion (drains :meth:`steps`)."""
        stepper = self.steps()
        while True:
            try:
                next(stepper)
            except StopIteration as stop:
                return stop.value

    def steps(self) -> Iterator[StepEvent]:
        """Step-resumable execution: one yield per impending round trip.

        The generator pauses with a :class:`StepEvent` immediately before
        each chunk-granular service round trip; resuming performs the
        round trip (with retries) plus all CPU-only work up to the next
        one.  The :class:`ExecutionResult` is the generator's return
        value (``StopIteration.value``).  Closing the generator early
        unwinds cleanly — open tracer spans finish, but no result is
        produced and the plan is left partially executed.

        On a shared cache a completed execution is recorded on its rows,
        and one whose key has a live recording replays it (:meth:`_replay`)
        instead of running the plan's nodes.
        """
        cache = self._invocation_cache
        key = self._memo_key()
        rows = None
        if key is not None:
            cache.replayable += 1
            rows = cache.recorded.get(key)
            if rows is not None:
                cache.replays += 1
            self.result_memo = "miss" if rows is None else "hit"

        with self._plan_span(result_memo=self.result_memo) as span:
            if rows is None:
                rows, stats, candidates = yield from self._run_nodes()
            else:
                stats = yield from self._replay(rows.recording)
                candidates = rows.recording.total_candidates
            span.set("result_rows", f"built {len(rows.built)} of {len(rows)}")

        if key is not None and rows.recording is None:
            rows.recording = Recording(
                plan=self.plan,
                query=self.query,
                node_stats=stats,
                fetches=self._fetches_issued,
                total_candidates=candidates,
                pairs_probed=self._pairs_probed,
            )
            cache.recorded[key] = rows
        return self._result(rows, stats, candidates)

    def _result(
        self,
        rows: ResultRows,
        stats: dict[str, NodeRunStats],
        candidates: int,
        **backend: Any,
    ) -> ExecutionResult:
        """Assemble the outcome of a finished walk (``backend``: the fields
        only the asyncio driver sets)."""
        return ExecutionResult(
            tuples=rows,
            log=self.pool.log,
            node_stats=stats,
            execution_time=self._critical_path(stats),
            time_to_screen=self._critical_path(stats, first_call_only=True),
            total_candidates=candidates,
            pairs_probed=self._pairs_probed,
            cache_stats=self.cache_stats,
            failed_aliases=tuple(sorted(self.failed_aliases)),
            result_memo=self.result_memo,
            k_shortfall=max(0, self.k - len(rows)) if self._cut and self.k else 0,
            **backend,
        )

    def _span(self, name: str, **attrs: Any):
        """Open a span on the driver's time axis: here the virtual clock's
        stack of nested spans (the asyncio driver records wall intervals)."""
        return self.tracer.span(name, **attrs)

    @contextmanager
    def _plan_span(self, **attrs: Any):
        """The ``plan.execute`` span around a whole walk."""
        with self._span(
            "plan.execute", nodes=len(self.plan.nodes), k=self.k, **attrs
        ) as span:
            yield span
            span.set("final_check", self.final_check)
            span.set("rows_built", self.rows_total(0))
            span.set("rows_scored", self.rows_total(1))

    def _memo_key(self) -> tuple | None:
        """This execution's result-memo key; ``None``, with the reason left
        in :attr:`result_memo`, when it may neither record nor replay.

        Rows are a pure function of the key only while no call can fail
        (a failure depends on the attempt, and degraded rows must never be
        shared), and the index lives on a cache somebody else holds.
        """
        if self._private_cache:
            reason = "private_cache"
        elif self.pool.fault_model.active:
            reason = "faults"
        elif self.retry.call_timeout is not None:
            reason = "call_timeout"
        elif not self._RESULT_MEMO:
            reason = "disabled"
        else:
            return (
                id(self.plan),
                id(self.query),
                self.k,
                self.final_semantic_check,
                tuple(
                    sorted(
                        (name, *_value_key(value))
                        for name, value in self.inputs.items()
                    )
                ),
                tuple(sorted(self.fetches.items())),
            )
        self.result_memo = f"off({reason})"
        return None

    def _replay(self, recording: Recording):
        """Step generator re-issuing a recorded execution's fetches; returns
        the per-node stats.

        Each fetch batch goes through :meth:`_fetch_batch` as the recording
        run issued it — so cache lookups and LRU touches, round trips
        after an eviction, step events, log records and clock ticks are a
        fresh execution's, whose rows would be the recorded ones.  What
        the cache's state decides (calls, busy time, first-call latency)
        is measured from this run's log; the rest is the recording's.  No
        node runs: the trace gets this run's ``service.invoke``/
        ``fetch.chunk`` spans and no ``node.*`` ones.
        """
        stats: dict[str, NodeRunStats] = {}
        for node_id, recorded in recording.node_stats.items():
            self._rows[node_id] = [recorded.rows_built, recorded.rows_scored]
            batch = recording.fetches.get(node_id)
            if batch is None:
                stats[node_id] = recorded  # makes no calls: nothing to measure
                continue
            fetched, measured = yield from self._fetch_batch(batch)
            self._note_cut(batch, fetched)
            stats[node_id] = replace(recorded, **measured)
        self.final_check = stats[self.plan.output_node.node_id].final_check
        self._pairs_probed = recording.pairs_probed
        return stats

    def _run_nodes(self):
        """The virtual driver's walk: every node in topological order, each
        run to completion; returns ``(output rows, per-node stats,
        candidate pairs)``."""
        outputs: dict[str, list[CompositeTuple]] = {}
        stats: dict[str, NodeRunStats] = {}
        candidates = 0
        self._fetches_issued = {}
        for node_id in self.plan.topological_order():
            stats[node_id], pair_count = yield from self._run_node(node_id, outputs)
            candidates += pair_count
        return outputs[self.plan.output_node.node_id], stats, candidates

    # -- node bodies: written once, fulfilled by either driver ---------------------

    def _run_node(self, node_id: str, outputs: dict[str, list[CompositeTuple]]):
        """One node's whole body, whichever driver walks the plan: kind
        dispatch, the node's span, its :class:`NodeRunStats`.

        A generator.  Its parents' outputs are in ``outputs`` and its own
        is left there; it returns ``(stats, candidate pairs)``.  Only a
        service node suspends, inside :meth:`_fetch_batch`.
        """
        node = self.plan.node(node_id)
        parents = self.plan.parents(node_id)
        span = None
        if self.tracer.enabled:
            attrs = {"node": node_id}
            alias = getattr(node, "alias", None)
            if alias is not None:
                attrs["alias"] = alias
            span = self._span(f"node.{_SPAN_KINDS[node.kind]}", **attrs)
        measured: dict[str, Any] = {}  # only a service node makes calls
        pair_count = probes = 0
        try:
            if isinstance(node, InputNode):
                result, tin = [CompositeTuple({}, 0.0)], 0
            elif isinstance(node, ServiceNode):
                upstream = outputs[parents[0]]
                result, measured = yield from self._run_service(node, upstream)
                tin = len(upstream)
            elif isinstance(node, SelectionNode):
                upstream = outputs[parents[0]]
                result = self._filter(upstream, node.selections, node.join_filters)
                tin = len(upstream)
            elif isinstance(node, ParallelJoinNode):
                left, right = outputs[parents[0]], outputs[parents[1]]
                # Pure CPU, no suspension: the counter's delta is this node's.
                before = self._pairs_probed
                result, pair_count = self._run_parallel_join(
                    node, left, right, self._defers(node_id)
                )
                probes = self._pairs_probed - before
                tin = len(left) * len(right)
            elif isinstance(node, OutputNode):
                upstream = outputs[parents[0]]
                result, tin = self._finalise(upstream), len(upstream)
            else:  # pragma: no cover - future node kinds
                raise ExecutionError(f"cannot execute node kind {node.kind}")
        except BaseException:
            if span is not None:
                span.__exit__(*sys.exc_info())
            raise
        outputs[node_id] = result
        built, scored = self._rows.get(node_id, (0, 0))
        dispatch, exact = self._dispatch.get(node_id, ("", False))
        stats = NodeRunStats(
            tin=tin,
            tout=len(result),
            **measured,
            pairs_probed=probes,
            dispatch=dispatch,
            exact=exact,
            rows_built=built,
            rows_scored=scored,
            final_check=self.final_check,
        )
        if span is not None:
            span.set("tin", tin)
            span.set("tout", len(result))
            if stats.calls:
                span.set("calls", stats.calls)
            if stats.staged:
                span.set("staged", stats.staged)
            if probes:
                span.set("pairs_probed", probes)
            span.__exit__(None, None, None)
        return stats, pair_count

    def _call_specs(
        self, node: ServiceNode, factor: int, availability: float
    ) -> Callable[[Mapping[str, Any]], tuple | None]:
        """``components -> (bindings, constraints, cache key)`` for one node,
        with everything an upstream row cannot change resolved once.

        It returns ``None`` when a pipe source never materialised (its
        service was abandoned under partial degradation): the caller keeps
        the upstream combination as-is.  Pure CPU work — shared by both
        backends, which is what keeps their invocations byte-identical.
        """
        assert node.interface is not None
        template: dict[str, Any] = {}
        pipes: dict[str, tuple] = {}
        sources: list[str] = []
        constraints: list[SelectionPredicate] = []
        for provider in node.providers:
            path_key = str(provider.path)
            selection = provider.selection
            if provider.kind is ProviderKind.CONSTANT:
                assert selection is not None
                value = selection.resolved_operand(self.inputs)
                if selection.comparator is Comparator.EQ:
                    template[path_key] = value
                    pipes.pop(path_key, None)
                # Every constant provider is also a server-side
                # constraint: the EQ ones are satisfied by echo, but
                # including them makes the generator's rejection
                # sampling enforce the *joint* witness (one member
                # satisfying, e.g., both Country= and Date>).
                constraints.append(
                    SelectionPredicate(selection.attr, selection.comparator, value)
                )
                template.setdefault(path_key, None)
            else:
                sources.append(provider.source_alias)
                path = provider.source_path
                pipes[path_key] = (provider.source_alias, path.group, path.name)
                template[path_key] = None
        # Inputs constrained only by range predicates carry no single
        # value; they are passed as None and the simulated service
        # treats a None binding as "no preference" (no echo), leaving
        # the server-side constraint filter to do the work.
        for path in node.interface.input_paths():
            template.setdefault(path, None)
        # The key of the constant bindings; piped entries (``None`` in the
        # sorted skeleton) are rendered per row.
        base = invocation_cache_key(
            node.interface.name, node.alias, factor, {},
            constraints=constraints, availability=availability,
        )
        skeleton = [
            (key, None if key in pipes else (key, *_value_key(template[key])))
            for key in sorted(template)
        ]

        # Rows built from one source tuple share its spec, the object: a
        # join fans a tuple out over many rows, and a recorded execution
        # keeps every spec it issued (:attr:`Recording.fetches`).  Keyed by
        # ``id``: the upstream rows hold the tuples while the node runs.
        aliases = tuple(dict.fromkeys(sources))
        built: dict[tuple, tuple] = {}

        def spec(components: Mapping[str, Any]) -> tuple | None:
            try:
                piped = tuple([id(components[alias]) for alias in aliases])
            except KeyError:
                return None
            found = built.get(piped)
            if found is None:
                bindings = dict(template)
                for path_key, (alias, group, name) in pipes.items():
                    # Nested paths pipe the first group member as witness.
                    if group is None:
                        bindings[path_key] = components[alias].values.get(name)
                    else:
                        members = components[alias].group_members(group)
                        bindings[path_key] = (
                            members[0].get(name) if members else None
                        )
                entries = [
                    entry or (key, *_value_key(bindings[key]))
                    for key, entry in skeleton
                ]
                found = built[piped] = (
                    bindings,
                    constraints,
                    (*base[:3], tuple(entries), *base[4:]),
                )
            return found

        return spec

    def _compose_service_results(
        self,
        node: ServiceNode,
        composite: CompositeTuple,
        tuples: Sequence[Any],
        failed: bool,
        check: PredicateCheck | None,
        out: "list | _Unbuilt",
        sources: Sequence[str] = (),
        cached: tuple | None = None,
    ) -> None:
        """Filter one invocation's tuples and compose survivors into ``out``.

        ``check`` is the lowered check of the alias's selections and of
        the joins staged here, which read the upstream row's ``sources``;
        an :class:`_Unbuilt` ``out`` takes the survivors scored, unbuilt.
        ``cached`` — ``(cache key of the list, verdict key)``, given when
        the check reads no source — looks the survivors up beside the
        shared cache's entry first (:meth:`InvocationCache.verdicts`).
        Pure CPU work shared by both execution backends; appending in
        upstream order keeps the output byte-identical however the
        fetches themselves were interleaved.
        """
        if failed and not tuples:
            # Best-effort degradation: the branch is down, so the
            # upstream combination flows on without this component.
            out.append(composite)
            return
        alias, upstream = node.alias, composite.components
        if check is not None:
            # The check reads the tuple, the source components and
            # ``self.inputs`` only, and the invocation memo hands every
            # upstream row with one binding the same list: filter each
            # (list, source tuples) once.  The entry holds the list, the
            # upstream rows the sources: no ``id`` is reused meanwhile.
            key = (alias, id(tuples), *[id(upstream[a]) for a in sources])
            kept = self._survivors.get(key)
            if kept is None:
                memo = cached and self._invocation_cache.verdicts(cached[0], tuples)
                keep = memo.get(cached[1]) if memo else None
                if keep is None:
                    inputs = self.inputs
                    keep = [t for t in tuples if check({**upstream, alias: t}, inputs)]
                    if memo is not None:
                        memo[cached[1]] = keep
                else:
                    self._invocation_cache.verdicts_reused += 1
                kept = self._survivors[key] = (tuples, keep)
            tuples = kept[1]
        if type(out) is _Unbuilt:
            # The upstream's terms folded once, then each tuple's own.
            weight = self.query.ranking.weights.get
            prefix = 0
            for a, tup in upstream.items():
                prefix += weight(a, 0.0) * tup.score
            own = weight(alias, 0.0)
            out.scores.extend([prefix + own * tup.score for tup in tuples])
            out.heads.extend([upstream] * len(tuples))
            out.tails.extend(tuples)
            return
        # Unscored: a downstream join scores its own output, and
        # ``_finalise`` scores whatever reaches it without one.
        row = CompositeTuple._owned
        out.extend([row({**upstream, alias: tup}, None) for tup in tuples])
        self._count_rows(node.node_id, len(tuples), 0)

    def _count_rows(self, node_id: str, built: int, scored: int) -> None:
        counts = self._rows.setdefault(node_id, [0, 0])
        counts[0] += built
        counts[1] += scored

    def rows_total(self, column: int) -> int:
        """Rows built (``0``) or scored (``1``) across all nodes so far."""
        return sum(counts[column] for counts in self._rows.values())

    def _selection_check(self, alias: str) -> PredicateCheck | None:
        """Lowered check of the selections over ``alias`` (``None``: none)."""
        selections = self.query.selections_on(alias)
        return self.query.predicate_check(selections) if selections else None

    def _run_service(self, node: ServiceNode, upstream: list[CompositeTuple]):
        """A service node's body: one call spec per upstream row, **one
        fetch batch** for the driver to fulfil, the outcomes composed in
        upstream order.  Returns ``(output, call figures and ``staged``)``."""
        assert node.interface is not None
        alias = node.alias
        factor = max(1, int(self.fetches.get(alias, 1)))
        # The availability gate: plan-invariant, so not per upstream row.
        availability = pipe_join_selectivity(node, self.query, self._estimator)
        spec_of = self._call_specs(node, factor, availability)
        specs = [spec_of(composite.components) for composite in upstream]
        batch = self._fetches_issued[node.node_id] = (
            node,
            factor,
            availability,
            [spec for spec in specs if spec is not None],
        )
        fetched, measured = yield from self._fetch_batch(batch)
        self._note_cut(batch, fetched)
        joins = self._staging[0][alias]
        sources = sorted({a for join in joins for a in join.aliases} - {alias})
        if self.failed_aliases.intersection(sources):
            # Degraded: rows may lack the components the joins read.  The
            # sources are upstream, hence settled — on either driver.
            joins, sources = (), []
        selections = self.query.selections_on(alias)
        check, verdict = self._selection_check(alias), None
        if joins:  # with the selections, under one witness assignment
            check = self.query.predicate_check(selections, joins)
        elif check is not None and not self._private_cache:
            # What the check's verdicts depend on besides the tuple: kept
            # beside the cache entry, they serve every execution.
            names = [s.operand.name for s in selections if type(s.operand) is InputRef]
            if all(name in self.inputs for name in names):
                verdict = (check, *[_value_key(self.inputs[name]) for name in names])
        outcomes = iter(fetched)
        out = _Unbuilt(alias) if self._defers(node.node_id) else []
        for composite, spec in zip(upstream, specs):
            if spec is None:
                # Pipe source never materialised (partial degradation):
                # the upstream combination flows through unchanged.
                out.append(composite)
            else:
                self._compose_service_results(
                    node, composite, *next(outcomes), check, out, sources,
                    verdict and (spec[2], verdict),
                )
        measured["staged"] = len(joins)
        return out, measured

    def _defers(self, node_id: str) -> bool:
        """Whether ``node_id`` hands the output node its rows unbuilt
        (:class:`_Unbuilt`): the output is its only child, nothing is left
        for the output to check, and no alias has failed.  The output's
        parent runs after every other node, so all three are settled."""
        return (
            self.plan.children(node_id) == (self.plan.output_node.node_id,)
            and not self.failed_aliases
            and not any(self._final_predicates()[1:])
        )

    # -- fetching: the virtual driver, and what both drivers share ------------------

    def _fetch_batch(self, batch: tuple):
        """Fulfil one fetch batch — ``(node, factor, availability, call
        specs in upstream order)``, as :meth:`_run_service` asks for it and
        a :class:`Recording` keeps it — the virtual driver's way: one
        :meth:`_fetch` per spec, in order, a :class:`StepEvent` before every
        round trip.  Returns the ``(tuples, failed)`` outcomes in spec
        order and the node's call figures: what the log gained meanwhile.
        """
        node, factor, availability, specs = batch
        log = self.pool.log
        first, busy = log.total_calls(), log.total_latency()
        fetched = []
        for spec in specs:
            outcome = yield from self._fetch(node, *spec, factor, availability)
            fetched.append(outcome)
        calls = log.total_calls() - first
        return fetched, {
            "calls": calls,
            "busy_time": log.total_latency() - busy,
            "first_call_latency": log.records[first].latency if calls else 0.0,
        }

    def _note_cut(self, batch: tuple, fetched: list[tuple[list, bool]]) -> None:
        """Note a list of the batch that filled every chunk it asked for."""
        node, factor = batch[0], batch[1]
        if node.interface.is_chunked and not self._cut:
            full = factor * node.interface.chunk_size
            self._cut = any(len(tuples) >= full for tuples, _ in fetched)

    def _fetch(
        self,
        node: ServiceNode,
        bindings: Mapping[str, Any],
        constraints: list[SelectionPredicate],
        key: tuple,
        factor: int,
        availability: float,
    ):
        """Invoke (memoised under ``key``) and draw ``factor`` chunks.

        A step generator: yields one :class:`StepEvent` before each chunk
        round trip.  Returns ``(tuples, failed)``: ``failed`` is True
        when the call was abandoned after exhausting retries under
        ``partial`` degradation (``fail`` mode propagates instead).
        """
        assert node.interface is not None
        cached = self._invocation_cache.get(key, self.cache_stats)
        if cached is not None:
            return self._met(node, cached)
        invocation, span = self._begin_fetch(
            node, bindings, constraints, factor, availability
        )
        tuples: list = []
        try:
            for index in range(factor):
                yield StepEvent(
                    alias=node.alias,
                    interface=node.interface.name,
                    chunk_index=index,
                )
                chunk = self._fetch_one_chunk(invocation, node.alias, index)
                if chunk is None:
                    break
                tuples.extend(chunk)
        except RetryExhaustedError as exhausted:
            return self._end_fetch(node, key, tuples, exhausted, span)
        return self._end_fetch(node, key, tuples, None, span)

    def _met(self, node: ServiceNode, outcome: tuple[list, bool], **span: Any):
        """Take an outcome somebody already fetched: a cache entry or, on
        the asyncio driver, a fetch that was in flight (``span`` says which,
        and since when).  Whoever meets an abandoned call is degraded too,
        not only the execution that abandoned it."""
        if self.tracer.enabled:
            self._span(
                "service.invoke",
                alias=node.alias,
                interface=node.interface.name,
                cached=True,
                **span,
                tuples=len(outcome[0]),
            ).__exit__(None, None, None)
        if outcome[1]:
            self.failed_aliases.add(node.alias)
        return outcome

    def _begin_fetch(
        self,
        node: ServiceNode,
        bindings: Mapping[str, Any],
        constraints: list[SelectionPredicate],
        factor: int,
        availability: float,
    ):
        """Open an invocation nobody has memoised; ``(invocation, its
        ``service.invoke`` span or None)``.  The driver draws the chunks."""
        span = (
            self._span(
                "service.invoke",
                alias=node.alias,
                interface=node.interface.name,
                cached=False,
                factor=factor,
            )
            if self.tracer.enabled
            else None
        )
        invocation = self.pool.invoke(
            node.interface.name,
            bindings,
            alias=node.alias,
            constraints=constraints,
            availability=availability,
            call_timeout=self.retry.call_timeout,
        )
        return invocation, span

    def _end_fetch(
        self,
        node: ServiceNode,
        key: tuple,
        tuples: list,
        error: RetryExhaustedError | None,
        span,
    ) -> tuple[list, bool]:
        """Close a fetch whose chunks a driver drew, memoising its outcome.

        Holds the **abandon rule**: a call that exhausted its retries
        (``error``) ends the execution under ``fail``; under ``partial``
        the tuples drawn so far stand, flagged ``failed``, and the alias
        joins :attr:`failed_aliases`.
        """
        failed = error is not None
        if failed:
            if self.degradation is Degradation.FAIL:
                if span is not None:
                    span.__exit__(type(error), error, None)
                # Raised inside the caller's handler, which drops its name
                # for it; this frame drops its own, or the traceback would
                # hold the exception that holds it (a reference cycle).
                try:
                    raise error
                finally:
                    del error
            self.failed_aliases.add(node.alias)
        if span is not None:
            span.set("tuples", len(tuples))
            span.set("failed", failed)
            span.__exit__(None, None, None)
        self._invocation_cache.put(key, (tuples, failed), self.cache_stats)
        return tuples, failed

    def _fetch_one_chunk(self, invocation, alias: str, index: int):
        """One (possibly retried) chunk draw, traced when tracing is on."""
        tracer = self.tracer
        if not tracer.enabled:
            return self._retrier.call(invocation.next_chunk)
        with tracer.span("fetch.chunk", alias=alias, chunk=index) as span:
            before = len(self.pool.log.records)
            chunk = self._retrier.call(invocation.next_chunk)
            span.set("round_trips", len(self.pool.log.records) - before)
            span.set("tuples", 0 if chunk is None else len(chunk))
        return chunk

    def _run_parallel_join(
        self,
        node: ParallelJoinNode,
        left: list[CompositeTuple],
        right: list[CompositeTuple],
        deferred: bool = False,
    ) -> "tuple[list[CompositeTuple] | _Unbuilt, int]":
        """Pick a probe-list builder, then emit through :meth:`_emit_pairs`
        (``deferred``: scored, unbuilt — see :meth:`_defers`).

        ``dispatch`` (on the ``join.probe`` span and the node's run stats)
        names the kernel that ran — ``hash``, ``hash_multikey``,
        ``hash_shared`` — or why the join fell back to the nested loop;
        ``exact`` whether key equality decided every pair, so buckets were
        emitted unchecked (:meth:`_hash_candidates`).
        """
        sides = self._uniform_aliases(left), self._uniform_aliases(right)
        # Aliases both branches carry (tuples stemming from one upstream
        # row must agree); unknown per plan when a branch is degraded.
        shared = None if None in sides else tuple(sorted(sides[0] & sides[1]))
        keys = self._equi_join_keys(node, left, right, shared)
        kernel, dispatch, candidates, exact = "nested_loop", keys, None, False
        if not isinstance(keys, str):
            left_keys, right_keys, dispatch = keys
            try:
                candidates, exact = self._hash_candidates(
                    left, right, left_keys, right_keys
                )
                kernel = dispatch if dispatch == "hash_multikey" else "hash_indexed"
                shared = ()  # equal keys subsume shared-alias agreement
            except (TypeError, KeyError):
                dispatch = "unhashable_key"
        exact = exact and dispatch == "hash"
        self._dispatch[node.node_id] = dispatch, exact
        probes_before = self._pairs_probed
        with self._span(
            "join.probe",
            kernel=kernel,
            dispatch=dispatch,
            exact=exact,
            left=len(left),
            right=len(right),
            deferred=deferred,
        ) as span:
            out, pair_count = self._emit_pairs(
                node, left, right, candidates, shared, deferred, exact
            )
            span.set("pairs_probed", self._pairs_probed - probes_before)
            span.set("produced", len(out))
        return out, pair_count

    def _uniform_aliases(self, rows: list[CompositeTuple]) -> frozenset[str] | None:
        """The alias set every row carries; ``None`` when rows differ (a
        degraded branch let combinations through without a component)
        or there are none.  Rows are uniform by construction until an
        alias fails, so only then are they compared."""
        if not rows:
            return None
        first = rows[0].components.keys()
        if self.failed_aliases and any(row.components.keys() != first for row in rows):
            return None
        return frozenset(first)

    def _emit_pairs(
        self,
        node: ParallelJoinNode,
        left: list[CompositeTuple],
        right: list[CompositeTuple],
        candidates: "list[Sequence[int] | None] | None",
        shared: tuple[str, ...] | None,
        deferred: bool = False,
        exact: bool = False,
    ) -> "tuple[list[CompositeTuple] | _Unbuilt, int]":
        """The pair-emission loop every join kernel shares.

        ``candidates[i]`` lists, ascending, the right rows worth probing
        for left row ``i`` (``None``: none); ``candidates`` ``None`` probes
        them all (the nested loop).  Walking rows in order and candidates
        in ``j`` order under the triangular cutoff emits matches in the
        nested loop's (i, j) order, so the final stable sort gives every
        kernel the same output; ``pair_count`` keeps the nested loop's
        logical meaning (tile area inside the completion region) however
        few pairs a kernel probed.  Where a pair can fail — shared aliases
        to agree on, predicates key equality does not decide (not
        ``exact``) — the check is authoritative on every probed pair:
        kernels only narrow the candidates.  Where none can, a row's
        candidates under the cutoff are its matches, cut with ``bisect``.

        ``deferred`` emits an unsorted :class:`_Unbuilt` of pairs
        ``(mine, theirs)``, merged when built, each scored by its left
        row's fold (once it has a match) plus the right row's new terms —
        ``score_composite``'s fold over ``{**mine, **theirs}``.
        """
        triangular = node.method.completion is CompletionStrategy.TRIANGULAR
        n_left, n_right, cutoff = max(1, len(left)), max(1, len(right)), len(right)
        check = None
        if node.predicates and not exact:
            check = self._check_for((), node.predicates)
        unchecked = check is None and shared == ()
        inputs = self.inputs
        score, row = self.query.ranking.score_composite, CompositeTuple._owned
        weight = self.query.ranking.weights.get
        theirs_of = [rc.components for rc in right]
        out = _Unbuilt(None) if deferred else []
        if deferred and left and right:
            # Nothing defers once an alias failed, so rows are uniform: per
            # alias only the right rows carry, its terms by right row.
            known = left[0].components.keys()
            terms = [
                [weight(a, 0.0) * theirs[a].score for theirs in theirs_of]
                for a in theirs_of[0]
                if a not in known
            ]
        pair_count = probed = 0
        every = repeat(range(len(right)))  # the nested loop probes them all
        for i, (lc, found) in enumerate(zip(left, candidates or every)):
            if triangular:  # the cutoff only falls as ``i`` grows
                cutoff = self._triangular_cutoff(i, n_left, n_right, cutoff)
            pair_count += cutoff
            if not found:
                continue
            mine = lc.components
            if unchecked:
                hits = found if found[-1] < cutoff else found[: bisect_left(found, cutoff)]
                probed += len(hits)
            else:
                hits = []
                for j in found:
                    if j >= cutoff:
                        break  # outside the "most promising" diagonal half
                    probed += 1
                    theirs = theirs_of[j]
                    agree = mine.keys() & theirs.keys() if shared is None else shared
                    if agree and any(mine[a] != theirs[a] for a in agree):
                        continue
                    if check is not None and not check({**mine, **theirs}, inputs):
                        continue
                    hits.append(j)
            if not hits:
                continue
            if not deferred:
                for j in hits:
                    components = {**mine, **theirs_of[j]}
                    out.append(row(components, score(components)))
                continue
            prefix = 0
            for a, tup in mine.items():
                prefix += weight(a, 0.0) * tup.score
            scores = [prefix] * len(hits)
            for column in terms:  # the fold, one new alias at a time
                scores = list(map(add, scores, map(column.__getitem__, hits)))
            out.scores.extend(scores)
            out.heads.extend([mine] * len(hits))
            out.tails.extend([theirs_of[j] for j in hits])
        self._pairs_probed += probed
        if not deferred:
            self._count_rows(node.node_id, len(out), len(out))
            out.sort(key=lambda c: -c.score)
        return out, pair_count

    def _equi_join_keys(
        self,
        node: ParallelJoinNode,
        left: list[CompositeTuple],
        right: list[CompositeTuple],
        shared: tuple[str, ...] | None,
    ) -> tuple[Callable, Callable, str] | str:
        """Key builders when this join is hash-indexable, else the reason
        it is not (``degraded``, ``empty_side``, ``no_predicates``,
        ``non_eq``, ``same_side``).

        Eligibility: every predicate is an EQ with one side per branch,
        both branches expose uniform component sets, and no branch is
        degraded (a missing component would make keys non-uniform).  A
        builder maps a side's rows to their **key vectors**: the
        shared-alias components (shared-alias agreement is equality, so
        equal keys subsume the agreement check) with the EQ attribute
        values from the row's own side.  When every path is atomic a row
        has one vector, built by column, and the builder returns ``(keys,
        exact)`` — ``exact``: no value is ``None`` or unequal to itself
        (NaN); otherwise ``(per row, its distinct vectors — one per joint
        choice of repeating-group members; None)``.  The third element
        names the kernel: ``hash``, ``hash_multikey``, or — no predicate,
        the shared components are the whole key — ``hash_shared``
        (``no_predicates``: nothing shared).  EQ compares with plain
        ``==``, and key equality over-approximates the predicate set
        where a value may be ``None`` (``None == None`` collides though SQL
        nulls never match) or members are chosen per side, not jointly
        with the other predicates' witnesses: see :meth:`_hash_candidates`.
        """
        if self.failed_aliases:
            return "degraded"
        if not left or not right:
            return "empty_side"
        if not node.predicates and not shared:
            return "no_predicates"
        if shared is None:
            return "degraded"
        left_aliases = left[0].components.keys()
        right_aliases = right[0].components.keys()
        left_refs = []
        right_refs = []
        for pred in node.predicates:
            if pred.comparator is not Comparator.EQ:
                return "non_eq"
            if pred.left.alias in left_aliases and pred.right.alias in right_aliases:
                lref, rref = pred.left, pred.right
            elif pred.right.alias in left_aliases and pred.left.alias in right_aliases:
                lref, rref = pred.right, pred.left
            else:
                return "same_side"
            left_refs.append(lref)
            right_refs.append(rref)

        def make_keys(refs):
            groups = sorted(
                {(ref.alias, ref.path.group) for ref in refs if ref.path.is_nested}
            )
            slots = {group: slot for slot, group in enumerate(groups)}
            terms = [
                (ref.alias, slots.get((ref.alias, ref.path.group), -1), ref.path.name)
                for ref in refs
            ]

            def by_column(rows: list[CompositeTuple]) -> tuple[list[tuple], bool]:
                every = [row.components for row in rows]
                agreed = [list(map(itemgetter(a), every)) for a in shared]
                values = [[c[a].values.get(n) for c in every] for a, _, n in terms]
                exact = all(None not in col and all(map(eq, col, col)) for col in values)
                # A hashed join has a predicate or a shared alias: never zip().
                return list(zip(*agreed, *values)), exact

            def vectors(components: Mapping[str, Any]) -> list[tuple]:
                agreed = tuple([components[a] for a in shared])
                members = [components[a].group_members(g) for a, g in groups]
                found = [
                    agreed
                    + tuple(
                        [
                            components[alias].values.get(name)
                            if slot < 0
                            else witnesses[slot].get(name)
                            for alias, slot, name in terms
                        ]
                    )
                    for witnesses in product(*members)
                ]
                # Distinct, so no right row enters one bucket twice.
                return found if len(found) < 2 else list(dict.fromkeys(found))

            if not groups:  # one vector, no witness product to walk
                return by_column
            return lambda rows: ([vectors(row.components) for row in rows], None)

        left_keys, right_keys = make_keys(left_refs), make_keys(right_refs)
        if any(ref.path.is_nested for ref in (*left_refs, *right_refs)):
            return left_keys, right_keys, "hash_multikey"
        return left_keys, right_keys, "hash" if node.predicates else "hash_shared"

    @staticmethod
    def _triangular_cutoff(i: int, n_left: int, n_right: int, limit: int) -> int:
        """First ``j`` outside the diagonal half for row ``i``, at most
        ``limit``: the previous row's cutoff makes the walk two-pointer.

        Steps down the exact float expression the nested loop evaluates —
        monotone in ``j`` and in ``i`` — so the admitted prefix is
        bit-for-bit the nested loop's.
        """
        a = i / n_left
        while limit and (a + (limit - 1) / n_right) >= 1.0:
            limit -= 1
        return limit

    @staticmethod
    def _merged(buckets: list[list[int] | None]) -> Sequence[int]:
        """Ascending distinct union of ascending ``j`` lists."""
        hits = [bucket for bucket in buckets if bucket]
        if len(hits) < 2:
            return hits[0] if hits else ()
        return sorted(set().union(*hits))

    def _hash_candidates(
        self,
        left: list[CompositeTuple],
        right: list[CompositeTuple],
        left_keys: Callable,
        right_keys: Callable,
    ) -> tuple[list[Sequence[int] | None], bool]:
        """Hash-indexed probe lists and whether the key is exact; raises
        ``TypeError`` on an unhashable key.

        Every right row is indexed under each of its key vectors, in
        ``j`` order; a left row's candidates are the rows sharing any of
        its vectors — one ``map(index.get, ...)`` over a side with one
        vector per row, a :meth:`_merged` union per row otherwise.

        **Exact**: both sides have one vector per row and neither has a
        ``None`` or NaN value.  A dict matches keys by identity, else
        ``==``; for a self-equal, non-``None`` value that is the lowered
        check's ``_equal``, term by term.  So every candidate of an exact
        ``hash`` join satisfies its predicates.
        """
        (right_vectors, right_exact), (left_vectors, left_exact) = (
            right_keys(right),
            left_keys(left),
        )
        index: dict[tuple, list[int]] = {}
        several = right_exact is None
        for j, vectors in enumerate(right_vectors if several else zip(right_vectors)):
            for key in vectors:
                index.setdefault(key, []).append(j)
        if left_exact is None:
            merged = self._merged
            return [merged([index.get(k) for k in keys]) for keys in left_vectors], False
        return list(map(index.get, left_vectors)), bool(left_exact and right_exact)

    def _check_for(
        self,
        selections: Sequence[SelectionPredicate],
        joins: Sequence[JoinPredicate],
    ) -> PredicateCheck:
        """``check(components, inputs)`` for one plan node's predicates.

        The lowered closure, built once per compiled query.  Once a
        branch has been abandoned under partial degradation composites
        may lack components, so the interpreted check restricted to the
        still-evaluable predicates takes over.
        """
        if self.failed_aliases:
            return lambda components, inputs: self._satisfies_evaluable(
                components, selections, joins
            )
        return self.query.predicate_check(selections, joins)

    def _filter(
        self,
        composites: list[CompositeTuple],
        selections: Sequence[SelectionPredicate],
        joins: Sequence[JoinPredicate],
    ) -> list[CompositeTuple]:
        check, inputs = self._check_for(selections, joins), self.inputs
        return [comp for comp in composites if check(comp.components, inputs)]

    def _satisfies_evaluable(
        self,
        components: Mapping[str, Any],
        selections: Sequence[SelectionPredicate],
        joins: Sequence[JoinPredicate],
    ) -> bool:
        """Joint-witness check restricted to evaluable predicates.

        The partial-degradation path: a composite may be missing failed
        aliases' components; predicates over an absent alias are not
        evaluable and are skipped — the surviving combination is
        best-effort by construction and flagged via ``failed_aliases``.
        """
        present = set(components)
        return satisfies(
            components,
            selections=[s for s in selections if s.attr.alias in present],
            joins=[
                j
                for j in joins
                if j.left.alias in present and j.right.alias in present
            ],
            inputs=self.inputs,
        )

    @cached_property
    def _staging(self) -> tuple[dict[str, tuple], tuple[str, tuple, tuple]]:
        """``(service alias -> the joins its node checks with its selections,
        the (label, selections, joins) left to the output node)``.

        A service node takes the joins between its alias and aliases
        upstream that no selection or join node checks — those a pipe
        binding realises — the moment they are evaluable (Section 3.2).
        Every node checks its subset under its own witnesses, so only what
        factorises out of the subsets is left (:meth:`CompiledQuery.final_predicates`);
        if a repeating-group occurrence then spans two subsets, which leaves
        the full check, nothing is staged and the joins stay residual.
        """
        plan, query = self.plan, self.query
        checked = [(sel.selections, sel.join_filters) for sel in plan.selection_nodes()]
        checked += [((), join.predicates) for join in plan.join_nodes()]
        placed = {join for _, joins in checked for join in joins}
        unplaced = [join for join in query.joins if join not in placed]
        reach: dict[str, frozenset[str]] = {}
        staged: dict[str, tuple] = {}
        for node_id in plan.topological_order():
            node = plan.nodes[node_id]
            aliases = frozenset().union(*[reach[p] for p in plan.parents(node_id)])
            if isinstance(node, ServiceNode):
                aliases |= {node.alias}
                mine = [j for j in unplaced if node.alias in j.aliases]
                staged[node.alias] = tuple(j for j in mine if j.aliases <= aliases)
            reach[node_id] = aliases

        def final(staged: dict[str, tuple]) -> tuple[str, tuple, tuple]:
            return query.final_predicates(
                (*checked, *[(query.selections_on(a), j) for a, j in staged.items()])
            )

        left = final(staged)
        if left[0].startswith("full"):
            staged = dict.fromkeys(staged, ())
            left = final(staged)
        return staged, left

    def _final_predicates(self) -> tuple[str, tuple, tuple]:
        """``(label, selections, joins)`` the output node checks on this run."""
        if not self.final_semantic_check:
            return "elided", (), ()
        if self.failed_aliases:
            # Rows skipped the nodes whose components they lack.
            return "full(degraded)", self.query.selections, self.query.joins
        return self._staging[1]

    def _finalise(self, upstream: "list[CompositeTuple] | _Unbuilt") -> ResultRows:
        self.final_check, selections, joins = self._final_predicates()
        if isinstance(upstream, _Unbuilt):
            # Ranked before built: the same stable descending sort, on the
            # scores the last node folded.
            scores = upstream.scores
            order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
            if self.k is not None:
                del order[self.k :]
            return ResultRows(source=(upstream, order))
        result = upstream
        if selections or joins:
            result = self._filter(result, selections, joins)
        score = self.query.ranking.score_composite
        # Rows a service node built reach here unscored.
        unscored = [row for row in result if row.score is None]
        for row in unscored:
            object.__setattr__(row, "score", score(row.components))
        self._count_rows(self.plan.output_node.node_id, 0, len(unscored))
        rows = sorted(result, key=lambda c: -c.score)
        if self.k is not None:
            del rows[self.k :]
        return ResultRows(rows)

    # -- measurement -------------------------------------------------------------------

    def _critical_path(
        self, stats: Mapping[str, NodeRunStats], first_call_only: bool = False
    ) -> float:
        """Measured critical path: busy time (execution time) or first-call
        latencies only (time to screen)."""
        finish: dict[str, float] = {}
        for node_id in self.plan.topological_order():
            parents = self.plan.parents(node_id)
            start = max((finish[p] for p in parents), default=0.0)
            node_stats = stats[node_id]
            step = (
                node_stats.first_call_latency
                if first_call_only
                else node_stats.busy_time
            )
            finish[node_id] = start + step
        return finish[self.plan.output_node.node_id]


def execute_plan(
    plan: QueryPlan,
    query: CompiledQuery,
    pool: "ServicePool",
    inputs: Mapping[str, Any],
    *args: Any,
    **options: Any,
) -> ExecutionResult:
    """Convenience wrapper: build a :class:`PlanExecutor` — ``fetches``,
    ``k`` and every keyword option are its constructor's — and run it."""
    return PlanExecutor(plan, query, pool, inputs, *args, **options).run()
