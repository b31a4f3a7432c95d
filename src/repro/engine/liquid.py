"""Liquid-query sessions: the user interactions Section 3.2 describes.

"A user can either be satisfied with the first k answers, or ask for more
results of the same query, or change the choice of input keywords and
resubmit the same query, or turn to a different query...  Ranking
functions ... can also be altered dynamically through the query
interface."  (Details are deferred to the book's Chapter 13; this module
implements the interaction loop as an extension feature.)

A :class:`LiquidQuerySession` wraps an optimized plan and a service pool
and supports:

* :meth:`run` — execute and materialise the current result list;
* :meth:`more` — raise every fetch factor and re-execute, returning a
  strictly larger (or equal, when services are exhausted) result list;
  the session's pool keeps every result list it has started, so the
  re-invocations are served the very tuples already drawn (every round
  trip is still made and logged) and only the new chunks are generated;
* :meth:`rerank` — change the ranking-function weights *without* new
  service calls: cached combinations are re-scored and the best ``k``
  rebuilt;
* :meth:`resubmit` — change INPUT bindings and re-execute (fresh
  invocations, same plan);
* a running :attr:`total_calls` account across the whole interaction.

**One body, three drivers.**  Each interaction is written once, as a
generator that yields :data:`EXECUTE` where the plan must be
(re-)executed and returns the presented result list; :data:`INTERACTIONS`
is the one ``kind ->`` body table.  Three drivers fulfil the marker:
:meth:`LiquidQuerySession.perform` drains it, :meth:`~LiquidQuerySession.steps`
yields a :class:`~repro.engine.executor.StepEvent` before each service
round trip (what a serving scheduler interleaves with other in-flight
queries), :meth:`~LiquidQuerySession.perform_async` awaits it on a running
event loop — so the behaviour is byte-identical however a session is
driven.  The driver *is* the backend: ``perform`` and ``steps`` execute
on the virtual clock, ``perform_async`` on the asyncio backend under the
:class:`~repro.engine.async_runner.AsyncExecutionContext` its caller
brings; a session holds no backend of its own.  The verbs
:meth:`~LiquidQuerySession.run`, ``more``, ``rerank`` and ``resubmit``
name the synchronous driver's kinds; the other drivers take the kind as
their first argument.

``executor_options`` forwards extra keyword arguments to every
:class:`~repro.engine.executor.PlanExecutor` the session builds — the
hook for retry policies, degradation modes, a shared cross-query
invocation cache, or a tracer.

**Interaction journal.**  Every interaction (``run`` / ``more`` /
``rerank`` / ``resubmit``, on either backend) is recorded in an
append-only journal of ``{kind, args, steps, failed}`` entries, and the
interaction currently executing — if any — is exposed as
:attr:`inflight_interaction` with the number of step-generator yields it
has consumed so far.  Because the simulated substrate derives *all*
nondeterminism (data, latencies, fault draws, retry jitter) from seeds
and bindings, a fresh session replaying the journal reconstructs the
exact mid-plan state — chunk cursors, retry counters, virtual-clock
offset and all.  That replay is the durability subsystem's restore path
(:func:`repro.durability.checkpoint.restore_session`); :meth:`checkpoint`
is a thin wrapper over its writer.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.core.optimizer import PlanCandidate
from repro.engine.executor import ExecutionResult, PlanExecutor
from repro.errors import ExecutionError
from repro.model.tuples import CompositeTuple, RankingFunction
from repro.query.compile import CompiledQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.async_runner import AsyncExecutionContext

__all__ = ["BACKENDS", "EXECUTE", "GROWTH", "INTERACTIONS", "LiquidQuerySession"]

#: The execution backends a caller may select.  The asyncio one
#: (:mod:`repro.engine.async_runner`, which loads :mod:`asyncio`) is
#: imported on first use, so a virtual-backend process never loads it.
BACKENDS = ("virtual", "asyncio")

#: The multiplicative fetch-factor step of :meth:`LiquidQuerySession.more`
#: (a checkpoint records it, and a restore refuses any other value).
GROWTH = 2

#: What an interaction body yields to have the plan (re-)executed *now*;
#: the driver decides how (drain, step, await).
EXECUTE = object()


def _drain(stepper: Iterator):
    """Run a step generator to completion; return its result."""
    while True:
        try:
            next(stepper)
        except StopIteration as stop:
            return stop.value


@dataclass
class LiquidQuerySession:
    """Interactive result-list management over one optimized plan.

    Parameters
    ----------
    candidate:
        The optimizer's chosen plan (fetch vector included).
    query:
        The compiled query it implements.
    pool:
        Simulated-service pool; its seed fixes the session's data.
    inputs:
        Initial INPUT variable bindings.
    executor_options:
        Extra keyword arguments for every executor this session builds
        (``retry``, ``degradation``, ``invocation_cache``, ``tracer``,
        ``invocation_cache_size``).
    """

    candidate: PlanCandidate
    query: CompiledQuery
    pool: Any  # ServicePool (kept untyped to avoid an import cycle)
    inputs: dict[str, Any]
    executor_options: dict[str, Any] = field(default_factory=dict)
    _fetches: dict[str, int] = field(init=False)
    _ranking: RankingFunction = field(init=False)
    _last: ExecutionResult | None = field(init=False, default=None)
    _raw: list[CompositeTuple] = field(init=False, default_factory=list)
    _initial_inputs: dict[str, Any] = field(init=False)
    _journal: list[dict[str, Any]] = field(init=False, default_factory=list)
    _inflight: dict[str, Any] | None = field(init=False, default=None)
    #: Set by :func:`repro.durability.checkpoint.restore_session` when the
    #: checkpoint captured a mid-interaction stepper: the re-suspended
    #: generator, ready to be driven to completion.
    pending_stepper: Any = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        self._fetches = dict(self.candidate.fetch_vector())
        self._ranking = self.query.ranking
        self._initial_inputs = dict(self.inputs)

    # -- interaction journal --------------------------------------------------

    @contextmanager
    def _interaction(self, kind: str, k: int | None, arg: Mapping[str, Any]):
        """Start ``kind``'s body under the one journaling context.

        Yields ``(entry, body)``.  ``entry["steps"]`` counts the step
        yields already consumed, so a checkpoint taken while a stepper is
        suspended knows exactly how far to re-drive the interaction on
        restore.  A failing interaction is journaled with ``failed=True``
        (its replay raises the same error); an *abandoned* one (a closed
        stepper) is not journaled at all — it never completed and
        absorbed no results.
        """
        if kind not in INTERACTIONS:
            raise ExecutionError(f"unknown interaction kind {kind!r}")
        entry = {"kind": kind, **arg, "k": k, "steps": 0, "failed": False}
        self._inflight = entry
        try:
            yield entry, INTERACTIONS[kind][0](self, k, **arg)
        except GeneratorExit:
            self._inflight = None
            raise
        except BaseException:
            entry["failed"] = True
            self._inflight = None
            self._journal.append(entry)
            raise
        self._inflight = None
        self._journal.append(entry)

    @property
    def interaction_journal(self) -> tuple[dict[str, Any], ...]:
        """Completed interactions, oldest first (entries are copies)."""
        return tuple(dict(entry) for entry in self._journal)

    @property
    def inflight_interaction(self) -> dict[str, Any] | None:
        """The interaction currently executing, or ``None`` (a copy)."""
        return dict(self._inflight) if self._inflight is not None else None

    @property
    def initial_inputs(self) -> dict[str, Any]:
        """The INPUT bindings the session was constructed with."""
        return dict(self._initial_inputs)

    def checkpoint(
        self,
        *,
        schema: str,
        query_text: str,
        template: str | None = None,
        metric: str = "execution-time",
    ) -> dict:
        """Serialize this session's state as a versioned checkpoint payload.

        ``schema`` names the registry (resolvable via
        :data:`repro.durability.checkpoint.REGISTRY_FACTORIES`) and
        ``query_text`` is the original query string (a compiled query
        keeps no source text), so the restore path can rebuild pool and
        plan.  See :func:`repro.durability.checkpoint.checkpoint_session`.
        """
        from repro.durability.checkpoint import checkpoint_session

        return checkpoint_session(
            self,
            schema=schema,
            query_text=query_text,
            template=template,
            metric=metric,
        )

    # -- execution ------------------------------------------------------------

    def _make_executor(self, factory=PlanExecutor, **extra):
        """A ``factory`` executor over the session's current state."""
        executor = factory(
            plan=self.candidate.plan,
            query=self.query,
            pool=self.pool,
            inputs=self.inputs,
            fetches=self._fetches,
            k=None,
            **extra,
            **self.executor_options,
        )
        # Materialise the *raw* (untruncated) list so re-ranking and
        # "more" can reuse it; presentation applies k.
        executor.k = 10**9
        return executor

    def _absorb(self, result: ExecutionResult) -> ExecutionResult:
        # The executor's own list, not a copy: nothing here mutates it, it
        # carries its witness digest, and holding it is what keeps its
        # recording replayable (:class:`~repro.engine.executor.ResultRows`).
        self._raw = result.tuples
        self._last = result
        return result

    def execute_steps(self):
        """Step generator for one (re-)execution on the virtual clock;
        absorbs the result."""
        result = yield from self._make_executor().steps()
        return self._absorb(result)

    async def execute_async(self, context: AsyncExecutionContext) -> ExecutionResult:
        """Awaitable (re-)execution on the asyncio backend, under
        ``context``; absorbs the result."""
        from repro.engine.async_runner import AsyncPlanExecutor

        executor = self._make_executor(AsyncPlanExecutor, context=context)
        return self._absorb(await executor.execute())

    # -- drivers: who fulfils a body's EXECUTE --------------------------------

    def perform(self, kind: str, k: int | None = None, **arg):
        """Run one interaction to completion, synchronously."""
        return _drain(self.steps(kind, k, **arg))

    def steps(self, kind: str, k: int | None = None, **arg):
        """Step generator for one interaction on the virtual clock: yields
        before each service round trip, returns the result list."""
        with self._interaction(kind, k, arg) as (entry, body):
            try:
                while True:
                    next(body)
                    stepper = self.execute_steps()
                    try:
                        for event in stepper:
                            entry["steps"] += 1
                            yield event
                    finally:
                        stepper.close()
            except StopIteration as stop:
                return stop.value

    async def perform_async(
        self,
        kind: str,
        k: int | None = None,
        *,
        context: AsyncExecutionContext,
        **arg,
    ):
        """Run one interaction on a running event loop, its executions on
        the asyncio backend under ``context``."""
        with self._interaction(kind, k, arg) as (_, body):
            try:
                while True:
                    next(body)
                    await self.execute_async(context)
            except StopIteration as stop:
                return stop.value

    def _limit(self, k: int | None) -> int:
        """The presentation cut-off: ``k``, or the query's.  Never negative
        — as a slice bound that would drop rows from the wrong end."""
        limit = self.query.k if k is None else k
        if limit < 0:
            raise ExecutionError(f"k must be non-negative, got {limit}")
        return limit

    def _present(self, k: int | None) -> list[CompositeTuple]:
        """The best ``k`` rows of the raw list under the current ranking."""
        limit = self._limit(k)
        raw, score = self._raw, self._ranking.score_composite
        if self._ranking is self.query.ranking:
            # The executor scored every row with this very function, over
            # the same component order, and ``_finalise`` sorted stably:
            # the raw list is already the presentation order.  Only the
            # input node's empty composite — all that is left when every
            # service was abandoned — carries a literal score instead.
            return [
                c if c.components else CompositeTuple({}, score({}))
                for c in raw[:limit]
            ]
        # Re-ranked: score every row, build only the winners.  The sort
        # is stable, so ties stay in raw order.
        scores = [score(c.components) for c in raw]
        order = sorted(range(len(raw)), key=scores.__getitem__, reverse=True)
        return [CompositeTuple(raw[i].components, scores[i]) for i in order[:limit]]

    # -- interactions: each body once ------------------------------------------

    def _run_body(self, k: int | None):
        if self._last is None:
            yield EXECUTE
        return self._present(k)

    def _more_body(self, k: int | None):
        before = self._grow_fetches()
        yield EXECUTE
        return self._present_more(before, k)

    def _rerank_body(self, k: int | None, weights: Mapping[str, float]):
        for alias in weights:
            if alias not in self.query.aliases:
                raise ExecutionError(f"unknown alias {alias!r} in ranking weights")
        calls_before = self.pool.log.total_calls()
        self._ranking = RankingFunction(dict(weights))
        if self._last is None:
            yield EXECUTE
            calls_before = None  # first run necessarily calls services
        result = self._present(k)
        if calls_before is not None:
            assert self.pool.log.total_calls() == calls_before
        return result

    def _resubmit_body(self, k: int | None, inputs: Mapping[str, Any]):
        self._reset_inputs(inputs)
        yield EXECUTE
        return self._present(k)

    def _grow_fetches(self) -> int:
        """Grow every fetch factor; returns the pre-growth result count."""
        self._fetches = {
            alias: factor * GROWTH for alias, factor in self._fetches.items()
        }
        return len(self._raw)

    def _present_more(self, before: int, k: int | None) -> list[CompositeTuple]:
        if len(self._raw) < before:  # pragma: no cover - defensive
            raise ExecutionError("result list shrank while fetching more")
        limit = self._limit(k)
        return self._present(max(limit, before + 1) if self._raw else limit)

    # -- verbs: the synchronous driver's kinds ----------------------------------

    def run(self, k: int | None = None) -> list[CompositeTuple]:
        """Execute (or re-present) the current query; returns the top-k."""
        return self.perform("run", k)

    def more(self, k: int | None = None) -> list[CompositeTuple]:
        """Ask for more results: grow every fetch factor and re-execute.

        "A plan execution can be continued, after an explicit user
        request, thereby producing more tuples."
        """
        return self.perform("more", k)

    def rerank(
        self, weights: Mapping[str, float], k: int | None = None
    ) -> list[CompositeTuple]:
        """Alter the ranking function dynamically — no new service calls.

        "Ranking functions may be ... altered dynamically through the
        query interface, yielding to changes in the query execution
        strategy.  Only ranking functions defined at query definition
        time can be used for query optimization" — so the plan is kept
        and only presentation changes.
        """
        return self.perform("rerank", k, weights=dict(weights))

    def resubmit(
        self, inputs: Mapping[str, Any], k: int | None = None
    ) -> list[CompositeTuple]:
        """Change the INPUT keywords and re-execute the same plan."""
        return self.perform("resubmit", k, inputs=dict(inputs))

    def _reset_inputs(self, inputs: Mapping[str, Any]) -> None:
        self.inputs = dict(inputs)
        self._fetches = dict(self.candidate.fetch_vector())

    # -- accounting -------------------------------------------------------------------

    @property
    def total_calls(self) -> int:
        """Service calls issued across the whole interaction so far."""
        return self.pool.log.total_calls()

    @property
    def fetch_factors(self) -> dict[str, int]:
        return dict(self._fetches)

    @property
    def result_count(self) -> int:
        return len(self._raw)


#: kind -> (interaction body, its mapping argument): the one table the
#: session's drivers, the serving layer
#: (:class:`repro.serve.sessions.SessionManager`) and checkpoint replay
#: (:mod:`repro.durability.checkpoint`) dispatch through.  A body takes
#: ``k`` plus, for ``rerank`` / ``resubmit``, one mapping — named like the
#: request field and the journal key that carry it.
INTERACTIONS = {
    "run": (LiquidQuerySession._run_body, None),
    "more": (LiquidQuerySession._more_body, None),
    "rerank": (LiquidQuerySession._rerank_body, "weights"),
    "resubmit": (LiquidQuerySession._resubmit_body, "inputs"),
}
