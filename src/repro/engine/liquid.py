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

Every call-issuing interaction also has a **step-generator twin**
(:meth:`run_steps`, :meth:`more_steps`, :meth:`resubmit_steps`) built on
:meth:`~repro.engine.executor.PlanExecutor.steps`: the generator yields a
:class:`~repro.engine.executor.StepEvent` before each service round trip
and returns the presented result list.  The synchronous methods simply
drain their twin, so a serving scheduler (:mod:`repro.serve`) can
interleave session interactions with other in-flight queries while the
interactive behaviour stays byte-identical.

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
(:mod:`repro.durability.checkpoint`); :meth:`checkpoint` and
:meth:`restore` are thin wrappers over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.core.optimizer import PlanCandidate
from repro.engine.async_runner import (
    BACKENDS,
    AsyncExecutionContext,
    AsyncPlanExecutor,
)
from repro.engine.executor import ExecutionResult, PlanExecutor
from repro.errors import ExecutionError
from repro.model.tuples import CompositeTuple, RankingFunction
from repro.query.compile import CompiledQuery

__all__ = ["LiquidQuerySession"]


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
    growth:
        Multiplicative fetch-factor step used by :meth:`more`.
    executor_options:
        Extra keyword arguments for every executor this session builds
        (``retry``, ``degradation``, ``invocation_cache``, ``tracer``,
        ``invocation_cache_size``).
    backend:
        ``"virtual"`` (default) executes on the discrete-event simulator
        — deterministic, step-resumable, the oracle.  ``"asyncio"`` runs
        the same plan with genuinely concurrent service calls; results
        are digest-identical (see :mod:`repro.engine.async_runner`), but
        the step-generator twins are unavailable — concurrency replaces
        cooperative stepping.
    async_context:
        Wall-clock knobs (and shared connection pools / single-flight
        state) for the asyncio backend; a private default-configured
        context is built when omitted.
    """

    candidate: PlanCandidate
    query: CompiledQuery
    pool: Any  # ServicePool (kept untyped to avoid an import cycle)
    inputs: dict[str, Any]
    growth: int = 2
    executor_options: dict[str, Any] = field(default_factory=dict)
    backend: str = "virtual"
    async_context: AsyncExecutionContext | None = None
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
        if self.growth < 2:
            raise ExecutionError("growth must be at least 2")
        if self.backend not in BACKENDS:
            raise ExecutionError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.backend == "asyncio" and self.async_context is None:
            self.async_context = AsyncExecutionContext()
        self._fetches = dict(self.candidate.fetch_vector())
        self._ranking = self.query.ranking
        self._initial_inputs = dict(self.inputs)

    # -- interaction journal --------------------------------------------------

    def _journaled_steps(self, entry: dict[str, Any], gen):
        """Wrap an interaction's step generator with journal bookkeeping.

        ``entry["steps"]`` counts the yields already consumed, so a
        checkpoint taken while the wrapper is suspended knows exactly how
        far to re-drive the interaction on restore.  A failing
        interaction is journaled with ``failed=True`` (its replay raises
        the same error); an *abandoned* one (``close()``) is not
        journaled at all — it never completed and absorbed no results.
        """
        entry.setdefault("steps", 0)
        entry["failed"] = False
        self._inflight = entry
        while True:
            try:
                step = next(gen)
            except StopIteration as stop:
                self._inflight = None
                self._journal.append(entry)
                return stop.value
            except BaseException:
                entry["failed"] = True
                self._inflight = None
                self._journal.append(entry)
                raise
            entry["steps"] += 1
            try:
                yield step
            except GeneratorExit:
                self._inflight = None
                gen.close()
                raise

    def _journaled_call(self, entry: dict[str, Any], fn):
        """Journal a non-stepping interaction (asyncio execute, rerank)."""
        entry["steps"] = 0
        entry["failed"] = False
        self._inflight = entry
        try:
            result = fn()
        except BaseException:
            entry["failed"] = True
            self._inflight = None
            self._journal.append(entry)
            raise
        self._inflight = None
        self._journal.append(entry)
        return result

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

    @classmethod
    def restore(cls, payload: dict, **options) -> "LiquidQuerySession":
        """Rebuild a session from a checkpoint payload by journal replay.

        Returns the restored session; a mid-interaction stepper — when
        the checkpoint captured one — is re-suspended at the same step
        and available as ``restored.pending_stepper`` (see
        :func:`repro.durability.checkpoint.restore_session`).
        """
        from repro.durability.checkpoint import restore_session

        return restore_session(payload, **options)

    # -- execution ------------------------------------------------------------

    def _options_with_kernel(self) -> dict[str, Any]:
        """Executor options, defaulting the join kernel from the plan.

        The optimizer resolved ``join_kernel`` per candidate (an
        ``auto`` request became concrete at plan time); an explicit
        option still wins so tests and ad-hoc callers can override.
        """
        options = dict(self.executor_options)
        options.setdefault(
            "join_kernel", getattr(self.candidate, "join_kernel", "binary")
        )
        return options

    def _make_executor(self) -> PlanExecutor:
        executor = PlanExecutor(
            plan=self.candidate.plan,
            query=self.query,
            pool=self.pool,
            inputs=self.inputs,
            fetches=self._fetches,
            k=None,
            **self._options_with_kernel(),
        )
        # Materialise the *raw* (untruncated) list so re-ranking and
        # "more" can reuse it; presentation applies k.
        executor.k = 10**9
        return executor

    def _make_async_executor(self) -> AsyncPlanExecutor:
        executor = AsyncPlanExecutor(
            plan=self.candidate.plan,
            query=self.query,
            pool=self.pool,
            inputs=self.inputs,
            fetches=self._fetches,
            k=None,
            context=self.async_context,
            **self._options_with_kernel(),
        )
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
        """Step generator for one (re-)execution; absorbs the result.

        Virtual backend only: stepping pauses a query between round
        trips, which is meaningless once round trips genuinely overlap.
        """
        if self.backend != "virtual":
            raise ExecutionError(
                "step generators require the virtual backend; the "
                "asyncio backend interleaves via the event loop instead"
            )
        result = yield from self._make_executor().steps()
        return self._absorb(result)

    async def execute_async(self) -> ExecutionResult:
        """Awaitable (re-)execution on the asyncio backend; absorbs the
        result.  Usable from a running event loop regardless of the
        session's default ``backend``."""
        return self._absorb(await self._make_async_executor().execute())

    def _execute(self) -> ExecutionResult:
        if self.backend == "asyncio":
            return self._absorb(self._make_async_executor().run())
        return _drain(self.execute_steps())

    async def _journaled_await(self, entry: dict[str, Any], thunk):
        """Async twin of :meth:`_journaled_call` (``thunk`` is awaited)."""
        entry["steps"] = 0
        entry["failed"] = False
        self._inflight = entry
        try:
            result = await thunk()
        except BaseException:
            entry["failed"] = True
            self._inflight = None
            self._journal.append(entry)
            raise
        self._inflight = None
        self._journal.append(entry)
        return result

    def run(self, k: int | None = None) -> list[CompositeTuple]:
        """Execute (or re-present) the current query; returns the top-k."""
        if self.backend == "asyncio":

            def go() -> list[CompositeTuple]:
                if self._last is None:
                    self._execute()
                return self._present(k)

            return self._journaled_call({"kind": "run", "k": k}, go)
        return _drain(self.run_steps(k))

    def run_steps(self, k: int | None = None):
        """Step-generator twin of :meth:`run` (virtual backend only)."""
        return self._journaled_steps({"kind": "run", "k": k}, self._run_steps_impl(k))

    def _run_steps_impl(self, k: int | None):
        if self._last is None:
            yield from self.execute_steps()
        return self._present(k)

    async def run_async(self, k: int | None = None) -> list[CompositeTuple]:
        """Awaitable twin of :meth:`run` for a running event loop."""

        async def go() -> list[CompositeTuple]:
            if self._last is None:
                await self.execute_async()
            return self._present(k)

        return await self._journaled_await({"kind": "run", "k": k}, go)

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

    # -- interactions --------------------------------------------------------------

    def more(self, k: int | None = None) -> list[CompositeTuple]:
        """Ask for more results: grow every fetch factor and re-execute.

        "A plan execution can be continued, after an explicit user
        request, thereby producing more tuples."
        """
        if self.backend == "asyncio":

            def go() -> list[CompositeTuple]:
                before = self._grow_fetches()
                self._execute()
                return self._present_more(before, k)

            return self._journaled_call({"kind": "more", "k": k}, go)
        return _drain(self.more_steps(k))

    def more_steps(self, k: int | None = None):
        """Step-generator twin of :meth:`more` (virtual backend only)."""
        return self._journaled_steps(
            {"kind": "more", "k": k}, self._more_steps_impl(k)
        )

    def _more_steps_impl(self, k: int | None):
        before = self._grow_fetches()
        yield from self.execute_steps()
        return self._present_more(before, k)

    async def more_async(self, k: int | None = None) -> list[CompositeTuple]:
        """Awaitable twin of :meth:`more` for a running event loop."""

        async def go() -> list[CompositeTuple]:
            before = self._grow_fetches()
            await self.execute_async()
            return self._present_more(before, k)

        return await self._journaled_await({"kind": "more", "k": k}, go)

    def _grow_fetches(self) -> int:
        """Grow every fetch factor; returns the pre-growth result count."""
        self._fetches = {
            alias: factor * self.growth for alias, factor in self._fetches.items()
        }
        return len(self._raw)

    def _present_more(self, before: int, k: int | None) -> list[CompositeTuple]:
        if len(self._raw) < before:  # pragma: no cover - defensive
            raise ExecutionError("result list shrank while fetching more")
        limit = self._limit(k)
        return self._present(max(limit, before + 1) if self._raw else limit)

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
        for alias in weights:
            if alias not in self.query.aliases:
                raise ExecutionError(f"unknown alias {alias!r} in ranking weights")

        def go() -> list[CompositeTuple]:
            calls_before = self.pool.log.total_calls()
            self._ranking = RankingFunction(dict(weights))
            if self._last is None:
                self._execute()
                calls_before = None  # first run necessarily calls services
            result = self._present(k)
            if calls_before is not None:
                assert self.pool.log.total_calls() == calls_before
            return result

        return self._journaled_call(
            {"kind": "rerank", "weights": dict(weights), "k": k}, go
        )

    def resubmit(
        self, inputs: Mapping[str, Any], k: int | None = None
    ) -> list[CompositeTuple]:
        """Change the INPUT keywords and re-execute the same plan."""
        if self.backend == "asyncio":

            def go() -> list[CompositeTuple]:
                self._reset_inputs(inputs)
                self._execute()
                return self._present(k)

            return self._journaled_call(
                {"kind": "resubmit", "inputs": dict(inputs), "k": k}, go
            )
        return _drain(self.resubmit_steps(inputs, k))

    def resubmit_steps(self, inputs: Mapping[str, Any], k: int | None = None):
        """Step-generator twin of :meth:`resubmit` (virtual backend only)."""
        return self._journaled_steps(
            {"kind": "resubmit", "inputs": dict(inputs), "k": k},
            self._resubmit_steps_impl(inputs, k),
        )

    def _resubmit_steps_impl(self, inputs: Mapping[str, Any], k: int | None):
        self._reset_inputs(inputs)
        yield from self.execute_steps()
        return self._present(k)

    async def resubmit_async(
        self, inputs: Mapping[str, Any], k: int | None = None
    ) -> list[CompositeTuple]:
        """Awaitable twin of :meth:`resubmit` for a running event loop."""

        async def go() -> list[CompositeTuple]:
            self._reset_inputs(inputs)
            await self.execute_async()
            return self._present(k)

        return await self._journaled_await(
            {"kind": "resubmit", "inputs": dict(inputs), "k": k}, go
        )

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
