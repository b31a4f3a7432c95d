"""Session management: liquid-query sessions behind the scheduler.

The :class:`SessionManager` is the bridge between serving requests and
the single-query machinery: for each ``run`` request it compiles the
template's query (memoised per query text), obtains a plan (through the
shared :class:`~repro.serve.plancache.PlanCache` when sharing is on,
else a fresh optimizer search), builds a **per-request**
:class:`~repro.services.simulated.ServicePool`, and opens a
:class:`~repro.engine.liquid.LiquidQuerySession`.  Follow-up requests
(``more`` / ``rerank`` / ``resubmit``) resolve their target's session
and flow through its step driver, so every service round trip a session
interaction issues is scheduled exactly like a fresh query's.

Each session's pool has its **own** virtual clock and call log: a
request's service time and round trips stay attributable to it, and
per-session results are exactly what a single-user run with the same
data seed would produce.  What *is* shared is the remote side — every
pool the manager builds (:meth:`SessionManager.open_pool`, for fresh and
restored sessions alike) is a view over the manager's one
:class:`~repro.services.simulated.SimulatedWorld` per schema — and, when
the manager is given a cross-query
:class:`~repro.engine.executor.InvocationCache`, the invocation memo.
Both are safe for one reason: the simulated substrate derives results,
latencies, and fault draws from ``(data seed, interface, bindings)``
alone, never from clock state or call order (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence

from repro.core.optimizer import Optimizer, OptimizerConfig
from repro.engine.executor import InvocationCache, InvocationCacheStats
from repro.engine.liquid import INTERACTIONS, LiquidQuerySession
from repro.engine.retry import Degradation, RetryPolicy
from repro.errors import CheckpointIntegrityError, ExecutionError, OptimizationError
from repro.model.registry import ServiceRegistry
from repro.model.tuples import CompositeTuple
from repro.query.compile import CompiledQuery, compile_query
from repro.query.parser import parse_query
from repro.serve.plancache import PlanCache
from repro.serve.workload import QueryTemplate, Request
from repro.services.simulated import (
    FaultModel,
    LatencyModel,
    ServicePool,
    SimulatedWorld,
    WorldStats,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.async_runner import AsyncExecutionContext

__all__ = ["SessionManager"]

#: The one optimizer posture a server plans with (the default search under
#: the execution-time metric); a checkpoint records its metric's name.
OPTIMIZER_CONFIG = OptimizerConfig()


@dataclass
class SessionManager:
    """Opens and resolves liquid-query sessions for serving requests.

    Parameters
    ----------
    templates:
        The workload's templates, by name (supplies query text, schema,
        and registry factory).
    data_seed:
        Global seed of every per-request service pool.  One seed for the
        whole server is what makes cross-query coalescing sound: two
        pools with the same seed are the *same* simulated world.
    plan_cache:
        Shared optimizer memo; ``None`` re-optimizes every request
        (isolated mode).
    invocation_cache:
        Shared cross-query invocation memo; ``None`` gives every
        execution its private memo (isolated mode).
    shard_caches / home_of:
        *Private-cache* mode: one invocation cache per shard, and the
        index of a request's home shard.  Each session executes against
        its home shard's cache; when set they take precedence over
        ``invocation_cache``.
    retry / degradation / fault_model:
        Fault-tolerance posture applied uniformly to every session.
    tracer:
        Optional engine-level tracer handed to every session's executor
        (node spans, ``service.invoke``, ``pool.wait``).  ``None`` keeps
        the no-op path — executors fall back to :data:`~repro.obs.tracer.NULL_TRACER`.
    """

    templates: Mapping[str, QueryTemplate]
    data_seed: int = 2009
    plan_cache: PlanCache | None = None
    invocation_cache: InvocationCache | None = None
    shard_caches: Sequence[InvocationCache] = ()
    home_of: "Callable[[Request], int] | None" = None
    retry: RetryPolicy | None = None
    degradation: Degradation | str = Degradation.FAIL
    fault_model: FaultModel = field(default_factory=FaultModel)
    tracer: Any = None
    _registries: dict[str, ServiceRegistry] = field(default_factory=dict)
    #: The simulated remote side, one per schema (over its memoised
    #: registry): the server's, not a session's — and not a client cache,
    #: so every cache mode shares it.
    _worlds: dict[str, SimulatedWorld] = field(default_factory=dict)
    _compiled: dict[str, CompiledQuery] = field(default_factory=dict)
    _sessions: dict[int, LiquidQuerySession] = field(default_factory=dict)
    _session_templates: dict[int, QueryTemplate] = field(default_factory=dict)

    # -- plumbing ------------------------------------------------------------

    def _template(self, name: str) -> QueryTemplate:
        template = self.templates.get(name)
        if template is None:
            raise ExecutionError(f"unknown template {name!r}")
        return template

    def _registry(self, template: QueryTemplate) -> ServiceRegistry:
        registry = self._registries.get(template.schema)
        if registry is None:
            registry = self._registries[template.schema] = (
                template.registry_factory()
            )
        return registry

    def _world(self, template: QueryTemplate) -> SimulatedWorld:
        world = self._worlds.get(template.schema)
        if world is None:
            world = self._worlds[template.schema] = SimulatedWorld(
                self._registry(template), self.data_seed
            )
        return world

    def open_pool(
        self,
        template: QueryTemplate,
        *,
        global_seed: int | None = None,
        latency_model: LatencyModel | None = None,
        fault_model: FaultModel | None = None,
    ) -> ServicePool:
        """A session's pool: its own clock and log over the schema's world.

        The one place pools are built — for a fresh ``run`` (the manager's
        posture, the defaults) and for a restored session (its
        checkpoint's).  A checkpoint from another data seed is refused as
        damaged here rather than read this server's world.
        """
        if global_seed is not None and global_seed != self.data_seed:
            raise CheckpointIntegrityError(
                f"session checkpoint's data_seed {global_seed!r} is not this "
                f"server's {self.data_seed}"
            )
        world = self._world(template)
        return ServicePool(
            world.registry,
            global_seed=self.data_seed,
            latency_model=LatencyModel() if latency_model is None else latency_model,
            fault_model=self.fault_model if fault_model is None else fault_model,
            world=world,
        )

    def world_stats(self) -> dict[str, int]:
        """The worlds' generation counters, summed (see :class:`WorldStats`)."""
        return WorldStats.total(
            world.stats.as_dict() for world in self._worlds.values()
        )

    def _compile(self, template: QueryTemplate) -> CompiledQuery:
        compiled = self._compiled.get(template.name)
        if compiled is None:
            compiled = self._compiled[template.name] = compile_query(
                parse_query(template.query_text), self._registry(template)
            )
        return compiled

    def _plan(self, template: QueryTemplate, compiled: CompiledQuery):
        if self.plan_cache is not None:
            return self.plan_cache.plan(template.schema, compiled, OPTIMIZER_CONFIG)
        outcome = Optimizer(compiled, OPTIMIZER_CONFIG).optimize()
        if outcome.best is None:
            raise OptimizationError("no feasible plan found")
        return outcome.best

    def cache_for(self, request: Request) -> InvocationCache | None:
        """The invocation cache ``request``'s session executes against."""
        if self.shard_caches:
            return self.shard_caches[self.home_of(request)]
        return self.invocation_cache

    def invocation_caches(self) -> list[InvocationCache]:
        """Every invocation cache the sessions execute against."""
        shared = [self.invocation_cache] if self.invocation_cache is not None else []
        return list(self.shard_caches) or shared

    def shard_cache_stats(self) -> list[InvocationCacheStats]:
        """Per shard, its own cache's counters or its view of the shared one."""
        views = getattr(self.invocation_cache, "shard_stats", ())
        return [cache.stats for cache in self.shard_caches] or list(views)

    def _executor_options(self, request: Request) -> dict[str, Any]:
        options: dict[str, Any] = {
            "retry": self.retry,
            "degradation": self.degradation,
        }
        cache = self.cache_for(request)
        if cache is not None:
            options["invocation_cache"] = cache
        if self.tracer is not None:
            options["tracer"] = self.tracer
        return options

    # -- request entry points ------------------------------------------------

    def open(self, request: Request) -> LiquidQuerySession:
        """Create (and register) the session for a ``run`` request."""
        template = self._template(request.template)
        compiled = self._compile(template)
        candidate = self._plan(template, compiled)
        session = LiquidQuerySession(
            candidate=candidate,
            query=compiled,
            pool=self.open_pool(template),
            inputs=dict(request.inputs or {}),
            executor_options=self._executor_options(request),
        )
        self._sessions[request.request_id] = session
        self._session_templates[request.request_id] = template
        return session

    def adopt(
        self,
        request_id: int,
        session: LiquidQuerySession,
        template: QueryTemplate,
    ) -> None:
        """Register an externally restored session under ``request_id``.

        The durability resume path rebuilds sessions from checkpoints and
        hands them back here so follow-up requests resolve their targets
        exactly as if the original ``run`` had executed in this process.
        """
        self._sessions[request_id] = session
        self._session_templates[request_id] = template

    def template_of(self, request_id: int) -> QueryTemplate:
        """The template whose ``run`` request opened this session."""
        template = self._session_templates.get(request_id)
        if template is None:
            raise ExecutionError(f"no session for request {request_id}")
        return template

    def session_for(self, request_id: int) -> LiquidQuerySession:
        session = self._sessions.get(request_id)
        if session is None:
            raise ExecutionError(f"no session for request {request_id}")
        return session

    def _interaction(
        self, request: Request, *kinds: str
    ) -> tuple[LiquidQuerySession, dict[str, Any]]:
        """The session ``request`` acts on and its interaction's arguments
        (``k`` plus the request field named after the body's mapping)."""
        if request.kind not in (kinds or INTERACTIONS):
            raise ExecutionError(
                f"cannot execute request kind {request.kind!r} here"
            )
        args: dict[str, Any] = {"k": request.k}
        if request.kind == "run":
            return self.open(request), args
        _, name = INTERACTIONS[request.kind]
        if name is not None:
            args[name] = dict(getattr(request, name) or {})
        return self.session_for(self._target_of(request)), args

    def stepper(self, request: Request) -> Iterator:
        """The step generator executing ``request`` (not for ``rerank``)."""
        session, args = self._interaction(request, "run", "more", "resubmit")
        return session.steps(request.kind, **args)

    async def perform_async(
        self, request: Request, context: AsyncExecutionContext
    ) -> list[CompositeTuple]:
        """Execute one request to completion on the asyncio backend.

        The coroutine counterpart of :meth:`stepper` + :meth:`rerank`:
        ``run`` opens a session, follow-ups resolve their target; service
        round trips overlap on the event loop instead of being stepped.
        ``context`` is the server's one wall-clock context: shared by every
        session, it makes the per-service connection pools a server-wide
        bound and coalesces identical invocations across queries.
        """
        session, args = self._interaction(request)
        return await session.perform_async(request.kind, context=context, **args)

    def rerank(self, request: Request) -> list[CompositeTuple]:
        """Apply a ``rerank`` follow-up — synchronous, no service calls."""
        session, args = self._interaction(request, "rerank")
        return session.perform("rerank", **args)

    def k_shortfall(self, request: Request, results: Sequence) -> int:
        """Rows a completed ``run`` came short of its ``k`` while a fetched list
        stopped at its fetch factor (the execution, at unbounded ``k``, says)."""
        session = self.session_for(request.request_id)
        if session._last is None or not session._last.k_shortfall:
            return 0
        return max(0, session._limit(request.k) - len(results))

    def pool_for(self, request: Request) -> ServicePool:
        """The service pool the request's round trips are logged to."""
        if request.kind == "run":
            return self.session_for(request.request_id).pool
        return self.session_for(self._target_of(request)).pool

    @staticmethod
    def _target_of(request: Request) -> int:
        if request.target is None:
            raise ExecutionError(
                f"{request.kind!r} request {request.request_id} names no target"
            )
        return request.target

    # -- accounting ----------------------------------------------------------

    def total_round_trips(self) -> int:
        """Service round trips across every distinct session pool."""
        pools = {id(s.pool): s.pool for s in self._sessions.values()}
        return sum(pool.log.total_calls() for pool in pools.values())
