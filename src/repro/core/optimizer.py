"""The three-phase branch-and-bound query optimizer (Section 5, Fig. 8).

Given a compiled query, the optimizer explores "the combinatorial solution
space of all possible translations of the conjunctive query into fully
instantiated invocation schedules", organised in three phases:

1. **Access-pattern / interface selection** — choose a service interface
   per mart-level atom and an acyclic binding (provider per input
   attribute); unfeasible assignments are dead ends.
2. **Topology selection** — incremental DAG construction via
   :class:`~repro.core.topology.TopologyBuilder` moves (start / extend /
   merge), deduplicated by cost-relevant signature.
3. **Fetch counts** — starting from the all-ones vector ("the lowest
   admissible value ... as all services must contribute to the result"),
   increment fetch factors per the phase-3 heuristic until the estimated
   results reach ``k``.

All phases share one best-first branch-and-bound engine.  Lower bounds
come from the monotonic cost metric evaluated on the partial construction;
an optional greedy warm start (following the heuristics to one complete
plan) seeds the incumbent so pruning engages immediately.  The search is
anytime: an expansion budget returns the best incumbent found so far.

Hot-path memoization (see DESIGN.md, "Performance architecture"):

* every search state carries a canonical **signature**; the engine
  hash-conses states so equivalent constructions reached via different
  move orders are expanded once, and Pareto-dominated fetch states are
  dropped;
* each finished plan gets a **plan key** (one per plan object) under
  which annotations, full costs, and phase-3 proposals are memoized per
  ``(plan key, fetch vector)``; a separate **dedup key**, interned by
  ``(assignment, topology signature)``, scopes the engine's hash-consing
  — the two are deliberately distinct, because the signature conflates
  serial reorderings whose costs coincide but whose per-node annotations
  do not;
* a fetch state remembers its **parent's fetch vector**, so its
  annotations are derived from the parent's via
  :func:`~repro.core.annotate.annotate_delta` — only the services whose
  factor changed, plus their downstream cone, are recomputed;
* a phase-2 state is **priced before it is built**: its builder carries
  the ``fetches={}`` annotations and the partial cost incrementally
  (:class:`~repro.core.topology.TopologyBuilder`), so a child costs the
  one or two nodes its move adds; its leaves, topology signature and
  dedup key are put together only if the engine keeps it past its bound,
  and a :class:`~repro.plans.plan.QueryPlan` is only materialised for a
  finished topology the engine actually pops;
* the greedy warm start's expansions are the search's own: both start
  from one root object, and the search takes over the very children
  lists the dive computed instead of pricing those states again.

Tests hold the layers to three oracles: the from-scratch definitions
(``topology_signature``, ``annotate``, ``partial_cost``), the pinned
searches of ``tests/data/plan_cold_search.json`` and
:mod:`repro.baselines.exhaustive`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Hashable, Mapping

from repro.core.annotate import annotate, annotate_delta
from repro.core.bnb import BnBStats, BranchAndBound
from repro.core.cost import CostMetric, ExecutionTimeMetric
from repro.core.heuristics import (
    AnnotateFn,
    CostFn,
    BoundIsBetter,
    GreedyFetch,
    ParallelIsBetter,
    Phase1Heuristic,
    Phase2Heuristic,
    Phase3Heuristic,
)
from repro.core.topology import TopologyBuilder, TopologyCounters
from repro.errors import OptimizationError
from repro.obs.tracer import NullTracer, Tracer, coerce_tracer
from repro.joins.spec import JoinMethodSpec
from repro.model.service import ServiceInterface
from repro.plans.nodes import ServiceNode
from repro.plans.plan import PlanAnnotations, QueryPlan
from repro.query.compile import CompiledQuery
from repro.query.feasibility import (
    BindingChoice,
    check_feasibility,
    enumerate_binding_choices,
)
from repro.stats.estimate import Estimator

__all__ = [
    "PlanCandidate",
    "OptimizerConfig",
    "OptimizationOutcome",
    "Optimizer",
    "optimize_query",
    "plan_signature",
]


#: Entries kept in the per-optimizer annotation memo; beyond this the
#: least-recently-used annotations are evicted (they can be recomputed).
_ANN_CACHE_CAP = 8192

#: Safety bounds of the search: binding choices branched per interface
#: assignment, and fetch-factor increments along one phase-3 path.
BINDING_CHOICE_LIMIT = 64
MAX_PHASE3_DEPTH = 256


@dataclass(frozen=True)
class PlanCandidate:
    """One fully instantiated invocation schedule: plan + fetch factors."""

    plan: QueryPlan
    fetches: Mapping[str, float]
    annotations: PlanAnnotations
    cost: float
    estimated_results: float
    satisfies_k: bool
    assignment: Mapping[str, ServiceInterface] = field(default_factory=dict)
    #: The checkpoint witnesses of sessions on this plan, derived once per
    #: compiled query and metric (:mod:`repro.durability.checkpoint`).
    _witnesses: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def fetch_vector(self) -> dict[str, int]:
        return {alias: int(f) for alias, f in self.fetches.items()}

    def render(self) -> str:
        return self.plan.render(self.annotations)


@dataclass
class OptimizerConfig:
    """Tunable knobs of the optimizer (heuristics, metric, budgets)."""

    metric: CostMetric = field(default_factory=ExecutionTimeMetric)
    phase1: Phase1Heuristic = field(default_factory=BoundIsBetter)
    phase2: Phase2Heuristic = field(default_factory=ParallelIsBetter)
    phase3: Phase3Heuristic = field(default_factory=GreedyFetch)
    #: When True, merges additionally try the join methods suggested by
    #: the branches' scoring shapes (nested-loop for step services —
    #: Section 4.3's strategy-selection rule).
    auto_join_methods: bool = False
    k: int | None = None  # defaults to the query's k
    prune: bool = True  # disable for the E12 pruning ablation
    budget: int | None = None  # max expansions (anytime behaviour)
    warm_start: bool = True  # greedy heuristic dive seeds the incumbent

    def __post_init__(self) -> None:
        if self.k is not None and self.k < 1:
            raise OptimizationError(f"k must be None or >= 1, got {self.k}")
        if self.budget is not None and self.budget < 0:
            # 0 is legal: the warm start's plan, no search.
            raise OptimizationError(
                f"budget must be None or >= 0 expansions, got {self.budget}"
            )


@dataclass
class OptimizationOutcome:
    """Search result: the chosen candidate plus exploration accounting."""

    best: PlanCandidate | None
    stats: BnBStats
    incumbents: list[tuple[int, float, bool]]
    #: Phase-2 accounting of the whole optimization (warm start plus
    #: search; ``stats`` holds the search's own share).
    phase2: TopologyCounters = field(default_factory=TopologyCounters)

    @property
    def found(self) -> bool:
        return self.best is not None


# ----------------------------------------------------------------------------- #
# Search states
# ----------------------------------------------------------------------------- #


@dataclass(frozen=True)
class _AssignState:
    assignment: tuple[tuple[str, ServiceInterface], ...]
    next_index: int
    depth: int


class _Key:
    """A dedup signature whose (deep) tuple is hashed once."""

    __slots__ = ("key", "_hash")

    def __init__(self, key: tuple) -> None:
        self.key, self._hash = key, hash(key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Key) and self.key == other.key


@dataclass(slots=True, eq=False)
class _TopoState:
    builder: TopologyBuilder
    assignment: tuple[tuple[str, ServiceInterface], ...]
    depth: int
    #: ``tuple((alias, interface name))`` — computed once per lineage.
    assignment_key: tuple[tuple[str, str], ...]
    #: Index of the binding choice this lineage descends from.  Partial
    #: plans from different choices can look identical while their
    #: *completions* differ (unplaced aliases have different pipe
    #: dependencies), so the choice participates in the dedup signature.
    choice_index: int
    _signature: _Key | None = None

    @property
    def signature(self) -> _Key:
        """Engine dedup signature, put together and hashed on first read —
        which a state pruned on its bound never reaches."""
        if self._signature is None:
            builder = self.builder
            self._signature = _Key(
                ("topo", self.assignment_key, self.choice_index, builder.signature)
            )
        return self._signature


@dataclass(slots=True, eq=False)
class _FetchState:
    #: The sealed builder of the finished topology; its plan is built the
    #: first time the state is looked into (a state pruned or deduplicated
    #: on arrival never builds one).
    topology: TopologyBuilder
    assignment: tuple[tuple[str, ServiceInterface], ...]
    fetches: tuple[tuple[str, int], ...]
    depth: int
    #: Id of this *finished topology* (its index in the optimizer's list)
    #: — the memoization key prefix for annotations/costs/proposals.  Deliberately narrower than the
    #: topology signature: the signature conflates unpiped serial
    #: reorderings whose costs coincide but whose per-node annotations
    #: differ, so sharing cached ``by_node`` tables across it would
    #: corrupt incremental re-annotation.
    plan_key: int = -1
    #: Interned id of ``(assignment_key, topology_signature(plan))`` —
    #: the engine-level dedup scope (one representative per cost class).
    dedup_key: int = -1
    #: Fetch vector of the state this one was derived from; lets the
    #: annotator recompute only the changed cone (``annotate_delta``).
    parent_fetches: tuple[tuple[str, int], ...] | None = None
    signature: Hashable = None

    @property
    def plan(self) -> QueryPlan:
        return self.topology.plan


class Optimizer:
    """Three-phase branch-and-bound optimizer over one compiled query."""

    def __init__(
        self,
        query: CompiledQuery,
        config: OptimizerConfig | None = None,
        tracer: "Tracer | NullTracer | None" = None,
    ):
        self.query = query
        self.config = config or OptimizerConfig()
        #: Observability context; the search emits ``optimize.search`` /
        #: ``optimize.warm_start`` spans plus one ``bnb.expand`` span per
        #: node expansion.  ``None`` keeps the no-op fast path.
        self.tracer = coerce_tracer(tracer)
        self.k = self.config.k if self.config.k is not None else query.k
        self.estimator = Estimator(query)
        self._open_aliases = tuple(
            atom.alias for atom in query.atoms if atom.interface is None
        )
        # Every finished topology, indexed by plan key.
        self._finished: list[TopologyBuilder] = []
        #: Phase-2 accounting across every lineage of this optimizer.
        self.topology_counters = TopologyCounters()
        # Memoization layers.
        self._dedup_keys: dict[tuple, int] = {}
        self._ann_cache: OrderedDict[tuple, PlanAnnotations] = OrderedDict()
        self._cost_cache: dict[tuple, float] = {}
        self._proposal_cache: dict[tuple, list[dict[str, int]]] = {}
        # The warm start and the search start from this one object, and
        # the search takes over the children lists the dive computed:
        # ``id(state) -> (state, children)``, held until the search
        # expands the state.
        self._root = _AssignState(assignment=(), next_index=0, depth=0)
        self._dive_expansions: dict[int, tuple[object, list]] = {}

    # -- phase 1 ----------------------------------------------------------------

    def _candidates_for(self, alias: str) -> list[ServiceInterface]:
        mart = self.query.atom(alias).mart
        candidates = list(self.query.registry.interfaces_of(mart.name))
        return self.config.phase1.order_interfaces(alias, candidates)

    def _expand_assign(self, state: _AssignState) -> list:
        if state.next_index < len(self._open_aliases):
            alias = self._open_aliases[state.next_index]
            children = []
            for interface in self._candidates_for(alias):
                children.append(
                    _AssignState(
                        assignment=state.assignment + ((alias, interface),),
                        next_index=state.next_index + 1,
                        depth=state.depth + 1,
                    )
                )
            return children
        # Assignment complete: branch over acyclic binding choices.
        assignment = dict(state.assignment)
        if not check_feasibility(self.query, assignment).feasible:
            return []
        assignment_key = tuple(
            (alias, iface.name) for alias, iface in state.assignment
        )
        children = []
        for index, choice in enumerate(
            enumerate_binding_choices(
                self.query, assignment, limit=BINDING_CHOICE_LIMIT
            )
        ):
            builder = TopologyBuilder.initial(
                self.query,
                assignment,
                choice,
                metric=self.config.metric,
                estimator=self.estimator,
                counters=self.topology_counters,
            )
            children.append(
                _TopoState(
                    builder, state.assignment, state.depth + 1, assignment_key, index
                )
            )
        return children

    # -- phase 2 ----------------------------------------------------------------

    def _fetch_state(
        self,
        topology: TopologyBuilder,
        assignment: tuple[tuple[str, ServiceInterface], ...],
        plan_key: int,
        dedup_key: int,
        fetches: tuple[tuple[str, int], ...],
        parent_fetches: tuple[tuple[str, int], ...] | None,
        depth: int,
    ) -> _FetchState:
        return _FetchState(
            topology=topology,
            assignment=assignment,
            fetches=fetches,
            depth=depth,
            plan_key=plan_key,
            dedup_key=dedup_key,
            parent_fetches=parent_fetches,
            signature=("fetch", dedup_key, fetches),
        )

    def _intern_dedup_key(self, assignment_key: tuple, plan_sig: tuple) -> int:
        key = (assignment_key, plan_sig)
        dedup_key = self._dedup_keys.get(key)
        if dedup_key is None:
            dedup_key = len(self._dedup_keys)
            self._dedup_keys[key] = dedup_key
        return dedup_key

    def _expand_topology(self, state: _TopoState) -> list:
        children = []
        moves = self.config.phase2.order_moves(
            state.builder, state.builder.available_moves()
        )
        for move in moves:
            if move.kind == "merge":
                methods = [JoinMethodSpec()]
                if self.config.auto_join_methods:
                    methods.extend(self._suggested_methods(state.builder, move))
                    # Deduplicate while keeping order.
                    unique: list[JoinMethodSpec] = []
                    for method in methods:
                        if method not in unique:
                            unique.append(method)
                    methods = unique
                applied = [
                    state.builder.apply(replace(move, method=method))
                    for method in methods
                ]
            else:
                applied = [state.builder.apply(move)]
            for builder in applied:
                if builder.is_complete:
                    topology = builder.seal()
                    plan_key = len(self._finished)
                    self._finished.append(topology)
                    fetches = self._initial_fetches(topology)
                    full_cost = topology.bound
                    if full_cost is not None:
                        # All-ones fetches are what the builder annotated
                        # with: its running cost is this state's full cost.
                        self._cost_cache[(plan_key, fetches)] = full_cost
                    children.append(
                        self._fetch_state(
                            topology,
                            state.assignment,
                            plan_key,
                            self._intern_dedup_key(
                                state.assignment_key, topology.signature
                            ),
                            fetches,
                            None,
                            state.depth + 1,
                        )
                    )
                else:
                    children.append(
                        _TopoState(
                            builder,
                            state.assignment,
                            state.depth + 1,
                            state.assignment_key,
                            state.choice_index,
                        )
                    )
        return children

    def _suggested_methods(self, builder, move) -> list[JoinMethodSpec]:
        """Join methods suggested by the merged branches' scoring shapes."""
        from repro.core.heuristics import suggest_join_methods
        from repro.plans.nodes import ServiceNode

        leaves = builder.leaves()
        assert move.stream is not None and move.other is not None

        def terminal_interface(leaf_id: str):
            node_id = leaf_id
            while True:
                node = builder.plan.node(node_id)
                if isinstance(node, ServiceNode):
                    return node.interface
                parents = builder.plan.parents(node_id)
                if not parents:
                    return None
                node_id = parents[0]

        left = terminal_interface(leaves[move.stream])
        right = terminal_interface(leaves[move.other])
        if left is None or right is None:
            return []
        return suggest_join_methods(
            left.scoring, right.scoring, chunk_size_x=left.chunk_size
        )

    @staticmethod
    def _initial_fetches(
        topology: TopologyBuilder,
    ) -> tuple[tuple[str, int], ...]:
        return tuple(
            (node.alias, 1)
            for node in topology.nodes()
            if isinstance(node, ServiceNode)
            and node.interface is not None
            and node.interface.is_chunked
        )

    # -- phase 3 ----------------------------------------------------------------

    def _cached_annotations(
        self,
        plan: QueryPlan,
        plan_key: int,
        fetches: tuple[tuple[str, int], ...],
        parent: tuple[tuple[str, int], ...] | None = None,
    ) -> PlanAnnotations:
        """Memoized annotations, derived from the parent vector's when
        available (only the changed cone is recomputed)."""
        key = (plan_key, fetches)
        cached = self._ann_cache.get(key)
        if cached is not None:
            self._ann_cache.move_to_end(key)
            return cached
        base = self._ann_cache.get((plan_key, parent)) if parent is not None else None
        if base is not None:
            annotations = annotate_delta(
                plan,
                self.query,
                base,
                dict(parent),
                dict(fetches),
                estimator=self.estimator,
            )
        elif all(factor == 1 for _, factor in fetches):
            # All-ones fetches: what the builder annotated as it attached.
            annotations = self._finished[plan_key].annotations
        else:
            annotations = annotate(
                plan, self.query, fetches=dict(fetches), estimator=self.estimator
            )
        self._ann_cache[key] = annotations
        while len(self._ann_cache) > _ANN_CACHE_CAP:
            self._ann_cache.popitem(last=False)
        return annotations

    def _annotations(self, state: _FetchState) -> PlanAnnotations:
        return self._cached_annotations(
            state.plan, state.plan_key, state.fetches, state.parent_fetches
        )

    def _estimated_results(self, state: _FetchState) -> float:
        return self._annotations(state).estimated_results(state.plan)

    def _full_cost(self, state: _FetchState) -> float:
        """Memoized full-plan cost of a fetch state."""
        key = (state.plan_key, state.fetches)
        cost = self._cost_cache.get(key)
        if cost is None:
            cost = self.config.metric.cost(state.plan, self._annotations(state))
            self._cost_cache[key] = cost
        return cost

    def _annotate_fn_for(self, state: _FetchState) -> AnnotateFn:
        """The memoizing annotator threaded into phase-3 heuristics."""
        plan, plan_key = state.plan, state.plan_key

        def annotate_fn(
            fetches: Mapping[str, int],
            base: Mapping[str, int] | None = None,
        ) -> PlanAnnotations:
            vector = tuple(sorted((a, int(v)) for a, v in fetches.items()))
            parent = (
                tuple(sorted((a, int(v)) for a, v in base.items()))
                if base is not None
                else None
            )
            return self._cached_annotations(plan, plan_key, vector, parent)

        return annotate_fn

    def _cost_fn_for(self, state: _FetchState) -> CostFn:
        """Per-vector cost memo threaded into phase-3 heuristics; shares
        the cache that later prices the enqueued child states."""
        plan, plan_key = state.plan, state.plan_key
        metric = self.config.metric

        def cost_fn(fetches: Mapping[str, int], annotations) -> float:
            vector = tuple(sorted((a, int(v)) for a, v in fetches.items()))
            key = (plan_key, vector)
            cost = self._cost_cache.get(key)
            if cost is None:
                cost = metric.cost(plan, annotations)
                self._cost_cache[key] = cost
            return cost

        return cost_fn

    def _proposals(self, state: _FetchState) -> list[dict[str, int]]:
        """Phase-3 successor vectors, memoized per (plan, fetch vector)."""
        key = (state.plan_key, state.fetches)
        cached = self._proposal_cache.get(key)
        if cached is None:
            cached = self.config.phase3.propose(
                state.plan,
                self.query,
                dict(state.fetches),
                self.estimator,
                self.config.metric,
                self.k,
                annotate_fn=self._annotate_fn_for(state),
                cost_fn=self._cost_fn_for(state),
            )
            self._proposal_cache[key] = cached
        return cached

    def _expand_fetch(self, state: _FetchState) -> list:
        if self._estimated_results(state) >= self.k:
            return []  # leaf: handled by _is_leaf
        if state.depth >= MAX_PHASE3_DEPTH:
            return []
        return [
            self._fetch_state(
                state.topology,
                state.assignment,
                state.plan_key,
                state.dedup_key,
                tuple(sorted(vector.items())),
                state.fetches,
                state.depth + 1,
            )
            for vector in self._proposals(state)
        ]

    # -- B&B callbacks --------------------------------------------------------------

    def _expand(self, state) -> list:
        shared = self._dive_expansions.pop(id(state), None)
        if shared is not None:
            return shared[1]
        if isinstance(state, _AssignState):
            return self._expand_assign(state)
        if isinstance(state, _TopoState):
            return self._expand_topology(state)
        return self._expand_fetch(state)

    def _is_leaf(self, state) -> bool:
        if not isinstance(state, _FetchState):
            return False
        if self._estimated_results(state) >= self.k:
            return True
        if state.depth >= MAX_PHASE3_DEPTH:
            return True
        # Saturated: no proposal can move any factor.
        return not self._proposals(state)

    def _leaf_value(self, state: _FetchState):
        annotations = self._annotations(state)
        cost = self._full_cost(state)
        results = annotations.estimated_results(state.plan)
        candidate = PlanCandidate(
            plan=state.plan,
            fetches=dict(state.fetches),
            annotations=annotations,
            cost=cost,
            estimated_results=results,
            satisfies_k=results >= self.k,
            assignment=dict(state.assignment),
        )
        return cost, candidate, candidate.satisfies_k

    def _lower_bound(self, state) -> float:
        metric = self.config.metric
        if isinstance(state, _AssignState):
            fixed = [
                atom.interface
                for atom in self.query.atoms
                if atom.interface is not None
            ]
            chosen = [iface for _, iface in state.assignment]
            return metric.interfaces_lower_bound(fixed + chosen)
        if isinstance(state, _TopoState):
            return state.builder.bound
        return self._full_cost(state)

    def _signature(self, state) -> Hashable:
        return getattr(state, "signature", None)

    def _dominance(self, state):
        """Pareto key for fetch states: same plan, componentwise fetch
        vector (plus remaining phase-3 depth) — see DESIGN.md for the
        soundness argument."""
        if not isinstance(state, _FetchState):
            return None
        return (
            ("fetch-dom", state.plan_key),
            (float(state.depth), *(float(v) for _, v in state.fetches)),
        )

    @staticmethod
    def _depth(state) -> int:
        return state.depth

    @staticmethod
    def _phase_of(state) -> str:
        """Span label: which of the three phases a search state is in."""
        if isinstance(state, _AssignState):
            return "phase1:interfaces"
        if isinstance(state, _TopoState):
            return "phase2:topology"
        return "phase3:fetches"

    # -- entry points -----------------------------------------------------------------

    def greedy_candidate(self) -> PlanCandidate | None:
        """Follow the heuristics' first choice to one complete candidate.

        This is the pure-heuristic construction the chapter describes as
        "heuristics for choosing the branches so as to build efficient
        plans quickly"; its result seeds the branch-and-bound incumbent.
        """
        stack = [self._root]
        dive_seen: set[Hashable] = set()
        steps = 0
        while stack:
            steps += 1
            if steps > 10_000:  # pragma: no cover - defensive
                raise OptimizationError("greedy dive failed to terminate")
            state = stack.pop()
            if isinstance(state, _FetchState) and self._is_leaf(state):
                _, candidate, _ = self._leaf_value(state)
                return candidate
            children = self._expand(state)
            self._dive_expansions[id(state)] = (state, children)
            # The engine's hash-consing does not apply to this local
            # dive; an own seen-set keeps it from revisiting states.
            fresh = []
            for child in children:
                signature = getattr(child, "signature", None)
                if signature is not None:
                    if signature in dive_seen:
                        continue
                    dive_seen.add(signature)
                fresh.append(child)
            children = fresh
            # Depth-first along the heuristics' first choice, backtracking
            # out of dead ends (e.g. a fork whose merge is degenerate).
            stack.extend(reversed(children))
        return None

    def optimize(self) -> OptimizationOutcome:
        """Run the three-phase branch-and-bound search."""
        tracer = self.tracer
        engine = BranchAndBound(
            expand=self._expand,
            is_leaf=self._is_leaf,
            leaf_value=self._leaf_value,
            lower_bound=self._lower_bound,
            prune=self.config.prune,
            depth_of=self._depth,
            signature_of=self._signature,
            dominance_of=self._dominance if self.config.prune else None,
            tracer=tracer,
            describe=self._phase_of,
        )
        initial = None
        if self.config.warm_start:
            with tracer.span("optimize.warm_start") as warm_span:
                seed = self.greedy_candidate()
                if seed is not None:
                    initial = (seed.cost, seed, seed.satisfies_k)
                    warm_span.set("cost", seed.cost)
                    warm_span.set("satisfies_k", seed.satisfies_k)
        # The memoization caches survive the warm start on purpose: a
        # cached annotation is valid whoever asks for it.
        counters = self.topology_counters
        before = replace(counters)
        with tracer.span("optimize.search", k=self.k) as span:
            outcome = engine.run(
                self._root, budget=self.config.budget, initial=initial
            )
            stats = outcome.stats
            # The search's own share (the warm start priced children too).
            for name in ("children_priced", "children_built", "plans_materialised"):
                setattr(stats, name, getattr(counters, name) - getattr(before, name))
            for name in (
                "expanded",
                "pruned",
                "leaves",
                "deduped",
                "dominated",
                "children_priced",
                "children_built",
                "plans_materialised",
            ):
                span.set(name, getattr(stats, name))
            if outcome.payload is not None:
                span.set("best_cost", outcome.cost)
        return OptimizationOutcome(
            best=outcome.payload,
            stats=outcome.stats,
            incumbents=outcome.incumbents,
            phase2=replace(counters),
        )


def optimize_query(
    query: CompiledQuery, config: OptimizerConfig | None = None
) -> PlanCandidate:
    """Optimize and return the best candidate, raising when none exists."""
    outcome = Optimizer(query, config).optimize()
    if outcome.best is None:
        raise OptimizationError("no feasible plan found")
    return outcome.best


# ----------------------------------------------------------------------------- #
# Plan signatures (cross-request optimizer reuse)
# ----------------------------------------------------------------------------- #

#: Signature schema version; bump when the normalization rules change so
#: persisted/capped caches keyed on old signatures cannot alias new ones.
#: v2: a kernel slot joined the signature (a constant since the engine's
#: kernel knob was deleted; see :func:`_build_signature`).
_SIGNATURE_VERSION = 2


def _operand_signature(operand) -> tuple:
    """Canonical form of a selection operand.

    INPUT variables normalise to their *name only*: the chosen plan does
    not depend on the runtime binding (estimation uses domain statistics,
    not values), which is exactly what lets one cached plan serve every
    parameterization of a query template.  Literal constants stay in the
    signature (type-qualified), since two queries with different baked-in
    constants are different queries even if today's estimator prices them
    alike.
    """
    from repro.query.ast import InputRef

    if isinstance(operand, InputRef):
        return ("input", operand.name.upper())
    return ("const", type(operand).__qualname__, repr(operand))


def plan_signature(
    query: CompiledQuery,
    metric: "CostMetric | str | None" = None,
    k: int | None = None,
) -> tuple:
    """Canonical, hashable signature of a compiled query for plan caching.

    Two compiled queries with equal signatures are interchangeable for
    optimization: same atoms (alias → mart/interface), same predicate
    structure, same ranking weights, same ``k`` and the same cost metric.
    Alias *order* and join-side order are normalised away; INPUT bindings
    are deliberately excluded (see
    :func:`_operand_signature`).  The signature does **not** identify the
    registry — callers caching across registries must scope their keys by
    a registry identity of their own (the serving runtime keys by schema
    name).  Built once per ``(metric, k)`` and kept on the (immutable)
    compiled query.
    """
    metric_name = (
        metric
        if isinstance(metric, str)
        else type(metric).__name__
        if metric is not None
        else None
    )
    memo_key = (metric_name, k)
    signature = query._signatures.get(memo_key)
    if signature is None:
        signature = query._signatures[memo_key] = _build_signature(
            query, metric_name, query.k if k is None else k
        )
    return signature


def _build_signature(
    query: CompiledQuery, metric_name: str | None, k: int
) -> tuple:
    atoms = tuple(
        sorted(
            (
                atom.alias,
                atom.mart.name,
                atom.interface.name if atom.interface is not None else None,
            )
            for atom in query.atoms
        )
    )
    selections = tuple(
        sorted(
            (
                str(sel.attr),
                sel.comparator.value,
                _operand_signature(sel.operand),
            )
            for sel in query.selections
        )
    )

    def join_sides(join) -> tuple:
        left = (str(join.left), join.comparator.value, str(join.right))
        right = (str(join.right), join.comparator.flipped.value, str(join.left))
        return min(left, right)

    joins = tuple(
        sorted(
            (*join_sides(join), join.pattern, join.selectivity)
            for join in query.joins
        )
    )
    ranking = tuple(sorted(query.ranking.weights.items()))
    return (
        "plan-sig",
        _SIGNATURE_VERSION,
        metric_name,
        # The slot of the deleted engine-level ``join_kernel`` knob, kept as
        # the one value it ever resolved to: pinned digests hash this tuple.
        "binary",
        k,
        atoms,
        selections,
        joins,
        ranking,
    )
