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
  which one phase-3 memo prices each sorted fetch vector once —
  annotations, estimated results and cost together — and proposals are
  memoized per ``(plan key, fetch vector)``; a separate **dedup key**, interned by
  ``(assignment, topology signature)``, scopes the engine's hash-consing
  — the two are deliberately distinct, because the signature conflates
  serial reorderings whose costs coincide but whose per-node annotations
  do not;
* a fetch state remembers its **parent's fetch vector**, so its
  annotations are derived from the parent's (always priced first) via
  :func:`~repro.core.annotate.annotate_delta` — only the services whose
  factor changed, plus their downstream cone, are recomputed;
* a phase-2 state is **priced before it is built**: its builder carries
  the ``fetches={}`` annotations and the partial cost incrementally
  (:class:`~repro.core.topology.TopologyBuilder`), so a child costs the
  one or two nodes its move adds; its leaves, topology signature and
  dedup key are put together only if the engine keeps it past its bound,
  and a :class:`~repro.plans.plan.QueryPlan` is only materialised for a
  finished topology the engine actually pops;
* a phase-2 **move is bounded before its child exists**: the engine
  hands ``expand`` the incumbent's cost, and a move whose
  :meth:`~repro.core.topology.TopologyBuilder.move_bound` (a lower bound
  on its child's) reaches it is dropped unbuilt — the same search, fewer
  children priced (DESIGN.md, "Bounded → priced → built");
* the greedy warm start's expansions are the search's own: both start
  from one root object, and the search takes over the very children
  lists the dive computed instead of pricing those states again;
* the chosen candidate carries its **trail** (the binding-choice index
  and the phase-2 moves), which :func:`rebuild_candidate` replays to
  build the same plan again without a search — how a checkpoint names
  its plan.

Tests hold the layers to three oracles: the from-scratch definitions
(``topology_signature``, ``annotate``, ``partial_cost``), the pinned
searches of ``tests/data/plan_cold_search.json`` and
:mod:`repro.baselines.exhaustive`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import partial
from math import inf
from typing import Hashable, Mapping, Sequence

from repro.core.annotate import annotate, annotate_delta
from repro.core.bnb import BnBStats, BranchAndBound
from repro.core.cost import CostMetric, ExecutionTimeMetric
from repro.core.heuristics import (
    BoundIsBetter,
    GreedyFetch,
    ParallelIsBetter,
    Phase1Heuristic,
    Phase2Heuristic,
    Phase3Heuristic,
)
from repro.core.topology import Move, TopologyBuilder, TopologyCounters
from repro.errors import OptimizationError
from repro.obs.tracer import NullTracer, Tracer, coerce_tracer
from repro.joins.spec import JoinMethodSpec
from repro.model.service import ServiceInterface
from repro.plans.nodes import ServiceNode
from repro.plans.plan import PlanAnnotations, QueryPlan
from repro.query.compile import CompiledQuery
from repro.query.feasibility import (
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
    "rebuild_candidate",
]


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
    #: How the search built the plan — ``(binding-choice index, moves)``;
    #: with :attr:`assignment` what :func:`rebuild_candidate` builds it
    #: again from (``None``: the plan came from no search).
    trail: "tuple[int, tuple[Move, ...]] | None" = field(
        default=None, compare=False, repr=False
    )
    #: The checkpoint witnesses of sessions on this plan, derived once per
    #: compiled query and metric, and its ``plan`` member, rendered once
    #: (:mod:`repro.durability.checkpoint`).
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
    #: Index of the binding choice the topology was built on.
    choice_index: int
    #: The fetch vector as the engine's signature and dominance read it:
    #: in node order for a topology's first state, sorted after that.
    fetches: tuple[tuple[str, int], ...]
    #: The same vector sorted — the state's key in the phase-3 memo.
    vector: tuple[tuple[str, int], ...]
    depth: int
    #: Id of this *finished topology* (its index in the optimizer's list)
    #: — the memo key prefix for prices and proposals.  Deliberately
    #: narrower than the topology signature: the signature conflates
    #: unpiped serial reorderings whose costs coincide but whose per-node
    #: annotations differ, so sharing cached ``by_node`` tables across it
    #: would corrupt incremental re-annotation.
    plan_key: int
    #: Interned id of ``(assignment_key, topology_signature(plan))`` —
    #: the engine-level dedup scope (one representative per cost class).
    dedup_key: int
    #: Sorted vector of the state this one was derived from (``None``: the
    #: topology's all-ones state); its annotations are the delta's base.
    parent: tuple[tuple[str, int], ...] | None
    signature: Hashable

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
        #: ``(plan key, sorted fetch vector) -> (annotations, estimated
        #: results, cost)``: each vector of each topology priced once.
        self._priced: dict[tuple, tuple[PlanAnnotations, float, float]] = {}
        #: Output node id per plan key, read when phase 3 first prices it.
        self._outputs: dict[int, str] = {}
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

    def _intern_dedup_key(self, assignment_key: tuple, plan_sig: tuple) -> int:
        key = (assignment_key, plan_sig)
        dedup_key = self._dedup_keys.get(key)
        if dedup_key is None:
            dedup_key = len(self._dedup_keys)
            self._dedup_keys[key] = dedup_key
        return dedup_key

    def _expand_topology(
        self, state: _TopoState, cutoff: float = inf
    ) -> tuple[list, int]:
        """``(children, bounded)``: the children of the moves whose bound
        stays below ``cutoff``, in the heuristic's (stable) order, and how
        many moves were dropped unbuilt."""
        builder = state.builder
        moves = builder.available_moves()
        total = len(moves)
        if cutoff < inf:
            moves = [
                move
                for move in moves
                if (bound := builder.move_bound(move)) is None or bound < cutoff
            ]
        children = []
        moves = self.config.phase2.order_moves(builder, moves)
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
                    dedup_key = self._intern_dedup_key(
                        state.assignment_key, topology.signature
                    )
                    children.append(
                        _FetchState(
                            topology, state.assignment, state.choice_index,
                            fetches, tuple(sorted(fetches)), state.depth + 1,
                            plan_key, dedup_key, None,
                            ("fetch", dedup_key, fetches),
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
        return children, total - len(moves)

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

    def _price(
        self,
        plan_key: int,
        vector: tuple[tuple[str, int], ...],
        parent: tuple[tuple[str, int], ...] | None,
    ) -> tuple[PlanAnnotations, float, float]:
        """``(annotations, estimated results, cost)`` of finished topology
        ``plan_key`` under the sorted fetch ``vector``, priced once per
        search: derived from the (already priced) ``parent`` vector's
        annotations with :func:`~repro.core.annotate.annotate_delta`, or,
        without a parent, the all-ones pricing the builder carried."""
        key = (plan_key, vector)
        priced = self._priced.get(key)
        if priced is None:
            topology = self._finished[plan_key]
            plan = topology.plan
            if parent is None:
                annotations, cost = topology.annotations, topology.bound
            else:
                annotations = annotate_delta(
                    plan,
                    self.query,
                    self._priced[(plan_key, parent)][0],
                    dict(parent),
                    dict(vector),
                    estimator=self.estimator,
                )
                cost = self.config.metric.cost(plan, annotations)
            output = self._outputs.get(plan_key)
            if output is None:
                output = self._outputs[plan_key] = plan.output_node.node_id
            priced = (annotations, annotations.by_node[output].tout, cost)
            self._priced[key] = priced
        return priced

    def _priced_state(
        self, state: _FetchState
    ) -> tuple[PlanAnnotations, float, float]:
        return self._price(state.plan_key, state.vector, state.parent)

    def _proposals(self, state: _FetchState) -> list[dict[str, int]]:
        """Phase-3 successor vectors, memoized per (plan, fetch vector)."""
        key = (state.plan_key, state.vector)
        cached = self._proposal_cache.get(key)
        if cached is None:
            cached = self._proposal_cache[key] = self.config.phase3.propose(
                state.plan,
                self.query,
                dict(state.fetches),
                self.estimator,
                self.config.metric,
                self.k,
                price=partial(self._price_from, state),
            )
        return cached

    def _price_from(
        self, state: _FetchState, fetches: Mapping[str, int]
    ) -> tuple[float, float]:
        """``(estimated results, cost)`` of ``state``'s plan under
        ``fetches``, derived from ``state``'s own pricing."""
        vector = tuple(sorted(fetches.items()))
        return self._price(state.plan_key, vector, state.vector)[1:]

    def _expand_fetch(self, state: _FetchState) -> list:
        if self._priced_state(state)[1] >= self.k:
            return []  # leaf: handled by _is_leaf
        if state.depth >= MAX_PHASE3_DEPTH:
            return []
        children = []
        for proposal in self._proposals(state):
            vector = tuple(sorted(proposal.items()))
            children.append(
                _FetchState(
                    state.topology, state.assignment, state.choice_index,
                    vector, vector, state.depth + 1, state.plan_key,
                    state.dedup_key, state.vector,
                    ("fetch", state.dedup_key, vector),
                )
            )
        return children

    # -- B&B callbacks --------------------------------------------------------------

    def _expand(self, state, cutoff: float = inf) -> tuple[list, int]:
        shared = self._dive_expansions.pop(id(state), None)
        if shared is not None:
            return shared[1], 0
        if isinstance(state, _AssignState):
            return self._expand_assign(state), 0
        if isinstance(state, _TopoState):
            return self._expand_topology(state, cutoff)
        return self._expand_fetch(state), 0

    def _is_leaf(self, state) -> bool:
        if not isinstance(state, _FetchState):
            return False
        if self._priced_state(state)[1] >= self.k:
            return True
        if state.depth >= MAX_PHASE3_DEPTH:
            return True
        # Saturated: no proposal can move any factor.
        return not self._proposals(state)

    def _leaf_value(self, state: _FetchState):
        annotations, results, cost = self._priced_state(state)
        candidate = PlanCandidate(
            plan=state.plan,
            fetches=dict(state.fetches),
            annotations=annotations,
            cost=cost,
            estimated_results=results,
            satisfies_k=results >= self.k,
            assignment=dict(state.assignment),
            trail=(state.choice_index, state.topology.moves),
        )
        return cost, candidate, candidate.satisfies_k

    def _lower_bound(self, state) -> float:
        metric = self.config.metric
        if isinstance(state, _AssignState):
            # Every interface a completion may call: the fixed ones, the
            # chosen ones and each candidate of an alias not yet assigned.
            fixed = [
                atom.interface
                for atom in self.query.atoms
                if atom.interface is not None
            ]
            chosen = [iface for _, iface in state.assignment]
            unassigned = [
                iface
                for alias in self._open_aliases[state.next_index:]
                for iface in self._candidates_for(alias)
            ]
            return metric.interfaces_lower_bound(fixed + chosen + unassigned)
        if isinstance(state, _TopoState):
            return state.builder.bound
        if state.parent is None:
            # All-ones fetches: the builder's running cost is the full cost.
            return state.topology.bound
        return self._priced_state(state)[2]

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
            children, _ = self._expand(state)
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
                "moves_bounded",
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


def rebuild_candidate(
    query: CompiledQuery,
    metric: CostMetric,
    interfaces: Sequence[tuple[str, str]],
    choice_index: int,
    moves: Sequence[Move],
    fetches: Sequence[tuple[str, int]],
) -> PlanCandidate:
    """The candidate a search of ``query`` chose, built again from its
    trail without searching.

    ``interfaces`` names the phase-1 interface of each open alias,
    ``choice_index`` the binding choice, ``moves`` the phase-2 moves in
    the order they were applied, and ``fetches`` the fetch vector; the
    sealed topology is annotated and priced at it as the search priced
    it.  A trail no search of ``query`` could have taken raises
    :class:`~repro.errors.OptimizationError`.
    """
    open_aliases = sorted(a.alias for a in query.atoms if a.interface is None)
    aliases = sorted(alias for alias, _ in interfaces)
    assignment: dict[str, ServiceInterface] = {}
    if aliases == open_aliases:
        for alias, name in interfaces:
            options = query.registry.interfaces_of(query.atom(alias).mart.name)
            assignment.update((alias, i) for i in options if i.name == name)
    choice = None
    if aliases == sorted(assignment) == open_aliases:
        if 0 <= choice_index < BINDING_CHOICE_LIMIT and check_feasibility(
            query, assignment
        ).feasible:
            choices = enumerate_binding_choices(
                query, assignment, limit=BINDING_CHOICE_LIMIT
            )
            choice = next(itertools.islice(choices, choice_index, None), None)
    if choice is None:
        raise OptimizationError(
            f"no binding choice {choice_index} for interfaces {list(interfaces)!r}"
        )
    builder = TopologyBuilder.initial(query, assignment, choice)
    for move in moves:
        legal = move if move.kind != "merge" else replace(move, method=JoinMethodSpec())
        if legal not in builder.available_moves():
            raise OptimizationError(f"move {move} is not legal where it is applied")
        builder = builder.apply(move)
    topology = builder.seal() if builder.is_complete else None
    if topology is None or sorted(alias for alias, _ in fetches) != sorted(
        alias for alias, _ in Optimizer._initial_fetches(topology)
    ):
        raise OptimizationError(f"no complete plan fetched by {list(fetches)!r}")
    plan, fetches = topology.plan, dict(fetches)
    annotations = annotate(plan, query, fetches=fetches, estimator=Estimator(query))
    results = annotations.estimated_results(plan)
    return PlanCandidate(
        plan=plan,
        fetches=fetches,
        annotations=annotations,
        cost=metric.cost(plan, annotations),
        estimated_results=results,
        satisfies_k=results >= query.k,
        assignment=assignment,
        trail=(choice_index, tuple(moves)),
    )


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
