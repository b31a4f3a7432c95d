"""Phase 2: incremental construction of query-plan topologies.

Section 5.4: "The construction of all possible DAGs for a query plan can
be done incrementally.  It starts by placing after the initial node some
node corresponding to a reachable service, and then by progressively
adding nodes corresponding to services that are reachable by virtue of the
user input variables and the services already included in the query.
Nodes can be added in series or in parallel with respect to already
included nodes, compatibly with the constraints enforced by I/O
dependencies."

The :class:`TopologyBuilder` is that incremental constructor.  Following
the chapter's wording literally, a service can be **attached after any
already-placed node** whose upstream flow covers its pipe dependencies:

* attaching after the input node *starts* a new branch (a source service
  bound only by constants/INPUT variables);
* attaching after a branch's current leaf *extends* it serially (a pipe
  join when the service is piped from that branch, a serial composition
  with a join-filter selection otherwise);
* attaching after an interior node *forks* a parallel branch at that
  point (Fig. 2's Flight/Hotel branches both fed by the Conference/
  Weather prefix).

The open branches are exactly the DAG's current *leaves*; a **merge** move
joins two leaves with an explicit parallel-join node carrying the join
predicates that cross them.  Merges that would be degenerate (one branch
subsuming the other) or cost-dominated (re-combining branches that share a
prefix one side carries gratuitously) are filtered — see
:meth:`TopologyBuilder.available_moves`.

Enumeration deduplicates complete plans by :func:`topology_signature` — a
cost-relevant canonical form under which serial chains that differ only in
the order of adjacent *unpiped* services coincide (their annotations,
hence costs, are identical under every metric).  With that
canonicalisation the running example yields exactly the four alternative
topologies of Fig. 9.

A builder is **persistent and incremental** (DESIGN.md, "Phase-2 states"):
it carries, per placed node, the aliases flowing through it, its
``fetches={}`` annotation and its finish time under the lineage's metric,
plus the sorted leaves, the three sorted entry lists of its signature and
the running partial cost.  Everything a node contributes is fixed when it
is attached — nothing attached later changes it — so :meth:`~
TopologyBuilder.apply` extends a child by the one or two nodes its move
adds and shares the rest with its parent.  A child is *priced* on
creation (annotations, running cost, placed and realised sets, a leaf
count) and *built* — sorted leaves and signature entries put together —
only when something reads :attr:`~TopologyBuilder.signature` or
:meth:`~TopologyBuilder.leaves`, applies a move to it or seals it, so a
child the search drops on its bound is never built; the
:class:`QueryPlan` itself is only built when somebody asks for
:attr:`~TopologyBuilder.plan`.
:func:`topology_signature`, :func:`~repro.core.annotate.annotate` and
``metric.partial_cost`` remain the from-scratch definitions the carried
values are tested against.
"""


from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence

from repro.core.annotate import ANNOTATION_COUNTERS, annotate_node
from repro.core.cost import CostMetric
from repro.errors import PlanError
from repro.joins.spec import JoinMethodSpec
from repro.model.service import ServiceInterface
from repro.plans.nodes import (
    InputNode,
    OutputNode,
    ParallelJoinNode,
    PlanNode,
    SelectionNode,
    ServiceNode,
)
from repro.plans.plan import NodeAnnotation, PlanAnnotations, QueryPlan
from repro.query.ast import JoinPredicate
from repro.query.compile import CompiledQuery
from repro.query.feasibility import BindingChoice, ProviderKind
from repro.stats.estimate import Estimator

__all__ = [
    "Move",
    "TopologyBuilder",
    "TopologyCounters",
    "enumerate_topologies",
    "topology_signature",
]

InterfaceAssignment = Mapping[str, ServiceInterface]


@dataclass(frozen=True)
class Move:
    """One construction step.

    ``kind`` is the flavour the heuristics rank:

    * ``start``  — attach a source service after the input node;
    * ``extend`` — attach a service after a current leaf (serial);
    * ``fork``   — attach a service after an interior node (parallel
      branch at that point);
    * ``merge``  — join two leaves with a parallel-join node.
    """

    kind: str  # "start" | "extend" | "fork" | "merge"
    alias: str | None = None
    node: str | None = None  # attach point for start/extend/fork
    stream: int | None = None  # leaf indexes for merge
    other: int | None = None
    method: JoinMethodSpec | None = None

    def __str__(self) -> str:
        if self.kind == "merge":
            return f"merge(#{self.stream}, #{self.other}, {self.method})"
        return f"{self.kind}({self.alias} after {self.node})"


@dataclass
class TopologyCounters:
    """What one lineage of builders did (shared by all its descendants)."""

    #: Children derived with :meth:`TopologyBuilder.apply`.
    children_priced: int = 0
    #: Of those, children whose leaves and signature were put together.
    children_built: int = 0
    #: :class:`QueryPlan` objects actually built.
    plans_materialised: int = 0


class _Placed(NamedTuple):
    """One placed node and everything that was fixed when it was attached."""

    node: PlanNode
    parents: tuple[str, ...]
    #: Aliases whose tuples flow through the node (inclusive).
    through: frozenset[str]
    #: ``None`` in a lineage without a metric (nothing to price).
    annotation: NodeAnnotation | None
    #: What the metric's ``extend_partial`` returned for the node.
    finish: float


class _Service(NamedTuple):
    """Per-alias invariants of one (assignment, choice)."""

    node: ServiceNode
    #: Join predicates realised by the alias's pipe bindings.
    consumed: frozenset[JoinPredicate]
    #: ``(join, join.aliases)`` for every join involving the alias.
    joins: tuple[tuple[JoinPredicate, frozenset[str]], ...]


class _Lineage:
    """What every builder descending from one :meth:`TopologyBuilder.initial`
    shares: the (query, assignment, choice) triple, the metric and
    estimator it is priced with, and the invariants derived from them."""

    def __init__(self, query, assignment, choice, metric, estimator, counters):
        self.query: CompiledQuery = query
        self.assignment: InterfaceAssignment = assignment
        self.choice: BindingChoice = choice
        self.metric: CostMetric | None = metric
        self.estimator: Estimator = estimator or Estimator(query)
        self.counters: TopologyCounters = counters or TopologyCounters()
        self.aliases = query.aliases
        self.complete = frozenset(self.aliases)
        self.deps = choice.dependencies_over(self.aliases)
        self.joins = tuple((join, join.aliases) for join in query.joins)
        self._services: dict[str, _Service] = {}
        self._ancestors: dict[str, frozenset[str]] = {}
        self._sorted: dict[frozenset[str], tuple[str, ...]] = {}
        self._text: dict[int, str] = {}

    def interface_of(self, alias: str) -> ServiceInterface:
        atom = self.query.atom(alias)
        if atom.interface is not None:
            return atom.interface
        return self.assignment[alias]

    def service(self, alias: str) -> _Service:
        service = self._services.get(alias)
        if service is None:
            providers = tuple(
                p for p in self.choice.providers if p.alias == alias
            )
            # Selections consumed as input bindings (equality or range, e.g.
            # "Openings.Date > INPUT3") are applied server-side by the service
            # and are already reflected in its average-cardinality statistic,
            # so they are not pushed client-side filters.
            binding_sels = {
                id(p.selection)
                for p in providers
                if p.kind is ProviderKind.CONSTANT and p.selection is not None
            }
            node = ServiceNode(
                node_id=f"svc:{alias}",
                alias=alias,
                interface=self.interface_of(alias),
                providers=providers,
                pushed_selections=tuple(
                    sel
                    for sel in self.query.selections_on(alias)
                    if id(sel) not in binding_sels
                ),
            )
            service = self._services[alias] = _Service(
                node=node,
                consumed=frozenset(
                    p.join for p in providers if p.join is not None
                ),
                joins=tuple(
                    (join, join.aliases)
                    for join in self.query.joins_involving(alias)
                ),
            )
        return service

    def ancestors(self, alias: str) -> frozenset[str]:
        """Transitive pipe ancestors of ``alias``."""
        found = self._ancestors.get(alias)
        if found is None:
            seen: set[str] = set()
            stack = list(self.deps[alias])
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(self.deps[node])
            found = self._ancestors[alias] = frozenset(seen)
        return found

    def ordered(self, aliases: frozenset[str]) -> tuple[str, ...]:
        """Order-free form of an alias set, as signature entries carry it."""
        found = self._sorted.get(aliases)
        if found is None:
            found = self._sorted[aliases] = _sorted_aliases(aliases)
        return found

    def texts(self, predicates: Sequence[JoinPredicate]) -> tuple[str, ...]:
        """Order-free form of a predicate set (``str`` once per predicate;
        keyed by identity — the query keeps its predicates alive)."""
        out = set()
        for predicate in predicates:
            text = self._text.get(id(predicate))
            if text is None:
                text = self._text[id(predicate)] = str(predicate)
            out.add(text)
        return tuple(sorted(out))


def _with(entries: tuple, entry: tuple) -> tuple:
    """``entries`` (sorted) with ``entry`` inserted in order."""
    at = bisect_right(entries, entry)
    return entries[:at] + (entry,) + entries[at:]


class TopologyBuilder:
    """Persistent incremental plan constructor (one search-tree node).

    Create the root with :meth:`initial`; every other builder comes from
    :meth:`apply` (or :meth:`seal`) and never changes afterwards.
    """

    __slots__ = (
        "_lineage",
        "placed",
        "realized",
        "_signature",
        "_pending",
        "_counter",
        "_leaves",
        "_leaf_count",
        "_running",
        "_sealed",
        "_parent",
        "_added",
        "_table",
        "_plan",
        "_trail",
    )

    @classmethod
    def initial(
        cls,
        query: CompiledQuery,
        assignment: Mapping[str, ServiceInterface],
        choice: BindingChoice,
        metric: CostMetric | None = None,
        estimator: Estimator | None = None,
        counters: TopologyCounters | None = None,
    ) -> "TopologyBuilder":
        """The empty construction (just the input node).

        With a ``metric`` every descendant carries its annotations and
        partial cost (:attr:`annotations`, :attr:`bound` — both ``None``
        otherwise); ``estimator`` prices the annotations (default: a
        fresh one over ``query``) and ``counters`` receives the lineage's
        accounting.
        """
        self = cls.__new__(cls)
        self._lineage = _Lineage(
            query, assignment, choice, metric, estimator, counters
        )
        #: Aliases placed so far.
        self.placed: frozenset[str] = frozenset()
        #: Join predicates realised so far (pipes, selections, merges).
        self.realized: frozenset[JoinPredicate] = frozenset()
        self._signature: tuple = ((), (), ())
        #: Signature entries of the nodes this builder added, not yet
        #: sorted in (``None``: built).
        self._pending: list[tuple] | None = None
        self._counter = 0
        self._leaf_count = 1
        # None: no metric, or one that cannot be folded node by node.
        self._running: float | None = 0.0 if metric is not None else None
        self._sealed = False
        self._parent: TopologyBuilder | None = None
        self._added: list[tuple[str, _Placed]] = []
        self._table: dict[str, _Placed] | None = {}
        self._plan: QueryPlan | None = None
        #: ``(parent's trail, move)`` links back to :meth:`initial`.
        self._trail: tuple = ()
        self._place(InputNode(), (), (), frozenset())
        self._table.update(self._added)
        self._leaves: tuple[str, ...] = tuple(self._table)
        return self

    @property
    def query(self) -> CompiledQuery:
        return self._lineage.query

    @property
    def assignment(self) -> Mapping[str, ServiceInterface]:
        return self._lineage.assignment

    @property
    def choice(self) -> BindingChoice:
        return self._lineage.choice

    # -- carried state ------------------------------------------------------------

    def _nodes(self) -> dict[str, _Placed]:
        """Every placed node in attach order (``plan.nodes`` order): the
        parent's table plus the nodes this builder's move added, put
        together the first time this builder is looked into."""
        if self._table is None:
            assert self._parent is not None
            table = dict(self._parent._nodes())
            table.update(self._added)
            self._table = table
            self._parent = None
        return self._table

    @property
    def plan(self) -> QueryPlan:
        """The construction as a :class:`QueryPlan`, built on first use."""
        if self._plan is None:
            table = self._nodes()
            plan = QueryPlan(
                nodes={node_id: placed.node for node_id, placed in table.items()},
                arcs=[
                    (parent, node_id)
                    for node_id, placed in table.items()
                    for parent in placed.parents
                ],
            )
            if self._sealed:
                plan.validate()
            self._lineage.counters.plans_materialised += 1
            self._plan = plan
        return self._plan

    def nodes(self) -> Iterator[PlanNode]:
        """The placed nodes in attach order (``plan.nodes`` order)."""
        return (placed.node for placed in self._nodes().values())

    @property
    def annotations(self) -> PlanAnnotations | None:
        """``annotate(self.plan, query, fetches={})``, kept incrementally."""
        if self._lineage.metric is None:
            return None
        return PlanAnnotations(
            by_node={
                node_id: placed.annotation
                for node_id, placed in self._nodes().items()
            }
        )

    @property
    def signature(self) -> tuple:
        """:func:`topology_signature` of :attr:`plan`, kept incrementally."""
        self._settle()
        return self._signature

    @property
    def bound(self) -> float | None:
        """``metric.partial_cost`` of the construction (``metric.cost``
        once sealed) under the lineage's metric; ``None`` without one."""
        metric = self._lineage.metric
        if self._running is None and metric is not None:
            price = metric.cost if self._sealed else metric.partial_cost
            return price(self.plan, self.annotations)
        return self._running

    @property
    def moves(self) -> tuple[Move, ...]:
        """The moves that made this construction from :meth:`initial`, in
        order: :meth:`apply` them to a fresh initial builder (and
        :meth:`seal`) to build it again."""
        trail, moves = self._trail, []
        while trail:
            trail, move = trail
            moves.append(move)
        return tuple(reversed(moves))

    # -- introspection ----------------------------------------------------------

    def leaves(self) -> tuple[str, ...]:
        """Current open branches: nodes with no children, sorted."""
        self._settle()
        return self._leaves

    @property
    def is_complete(self) -> bool:
        return self.placed == self._lineage.complete and self._leaf_count == 1

    def interface_of(self, alias: str) -> ServiceInterface:
        return self._lineage.interface_of(alias)

    # -- move generation ----------------------------------------------------------

    def available_moves(self) -> list[Move]:
        """All legal construction steps from this state."""
        lineage = self._lineage
        moves: list[Move] = []
        table = self._nodes()
        leaves = self.leaves()
        leaf_set = set(leaves)

        for alias in lineage.aliases:
            if alias in self.placed:
                continue
            deps = lineage.deps[alias]
            for node_id, placed in table.items():
                if isinstance(placed.node, InputNode):
                    if not deps:
                        moves.append(Move("start", alias=alias, node=node_id))
                    continue
                if not deps <= placed.through:
                    continue
                kind = "extend" if node_id in leaf_set else "fork"
                if kind == "fork" and not deps:
                    # Branching an unpiped service off an interior node is
                    # never cheaper than starting it from the input.
                    continue
                moves.append(Move(kind, alias=alias, node=node_id))

        for i, j in itertools.combinations(range(len(leaves)), 2):
            left = table[leaves[i]].through
            right = table[leaves[j]].through
            if left <= right or right <= left:
                continue  # degenerate merge: one branch subsumes the other
            shared = left & right
            if shared and not self._crossing_joins(left, right):
                # Overlapping branches with no crossing predicate join
                # purely on shared provenance.  Legitimate when both
                # branches *need* the shared prefix (a star query's
                # satellites); a dominated re-combination when one branch
                # carries a shared service gratuitously — the filter that
                # keeps the running example at its four Fig. 9 topologies.
                if not (
                    self._prefix_justified(left, shared)
                    and self._prefix_justified(right, shared)
                ):
                    continue
            moves.append(
                Move("merge", stream=i, other=j, method=JoinMethodSpec())
            )
        return moves

    def _crossing_joins(
        self, left: frozenset[str], right: frozenset[str]
    ) -> tuple[JoinPredicate, ...]:
        """Unrealised join predicates crossing the two alias sets."""
        union = left | right
        realized = self.realized
        return tuple(
            join
            for join, aliases in self._lineage.joins
            if aliases <= union
            and not aliases <= left
            and not aliases <= right
            and join not in realized
        )

    def _prefix_justified(
        self, side: frozenset[str], shared: frozenset[str]
    ) -> bool:
        """Every shared alias is a (transitive) pipe ancestor of an extra."""
        ancestors = self._lineage.ancestors
        extras = side - shared
        return all(
            any(alias in ancestors(extra) for extra in extras) for alias in shared
        )

    # -- application --------------------------------------------------------------

    def apply(self, move: Move) -> "TopologyBuilder":
        """Return a new builder with ``move`` applied (self is untouched).

        The child is priced here — annotations of its new nodes,
        :attr:`bound`, :attr:`placed`, :attr:`realized` — from this
        builder's tables; its leaves and signature are built when first
        read (:meth:`_settle`), and it copies nothing until it is itself
        looked into.
        """
        self._settle()
        table = self._nodes()
        child = self._child()
        if move.kind in ("start", "extend", "fork"):
            assert move.node is not None
            child._attach(table, move.alias or "", move.node)
        elif move.kind == "merge":
            assert move.stream is not None and move.other is not None
            child._merge(
                table, move.stream, move.other, move.method or JoinMethodSpec()
            )
        else:  # pragma: no cover - defensive
            raise PlanError(f"unknown move kind {move.kind!r}")
        child._trail = (self._trail, move)
        self._lineage.counters.children_priced += 1
        return child

    def _child(self) -> "TopologyBuilder":
        child = TopologyBuilder.__new__(TopologyBuilder)
        child._lineage = self._lineage
        child.placed = self.placed
        child.realized = self.realized
        child._signature = self._signature
        child._pending = []
        child._counter = self._counter
        child._leaves = self._leaves
        child._leaf_count = self._leaf_count
        child._running = self._running
        child._sealed = False
        child._parent = self
        child._added = []
        child._table = None
        child._plan = None
        child._trail = self._trail
        return child

    def _next_id(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}:{self._counter}"

    def _place(
        self,
        node: PlanNode,
        parent_ids: tuple[str, ...],
        parents: Sequence[_Placed],
        through: frozenset[str],
    ) -> _Placed:
        """Record ``node`` below ``parents``; under a metric, annotate it
        and fold it into the running cost."""
        lineage = self._lineage
        annotation, finish = None, 0.0
        if lineage.metric is not None:
            annotation = annotate_node(
                node,
                [parent.annotation for parent in parents],
                lineage.query,
                lineage.estimator,
                {},
            )
            ANNOTATION_COUNTERS.incremental_nodes += 1
            if self._running is not None:
                step = lineage.metric.extend_partial(
                    self._running,
                    node,
                    annotation,
                    [parent.finish for parent in parents],
                )
                if step is None:
                    self._running = None
                else:
                    finish, self._running = step
        placed = _Placed(node, parent_ids, through, annotation, finish)
        self._added.append((node.node_id, placed))
        return placed

    def _settle(self) -> None:
        """Build what :meth:`apply` deferred: the sorted leaves and the
        signature entries of the nodes this builder added."""
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        lineage = self._lineage
        leaves = set(self._leaves)
        for node_id, placed in self._added:
            leaves.difference_update(placed.parents)
            leaves.add(node_id)
        self._leaves = tuple(sorted(leaves))
        services, joins, selections = self._signature
        for kind, *args in pending:
            if kind == "service":
                # ``upstream`` is ``None`` for an unpiped service.
                alias, interface, upstream = args
                ordered = None if upstream is None else lineage.ordered(upstream)
                services = _with(
                    services, (alias, interface, upstream is not None, ordered)
                )
            elif kind == "selection":
                predicates, through = args
                selections = _with(
                    selections,
                    (lineage.texts(predicates), lineage.ordered(through)),
                )
            else:
                predicates, left, right, label = args
                branches = {lineage.ordered(left), lineage.ordered(right)}
                joins = _with(
                    joins,
                    (lineage.texts(predicates), tuple(sorted(branches)), label),
                )
        self._signature = (services, joins, selections)
        if not self._sealed:
            lineage.counters.children_built += 1

    def _attach(
        self, table: Mapping[str, _Placed], alias: str, parent_id: str
    ) -> None:
        """Append ``alias``'s service (plus newly evaluable join-filter
        selections) after node ``parent_id``."""
        lineage = self._lineage
        service = lineage.service(alias)
        parent = table.get(parent_id)
        if parent is None:
            raise PlanError(f"unknown node {parent_id!r}")
        through = parent.through | {alias}
        head = self._place(service.node, (parent_id,), (parent,), through)
        # Attached below a leaf, the node takes its place; elsewhere it
        # opens a branch.  (A selection below it keeps the count.)
        if parent_id not in self._leaves:
            self._leaf_count += 1
        assert service.node.interface is not None
        self._pending.append(
            (
                "service",
                alias,
                service.node.interface.name,
                parent.through if service.node.pipe_sources else None,
            )
        )
        self.placed = self.placed | {alias}
        realized = self.realized | service.consumed
        residual = tuple(
            join
            for join, aliases in service.joins
            if aliases <= through and join not in realized
        )
        if residual:
            selection = SelectionNode(
                node_id=self._next_id("sel"), join_filters=residual
            )
            self._place(selection, (service.node.node_id,), (head,), through)
            self._pending.append(("selection", residual, through))
            realized = realized | frozenset(residual)
        self.realized = realized

    def _merge(
        self,
        table: Mapping[str, _Placed],
        i: int,
        j: int,
        method: JoinMethodSpec,
    ) -> None:
        left_id, right_id = self._leaves[i], self._leaves[j]
        left, right = table[left_id], table[right_id]
        predicates = self._crossing_joins(left.through, right.through)
        node = ParallelJoinNode(
            node_id=self._next_id("join"), predicates=predicates, method=method
        )
        self._place(
            node, (left_id, right_id), (left, right), left.through | right.through
        )
        self._leaf_count -= 1
        self._pending.append(
            ("join", predicates, left.through, right.through, method.label)
        )
        self.realized = self.realized | frozenset(predicates)

    def seal(self) -> "TopologyBuilder":
        """The finished topology: the single remaining leaf connected to
        the output (through a final selection for leftover joins).

        The sealed builder's :attr:`signature`, :attr:`annotations` and
        :attr:`bound` are those of the complete plan under all-ones
        fetches; its :attr:`plan` is validated when built.
        """
        if self._sealed:
            return self
        if not self.is_complete:
            raise PlanError("cannot finish an incomplete topology")
        self._settle()
        table = self._nodes()
        sealed = self._child()
        sealed._sealed = True
        head_id = self._leaves[0]
        head = table[head_id]
        realized = self.realized
        leftovers = tuple(
            join for join, _ in self._lineage.joins if join not in realized
        )
        if leftovers:
            selection = SelectionNode(node_id="sel:final", join_filters=leftovers)
            head = sealed._place(selection, (head_id,), (head,), head.through)
            head_id = selection.node_id
            sealed._pending.append(("selection", leftovers, head.through))
        sealed._place(OutputNode(), (head_id,), (head,), head.through)
        sealed._settle()
        return sealed

    def finish(self) -> QueryPlan:
        """Connect the single remaining leaf to the output and validate."""
        return self.seal().plan


def _sorted_aliases(aliases: frozenset[str]) -> tuple[str, ...]:
    return tuple(sorted(aliases))


def _sorted_texts(predicates) -> tuple[str, ...]:
    return tuple(sorted({str(p) for p in predicates}))


def topology_signature(plan: QueryPlan) -> tuple:
    """Cost-relevant canonical signature of a plan topology.

    Two plans with the same signature have identical annotations (hence
    identical costs under every metric of Section 5.1): the signature
    records, for every service node, its interface, whether it is piped,
    and — only when its calls depend on upstream flow (piped consumers) —
    the set of upstream aliases; plus the branch structure of parallel
    joins and the upstream sets of selection nodes.

    Every set inside an entry is spelled as a sorted tuple, so entries
    compare, sort and hash the same however they were put together
    (``str()`` of two equal frozensets can differ with construction
    order, which made sorting on it unstable).
    """

    upstream: dict[str, frozenset[str]] = {}
    for node_id in plan.topological_order():
        acc: set[str] = set()
        for parent in plan.parents(node_id):
            acc |= upstream[parent]
            parent_node = plan.node(parent)
            if isinstance(parent_node, ServiceNode):
                acc.add(parent_node.alias)
        upstream[node_id] = frozenset(acc)

    services = []
    for node in plan.service_nodes():
        piped = bool(node.pipe_sources)
        assert node.interface is not None
        services.append(
            (
                node.alias,
                node.interface.name,
                piped,
                _sorted_aliases(upstream[node.node_id]) if piped else None,
            )
        )
    joins = []
    for node in plan.join_nodes():
        left, right = plan.parents(node.node_id)
        branches = {
            _sorted_aliases(upstream[left] | _own_alias(plan, left)),
            _sorted_aliases(upstream[right] | _own_alias(plan, right)),
        }
        joins.append(
            (
                _sorted_texts(node.predicates),
                tuple(sorted(branches)),
                node.method.label,
            )
        )
    selections = []
    for node in plan.selection_nodes():
        selections.append(
            (
                _sorted_texts(node.selections + node.join_filters),
                _sorted_aliases(upstream[node.node_id]),
            )
        )

    return (
        tuple(sorted(services)),
        tuple(sorted(joins)),
        tuple(sorted(selections)),
    )


def _own_alias(plan: QueryPlan, node_id: str) -> frozenset[str]:
    node = plan.node(node_id)
    if isinstance(node, ServiceNode):
        return frozenset({node.alias})
    return frozenset()


def enumerate_topologies(
    query: CompiledQuery,
    assignment: Mapping[str, ServiceInterface],
    choice: BindingChoice,
    limit: int | None = None,
) -> Iterator[QueryPlan]:
    """Yield all distinct complete topologies (deduplicated by signature).

    Every merge tries the one join-method specification its move carries,
    ``JoinMethodSpec()`` (merge-scan with triangular completion).
    """
    seen: set[tuple] = set()
    seen_partial: set[tuple] = set()
    produced = 0

    def recurse(state: TopologyBuilder) -> Iterator[QueryPlan]:
        nonlocal produced
        if limit is not None and produced >= limit:
            return
        if state.is_complete:
            sealed = state.seal()
            if sealed.signature not in seen:
                seen.add(sealed.signature)
                produced += 1
                yield sealed.plan
            return
        # Different move orders reach identical partial DAGs (attaching X
        # then Y vs. Y then X); expanding one representative suffices.
        if state.signature in seen_partial:
            return
        seen_partial.add(state.signature)
        for move in state.available_moves():
            yield from recurse(state.apply(move))

    yield from recurse(TopologyBuilder.initial(query, assignment, choice))
