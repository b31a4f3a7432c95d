"""The query-plan DAG (Section 3.2).

A :class:`QueryPlan` is a directed acyclic graph whose nodes are the
elements of :mod:`repro.plans.nodes` and whose arcs "indicate data flow and
parameter passing".  The class offers a small builder API plus the
structural services the optimizer and engine need: validation, topological
ordering, parent/child lookup with stable arc order (a parallel join's
first parent is its *left* input), and plan statistics.

Annotations (``tin``/``tout``/fetch counts per node — Figs. 3 and 10) are
kept separate in :class:`PlanAnnotations`; a plan plus its annotations is a
*fully instantiated query plan* and can be priced by a cost metric.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.errors import PlanError
from repro.plans.nodes import (
    InputNode,
    OutputNode,
    ParallelJoinNode,
    PlanNode,
    SelectionNode,
    ServiceNode,
)

__all__ = ["QueryPlan", "NodeAnnotation", "PlanAnnotations"]


@dataclass
class _PlanStructure:
    """Cached adjacency and topological order of one plan DAG."""

    parents: Mapping[str, tuple[str, ...]]
    children: Mapping[str, tuple[str, ...]]
    topo_order: tuple[str, ...] | None = None
    walk: "tuple[tuple[str, PlanNode, tuple[str, ...]], ...] | None" = None


@dataclass
class QueryPlan:
    """A mutable plan DAG with a builder API.

    Build plans with :meth:`add` and :meth:`connect`, then call
    :meth:`validate` (idempotent) before handing them to the annotator,
    cost model, or execution engine.
    """

    nodes: dict[str, PlanNode] = field(default_factory=dict)
    arcs: list[tuple[str, str]] = field(default_factory=list)
    # Lazily built (parents, children, topological order) maps; every
    # annotation and cost evaluation walks the DAG, so the adjacency scans
    # are a measurable hot path.  Invalidated by add/connect.
    _structure: "_PlanStructure | None" = field(
        default=None, repr=False, compare=False
    )

    # -- construction -----------------------------------------------------------

    def add(self, node: PlanNode) -> PlanNode:
        if node.node_id in self.nodes:
            raise PlanError(f"duplicate node id {node.node_id!r}")
        self.nodes[node.node_id] = node
        self._structure = None
        return node

    def connect(self, source: str | PlanNode, target: str | PlanNode) -> None:
        src = source.node_id if isinstance(source, PlanNode) else source
        dst = target.node_id if isinstance(target, PlanNode) else target
        for node_id in (src, dst):
            if node_id not in self.nodes:
                raise PlanError(f"unknown node {node_id!r}")
        if (src, dst) in self.arcs:
            raise PlanError(f"duplicate arc {src!r} -> {dst!r}")
        if src == dst:
            raise PlanError(f"self-loop on {src!r}")
        self.arcs.append((src, dst))
        self._structure = None

    # -- structure queries --------------------------------------------------------

    def _adjacency(self) -> "_PlanStructure":
        if self._structure is None:
            parents: dict[str, list[str]] = {node_id: [] for node_id in self.nodes}
            children: dict[str, list[str]] = {node_id: [] for node_id in self.nodes}
            for src, dst in self.arcs:
                parents[dst].append(src)
                children[src].append(dst)
            self._structure = _PlanStructure(
                parents={k: tuple(v) for k, v in parents.items()},
                children={k: tuple(v) for k, v in children.items()},
            )
        return self._structure

    def node(self, node_id: str) -> PlanNode:
        if node_id not in self.nodes:
            raise PlanError(f"unknown node {node_id!r}")
        return self.nodes[node_id]

    def parents(self, node_id: str) -> tuple[str, ...]:
        """Parent ids in arc-insertion order (join left input first)."""
        return self._adjacency().parents.get(node_id, ())

    def children(self, node_id: str) -> tuple[str, ...]:
        return self._adjacency().children.get(node_id, ())

    @property
    def input_node(self) -> InputNode:
        for node in self.nodes.values():
            if isinstance(node, InputNode):
                return node
        raise PlanError("plan has no input node")

    @property
    def output_node(self) -> OutputNode:
        for node in self.nodes.values():
            if isinstance(node, OutputNode):
                return node
        raise PlanError("plan has no output node")

    def service_nodes(self) -> tuple[ServiceNode, ...]:
        return tuple(
            node for node in self.nodes.values() if isinstance(node, ServiceNode)
        )

    def join_nodes(self) -> tuple[ParallelJoinNode, ...]:
        return tuple(
            node for node in self.nodes.values() if isinstance(node, ParallelJoinNode)
        )

    def selection_nodes(self) -> tuple[SelectionNode, ...]:
        return tuple(
            node for node in self.nodes.values() if isinstance(node, SelectionNode)
        )

    def service_node_for(self, alias: str) -> ServiceNode:
        for node in self.service_nodes():
            if node.alias == alias:
                return node
        raise PlanError(f"plan has no service node for alias {alias!r}")

    def aliases(self) -> tuple[str, ...]:
        return tuple(node.alias for node in self.service_nodes())

    # -- validation ---------------------------------------------------------------

    def topological_order(self) -> tuple[str, ...]:
        """Kahn topological sort; raises :class:`PlanError` on cycles."""
        structure = self._adjacency()
        if structure.topo_order is not None:
            return structure.topo_order
        indegree = {node_id: 0 for node_id in self.nodes}
        for _, dst in self.arcs:
            indegree[dst] += 1
        ready = [node_id for node_id, deg in indegree.items() if deg == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            node_id = heapq.heappop(ready)
            order.append(node_id)
            for child in structure.children[node_id]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, child)
        if len(order) != len(self.nodes):
            raise PlanError("plan graph contains a cycle")
        structure.topo_order = tuple(order)
        return structure.topo_order

    def walk(self) -> tuple[tuple[str, PlanNode, tuple[str, ...]], ...]:
        """``(node_id, node, parent ids)`` per node in topological order —
        what every annotation and cost walk reads, put together once."""
        structure = self._adjacency()
        if structure.walk is None:
            structure.walk = tuple(
                (node_id, self.nodes[node_id], structure.parents[node_id])
                for node_id in self.topological_order()
            )
        return structure.walk

    def validate(self) -> "QueryPlan":
        """Check the structural invariants of Section 3.2 plans.

        * exactly one input node (no parents) and one output node (no
          children), with the output reachable from the input;
        * parallel joins have exactly two parents; services and selections
          exactly one; the output exactly one;
        * the graph is acyclic and weakly connected;
        * no two service nodes share an alias.
        """
        inputs = [n for n in self.nodes.values() if isinstance(n, InputNode)]
        outputs = [n for n in self.nodes.values() if isinstance(n, OutputNode)]
        if len(inputs) != 1:
            raise PlanError(f"plan needs exactly one input node, found {len(inputs)}")
        if len(outputs) != 1:
            raise PlanError(f"plan needs exactly one output node, found {len(outputs)}")
        order = self.topological_order()  # also proves acyclicity

        for node_id, node in self.nodes.items():
            n_parents = len(self.parents(node_id))
            n_children = len(self.children(node_id))
            if isinstance(node, InputNode):
                if n_parents:
                    raise PlanError("input node cannot have parents")
                if not n_children:
                    raise PlanError("input node must feed at least one node")
            elif isinstance(node, OutputNode):
                if n_children:
                    raise PlanError("output node cannot have children")
                if n_parents != 1:
                    raise PlanError("output node needs exactly one parent")
            elif isinstance(node, ParallelJoinNode):
                if n_parents != 2:
                    raise PlanError(
                        f"parallel join {node_id!r} needs 2 parents, has {n_parents}"
                    )
                if not n_children:
                    raise PlanError(f"join {node_id!r} feeds nothing")
            else:  # ServiceNode | SelectionNode
                if n_parents != 1:
                    raise PlanError(
                        f"node {node_id!r} needs exactly one parent, has {n_parents}"
                    )
                if not n_children:
                    raise PlanError(f"node {node_id!r} feeds nothing")

        aliases = [node.alias for node in self.service_nodes()]
        if len(set(aliases)) != len(aliases):
            raise PlanError("two service nodes share an alias")

        # Weak connectivity follows from the in/out degree rules plus a
        # single input: every node other than input has a parent chain.
        reachable = set()
        stack = [self.input_node.node_id]
        while stack:
            node_id = stack.pop()
            if node_id in reachable:
                continue
            reachable.add(node_id)
            stack.extend(self.children(node_id))
        if reachable != set(self.nodes):
            missing = sorted(set(self.nodes) - reachable)
            raise PlanError(f"nodes unreachable from input: {missing}")
        del order
        return self

    # -- rendering ------------------------------------------------------------------

    def render(self, annotations: "PlanAnnotations | None" = None) -> str:
        """Multi-line indented rendering of the DAG, output-rooted."""
        lines: list[str] = []
        # An explicit stack, not a recursive closure: a closure that calls
        # itself is a reference cycle, and this runs on every checkpoint.
        stack = [(self.output_node.node_id, 0)]
        while stack:
            node_id, depth = stack.pop()
            note = ""
            if annotations is not None and node_id in annotations.by_node:
                ann = annotations.by_node[node_id]
                bits = [f"tin={ann.tin:g}", f"tout={ann.tout:g}"]
                if ann.fetches is not None:
                    bits.append(f"fetches={ann.fetches}")
                note = "  [" + ", ".join(bits) + "]"
            lines.append("  " * depth + self.nodes[node_id].label() + note)
            parents = reversed(self.parents(node_id))
            stack.extend((parent, depth + 1) for parent in parents)
        return "\n".join(lines)

    def copy(self) -> "QueryPlan":
        return QueryPlan(nodes=dict(self.nodes), arcs=list(self.arcs))


@dataclass(frozen=True)
class NodeAnnotation:
    """Estimated tuple flow through one node (Fig. 3 annotations).

    ``fetches`` is the per-input-tuple fetch factor for chunked services
    and ``None`` elsewhere.  ``calls`` is the estimated total number of
    request-responses issued by the node.
    """

    tin: float
    tout: float
    fetches: int | None = None
    calls: float = 0.0

    @classmethod
    def _frozen(cls, tin, tout, fetches=None, calls=0.0) -> "NodeAnnotation":
        """Trusted constructor: skips the frozen ``__init__``'s per-field
        ``object.__setattr__`` (the annotator builds one per node it
        prices)."""
        ann = object.__new__(cls)
        fields = ann.__dict__
        fields["tin"], fields["tout"] = tin, tout
        fields["fetches"], fields["calls"] = fetches, calls
        return ann


@dataclass
class PlanAnnotations:
    """tin/tout/fetch annotations for every node of a plan."""

    by_node: dict[str, NodeAnnotation] = field(default_factory=dict)

    def tout(self, node_id: str) -> float:
        return self.by_node[node_id].tout

    def tin(self, node_id: str) -> float:
        return self.by_node[node_id].tin

    def calls(self, node_id: str) -> float:
        return self.by_node[node_id].calls

    def total_calls(self) -> float:
        return sum(ann.calls for ann in self.by_node.values())

    def estimated_results(self, plan: QueryPlan) -> float:
        """Estimated tuples delivered at the plan output."""
        return self.by_node[plan.output_node.node_id].tout

    def items(self) -> Iterator[tuple[str, NodeAnnotation]]:
        return iter(self.by_node.items())


def fetch_vector(
    plan: QueryPlan, annotations: PlanAnnotations
) -> Mapping[str, int]:
    """Per-alias fetch factors of the chunked services in the plan."""
    out: dict[str, int] = {}
    for node in plan.service_nodes():
        ann = annotations.by_node.get(node.node_id)
        if ann is not None and ann.fetches is not None:
            out[node.alias] = ann.fetches
    return out
