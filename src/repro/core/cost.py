"""Cost metrics over fully instantiated query plans (Section 5.1).

A cost metric maps a plan plus its annotations to a non-negative number.
All metrics implemented here are **monotonic**: extending a partial plan
with more nodes, or increasing a fetch factor, never decreases the cost.
Monotonicity is what justifies the branch-and-bound lower bound of
Section 5.2 ("thanks to the mentioned monotonicity, each subset can be
assigned a lower bound for the cost by calculating the cost on the
partially constructed plan").

Implemented metrics:

* :class:`ExecutionTimeMetric` — expected elapsed virtual time from query
  submission to the k-th answer: the slowest input-to-output path, each
  node contributing its request-response time.
* :class:`SumCostMetric` — sum over all operators of their charged cost
  (service fees plus an optional per-candidate join CPU charge).
* :class:`RequestResponseMetric` — the special case of the sum metric that
  counts only service invocation fees.
* :class:`CallCountMetric` — the further simplification where every call
  costs 1: "the metric simply counts the number of calls".
* :class:`BottleneckMetric` — the execution time of the slowest service
  (Srivastava et al.'s WSMS metric, suited to pipelined continuous
  queries).
* :class:`TimeToScreenMetric` — time to the first output tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.model.scoring import fold
from repro.plans.nodes import (
    OutputNode,
    ParallelJoinNode,
    PlanNode,
    SelectionNode,
    ServiceNode,
)
from repro.plans.plan import NodeAnnotation, PlanAnnotations, QueryPlan

__all__ = [
    "CostMetric",
    "ExecutionTimeMetric",
    "SumCostMetric",
    "RequestResponseMetric",
    "CallCountMetric",
    "BottleneckMetric",
    "TimeToScreenMetric",
    "service_node_time",
    "DEFAULT_METRICS",
]


def service_node_time(node: ServiceNode, annotations: PlanAnnotations) -> float:
    """Total request-response time spent by one service node.

    ``calls * latency`` plus transfer time proportional to the tuples
    actually shipped (``calls * chunk`` for chunked services).
    """
    return _service_time(node, annotations.by_node[node.node_id])


def _service_time(node: ServiceNode, ann: NodeAnnotation) -> float:
    assert node.interface is not None
    stats = node.interface.stats
    if node.interface.is_chunked:
        transferred = ann.calls * node.interface.chunk_size
    else:
        transferred = ann.calls * stats.avg_cardinality
    return ann.calls * stats.latency + transferred * stats.per_tuple_latency


def _service_fee(node: PlanNode, ann: NodeAnnotation) -> float:
    """Invocation fees charged by one node (zero off service nodes)."""
    if isinstance(node, ServiceNode):
        assert node.interface is not None
        return ann.calls * node.interface.stats.invocation_fee
    return 0.0


class CostMetric:
    """Base class: price a fully instantiated plan.

    Subclasses must keep :attr:`monotonic` truthful — the optimizer uses
    partial-plan costs as lower bounds only for monotonic metrics — and
    define ``interfaces_lower_bound(interfaces)``, an optimistic cost given
    only the selected interfaces (each is invoked at least once in any
    completion), which bounds phase-1 states before any plan exists.
    """

    name: str = "abstract"
    monotonic: bool = True

    def cost(self, plan: QueryPlan, annotations: PlanAnnotations) -> float:
        raise NotImplementedError

    def partial_cost(self, plan: QueryPlan, annotations: PlanAnnotations) -> float:
        """Cost of a *partial* plan (possibly without an output node).

        Used as the branch-and-bound lower bound; metrics whose ``cost``
        needs the output node override this.  By default the full cost
        function works on partial plans too (sum/max over present nodes).
        """
        return self.cost(plan, annotations)

    def extend_partial(
        self,
        running: float,
        node: PlanNode,
        annotation: NodeAnnotation,
        parent_finish: Sequence[float],
    ) -> "tuple[float, float] | None":
        """Fold one newly attached node into a running partial cost.

        The phase-2 builder calls this once per node it adds, in the
        order ``plan.nodes`` lists them.  ``running`` is the cost before
        the node (``0.0`` for the input node) and ``parent_finish`` what
        this hook returned as ``finish`` for the node's parents.  The
        result is ``(finish, running)``: ``running`` equals
        :meth:`partial_cost` of the extended plan — and :meth:`cost` once
        the node is the output node — bit for bit, because each override
        performs the same float operations in the same order as its
        from-scratch counterpart.

        ``None`` (the default) means the metric cannot be folded; the
        builder then prices the whole plan with :meth:`partial_cost`.
        """
        return None

    def node_time(self, node: PlanNode, annotations: PlanAnnotations) -> float:
        """Virtual time contributed by one node (shared by path metrics)."""
        if isinstance(node, ServiceNode):
            return service_node_time(node, annotations)
        return 0.0

    def __str__(self) -> str:
        return self.name


def _path_cost(
    plan: QueryPlan,
    annotations: PlanAnnotations,
    node_time,
    to_output: bool = True,
) -> float:
    """Longest input-to-output path under a ``(node, annotations)`` time
    function.

    With ``to_output=False`` (partial plans) the longest path to *any*
    node is returned instead.
    """
    finish: dict[str, float] = {}
    for node_id, node, parents in plan.walk():
        start = 0.0
        for parent in parents:
            t = finish[parent]
            if t > start:
                start = t
        finish[node_id] = start + node_time(node, annotations)
    if to_output:
        return finish[plan.output_node.node_id]
    return max(finish.values(), default=0.0)


def _extend_path(
    running: float, node: PlanNode, time: float, parent_finish: Sequence[float]
) -> tuple[float, float]:
    """One :func:`_path_cost` step: the node finishes ``time`` after its
    slowest parent; the plan costs its latest finish (the output's, once
    there is one)."""
    start = 0.0
    for t in parent_finish:
        if t > start:
            start = t
    finish = start + time
    if isinstance(node, OutputNode) or finish > running:
        return finish, finish
    return finish, running


@dataclass
class ExecutionTimeMetric(CostMetric):
    """Expected elapsed time to the k-th answer: the slowest dataflow path.

    ``join_cpu_per_candidate`` optionally charges main-memory join work;
    the chapter's default scenario neglects it ("join requires simple
    main-memory comparison operations and can be neglected").
    """

    join_cpu_per_candidate: float = 0.0
    name: str = "execution-time"

    def node_time(self, node: PlanNode, annotations: PlanAnnotations) -> float:
        if isinstance(node, (ServiceNode, ParallelJoinNode)):
            return self._time(node, annotations.by_node[node.node_id])
        return 0.0

    def _time(self, node: PlanNode, ann: NodeAnnotation) -> float:
        if isinstance(node, ServiceNode):
            return _service_time(node, ann)
        if isinstance(node, ParallelJoinNode) and self.join_cpu_per_candidate:
            return ann.tin * self.join_cpu_per_candidate
        return 0.0

    def cost(self, plan: QueryPlan, annotations: PlanAnnotations) -> float:
        return _path_cost(plan, annotations, self.node_time)

    def partial_cost(self, plan: QueryPlan, annotations: PlanAnnotations) -> float:
        return _path_cost(plan, annotations, self.node_time, to_output=False)

    def extend_partial(self, running, node, annotation, parent_finish):
        return _extend_path(
            running, node, self._time(node, annotation), parent_finish
        )

    def interfaces_lower_bound(self, interfaces) -> float:
        return max((i.stats.latency for i in interfaces), default=0.0)


@dataclass
class SumCostMetric(CostMetric):
    """Sum of per-operator costs: invocation fees plus join CPU charges."""

    join_cpu_per_candidate: float = 0.0
    selection_cpu_per_tuple: float = 0.0
    name: str = "sum"

    def _charge(self, node: PlanNode, ann: NodeAnnotation) -> float:
        if isinstance(node, ParallelJoinNode):
            return ann.tin * self.join_cpu_per_candidate
        if isinstance(node, SelectionNode):
            return ann.tin * self.selection_cpu_per_tuple
        return _service_fee(node, ann)

    def cost(self, plan: QueryPlan, annotations: PlanAnnotations) -> float:
        total = 0.0
        for node_id, node in plan.nodes.items():
            total += self._charge(node, annotations.by_node[node_id])
        return total

    def extend_partial(self, running, node, annotation, parent_finish):
        return 0.0, running + self._charge(node, annotation)

    def interfaces_lower_bound(self, interfaces) -> float:
        return fold(i.stats.invocation_fee for i in interfaces)


@dataclass
class RequestResponseMetric(CostMetric):
    """Only service invocation fees count (network-dominated scenario)."""

    name: str = "request-response"

    def cost(self, plan: QueryPlan, annotations: PlanAnnotations) -> float:
        total = 0.0
        for node in plan.service_nodes():
            total += _service_fee(node, annotations.by_node[node.node_id])
        return total

    def extend_partial(self, running, node, annotation, parent_finish):
        return 0.0, running + _service_fee(node, annotation)

    def interfaces_lower_bound(self, interfaces) -> float:
        return fold(i.stats.invocation_fee for i in interfaces)


@dataclass
class CallCountMetric(CostMetric):
    """Every service invocation costs exactly one unit."""

    name: str = "call-count"

    def cost(self, plan: QueryPlan, annotations: PlanAnnotations) -> float:
        # An explicit left-to-right sum: ``sum()`` compensates float
        # rounding from Python 3.12 on, which a running total cannot match.
        total = 0.0
        for node in plan.service_nodes():
            total += annotations.by_node[node.node_id].calls
        return total

    def extend_partial(self, running, node, annotation, parent_finish):
        if isinstance(node, ServiceNode):
            running += annotation.calls
        return 0.0, running

    def interfaces_lower_bound(self, interfaces) -> float:
        return float(len(list(interfaces)))


@dataclass
class BottleneckMetric(CostMetric):
    """Execution time of the slowest service in the plan (WSMS metric).

    Note: the metric is monotonic under plan extension (a max over a
    superset cannot shrink) but, as the chapter warns, "it is not advised
    in our context" where search services rarely produce all their tuples.
    """

    name: str = "bottleneck"

    def cost(self, plan: QueryPlan, annotations: PlanAnnotations) -> float:
        times = [
            service_node_time(node, annotations) for node in plan.service_nodes()
        ]
        return max(times, default=0.0)

    def extend_partial(self, running, node, annotation, parent_finish):
        if isinstance(node, ServiceNode):
            running = max(running, _service_time(node, annotation))
        return 0.0, running

    def interfaces_lower_bound(self, interfaces) -> float:
        return max((i.stats.latency for i in interfaces), default=0.0)


@dataclass
class TimeToScreenMetric(CostMetric):
    """Time until the first output tuple reaches the user.

    Approximated as the slowest input-to-output path where every service
    contributes a single request-response (its first chunk): the earliest
    moment a complete combination can exist.
    """

    name: str = "time-to-screen"

    @staticmethod
    def _first_call_time(node: PlanNode, annotations: PlanAnnotations) -> float:
        if isinstance(node, ServiceNode):
            assert node.interface is not None
            stats = node.interface.stats
            first_tuples = (
                node.interface.chunk_size
                if node.interface.is_chunked
                else stats.avg_cardinality
            )
            return stats.latency + first_tuples * stats.per_tuple_latency
        return 0.0

    def cost(self, plan: QueryPlan, annotations: PlanAnnotations) -> float:
        return _path_cost(plan, annotations, self._first_call_time)

    def partial_cost(self, plan: QueryPlan, annotations: PlanAnnotations) -> float:
        return _path_cost(plan, annotations, self._first_call_time, to_output=False)

    def extend_partial(self, running, node, annotation, parent_finish):
        return _extend_path(
            running, node, self._first_call_time(node, None), parent_finish
        )

    def interfaces_lower_bound(self, interfaces) -> float:
        return max((i.stats.latency for i in interfaces), default=0.0)


#: The metrics exercised by the benchmark suite, keyed by name.
DEFAULT_METRICS: dict[str, CostMetric] = {
    metric.name: metric
    for metric in (
        ExecutionTimeMetric(),
        SumCostMetric(),
        RequestResponseMetric(),
        CallCountMetric(),
        BottleneckMetric(),
        TimeToScreenMetric(),
    )
}
