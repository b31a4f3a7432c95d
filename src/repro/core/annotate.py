"""Plan annotation: estimating tuple flow and call counts per node.

Section 3.2 defines the annotation rules that turn a plan into a *fully
instantiated query plan* (Figs. 3 and 10):

* the user "always injects one single input tuple", so the input node has
  ``tout = 1``;
* for **exact services**, ``tout = tin * avg_cardinality`` (times the
  selectivity of pushed-down selections, which is what makes a service
  "selective in the context of a query");
* for **search services**, ``tout`` is "the product of the chunk size with
  the total number FS of fetches determined by the plan, which may in turn
  depend on the input tin" — per input tuple the node issues its fetch
  factor ``F`` calls and retrieves ``F * chunk`` tuples (capped by the
  service's average cardinality);
* a **pipe-joined** service additionally multiplies the selectivity of the
  join predicates it realises (Section 5.6: Restaurant receives 25 input
  theatres and the 40% DinnerPlace selectivity leaves ``tout = 10``);
* **selection nodes** multiply their predicate selectivity;
* **parallel joins** process ``tout_left * tout_right`` candidate
  combinations — halved by a triangular completion strategy, which
  considers only "the most promising" half of the Cartesian product
  (Section 5.6's 2500 → 1250) — and output candidates times the join
  selectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import PlanError
from repro.joins.spec import CompletionStrategy
from repro.plans.nodes import (
    InputNode,
    OutputNode,
    ParallelJoinNode,
    PlanNode,
    SelectionNode,
    ServiceNode,
)
from repro.plans.plan import NodeAnnotation, PlanAnnotations, QueryPlan
from repro.query.compile import CompiledQuery
from repro.stats.estimate import Estimator, combined_selection_selectivity

__all__ = [
    "annotate",
    "annotate_delta",
    "annotate_node",
    "AnnotationCounters",
    "ANNOTATION_COUNTERS",
    "TRIANGULAR_CANDIDATE_FACTOR",
    "pipe_join_selectivity",
]


@dataclass
class AnnotationCounters:
    """Global accounting of annotation work (the optimizer's hot path).

    ``node_evals`` counts individual node-annotation computations;
    ``full_annotations``/``delta_annotations`` count whole-plan walks vs.
    incremental re-walks; ``incremental_nodes`` is the share of
    ``node_evals`` the phase-2 builder spent annotating nodes as it
    attached them (no walk at all).  Tests reset and read these to pin
    how much recomputation the memoization layers avoid.
    """

    node_evals: int = 0
    full_annotations: int = 0
    delta_annotations: int = 0
    incremental_nodes: int = 0

    def reset(self) -> None:
        self.node_evals = 0
        self.full_annotations = 0
        self.delta_annotations = 0
        self.incremental_nodes = 0


#: Process-wide counter instance (the benchmarks reset it between runs).
ANNOTATION_COUNTERS = AnnotationCounters()

#: Fraction of the chunk Cartesian product a triangular completion
#: strategy actually processes (Section 5.6: "choosing a triangular
#: completion strategy assures that only the half of the most promising
#: combinations ... are considered").
TRIANGULAR_CANDIDATE_FACTOR = 0.5


def pipe_join_selectivity(
    node: ServiceNode, query: CompiledQuery, estimator: Estimator
) -> float:
    """Selectivity of the join predicates this pipe consumer realises."""
    return estimator.pipe_selectivity(node)


def _service_annotation(
    node: ServiceNode,
    tin: float,
    estimator: Estimator,
    fetches: Mapping[str, int],
) -> NodeAnnotation:
    interface = node.interface
    assert interface is not None
    pushed, pipe_sel = estimator.service_selectivities(node)

    # A piped consumer needs one invocation per upstream tuple (each tuple
    # carries fresh bindings); a service bound only by constants/INPUT
    # variables is invoked once, whatever its tin (serial compositions
    # reuse the single result set for every upstream tuple).
    invocations = tin if node.pipe_sources else min(tin, 1.0)

    if interface.is_chunked:
        factor = int(fetches.get(node.alias, 1))
        if factor < 1:
            raise PlanError(f"fetch factor for {node.alias!r} must be >= 1")
        per_input = min(
            factor * interface.chunk_size, max(interface.stats.avg_cardinality, 0.0)
        )
        calls = invocations * factor
    else:
        factor = None
        per_input = interface.stats.avg_cardinality
        calls = invocations

    tout = tin * per_input * pushed * pipe_sel
    return NodeAnnotation._frozen(tin, tout, factor, calls)


def annotate(
    plan: QueryPlan,
    query: CompiledQuery,
    fetches: Mapping[str, int] | None = None,
    estimator: Estimator | None = None,
) -> PlanAnnotations:
    """Annotate every node of ``plan`` with estimated tin/tout/calls.

    Parameters
    ----------
    plan:
        A validated plan over the atoms of ``query``.
    fetches:
        Fetch factors per chunked-service alias; missing aliases default
        to 1 ("the lowest admissible value ... as all services must
        contribute to the result", Section 5.5).
    estimator:
        Selectivity estimator; defaults to a fresh one over ``query``.
    """
    fetches = dict(fetches or {})
    estimator = estimator or Estimator(query)
    annotations = PlanAnnotations()

    by_node = annotations.by_node
    for node_id, node, parents in plan.walk():
        by_node[node_id] = annotate_node(
            node, [by_node[parent] for parent in parents], query, estimator, fetches
        )

    ANNOTATION_COUNTERS.full_annotations += 1
    return annotations


def annotate_node(
    node: PlanNode,
    parents: Sequence[NodeAnnotation],
    query: CompiledQuery,
    estimator: Estimator,
    fetches: Mapping[str, int],
) -> NodeAnnotation:
    """Annotation of ``node`` given its parents' annotations, in arc order.

    The one place a node is priced: :func:`annotate` and
    :func:`annotate_delta` call it per walked node, the phase-2 builder
    once per node it attaches — a node's annotation depends only on the
    node and its parents' ``tout``, so nothing attached later changes it.
    """
    ANNOTATION_COUNTERS.node_evals += 1
    node_id = node.node_id
    if isinstance(node, InputNode):
        return NodeAnnotation._frozen(0.0, 1.0)

    if isinstance(node, ParallelJoinNode):
        if len(parents) != 2:
            raise PlanError(f"join {node_id!r} must have two parents")
        left_out = parents[0].tout
        right_out = parents[1].tout
        factor = (
            TRIANGULAR_CANDIDATE_FACTOR
            if node.method.completion is CompletionStrategy.TRIANGULAR
            else 1.0
        )
        candidates = left_out * right_out * factor
        selectivity = estimator.predicates_selectivity(node.predicates)
        return NodeAnnotation._frozen(candidates, candidates * selectivity)

    if len(parents) != 1:
        raise PlanError(f"node {node_id!r} must have exactly one parent")
    tin = parents[0].tout

    if isinstance(node, ServiceNode):
        return _service_annotation(node, tin, estimator, fetches)
    if isinstance(node, SelectionNode):
        selectivity = combined_selection_selectivity(
            node.selections,
            query.atom(node.selections[0].attr.alias).mart,
        ) if node.selections else 1.0
        selectivity *= estimator.predicates_selectivity(node.join_filters)
        return NodeAnnotation._frozen(tin, tin * selectivity)
    if isinstance(node, OutputNode):
        return NodeAnnotation._frozen(tin, tin)
    raise PlanError(f"cannot annotate node kind {node.kind}")  # pragma: no cover


def annotate_delta(
    plan: QueryPlan,
    query: CompiledQuery,
    base: PlanAnnotations,
    base_fetches: Mapping[str, int],
    fetches: Mapping[str, int],
    estimator: Estimator | None = None,
) -> PlanAnnotations:
    """Re-annotate only the nodes affected by a fetch-vector change.

    ``base`` must be the annotations of ``plan`` under ``base_fetches``.
    Only the service nodes whose fetch factor differs between the two
    vectors — plus their downstream cone — are recomputed; everything else
    is shared structurally with ``base`` (:class:`NodeAnnotation` is
    frozen, so sharing is safe).  This is what makes the optimizer's
    phase-3 expansion O(changed nodes) instead of O(plan).
    """
    estimator = estimator or Estimator(query)
    aliases = set(base_fetches) | set(fetches)
    dirty_aliases = {
        alias
        for alias in aliases
        if int(base_fetches.get(alias, 1)) != int(fetches.get(alias, 1))
    }
    if not dirty_aliases:
        return base

    fetches = dict(fetches)
    by_node = dict(base.by_node)
    changed: set[str] = set()
    for node_id, node, parents in plan.walk():
        needs_recompute = (
            isinstance(node, ServiceNode) and node.alias in dirty_aliases
        ) or not changed.isdisjoint(parents)
        if not needs_recompute:
            continue
        new_annotation = annotate_node(
            node, [by_node[parent] for parent in parents], query, estimator, fetches
        )
        if new_annotation != by_node.get(node_id):
            changed.add(node_id)
        by_node[node_id] = new_annotation

    ANNOTATION_COUNTERS.delta_annotations += 1
    return PlanAnnotations(by_node=by_node)
