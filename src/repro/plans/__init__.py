"""Query-plan DAG model (Fig. 1 elements, Section 3.2 structure)."""

from repro.plans.nodes import (
    InputNode,
    OutputNode,
    ParallelJoinNode,
    PlanNode,
    SelectionNode,
    ServiceNode,
)
from repro.plans.plan import (
    NodeAnnotation,
    PlanAnnotations,
    QueryPlan,
    fetch_vector,
)

__all__ = [
    "InputNode",
    "OutputNode",
    "ParallelJoinNode",
    "PlanNode",
    "SelectionNode",
    "ServiceNode",
    "NodeAnnotation",
    "PlanAnnotations",
    "QueryPlan",
    "fetch_vector",
]
