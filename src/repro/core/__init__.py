"""Core contribution: annotation, cost metrics, heuristics, B&B optimizer."""

from repro.core.annotate import TRIANGULAR_CANDIDATE_FACTOR, annotate
from repro.core.bnb import BnBOutcome, BnBStats, BranchAndBound
from repro.core.cost import (
    DEFAULT_METRICS,
    BottleneckMetric,
    CallCountMetric,
    CostMetric,
    ExecutionTimeMetric,
    RequestResponseMetric,
    SumCostMetric,
    TimeToScreenMetric,
    service_node_time,
)
from repro.core.heuristics import (
    BoundIsBetter,
    GreedyFetch,
    ParallelIsBetter,
    Phase1Heuristic,
    Phase2Heuristic,
    Phase3Heuristic,
    SelectiveFirst,
    SquareIsBetter,
    UnboundIsEasier,
    fetch_cap,
)
from repro.core.optimizer import (
    OptimizationOutcome,
    Optimizer,
    OptimizerConfig,
    PlanCandidate,
    optimize_query,
)
from repro.core.topology import (
    Move,
    TopologyBuilder,
    TopologyCounters,
    enumerate_topologies,
    topology_signature,
)

__all__ = [
    "TRIANGULAR_CANDIDATE_FACTOR",
    "annotate",
    "BnBOutcome",
    "BnBStats",
    "BranchAndBound",
    "DEFAULT_METRICS",
    "BottleneckMetric",
    "CallCountMetric",
    "CostMetric",
    "ExecutionTimeMetric",
    "RequestResponseMetric",
    "SumCostMetric",
    "TimeToScreenMetric",
    "service_node_time",
    "BoundIsBetter",
    "GreedyFetch",
    "ParallelIsBetter",
    "Phase1Heuristic",
    "Phase2Heuristic",
    "Phase3Heuristic",
    "SelectiveFirst",
    "SquareIsBetter",
    "UnboundIsEasier",
    "fetch_cap",
    "OptimizationOutcome",
    "Optimizer",
    "OptimizerConfig",
    "PlanCandidate",
    "optimize_query",
    "Move",
    "TopologyBuilder",
    "TopologyCounters",
    "enumerate_topologies",
    "topology_signature",
]

from repro.core.heuristics import suggest_join_methods  # noqa: E402

__all__.append("suggest_join_methods")
