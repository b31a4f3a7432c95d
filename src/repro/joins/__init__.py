"""Join methods for Search Computing (Section 4).

Building blocks: the tile search-space model, invocation schedules
(nested-loop, merge-scan), completion policies (rectangular, triangular),
runnable pipe/parallel join executors, extraction-optimality analysers,
and the guaranteed top-k rank join extension — plus the multiway kernel
subsystem: worst-case-optimal leapfrog triejoin (:mod:`repro.joins.wcoj`),
lazy ranked enumeration (:mod:`repro.joins.ranked`), and the
kernel-agnostic :func:`~repro.joins.topk.topk_join` facade.
"""

from repro.joins.completion import (
    CompletionPolicy,
    RectangularCompletion,
    TileScheduler,
    TriangularCompletion,
)
from repro.joins.extraction import (
    JoinEvent,
    adjacency_rule_holds,
    count_local_violations,
    is_globally_extraction_optimal,
)
from repro.joins.methods import (
    ChunkSource,
    JoinResult,
    JoinStatistics,
    JoinedPair,
    ListChunkSource,
    ParallelJoinExecutor,
    PipeJoinExecutor,
    make_executor,
    product_score,
)
from repro.joins.ranked import (
    RankedEnumerationStatistics,
    RankedEnumerator,
    RankedResult,
)
from repro.joins.searchspace import SearchSpace, Tile
from repro.joins.spec import (
    ALL_METHODS,
    CompletionStrategy,
    InvocationStrategy,
    JoinMethodSpec,
    JoinTopology,
)
from repro.joins.strategies import (
    Axis,
    cost_aware_schedule,
    InvocationSchedule,
    MergeScanSchedule,
    NestedLoopSchedule,
    VariableRatioSchedule,
)
from repro.joins.topk import (
    RankJoinExecutor,
    TopKJoinOutcome,
    canonical_pair_key,
    tile_trace,
    topk_join,
)
from repro.joins.wcoj import (
    BinaryCascadeExecutor,
    EquiPredicate,
    JoinGraph,
    JoinedRow,
    MultiwayJoinExecutor,
    MultiwayJoinResult,
    MultiwayJoinStatistics,
    Relation,
    TrieIterator,
    canonical_row_key,
    canonical_tuple_key,
    finalize_rows,
    orderable_key,
    score_components,
    triangle_graph,
)

__all__ = [
    "CompletionPolicy",
    "RectangularCompletion",
    "TileScheduler",
    "TriangularCompletion",
    "JoinEvent",
    "adjacency_rule_holds",
    "count_local_violations",
    "is_globally_extraction_optimal",
    "ChunkSource",
    "JoinResult",
    "JoinStatistics",
    "JoinedPair",
    "ListChunkSource",
    "ParallelJoinExecutor",
    "PipeJoinExecutor",
    "make_executor",
    "product_score",
    "SearchSpace",
    "Tile",
    "ALL_METHODS",
    "CompletionStrategy",
    "InvocationStrategy",
    "JoinMethodSpec",
    "JoinTopology",
    "Axis",
    "InvocationSchedule",
    "MergeScanSchedule",
    "NestedLoopSchedule",
    "VariableRatioSchedule",
    "cost_aware_schedule",
    "RankJoinExecutor",
    "TopKJoinOutcome",
    "canonical_pair_key",
    "tile_trace",
    "topk_join",
    "RankedEnumerationStatistics",
    "RankedEnumerator",
    "RankedResult",
    "BinaryCascadeExecutor",
    "EquiPredicate",
    "JoinGraph",
    "JoinedRow",
    "MultiwayJoinExecutor",
    "MultiwayJoinResult",
    "MultiwayJoinStatistics",
    "Relation",
    "TrieIterator",
    "canonical_row_key",
    "canonical_tuple_key",
    "finalize_rows",
    "orderable_key",
    "score_components",
    "triangle_graph",
]
