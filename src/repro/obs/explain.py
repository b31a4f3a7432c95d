"""The ``repro explain`` surface: estimated vs. actual, per plan node.

The chapter's Fig. 10 walks one fully instantiated plan and argues about
its cost through per-node annotations (``tin``/``tout``/fetches/calls).
This module turns that worked example into a verifiable artifact: it
lines the optimizer's *estimates* (:class:`~repro.plans.plan.PlanAnnotations`)
up against the executor's *measurements*
(:class:`~repro.engine.executor.NodeRunStats` and the call log), node by
node, and attributes the measured execution time to its bottleneck —
the service whose busy time dominates the critical path.

Rendering is plain text (output-rooted, like ``QueryPlan.render``), one
node per line::

    OUTPUT k=10  [est tout=10.0 | act tout=10]
      JOIN(T.UAddress=R.UAddress)  [est 36.0 -> 14.4 | act 25 -> 9]  probes=25 (hash)
        SERVICE T:Theatre1  [est calls=2.0 | act calls=2 (2 ok)]  busy=1.40s <- bottleneck 52%
        ...

A node's ``est a -> b | act c -> d`` reads "estimated ``tin`` a producing
``tout`` b; measured ``tin`` c producing ``tout`` d".  After a join's
``probes=`` comes why it took the kernel it took: ``hash``,
``hash_multikey`` or ``hash_shared`` (no predicate: keyed on the shared
upstream components), with ``, exact`` when key equality decided every
pair so none was checked, or the reason it ran the nested loop
(``non_eq``, ``no_predicates``, ``degraded``, ``empty_side``,
``same_side``, ``unhashable_key``).  ``staged=n`` on a service line:
the node checked ``n`` join predicates with its selections.  The summary
says how many of the result's rows exist, ``rows built b of n`` (a plan
ending in a service node ranks first and builds a row when it is read).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.model.scoring import fold
from repro.plans.nodes import OutputNode, ParallelJoinNode, ServiceNode
from repro.plans.plan import PlanAnnotations, QueryPlan

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycles)
    from repro.engine.executor import ExecutionResult

__all__ = ["ExplainNode", "ExplainReport", "build_explain", "world_line"]


@dataclass
class ExplainNode:
    """One plan node's estimated-vs-actual comparison."""

    node_id: str
    label: str
    kind: str
    alias: str | None = None
    est_tin: float | None = None
    est_tout: float | None = None
    est_calls: float | None = None
    est_fetches: int | None = None
    act_tin: int | None = None
    act_tout: int | None = None
    act_calls: int | None = None
    act_calls_ok: int | None = None
    busy_time: float | None = None
    pairs_probed: int | None = None
    dispatch: str | None = None
    exact: bool = False
    staged: int | None = None
    final_check: str | None = None
    bottleneck_share: float | None = None
    children: "list[ExplainNode]" = field(default_factory=list)

    def render_line(self) -> str:
        parts = [self.label]
        est = _flow(self.est_tin, self.est_tout)
        act = _flow(self.act_tin, self.act_tout)
        if est or act:
            parts.append(f"[est {est or '-'} | act {act or '-'}]")
        if self.est_calls is not None or self.act_calls is not None:
            bits = []
            if self.est_calls is not None:
                bits.append(f"est calls={self.est_calls:g}")
            if self.act_calls is not None:
                delivered = (
                    f" ({self.act_calls_ok} ok)"
                    if self.act_calls_ok is not None
                    and self.act_calls_ok != self.act_calls
                    else ""
                )
                bits.append(f"act calls={self.act_calls}{delivered}")
            parts.append("[" + ", ".join(bits) + "]")
        if self.est_fetches is not None:
            parts.append(f"fetches={self.est_fetches}")
        if self.pairs_probed is not None:
            exact = ", exact" if self.exact else ""
            via = f" ({self.dispatch}{exact})" if self.dispatch else ""
            parts.append(f"probes={self.pairs_probed}{via}")
        if self.staged:
            parts.append(f"staged={self.staged}")
        if self.final_check:
            parts.append(f"final_check={self.final_check}")
        if self.busy_time:
            parts.append(f"busy={self.busy_time:.2f}s")
        if self.bottleneck_share is not None:
            parts.append(f"<- bottleneck {self.bottleneck_share:.0%}")
        return "  ".join(parts)


def _flow(tin: "float | None", tout: "float | None") -> str:
    if tin is None and tout is None:
        return ""
    left = f"{tin:g}" if tin is not None else "?"
    right = f"{tout:g}" if tout is not None else "?"
    return f"{left} -> {right}"


@dataclass
class ExplainReport:
    """The full explain tree plus run-level summary figures."""

    root: ExplainNode
    estimated_results: float | None = None
    actual_results: int | None = None
    execution_time: float | None = None
    time_to_screen: float | None = None
    total_calls: int | None = None
    delivered_calls: int | None = None
    cache_hits: int | None = None
    cache_misses: int | None = None
    cache_hit_rate: float | None = None
    pairs_probed: int | None = None
    rows_built: int | None = None
    rows_scored: int | None = None
    result_built: int | None = None  # result rows that exist by now
    #: :attr:`~repro.engine.executor.ExecutionResult.k_shortfall`.
    k_shortfall: int = 0
    #: :attr:`~repro.engine.executor.ExecutionResult.result_memo`.
    result_memo: str | None = None
    #: :meth:`~repro.services.simulated.WorldStats.as_dict` of the
    #: simulated world the plan ran against.
    world: Mapping[str, int] | None = None
    bottleneck_alias: str | None = None
    bottleneck_share: float | None = None

    def render(self) -> str:
        lines: list[str] = []
        # Pre-order on an explicit stack (a recursive closure is a cycle).
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            lines.append("  " * depth + node.render_line())
            stack.extend((child, depth + 1) for child in reversed(node.children))
        summary: list[str] = []
        if self.estimated_results is not None or self.actual_results is not None:
            summary.append(
                "results: estimated "
                + (f"{self.estimated_results:g}" if self.estimated_results is not None else "?")
                + ", actual "
                + (f"{self.actual_results}" if self.actual_results is not None else "?")
                + (f", k-shortfall {self.k_shortfall}" if self.k_shortfall else "")
            )
        if self.execution_time is not None:
            line = f"measured: {self.execution_time:.2f}s execution"
            if self.time_to_screen is not None:
                line += f", {self.time_to_screen:.2f}s to screen"
            summary.append(line)
        if self.total_calls is not None:
            line = f"calls: {self.total_calls} round trips"
            if (
                self.delivered_calls is not None
                and self.delivered_calls != self.total_calls
            ):
                line += f" ({self.delivered_calls} delivered)"
            summary.append(line)
        if self.cache_hits is not None and self.cache_misses is not None:
            summary.append(
                f"invocation cache: {self.cache_hits} hits / "
                f"{self.cache_misses} misses"
                + (
                    f" ({self.cache_hit_rate:.0%} hit rate)"
                    if self.cache_hit_rate is not None
                    else ""
                )
            )
        if self.pairs_probed is not None:
            summary.append(f"join probes: {self.pairs_probed} pairs")
        if self.rows_built is not None:
            line = f"rows: {self.rows_built} built, {self.rows_scored} scored"
            if self.result_built is not None:
                line += f"; result rows built {self.result_built} of {self.actual_results}"
            summary.append(line)
        if self.result_memo is not None:
            # ``off(reason)`` names why this execution was neither recorded
            # nor replayed (a private cache, possible faults, a call timeout).
            summary.append(f"result memo: {self.result_memo}")
        if self.world is not None:
            summary.append(world_line(self.world))
        if self.bottleneck_alias is not None:
            summary.append(
                f"bottleneck: {self.bottleneck_alias} "
                f"({self.bottleneck_share:.0%} of service busy time)"
            )
        if summary:
            lines.append("")
            lines.extend(summary)
        return "\n".join(lines)


def world_line(world: Mapping[str, Any]) -> str:
    """One line for a simulated world's generation counters (``explain``
    and ``serve-report`` print the same words)."""
    return (
        f"world: {int(world['result_lists_opened'])} result lists, "
        f"{int(world['tuples_generated'])} tuples generated in "
        f"{int(world['sampling_attempts'])} attempts, "
        f"{int(world['tuples_shared'])} served from another session's prefix, "
        f"{int(world['fallback_checks'])} fallback constraint checks"
    )


def build_explain(
    plan: QueryPlan,
    annotations: PlanAnnotations | None = None,
    result: "ExecutionResult | None" = None,
    world: Mapping[str, int] | None = None,
) -> ExplainReport:
    """Assemble the explain tree from a plan, its estimates, and (when the
    plan was executed) the measured :class:`ExecutionResult` and the
    counters of the simulated ``world`` it ran against."""
    node_stats: Mapping[str, object] = result.node_stats if result is not None else {}
    busy_by_node = {
        node_id: getattr(stats, "busy_time", 0.0)
        for node_id, stats in node_stats.items()
    }
    total_busy = fold(busy_by_node.values())
    calls_ok = (
        result.log.calls_by_alias(ok_only=True) if result is not None else {}
    )

    def build(node_id: str) -> ExplainNode:
        node = plan.node(node_id)
        out = ExplainNode(
            node_id=node_id,
            label=node.label(),
            kind=node.kind,
            alias=getattr(node, "alias", None),
        )
        if annotations is not None and node_id in annotations.by_node:
            ann = annotations.by_node[node_id]
            out.est_tin = ann.tin
            out.est_tout = ann.tout
            out.est_fetches = ann.fetches
            if isinstance(node, ServiceNode):
                out.est_calls = ann.calls
        stats = node_stats.get(node_id)
        if stats is not None:
            out.act_tin = getattr(stats, "tin", None)
            out.act_tout = getattr(stats, "tout", None)
            if isinstance(node, ServiceNode):
                out.act_calls = getattr(stats, "calls", None)
                out.act_calls_ok = calls_ok.get(node.alias, 0)
            probed = getattr(stats, "pairs_probed", 0)
            if isinstance(node, ParallelJoinNode) and probed is not None:
                out.pairs_probed = probed
                out.dispatch = getattr(stats, "dispatch", "") or None
                out.exact = getattr(stats, "exact", False)
            out.staged = getattr(stats, "staged", 0) or None
            out.final_check = getattr(stats, "final_check", "") or None
            busy = busy_by_node.get(node_id, 0.0)
            if busy:
                out.busy_time = busy
                if isinstance(node, ServiceNode) and total_busy > 0:
                    out.bottleneck_share = busy / total_busy
        for parent in plan.parents(node_id):
            out.children.append(build(parent))
        return out

    root = build(plan.output_node.node_id)

    # Only the dominant service is *the* bottleneck; clear the share
    # marker on the others so the tree flags a single node.
    services: list[ExplainNode] = []

    def collect(node: ExplainNode) -> None:
        if node.kind == "ServiceNode" and node.bottleneck_share is not None:
            services.append(node)
        for child in node.children:
            collect(child)

    collect(root)
    bottleneck: ExplainNode | None = None
    if services:
        bottleneck = max(services, key=lambda n: (n.busy_time or 0.0, n.node_id))
        for node in services:
            if node is not bottleneck:
                node.bottleneck_share = None

    report = ExplainReport(root=root, world=world)
    if annotations is not None:
        out_node = plan.output_node.node_id
        if out_node in annotations.by_node:
            report.estimated_results = annotations.by_node[out_node].tout
    if result is not None:
        report.actual_results = len(result.tuples)
        report.k_shortfall = result.k_shortfall
        report.execution_time = result.execution_time
        report.time_to_screen = result.time_to_screen
        report.total_calls = result.total_calls
        report.delivered_calls = sum(
            result.log.calls_by_alias(ok_only=True).values()
        )
        cache = result.cache_stats
        report.cache_hits = cache.hits
        report.cache_misses = cache.misses
        report.cache_hit_rate = cache.hit_rate
        report.pairs_probed = result.pairs_probed
        report.rows_built = sum(s.rows_built for s in result.node_stats.values())
        report.rows_scored = sum(s.rows_scored for s in result.node_stats.values())
        if hasattr(result.tuples, "built"):  # not an unpickled result's list
            report.result_built = len(result.tuples.built)
        report.result_memo = result.result_memo
        if bottleneck is not None and bottleneck.busy_time:
            report.bottleneck_alias = bottleneck.alias
            report.bottleneck_share = (
                (bottleneck.busy_time / total_busy) if total_busy else None
            )
    return report
