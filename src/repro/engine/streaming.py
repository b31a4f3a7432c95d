"""Streaming execution of binary parallel joins over live services.

The materialized :class:`~repro.engine.executor.PlanExecutor` bounds each
service by its fetch factor and joins whole result sets — the right model
for cost accounting, but it hides the call-by-call scheduling that
Section 4 is about.  This module provides the complementary fine-grained
path for the common two-service case: invoke both services, then drive a
:class:`~repro.joins.methods.ParallelJoinExecutor` (or the guaranteed
:class:`~repro.joins.topk.RankJoinExecutor`) over the live invocations, so
chunks are fetched exactly when the invocation/completion strategy asks
for them and the output is produced incrementally, tile by tile — the
non-blocking dataflow the chapter emphasises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ExecutionError
from repro.joins.methods import JoinResult, make_executor
from repro.joins.spec import JoinMethodSpec
from repro.joins.topk import RankJoinExecutor
from repro.model.tuples import CompositeTuple, ServiceTuple
from repro.query.ast import Comparator
from repro.query.compile import CompiledQuery
from repro.query.feasibility import ProviderKind, input_providers

__all__ = ["StreamedJoin", "stream_binary_join"]


@dataclass
class StreamedJoin:
    """Outcome of a streamed binary join."""

    combinations: list[CompositeTuple]
    join: JoinResult
    left_alias: str
    right_alias: str

    @property
    def total_calls(self) -> int:
        return self.join.stats.total_calls


def _source_bindings(
    query: CompiledQuery, alias: str, inputs: Mapping[str, Any]
) -> dict[str, Any]:
    """Constant bindings for one source atom; rejects piped inputs."""
    atom = query.atom(alias)
    assert atom.interface is not None
    bindings: dict[str, Any] = {}
    providers = input_providers(query)
    for path in atom.interface.input_paths():
        options = providers.get((alias, path), ())
        constant = next(
            (
                p
                for p in options
                if p.kind is ProviderKind.CONSTANT and p.selection is not None
            ),
            None,
        )
        if constant is None:
            raise ExecutionError(
                f"streamed joins need source services; {alias}.{path} "
                "has no constant binding"
            )
        assert constant.selection is not None
        if constant.selection.comparator is Comparator.EQ:
            bindings[path] = constant.selection.resolved_operand(inputs)
        else:
            bindings[path] = None  # range constraint: no echo value
    return bindings


def stream_binary_join(
    query: CompiledQuery,
    pool,
    inputs: Mapping[str, Any],
    spec: JoinMethodSpec | None = None,
    k: int | None = None,
    guarantee_topk: bool = False,
    max_calls: int = 10_000,
) -> StreamedJoin:
    """Run a two-atom query as a call-level streamed parallel join.

    Requirements: exactly two atoms, both with fixed interfaces whose
    inputs are bound by constants/INPUT variables (no pipe dependency),
    and at least one join predicate between them.  With
    ``guarantee_topk=True`` the rank join is used (weights taken from the
    query's ranking function); otherwise the fast method given by ``spec``
    (default merge-scan + triangular).
    """
    if len(query.atoms) != 2:
        raise ExecutionError("stream_binary_join needs exactly two atoms")
    left_alias, right_alias = query.aliases
    predicates = query.joins_between(left_alias, right_alias)
    if not predicates:
        raise ExecutionError("the two atoms are not joined")
    for atom in query.atoms:
        if atom.interface is None:
            raise ExecutionError(
                f"atom {atom.alias!r} must be bound to an interface"
            )

    k = query.k if k is None else k
    left_atom = query.atom(left_alias)
    right_atom = query.atom(right_alias)
    assert left_atom.interface is not None and right_atom.interface is not None
    left = pool.invoke(
        left_atom.interface.name,
        _source_bindings(query, left_alias, inputs),
        alias=left_alias,
    )
    right = pool.invoke(
        right_atom.interface.name,
        _source_bindings(query, right_alias, inputs),
        alias=right_alias,
    )

    check = query.predicate_check(joins=predicates)

    def predicate(a: ServiceTuple, b: ServiceTuple) -> bool:
        return check({left_alias: a, right_alias: b}, inputs)

    if guarantee_topk:
        executor = RankJoinExecutor(
            left,
            right,
            predicate,
            weight_x=query.ranking.weight(left_alias),
            weight_y=query.ranking.weight(right_alias),
            k=k,
            max_calls=max_calls,
        )
    else:
        executor = make_executor(
            spec or JoinMethodSpec(),
            left,
            right,
            predicate,
            k=k,
            scorer=lambda a, b: query.ranking.score(
                {left_alias: a.score, right_alias: b.score}
            ),
            max_calls=max_calls,
        )
    result = executor.run()

    combinations = [
        CompositeTuple(
            {left_alias: pair.left, right_alias: pair.right},
            query.ranking.score_composite(
                {left_alias: pair.left, right_alias: pair.right}
            ),
        )
        for pair in result.pairs
    ]
    return StreamedJoin(
        combinations=combinations,
        join=result,
        left_alias=left_alias,
        right_alias=right_alias,
    )
