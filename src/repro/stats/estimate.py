"""Selectivity and cardinality estimation.

Section 3.2: "We assume that services are independent of each other and
that at each service call the values are uniformly distributed over the
domains associated to their input and output fields.  These assumptions
allow us to obtain estimates for predicate selectivity and sizes of
results returned by each service call."

Rules implemented here:

* an equality over an attribute with a sized domain has selectivity
  ``1/|domain|``; unsized domains fall back to :data:`DEFAULT_EQ`;
* ordered comparisons use the textbook ``1/3`` heuristic, LIKE ``1/4``;
* a join-predicate group expanded from a connection pattern uses the
  pattern's registered selectivity (Section 5.6 uses 2% for ``Shows`` and
  40% for ``DinnerPlace``);
* predicates combine multiplicatively under the independence assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.model.attributes import Attribute
from repro.model.service import ServiceMart
from repro.query.ast import Comparator, JoinPredicate, SelectionPredicate
from repro.query.compile import CompiledQuery

__all__ = [
    "DEFAULT_EQ",
    "RANGE_SELECTIVITY",
    "LIKE_SELECTIVITY",
    "selection_selectivity",
    "combined_selection_selectivity",
    "join_group_selectivity",
    "Estimator",
]

DEFAULT_EQ = 0.1
RANGE_SELECTIVITY = 1.0 / 3.0
LIKE_SELECTIVITY = 0.25


def _attribute_of(mart: ServiceMart, predicate: SelectionPredicate) -> Attribute:
    return mart.resolve(predicate.attr.path)


def selection_selectivity(
    predicate: SelectionPredicate, mart: ServiceMart
) -> float:
    """Selectivity of one selection predicate under uniformity."""
    if predicate.comparator is Comparator.EQ:
        attribute = _attribute_of(mart, predicate)
        if attribute.domain.size:
            return 1.0 / attribute.domain.size
        return DEFAULT_EQ
    if predicate.comparator is Comparator.LIKE:
        return LIKE_SELECTIVITY
    return RANGE_SELECTIVITY


def combined_selection_selectivity(
    predicates: Sequence[SelectionPredicate], mart: ServiceMart
) -> float:
    """Product of per-predicate selectivities (independence assumption)."""
    result = 1.0
    for predicate in predicates:
        result *= selection_selectivity(predicate, mart)
    return result


def join_group_selectivity(
    predicates: Iterable[JoinPredicate],
    left_mart: ServiceMart | None = None,
    right_mart: ServiceMart | None = None,
) -> float:
    """Selectivity of a conjunction of join predicates between two atoms.

    Predicates stamped with an explicit ``selectivity`` (set by pattern
    expansion) contribute it directly.  Others are estimated: equality via
    ``1/max(|dom_l|, |dom_r|)`` when a domain size is known, else
    :data:`DEFAULT_EQ`; ranges via :data:`RANGE_SELECTIVITY`.
    """
    result = 1.0
    for predicate in predicates:
        if predicate.selectivity is not None:
            result *= predicate.selectivity
            continue
        if predicate.comparator is Comparator.EQ:
            sizes = []
            if left_mart is not None and left_mart.has_attribute(
                predicate.left.path.group or predicate.left.path.name
            ):
                attr = left_mart.resolve(predicate.left.path)
                if attr.domain.size:
                    sizes.append(attr.domain.size)
            if right_mart is not None and right_mart.has_attribute(
                predicate.right.path.group or predicate.right.path.name
            ):
                attr = right_mart.resolve(predicate.right.path)
                if attr.domain.size:
                    sizes.append(attr.domain.size)
            result *= 1.0 / max(sizes) if sizes else DEFAULT_EQ
        elif predicate.comparator is Comparator.LIKE:
            result *= LIKE_SELECTIVITY
        else:
            result *= RANGE_SELECTIVITY
    return result


@dataclass(frozen=True)
class Estimator:
    """Query-scoped estimation helpers used by the plan annotator.

    All methods take aliases of the wrapped compiled query and consult its
    marts, registered connection patterns, and predicate annotations.
    """

    query: CompiledQuery
    #: Join selectivities by alias pair / predicate tuple: functions of the
    #: query alone, asked once per annotated node by the optimizer.
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    #: ``id(node) -> (node, pushed, pipe)``: each entry holds its node, so
    #: the id cannot be reused while it is cached.
    _by_node: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def service_selectivities(self, node) -> tuple[float, float]:
        """``(pushed, pipe)`` of a service node of the wrapped query: the
        selectivity of its pushed-down selections and of the join
        predicates its pipe bindings realise.  Functions of the node
        alone, computed once per node object however often it is priced."""
        entry = self._by_node.get(id(node))
        if entry is None:
            pushed = combined_selection_selectivity(
                node.pushed_selections, self.query.atom(node.alias).mart
            )
            entry = self._by_node[id(node)] = (
                node, pushed, self.pipe_selectivity(node)
            )
        return entry[1], entry[2]

    def pipe_selectivity(self, node) -> float:
        """Selectivity of the join predicates a pipe consumer realises."""
        result = 1.0
        seen: set[frozenset[str]] = set()
        for producer in node.pipe_sources:
            pair = frozenset((node.alias, producer))
            if pair in seen:
                continue
            seen.add(pair)
            result *= self.join_selectivity(node.alias, producer)
        return result

    def join_selectivity(self, alias_a: str, alias_b: str) -> float:
        """Selectivity of all join predicates between the two aliases."""
        key = (alias_a, alias_b)
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = self.predicates_selectivity(
                self.query.joins_between(alias_a, alias_b)
            )
        return value

    def predicates_selectivity(
        self, predicates: Iterable[JoinPredicate]
    ) -> float:
        preds = tuple(predicates)
        if not preds:
            return 1.0
        value = self._memo.get(preds)
        if value is None:
            value = self._memo[preds] = join_group_selectivity(
                preds,
                left_mart=self.query.atom(preds[0].left.alias).mart,
                right_mart=self.query.atom(preds[0].right.alias).mart,
            )
        return value
