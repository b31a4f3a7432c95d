"""Predicate evaluation with repeating-group witness semantics.

Section 3.1 defines query semantics carefully for repeating groups: a
composite tuple satisfies the predicate set ``P`` iff there exists a single
mapping ``M`` sending every repeating-group occurrence ``si.R`` mentioned
in ``P`` to *one* member sub-tuple of ``ti.R`` such that every predicate in
``P`` holds under that mapping.  The chapter's example: with
``t2 = ({<2,x>, <1,y>})`` the query ``S1.R.A=1 AND S1.R.B=x`` does *not*
select ``t2`` — although each conjunct is satisfied by *some* member, no
single member satisfies both.

This module implements that joint-witness evaluation for arbitrary
mixtures of selection and join predicates over composite tuples, plus the
single-service specialisation used when predicates are pushed down to a
service invocation.

:func:`satisfies` interprets a predicate set against one composite and is
the reference oracle.  :func:`compile_predicates` lowers the same set
*once* into a closure over pre-resolved aliases, attribute names, witness
slots, INPUT references and comparator functions; the engine evaluates
that closure per tuple, and property tests hold the two equal (results
and raised errors alike).
"""

from __future__ import annotations

import itertools
import operator
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import QueryError
from repro.model.attributes import AttributePath
from repro.model.tuples import CompositeTuple, ServiceTuple
from repro.query.ast import (
    AttrRef,
    Comparator,
    InputRef,
    JoinPredicate,
    SelectionPredicate,
)

__all__ = [
    "PredicateCheck",
    "compile_predicates",
    "group_occurrences",
    "satisfies",
]

#: A repeating-group occurrence: (alias, group name).
GroupKey = tuple[str, str]


def group_occurrences(
    selections: Iterable[SelectionPredicate],
    joins: Iterable[JoinPredicate] = (),
) -> tuple[GroupKey, ...]:
    """All repeating-group occurrences mentioned by the predicates.

    The result is ordered deterministically (sorted) so that witness
    enumeration is reproducible.
    """
    keys: set[GroupKey] = set()
    for sel in selections:
        if sel.attr.path.is_nested:
            keys.add((sel.attr.alias, sel.attr.path.group or ""))
    for join in joins:
        for ref in (join.left, join.right):
            if ref.path.is_nested:
                keys.add((ref.alias, ref.path.group or ""))
    return tuple(sorted(keys))


def _resolve(
    components: Mapping[str, ServiceTuple],
    witnesses: Mapping[GroupKey, Mapping[str, Any]],
    ref: AttrRef,
) -> Any:
    """Value of ``ref`` under the current witness assignment."""
    tup = components[ref.alias]
    path: AttributePath = ref.path
    if path.is_nested:
        witness = witnesses[(ref.alias, path.group or "")]
        return witness.get(path.name)
    return tup.values.get(path.name)


def satisfies(
    components: Mapping[str, ServiceTuple] | CompositeTuple,
    selections: Sequence[SelectionPredicate] = (),
    joins: Sequence[JoinPredicate] = (),
    inputs: Mapping[str, Any] | None = None,
) -> bool:
    """Joint-witness satisfaction of all predicates by a composite tuple.

    Parameters
    ----------
    components:
        Mapping alias → service tuple (or a :class:`CompositeTuple`), which
        must cover every alias referenced by the predicates.
    selections, joins:
        The predicate set ``P``.
    inputs:
        Bindings for INPUT variables occurring in selections.
    """
    if isinstance(components, CompositeTuple):
        components = components.components
    inputs = dict(inputs or {})

    occurrences = group_occurrences(selections, joins)
    member_choices: list[tuple[Mapping[str, Any], ...]] = []
    for alias, group in occurrences:
        members = components[alias].group_members(group)
        if not members:
            # An empty repeating group cannot supply a witness, so any
            # predicate over it is unsatisfiable.
            return False
        member_choices.append(members)

    for assignment in itertools.product(*member_choices):
        witnesses = dict(zip(occurrences, assignment))
        ok = True
        for sel in selections:
            left = _resolve(components, witnesses, sel.attr)
            right = sel.resolved_operand(inputs)
            if not sel.comparator.apply(left, right):
                ok = False
                break
        if ok:
            for join in joins:
                left = _resolve(components, witnesses, join.left)
                right = _resolve(components, witnesses, join.right)
                if not join.comparator.apply(left, right):
                    ok = False
                    break
        if ok:
            return True
    return False


#: A lowered predicate set: ``check(components, inputs=None) -> bool``.
PredicateCheck = Callable[..., bool]


def _equal(left: Any, right: Any) -> bool:
    return left is not None and right is not None and left == right


def _ordering(comparator: Comparator, compare: Callable[[Any, Any], bool]):
    """``Comparator.apply`` for one ordering operator, dispatch resolved."""

    def apply(left: Any, right: Any) -> bool:
        if left is None or right is None:
            return False
        try:
            return compare(left, right)
        except TypeError as exc:
            raise QueryError(
                f"cannot compare {left!r} {comparator.value} {right!r}"
            ) from exc

    return apply


_APPLY: dict[Comparator, Callable[[Any, Any], bool]] = {
    Comparator.EQ: _equal,
    Comparator.LIKE: Comparator.LIKE.apply,
    Comparator.LT: _ordering(Comparator.LT, operator.lt),
    Comparator.LE: _ordering(Comparator.LE, operator.le),
    Comparator.GT: _ordering(Comparator.GT, operator.gt),
    Comparator.GE: _ordering(Comparator.GE, operator.ge),
}


def compile_predicates(
    selections: Iterable[SelectionPredicate] = (),
    joins: Iterable[JoinPredicate] = (),
) -> PredicateCheck:
    """Lower a predicate set into ``check(components, inputs)``.

    ``check`` agrees with ``satisfies(components, selections, joins,
    inputs)`` on every input — same result, same witness enumeration
    order, same short-circuit order and therefore the same
    :class:`~repro.errors.QueryError` (missing INPUT binding, incomparable
    operands) at the same point — but everything that does not depend on
    the tuple is resolved here, once: the sorted repeating-group
    occurrences and each reference's witness slot, attribute names, the
    INPUT variable a selection reads, and the comparator function.  With
    no repeating group mentioned the closure is a flat conjunction;
    otherwise it enumerates joint witnesses exactly as the oracle does.

    ``components`` must be a mapping alias -> service tuple.
    """
    selections, joins = tuple(selections), tuple(joins)
    occurrences = group_occurrences(selections, joins)
    slots = {occurrence: slot for slot, occurrence in enumerate(occurrences)}

    def operand(ref: AttrRef) -> tuple[str, int, str]:
        """``(alias, witness slot or -1, attribute name)`` of a reference."""
        path = ref.path
        slot = slots[(ref.alias, path.group or "")] if path.is_nested else -1
        return ref.alias, slot, path.name

    selection_terms = tuple(
        (
            *operand(sel.attr),
            _APPLY[sel.comparator],
            sel.operand.name if isinstance(sel.operand, InputRef) else None,
            sel.operand,
        )
        for sel in selections
    )
    join_terms = tuple(
        (*operand(join.left), _APPLY[join.comparator], *operand(join.right))
        for join in joins
    )

    def holds(components, inputs=None, witnesses=()) -> bool:
        """Every predicate under one witness assignment, in oracle order."""
        for alias, slot, name, apply, input_name, constant in selection_terms:
            if slot < 0:
                left = components[alias].values.get(name)
            else:
                left = witnesses[slot].get(name)
            if input_name is not None:
                if inputs is None or input_name not in inputs:
                    raise QueryError(f"missing binding for {input_name}")
                constant = inputs[input_name]
            if not apply(left, constant):
                return False
        for alias, slot, name, apply, r_alias, r_slot, r_name in join_terms:
            if slot < 0:
                left = components[alias].values.get(name)
            else:
                left = witnesses[slot].get(name)
            if r_slot < 0:
                right = components[r_alias].values.get(r_name)
            else:
                right = witnesses[r_slot].get(r_name)
            if not apply(left, right):
                return False
        return True

    if not occurrences:
        return holds  # a flat conjunction: the one (empty) assignment

    def check_witnesses(components, inputs=None) -> bool:
        choices = []
        for alias, group in occurrences:
            members = components[alias].group_members(group)
            if not members:
                # An empty repeating group cannot supply a witness.
                return False
            choices.append(members)
        for witnesses in itertools.product(*choices):
            if holds(components, inputs, witnesses):
                return True
        return False

    return check_witnesses
