"""Repeating-group witness semantics — including the exact Section 3.1
example (experiment E01): Q1 selects {t1} and Q2 produces
{t1.t3, t1.t4, t2.t4}."""

import pytest

from repro.model.tuples import ServiceTuple
from repro.query.ast import AttrRef, Comparator, JoinPredicate, SelectionPredicate
from repro.query.parser import parse_query
from repro.query.predicates import group_occurrences, satisfies


def rg_tuple(source, *members):
    """A tuple with one repeating group R over sub-attributes A, B."""
    return ServiceTuple(
        values={"R": tuple({"A": a, "B": b} for a, b in members)},
        score=1.0,
        source=source,
    )


# The chapter's data: S1 provides t1, t2; S2 provides t3, t4.
T1 = rg_tuple("S1", (1, "x"), (2, "x"))
T2 = rg_tuple("S1", (2, "x"), (1, "y"))
T3 = rg_tuple("S2", (1, "x"), (2, "y"))
T4 = rg_tuple("S2", (2, "x"))

Q1_SELECTIONS = (
    SelectionPredicate(AttrRef.parse("S1.R.A"), Comparator.EQ, 1),
    SelectionPredicate(AttrRef.parse("S1.R.B"), Comparator.EQ, "x"),
)
Q2_JOINS = (
    JoinPredicate(AttrRef.parse("S1.R.A"), Comparator.EQ, AttrRef.parse("S2.R.A")),
    JoinPredicate(AttrRef.parse("S1.R.B"), Comparator.EQ, AttrRef.parse("S2.R.B")),
)


class TestSection31Example:
    def test_q1_selects_t1(self):
        # t1 has witness <1,x> satisfying both conjuncts.
        assert satisfies({"S1": T1}, selections=Q1_SELECTIONS)

    def test_q1_rejects_t2(self):
        # t2's sub-attributes satisfy the conjuncts only in *different*
        # members, so no single witness exists.
        assert not satisfies({"S1": T2}, selections=Q1_SELECTIONS)

    def test_q2_result_is_exactly_the_three_chapter_pairs(self):
        expected = {("t1", "t3"), ("t1", "t4"), ("t2", "t4")}
        names = {"t1": T1, "t2": T2}
        others = {"t3": T3, "t4": T4}
        got = {
            (n1, n2)
            for n1, s1 in names.items()
            for n2, s2 in others.items()
            if satisfies({"S1": s1, "S2": s2}, joins=Q2_JOINS)
        }
        assert got == expected

    def test_q2_rejects_t2_t3_specifically(self):
        # "the tuple t2.t3 does not belong to Q2's result because, although
        # its sub-attributes satisfy the join condition, this occurs in
        # different tuples of the repeating group."
        assert not satisfies({"S1": T2, "S2": T3}, joins=Q2_JOINS)


class TestWitnessMechanics:
    def test_group_occurrences_collects_and_sorts(self):
        occ = group_occurrences(Q1_SELECTIONS, Q2_JOINS)
        assert occ == (("S1", "R"), ("S2", "R"))

    def test_empty_group_never_satisfies(self):
        empty = ServiceTuple(values={"R": ()}, source="S1")
        assert not satisfies({"S1": empty}, selections=Q1_SELECTIONS)

    def test_flat_predicates_need_no_witness(self):
        tup = ServiceTuple(values={"X": 5}, source="S")
        pred = SelectionPredicate(AttrRef.parse("S.X"), Comparator.GT, 3)
        assert satisfies({"S": tup}, selections=(pred,))

    def test_mixed_flat_and_nested(self):
        tup = ServiceTuple(
            values={"X": 5, "R": ({"A": 1, "B": "x"},)}, source="S"
        )
        preds = (
            SelectionPredicate(AttrRef.parse("S.X"), Comparator.EQ, 5),
            SelectionPredicate(AttrRef.parse("S.R.A"), Comparator.EQ, 1),
        )
        assert satisfies({"S": tup}, selections=preds)

    def test_input_variables_resolved(self):
        tup = ServiceTuple(values={"X": 5}, source="S")
        from repro.query.ast import InputRef

        pred = SelectionPredicate(
            AttrRef.parse("S.X"), Comparator.EQ, InputRef("INPUT1")
        )
        assert satisfies({"S": tup}, selections=(pred,), inputs={"INPUT1": 5})
        assert not satisfies({"S": tup}, selections=(pred,), inputs={"INPUT1": 6})

    def test_composite_tuple_accepted_directly(self):
        from repro.model.tuples import CompositeTuple

        comp = CompositeTuple({"S1": T1, "S2": T3}, 1.0)
        assert satisfies(comp, joins=Q2_JOINS)

    def test_same_group_shared_across_selection_and_join(self):
        # One witness member must satisfy the selection AND the join.
        s1 = rg_tuple("S1", (1, "x"), (2, "y"))
        s2 = rg_tuple("S2", (2, "x"))
        sel = (SelectionPredicate(AttrRef.parse("S1.R.B"), Comparator.EQ, "y"),)
        join = (
            JoinPredicate(
                AttrRef.parse("S1.R.A"), Comparator.EQ, AttrRef.parse("S2.R.A")
            ),
        )
        # Member <2,y> satisfies both (A=2 joins, B=y selects): accepted.
        assert satisfies({"S1": s1, "S2": s2}, selections=sel, joins=join)
        # Selection B='x' forces member <1,x>, whose A=1 cannot join: rejected.
        sel_x = (SelectionPredicate(AttrRef.parse("S1.R.B"), Comparator.EQ, "x"),)
        assert not satisfies({"S1": s1, "S2": s2}, selections=sel_x, joins=join)


def test_running_example_opening_condition_semantics():
    """The chapter's note: Openings.Country=... AND Openings.Date>...
    'extracts movies such that a single opening tuple satisfies both'."""
    query = parse_query(
        "SELECT Movie1 AS M WHERE M.Openings.Country = 'it' "
        "AND M.Openings.Date > '2009-03-01'"
    )
    sels = query.selections
    good = ServiceTuple(
        values={"Openings": ({"Country": "it", "Date": "2009-05-01"},)},
        source="Movie1",
    )
    split = ServiceTuple(
        values={
            "Openings": (
                {"Country": "it", "Date": "2009-01-01"},  # right country, too early
                {"Country": "us", "Date": "2009-05-01"},  # late, wrong country
            )
        },
        source="Movie1",
    )
    assert satisfies({"M": good}, selections=sels)
    assert not satisfies({"M": split}, selections=sels)
