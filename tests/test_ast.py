"""Unit tests for the query AST: comparators, predicates, query validation."""

import pytest

from repro.errors import QueryError
from repro.query.ast import (
    AttrRef,
    Comparator,
    ConnectionAtom,
    InputRef,
    JoinPredicate,
    Query,
    SelectionPredicate,
    ServiceAtom,
)


class TestComparator:
    def test_equality(self):
        assert Comparator.EQ.apply(3, 3)
        assert not Comparator.EQ.apply(3, 4)

    def test_ordering(self):
        assert Comparator.LT.apply(1, 2)
        assert Comparator.LE.apply(2, 2)
        assert Comparator.GT.apply(3, 2)
        assert Comparator.GE.apply(2, 2)

    def test_none_never_satisfies(self):
        for comp in Comparator:
            assert not comp.apply(None, 3)
            assert not comp.apply(3, None)

    def test_like_patterns(self):
        assert Comparator.LIKE.apply("pizzeria", "%pizz%")
        assert Comparator.LIKE.apply("Pizza", "pi_za")  # case-insensitive
        assert not Comparator.LIKE.apply("sushi", "%pizza%")
        assert Comparator.LIKE.apply("a+b", "a+b")  # regex chars escaped

    def test_incomparable_types_raise(self):
        with pytest.raises(QueryError):
            Comparator.LT.apply("abc", 3)

    def test_flipped(self):
        assert Comparator.LT.flipped is Comparator.GT
        assert Comparator.GE.flipped is Comparator.LE
        assert Comparator.EQ.flipped is Comparator.EQ
        assert Comparator.LIKE.flipped is Comparator.LIKE


class TestAttrRef:
    def test_parse(self):
        ref = AttrRef.parse("M.Openings.Date")
        assert ref.alias == "M"
        assert str(ref.path) == "Openings.Date"

    def test_parse_requires_alias(self):
        with pytest.raises(QueryError):
            AttrRef.parse("Title")


class TestInputRef:
    def test_requires_input_prefix(self):
        with pytest.raises(QueryError):
            InputRef("X1")
        assert InputRef("INPUT7").name == "INPUT7"


class TestSelectionPredicate:
    def test_binds_only_on_equality(self):
        eq = SelectionPredicate(AttrRef.parse("A.X"), Comparator.EQ, 1)
        gt = SelectionPredicate(AttrRef.parse("A.X"), Comparator.GT, 1)
        assert eq.binds and not gt.binds

    def test_resolved_operand(self):
        pred = SelectionPredicate(
            AttrRef.parse("A.X"), Comparator.EQ, InputRef("INPUT1")
        )
        assert pred.resolved_operand({"INPUT1": 42}) == 42
        with pytest.raises(QueryError):
            pred.resolved_operand({})

    def test_constant_operand_passthrough(self):
        pred = SelectionPredicate(AttrRef.parse("A.X"), Comparator.EQ, 5)
        assert pred.resolved_operand({}) == 5


class TestJoinPredicate:
    def test_rejects_degenerate_self_comparison(self):
        ref = AttrRef.parse("A.X")
        with pytest.raises(QueryError):
            JoinPredicate(ref, Comparator.EQ, ref)

    def test_oriented_from(self):
        join = JoinPredicate(
            AttrRef.parse("A.X"), Comparator.LT, AttrRef.parse("B.Y")
        )
        here, comp, there = join.oriented_from("B")
        assert here.alias == "B" and comp is Comparator.GT and there.alias == "A"
        with pytest.raises(QueryError):
            join.oriented_from("C")

    def test_aliases(self):
        join = JoinPredicate(
            AttrRef.parse("A.X"), Comparator.EQ, AttrRef.parse("B.Y")
        )
        assert join.aliases == frozenset({"A", "B"})

    def test_kept_hash_is_the_field_hash_and_never_travels(self):
        """The hash is kept on first use (the optimizer asks once per child
        it prices), equals the fields' hash, and is left out of copies and
        pickles — a string hash is wrong in another process."""
        import copy
        import pickle

        join = JoinPredicate(
            AttrRef.parse("A.X"), Comparator.LT, AttrRef.parse("B.Y"), 0.4, "P"
        )
        fields = (join.left, join.comparator, join.right, 0.4, "P")
        assert hash(join) == hash(fields) == hash(join)
        assert "_hash" in vars(join)
        for twin in (pickle.loads(pickle.dumps(join)), copy.copy(join)):
            assert twin == join and twin is not join
            assert set(vars(twin)) == {
                "left", "comparator", "right", "selectivity", "pattern"
            }
            assert hash(twin) == hash(join)


class TestQueryValidation:
    def atoms(self):
        return (ServiceAtom("A", "S1"), ServiceAtom("B", "S2"))

    def test_needs_atoms(self):
        with pytest.raises(QueryError):
            Query(atoms=())

    def test_positive_k(self):
        with pytest.raises(QueryError):
            Query(atoms=self.atoms(), k=0)

    def test_duplicate_aliases_rejected(self):
        with pytest.raises(QueryError):
            Query(atoms=(ServiceAtom("A", "S1"), ServiceAtom("A", "S2")))

    def test_unknown_alias_in_connection(self):
        with pytest.raises(QueryError):
            Query(
                atoms=self.atoms(),
                connections=(ConnectionAtom("P", "A", "Z"),),
            )

    def test_unknown_alias_in_selection(self):
        with pytest.raises(QueryError):
            Query(
                atoms=self.atoms(),
                selections=(
                    SelectionPredicate(AttrRef.parse("Z.X"), Comparator.EQ, 1),
                ),
            )

    def test_unknown_alias_in_ranking(self):
        with pytest.raises(QueryError):
            Query(atoms=self.atoms(), ranking_weights={"Z": 1.0})

    def test_selections_on_and_atom_lookup(self):
        sel = SelectionPredicate(AttrRef.parse("A.X"), Comparator.EQ, 1)
        q = Query(atoms=self.atoms(), selections=(sel,))
        assert q.selections_on("A") == (sel,)
        assert q.selections_on("B") == ()
        assert q.atom("A").source == "S1"
        with pytest.raises(QueryError):
            q.atom("Z")

    def test_same_source_twice_with_renaming(self):
        # Section 3.1: "the same service can occur several times with a
        # different renaming for each different use".
        q = Query(atoms=(ServiceAtom("A", "S1"), ServiceAtom("B", "S1")))
        assert q.aliases == ("A", "B")
