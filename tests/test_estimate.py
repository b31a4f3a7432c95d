"""Unit tests for selectivity estimation."""

import pytest

from repro.model.attributes import Attribute, DataType, Domain
from repro.model.service import ServiceMart
from repro.query.ast import AttrRef, Comparator, JoinPredicate, SelectionPredicate
from repro.stats.estimate import (
    DEFAULT_EQ,
    LIKE_SELECTIVITY,
    RANGE_SELECTIVITY,
    Estimator,
    combined_selection_selectivity,
    join_group_selectivity,
    selection_selectivity,
)


@pytest.fixture()
def mart():
    return ServiceMart(
        "M",
        (
            Attribute("Sized", Domain("d", DataType.INTEGER, size=20)),
            Attribute("Unsized", Domain("u", DataType.STRING)),
        ),
    )


class TestSelectionSelectivity:
    def test_equality_with_sized_domain(self, mart):
        pred = SelectionPredicate(AttrRef.parse("M.Sized"), Comparator.EQ, 3)
        assert selection_selectivity(pred, mart) == pytest.approx(1 / 20)

    def test_equality_without_domain_size(self, mart):
        pred = SelectionPredicate(AttrRef.parse("M.Unsized"), Comparator.EQ, "x")
        assert selection_selectivity(pred, mart) == pytest.approx(DEFAULT_EQ)

    def test_range_heuristic(self, mart):
        pred = SelectionPredicate(AttrRef.parse("M.Sized"), Comparator.GT, 3)
        assert selection_selectivity(pred, mart) == pytest.approx(RANGE_SELECTIVITY)

    def test_like_heuristic(self, mart):
        pred = SelectionPredicate(AttrRef.parse("M.Unsized"), Comparator.LIKE, "%x%")
        assert selection_selectivity(pred, mart) == pytest.approx(LIKE_SELECTIVITY)

    def test_independence_multiplication(self, mart):
        preds = [
            SelectionPredicate(AttrRef.parse("M.Sized"), Comparator.EQ, 3),
            SelectionPredicate(AttrRef.parse("M.Sized"), Comparator.GT, 1),
        ]
        assert combined_selection_selectivity(preds, mart) == pytest.approx(
            (1 / 20) * RANGE_SELECTIVITY
        )

    def test_empty_predicates(self, mart):
        assert combined_selection_selectivity([], mart) == 1.0


class TestJoinSelectivity:
    def test_pattern_annotated_selectivity_wins(self, mart):
        join = JoinPredicate(
            AttrRef.parse("A.Sized"),
            Comparator.EQ,
            AttrRef.parse("B.Sized"),
            selectivity=0.02,
            pattern="P",
        )
        assert join_group_selectivity([join]) == pytest.approx(0.02)

    def test_equality_uses_larger_domain(self, mart):
        join = JoinPredicate(
            AttrRef.parse("A.Sized"), Comparator.EQ, AttrRef.parse("B.Sized")
        )
        assert join_group_selectivity([join], mart, mart) == pytest.approx(1 / 20)

    def test_range_join(self, mart):
        join = JoinPredicate(
            AttrRef.parse("A.Sized"), Comparator.LT, AttrRef.parse("B.Sized")
        )
        assert join_group_selectivity([join], mart, mart) == pytest.approx(
            RANGE_SELECTIVITY
        )

    def test_default_when_no_domain_known(self, mart):
        join = JoinPredicate(
            AttrRef.parse("A.Unsized"), Comparator.EQ, AttrRef.parse("B.Unsized")
        )
        assert join_group_selectivity([join], mart, mart) == pytest.approx(DEFAULT_EQ)


class TestEstimator:
    def test_pattern_selectivities_recovered(self, movie_query):
        estimator = Estimator(movie_query)
        assert estimator.join_selectivity("M", "T") == pytest.approx(0.02)
        assert estimator.join_selectivity("T", "R") == pytest.approx(0.40)
        assert estimator.join_selectivity("M", "R") == 1.0  # no join

