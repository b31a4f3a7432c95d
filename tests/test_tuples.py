"""Unit tests for tuples, composites, and the global ranking function."""

import pytest

from repro.errors import QueryError, SchemaError
from repro.model.attributes import AttributePath
from repro.model.tuples import CompositeTuple, RankingFunction, ServiceTuple


def make_tuple(**values):
    return ServiceTuple(values=values, score=0.8, source="S", position=0)


class TestServiceTuple:
    def test_rejects_out_of_range_score(self):
        with pytest.raises(SchemaError):
            ServiceTuple(values={}, score=1.5)
        with pytest.raises(SchemaError):
            ServiceTuple(values={}, score=-0.1)

    def test_flat_value_access(self):
        tup = make_tuple(Title="Up")
        assert tup.value_at(AttributePath("Title")) == "Up"

    def test_missing_attribute_raises(self):
        tup = make_tuple(Title="Up")
        with pytest.raises(QueryError):
            tup.value_at(AttributePath("Nope"))

    def test_nested_value_access_returns_all_witnesses(self):
        tup = make_tuple(R=({"A": 1, "B": "x"}, {"A": 2, "B": "y"}))
        assert tup.value_at(AttributePath("R", "A")) == (1, 2)

    def test_group_members(self):
        tup = make_tuple(R=({"A": 1}, {"A": 2}))
        members = tup.group_members("R")
        assert members == ({"A": 1}, {"A": 2})

    def test_group_members_missing_group_raises(self):
        with pytest.raises(QueryError):
            make_tuple(X=1).group_members("R")

    def test_values_are_frozen_and_hashable(self):
        tup = make_tuple(R=[{"A": 1}, {"A": 2}], X=[1, 2, 3])
        assert hash(tup) == hash(tup)
        assert isinstance(tup.values["X"], tuple)

    def test_equal_tuples_hash_equal(self):
        a = make_tuple(X=1)
        b = make_tuple(X=1)
        assert a == b
        assert hash(a) == hash(b)


class TestCompositeTuple:
    def test_component_access(self):
        t = make_tuple(X=1)
        comp = CompositeTuple({"M": t}, 0.5)
        assert comp.component("M") is not None
        assert comp.aliases == ("M",)
        with pytest.raises(QueryError):
            comp.component("T")

    def test_merged_with_rejects_duplicate_alias(self):
        comp = CompositeTuple({"M": make_tuple(X=1)}, 0.5)
        with pytest.raises(QueryError):
            comp.merged_with("M", make_tuple(X=2), 0.6)

    def test_merged_with_extends(self):
        comp = CompositeTuple({"M": make_tuple(X=1)}, 0.5)
        bigger = comp.merged_with("T", make_tuple(Y=2), 0.7)
        assert set(bigger.aliases) == {"M", "T"}
        assert bigger.score == 0.7
        assert comp.aliases == ("M",)  # original untouched


class TestRankingFunction:
    def test_weights_are_normalised(self):
        rf = RankingFunction({"M": 3.0, "T": 1.0})
        assert rf.weight("M") == pytest.approx(0.75)
        assert rf.weight("T") == pytest.approx(0.25)

    def test_rejects_negative_weights(self):
        with pytest.raises(QueryError):
            RankingFunction({"M": -1.0})

    def test_unknown_alias_weighs_zero(self):
        rf = RankingFunction({"M": 1.0})
        assert rf.weight("ZZZ") == 0.0

    def test_score_is_weighted_sum(self):
        rf = RankingFunction({"M": 0.3, "T": 0.5, "R": 0.2}, normalise=False)
        score = rf.score({"M": 1.0, "T": 0.5, "R": 0.0})
        assert score == pytest.approx(0.3 * 1.0 + 0.5 * 0.5)

    def test_unranked_service_contributes_nothing(self):
        # Section 3.1: "the weight of unranked services is set equal to 0".
        rf = RankingFunction({"M": 1.0, "W": 0.0})
        score = rf.score({"M": 0.8, "W": 1.0})
        assert score == pytest.approx(0.8)

    def test_combine_builds_scored_composite(self):
        rf = RankingFunction({"M": 1.0})
        composite = rf.combine({"M": ServiceTuple({}, score=0.6)})
        assert composite.score == pytest.approx(0.6)

    def test_uniform(self):
        rf = RankingFunction.uniform(["A", "B"])
        assert rf.weight("A") == pytest.approx(0.5)
        assert RankingFunction.uniform([]).weights == {}

    def test_composite_score_stays_in_unit_interval(self):
        rf = RankingFunction({"A": 5.0, "B": 7.0})
        score = rf.score({"A": 1.0, "B": 1.0})
        assert score <= 1.0 + 1e-9

    def test_score_composite_is_bit_identical_to_score(self):
        # The hot path skips the {alias: score} dict; same terms, same
        # order, so the float is the same float — not merely close.
        rf = RankingFunction({"M": 0.3, "T": 0.5, "R": 0.2})
        components = {
            "T": ServiceTuple({}, score=0.1),
            "ZZZ": ServiceTuple({}, score=0.9),  # unweighted alias
            "M": ServiceTuple({}, score=1 / 3),
            "R": ServiceTuple({}, score=0.7),
        }
        expected = rf.score({alias: t.score for alias, t in components.items()})
        assert rf.score_composite(components) == expected
        assert rf.score_composite({}) == rf.score({})


class TestFreezeValue:
    """``freeze_value`` behind its scalar fast path: output unchanged."""

    @staticmethod
    def reference(value):
        """The definition before the fast path, kept here as the oracle."""
        from collections.abc import Mapping

        if isinstance(value, Mapping):
            return tuple(
                sorted((k, TestFreezeValue.reference(v)) for k, v in value.items())
            )
        if isinstance(value, (list, tuple, set)):
            return tuple(TestFreezeValue.reference(v) for v in value)
        return value

    def test_nested_groups_sets_and_mixed_scalars(self):
        from types import MappingProxyType

        from repro.model.tuples import freeze_value

        class Name(str):
            """A str subclass: not a fast-path type, still returned as is."""

        opaque = object()
        cases = [
            None, True, False, 0, 1, -7, 2.5, float("inf"), "", "text", Name("n"),
            b"bytes", opaque, frozenset({1}),
            [], (), set(), {},
            [1, "a", None, 2.5, True],
            {3},  # one element: iteration order cannot vary
            {"b": 1, "a": [1, {"z": None, "y": (2, 3)}]},
            MappingProxyType({"k": [MappingProxyType({"v": 1})]}),
            [{"Date": "2009-03-01", "Country": "country#1"}, {"Date": None}],
            ({"A": 1, "B": "x"}, {"A": 2, "B": "x"}),
            [[["deep"]], {"m": {"n": {"o": [1, 2, {"p": ()}]}}}],
        ]
        for value in cases:
            frozen = freeze_value(value)
            assert frozen == self.reference(value), value
            assert type(frozen) is type(self.reference(value)), value
        assert freeze_value(opaque) is opaque
        assert type(freeze_value(Name("n"))) is Name

    def test_service_tuple_values_and_members_unchanged(self):
        values = {
            "Title": "title#3",
            "Year": 2009,
            "Score": 0.5,
            "Flag": True,
            "Nothing": None,
            "Openings": [{"Date": "2009-03-01", "Country": "c#1"}, {"Date": "x"}],
            "Tags": {"solo"},
        }
        tup = ServiceTuple(values)
        assert tup.values == {k: self.reference(v) for k, v in values.items()}
        hash(tup)  # every frozen value is hashable
        members = tup.group_members("Openings")
        assert members == ({"Date": "2009-03-01", "Country": "c#1"}, {"Date": "x"})
        # Built once and kept: the same objects come back.
        assert tup.group_members("Openings") is members
        assert tup == ServiceTuple(values)  # the memo is not part of equality
        with pytest.raises(QueryError):
            tup.group_members("NoSuchGroup")
