"""Unit tests for query compilation: binding, pattern expansion, typing."""

import pytest

from repro.errors import QueryError
from repro.query.ast import InputRef
from repro.query.compile import compile_query
from repro.query.parser import parse_query
from repro.services.marts import RUNNING_EXAMPLE_QUERY


class TestAtomResolution:
    def test_interface_atoms_are_fixed(self, movie_registry):
        cq = compile_query(parse_query("SELECT Movie1 AS M"), movie_registry)
        assert cq.atom("M").interface.name == "Movie1"

    def test_mart_atoms_defer_interface(self, movie_registry):
        cq = compile_query(parse_query("SELECT Movie AS M"), movie_registry)
        assert cq.atom("M").interface is None
        assert cq.atom("M").mart.name == "Movie"

    def test_unknown_atom_rejected(self, movie_registry):
        with pytest.raises(Exception):
            compile_query(parse_query("SELECT Nope AS N"), movie_registry)


class TestPatternExpansion:
    def test_shows_expands_to_title_join(self, movie_registry):
        cq = compile_query(
            parse_query("SELECT Movie1 AS M, Theatre1 AS T WHERE Shows(M, T)"),
            movie_registry,
        )
        joins = cq.joins_between("M", "T")
        assert len(joins) == 1
        join = joins[0]
        assert join.pattern == "Shows"
        assert join.selectivity == pytest.approx(0.02)
        assert str(join.left) == "M.Title"
        assert str(join.right) == "T.Movie.Title"

    def test_pattern_orientation_is_alias_order_sensitive(self, movie_registry):
        cq = compile_query(
            parse_query("SELECT Theatre1 AS T, Movie1 AS M WHERE Shows(M, T)"),
            movie_registry,
        )
        join = cq.joins_between("M", "T")[0]
        assert join.left.alias == "M"  # left alias of the atom comes first

    def test_multi_pair_pattern_splits_selectivity(self, movie_registry):
        cq = compile_query(
            parse_query(
                "SELECT Theatre1 AS T, Restaurant1 AS R WHERE DinnerPlace(T, R)"
            ),
            movie_registry,
        )
        joins = cq.joins_between("T", "R")
        assert len(joins) == 3
        product = 1.0
        for join in joins:
            product *= join.selectivity
        assert product == pytest.approx(0.40)

    def test_pattern_must_connect_the_marts(self, movie_registry):
        with pytest.raises(QueryError):
            compile_query(
                parse_query("SELECT Movie1 AS M, Restaurant1 AS R WHERE Shows(M, R)"),
                movie_registry,
            )


class TestValidation:
    def test_unknown_attribute_rejected(self, movie_registry):
        with pytest.raises(Exception):
            compile_query(
                parse_query("SELECT Movie1 AS M WHERE M.Nope = 1"), movie_registry
            )

    def test_type_mismatch_constant(self, movie_registry):
        with pytest.raises(QueryError):
            compile_query(
                parse_query("SELECT Movie1 AS M WHERE M.Year = 'abc'"),
                movie_registry,
            )

    def test_type_mismatch_join(self, movie_registry):
        with pytest.raises(QueryError):
            compile_query(
                parse_query(
                    "SELECT Movie1 AS M, Theatre1 AS T WHERE M.Year = T.TCity"
                ),
                movie_registry,
            )

    def test_numeric_widening_allowed(self, movie_registry):
        cq = compile_query(
            parse_query("SELECT Movie1 AS M WHERE M.Score > 3"), movie_registry
        )
        assert len(cq.selections) == 1


class TestRanking:
    def test_explicit_weights_normalised(self, movie_query):
        weights = movie_query.ranking.weights
        assert weights["M"] == pytest.approx(0.3)
        assert weights["T"] == pytest.approx(0.5)
        assert weights["R"] == pytest.approx(0.2)

    def test_default_weights_cover_ranked_services(self, movie_registry):
        cq = compile_query(
            parse_query("SELECT Movie1 AS M, Theatre1 AS T WHERE Shows(M, T)"),
            movie_registry,
        )
        assert cq.ranking.weight("M") > 0
        assert cq.ranking.weight("T") > 0

    def test_unranked_exact_service_defaults_to_zero(self, conference_registry):
        cq = compile_query(
            parse_query("SELECT Conference1 AS C, Weather1 AS W WHERE LocatedIn(C, W)"),
            conference_registry,
        )
        assert cq.ranking.weight("C") == 0.0
        assert cq.ranking.weight("W") == 0.0


class TestHelpers:
    def test_join_graph(self, movie_query):
        assert movie_query.joins_between("M", "T")
        assert movie_query.joins_between("T", "R")
        assert not movie_query.joins_between("M", "R")

    def test_input_names(self, movie_query):
        operands = (s.operand for s in movie_query.selections)
        assert {op.name for op in operands if isinstance(op, InputRef)} == {
            "INPUT1",
            "INPUT2",
            "INPUT3",
            "INPUT4",
            "INPUT5",
            "INPUT6",
        }

    def test_joins_involving(self, movie_query):
        assert all("M" in j.aliases for j in movie_query.joins_involving("M"))

    def test_source_preserved(self, movie_registry):
        parsed = parse_query(RUNNING_EXAMPLE_QUERY)
        cq = compile_query(parsed, movie_registry)
        assert cq.source is parsed
