"""Unit tests for the query text parser."""

import pytest

from repro.errors import QueryParseError
from repro.query.ast import AttrRef, Comparator, InputRef
from repro.query.parser import parse_query, tokenize
from repro.services.marts import CONFERENCE_QUERY, RUNNING_EXAMPLE_QUERY


class TestTokenizer:
    def test_basic_tokens(self):
        tokens = tokenize("SELECT A WHERE A.X = 3")
        kinds = [t.kind for t in tokens]
        assert kinds == ["kw", "ident", "kw", "ident", "op", "ident", "op", "number"]

    def test_strings_and_floats(self):
        tokens = tokenize("'hello world' 3.14 \"double\"")
        assert tokens[0].kind == "string"
        assert tokens[1].text == "3.14"
        assert tokens[2].kind == "string"

    def test_unknown_character(self):
        with pytest.raises(QueryParseError) as err:
            tokenize("SELECT @")
        assert err.value.position == 7


class TestParser:
    def test_minimal_query(self):
        q = parse_query("SELECT S1")
        assert q.atoms[0].source == "S1"
        assert q.atoms[0].alias == "S1"  # alias defaults to source
        assert q.k == 10

    def test_aliases(self):
        q = parse_query("SELECT S1 AS A, S2 AS B")
        assert q.aliases == ("A", "B")

    def test_selection_with_constant(self):
        q = parse_query("SELECT S1 AS A WHERE A.X = 'milan'")
        sel = q.selections[0]
        assert sel.attr == AttrRef.parse("A.X")
        assert sel.comparator is Comparator.EQ
        assert sel.operand == "milan"

    def test_selection_with_input_variable(self):
        q = parse_query("SELECT S1 AS A WHERE A.X = INPUT1")
        assert q.selections[0].operand == InputRef("INPUT1")

    def test_numeric_operands(self):
        q = parse_query("SELECT S1 AS A WHERE A.X > 26 AND A.Y <= 3.5")
        assert q.selections[0].operand == 26
        assert isinstance(q.selections[0].operand, int)
        assert q.selections[1].operand == 3.5

    def test_boolean_operands(self):
        q = parse_query("SELECT S1 AS A WHERE A.X = TRUE")
        assert q.selections[0].operand is True

    def test_like_comparator(self):
        q = parse_query("SELECT S1 AS A WHERE A.X LIKE '%pizza%'")
        assert q.selections[0].comparator is Comparator.LIKE

    def test_join_predicate(self):
        q = parse_query("SELECT S1 AS A, S2 AS B WHERE A.X = B.Y")
        join = q.joins[0]
        assert join.left == AttrRef.parse("A.X")
        assert join.right == AttrRef.parse("B.Y")

    def test_nested_paths(self):
        q = parse_query("SELECT S1 AS A WHERE A.G.Sub = 1")
        assert str(q.selections[0].attr) == "A.G.Sub"

    def test_connection_atom(self):
        q = parse_query("SELECT S1 AS A, S2 AS B WHERE Conn(A, B)")
        conn = q.connections[0]
        assert (conn.pattern, conn.left_alias, conn.right_alias) == ("Conn", "A", "B")

    def test_rank_by_and_limit(self):
        q = parse_query("SELECT S1 AS A, S2 AS B RANK BY 0.3*A, 0.7*B LIMIT 5")
        assert q.ranking_weights == {"A": 0.3, "B": 0.7}
        assert q.k == 5

    def test_keywords_case_insensitive(self):
        q = parse_query("select S1 as A where A.X = 1 limit 3")
        assert q.k == 3 and q.aliases == ("A",)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(QueryParseError):
            parse_query("SELECT S1 AS A garbage garbage")

    def test_missing_where_body(self):
        with pytest.raises(QueryParseError):
            parse_query("SELECT S1 WHERE")

    def test_bad_comparator(self):
        with pytest.raises(QueryParseError):
            parse_query("SELECT S1 AS A WHERE A.X ( 3")

    def test_unexpected_end(self):
        with pytest.raises(QueryParseError):
            parse_query("SELECT S1 AS A WHERE A.X =")

    def test_alias_without_dot_rejected_in_predicate(self):
        with pytest.raises(QueryParseError):
            parse_query("SELECT S1 AS A WHERE A = 3")

    def test_round_trip_examples(self):
        for text in (RUNNING_EXAMPLE_QUERY, CONFERENCE_QUERY):
            q = parse_query(text)
            # The stringified query re-parses to an equivalent AST.
            again = parse_query(str(q))
            assert again.aliases == q.aliases
            assert len(again.selections) == len(q.selections)
            assert len(again.connections) == len(q.connections)
            assert again.k == q.k

    def test_running_example_shape(self):
        q = parse_query(RUNNING_EXAMPLE_QUERY)
        assert q.aliases == ("M", "T", "R")
        assert [c.pattern for c in q.connections] == ["Shows", "DinnerPlace"]
        assert len(q.selections) == 7
        assert q.ranking_weights == {"M": 0.3, "T": 0.5, "R": 0.2}
        assert q.k == 10
