"""Tests for the query DSL parser."""

import pytest

from repro.catalog.parser import QuerySyntaxError, parse_query
from repro.registry import optimize

TPCH_ISH = (
    "orders(1e6) customer(100000) nation(25) region(5);"
    "orders-customer:1e-5 customer-nation:0.04 nation-region:0.2"
)


class TestParsing:
    def test_happy_path(self):
        query = parse_query(TPCH_ISH)
        assert query.n == 4
        assert query.relations[0].name == "orders"
        assert query.relations[0].cardinality == 1e6
        assert query.selectivity[(0, 1)] == 1e-5
        assert query.graph.has_edge(2, 3)

    def test_optimizable(self):
        query = parse_query(TPCH_ISH)
        plan = optimize("TBNmc", query)
        assert set(plan.leaf_relations()) == {"orders", "customer", "nation", "region"}

    def test_whitespace_and_newlines(self):
        query = parse_query("a(10)\n  b(20) ;\n a-b:0.5\n")
        assert query.n == 2

    def test_single_relation(self):
        query = parse_query("solo(42);")
        assert query.n == 1
        assert query.graph.edge_count() == 0


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(QuerySyntaxError, match=";"):
            parse_query("a(10) b(20) a-b:0.5")

    def test_two_semicolons(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("a(10); a-b:0.5; extra")

    def test_bad_relation_token(self):
        with pytest.raises(QuerySyntaxError, match="bad relation"):
            parse_query("a[10]; ")

    def test_bad_cardinality(self):
        with pytest.raises(QuerySyntaxError, match="cardinality"):
            parse_query("a(ten); ")

    def test_bad_predicate_token(self):
        with pytest.raises(QuerySyntaxError, match="bad predicate"):
            parse_query("a(1) b(2); a~b=0.5")

    def test_unknown_relation_in_predicate(self):
        with pytest.raises(QuerySyntaxError, match="unknown relation"):
            parse_query("a(1) b(2); a-c:0.5")

    def test_disconnected_graph(self):
        with pytest.raises(QuerySyntaxError, match="connected"):
            parse_query("a(1) b(2) c(3) d(4); a-b:0.5 c-d:0.5")

    def test_no_relations(self):
        with pytest.raises(QuerySyntaxError, match="no relations"):
            parse_query("; a-b:0.5")

    def test_bad_selectivity_value(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("a(1) b(2); a-b:2.0")


class TestErrorPositions:
    """Structured 400-style errors: the exception pinpoints the bad token."""

    @staticmethod
    def _fail(text: str) -> QuerySyntaxError:
        with pytest.raises(QuerySyntaxError) as excinfo:
            parse_query(text)
        return excinfo.value

    def test_bad_relation_position(self):
        text = "a(10) b[20]; a-b:0.5"
        err = self._fail(text)
        assert err.position == text.index("b[20]")
        assert err.line == 1
        assert err.column == text.index("b[20]") + 1

    def test_bad_cardinality_points_inside_parens(self):
        text = "a(10) b(twenty); a-b:0.5"
        err = self._fail(text)
        assert err.position == text.index("twenty")

    def test_bad_predicate_position(self):
        text = "a(1) b(2); a-b:0.5 a~b=0.5"
        err = self._fail(text)
        assert err.position == text.index("a~b=0.5")

    def test_unknown_relation_right_side_position(self):
        text = "a(1) b(2); a-c:0.5"
        err = self._fail(text)
        assert err.position == text.index("c:0.5")

    def test_bad_selectivity_position(self):
        text = "a(1) b(2); a-b:half"
        err = self._fail(text)
        assert err.position == text.index("half")

    def test_out_of_range_selectivity_points_at_predicate(self):
        text = "a(1) b(2); a-b:2.0"
        err = self._fail(text)
        assert err.position == text.index("a-b:2.0")

    def test_multiline_line_and_column(self):
        text = "a(10)\nb(oops);\na-b:0.5"
        err = self._fail(text)
        assert err.line == 2
        assert err.column == 3  # points at "oops" inside b(...)

    @pytest.mark.parametrize(
        "text,token,match",
        [
            ("a(nan) b(10); a-b:0.1", "nan", "finite"),
            ("a(inf) b(10); a-b:0.1", "inf", "finite"),
            ("a(-5) b(10); a-b:0.1", "-5", ">= 0"),
            ("a(10) a(20); a-a:0.1", "a(20)", "duplicate relation"),
        ],
        ids=["nan", "inf", "negative", "duplicate"],
    )
    def test_bad_relation_value_position(self, text, token, match):
        err = self._fail(text)
        assert match in err.message
        assert err.position == text.index(token)

    def test_surplus_semicolon_position(self):
        text = "a(1); a-b:0.5; extra"
        err = self._fail(text)
        assert err.position == text.rindex(";")

    def test_no_relations_position(self):
        err = self._fail("; a-b:0.5")
        assert err.position == 0

    def test_semantic_error_has_no_position(self):
        err = self._fail("a(1) b(2) c(3) d(4); a-b:0.5 c-d:0.5")
        assert err.position is None
        assert err.line is None and err.column is None

    def test_to_dict_roundtrip(self):
        err = self._fail("a(ten); ")
        payload = err.to_dict()
        assert payload["message"].startswith("bad cardinality")
        assert payload["position"] == 2
        assert payload["line"] == 1
        assert payload["column"] == 3

    def test_str_is_bare_message(self):
        err = self._fail("a(ten); ")
        assert str(err) == err.message
        assert ";" not in str(err) or "expected" not in str(err)
