"""Unit tests for the XPath 1.0 parser and AST construction."""

import pytest

from repro.errors import XPathSyntaxError
from repro.xpath.ast import (
    BinaryOp,
    FilterExpr,
    FunctionCall,
    Literal,
    LocationPath,
    Negate,
    Number,
    PathExpr,
    Step,
    VariableReference,
)
from repro.xpath.parser import parse, parse_location_path


class TestLocationPaths:
    def test_simple_relative_path(self):
        expr = parse("child::a/child::b")
        assert isinstance(expr, LocationPath)
        assert not expr.absolute
        assert [step.axis for step in expr.steps] == ["child", "child"]
        assert [step.node_test.value for step in expr.steps] == ["a", "b"]

    def test_absolute_path(self):
        expr = parse("/child::a")
        assert expr.absolute

    def test_root_only(self):
        expr = parse("/")
        assert isinstance(expr, LocationPath)
        assert expr.absolute and expr.steps == ()

    def test_default_axis_is_child(self):
        expr = parse("a/b")
        assert [step.axis for step in expr.steps] == ["child", "child"]

    def test_double_slash_expansion(self):
        expr = parse("//a")
        assert [step.axis for step in expr.steps] == ["descendant-or-self", "child"]
        assert expr.steps[0].node_test.value == "node()"

    def test_double_slash_in_the_middle(self):
        expr = parse("a//b")
        assert [step.axis for step in expr.steps] == [
            "child",
            "descendant-or-self",
            "child",
        ]

    def test_dot_and_dotdot(self):
        expr = parse("./..")
        assert [(s.axis, s.node_test.value) for s in expr.steps] == [
            ("self", "node()"),
            ("parent", "node()"),
        ]

    def test_attribute_abbreviation(self):
        expr = parse("@id")
        assert expr.steps[0].axis == "attribute"
        assert expr.steps[0].node_test.value == "id"

    def test_all_axes_parse(self):
        for axis in (
            "self",
            "child",
            "parent",
            "descendant",
            "descendant-or-self",
            "ancestor",
            "ancestor-or-self",
            "following",
            "following-sibling",
            "preceding",
            "preceding-sibling",
            "attribute",
        ):
            expr = parse(f"{axis}::a")
            assert expr.steps[0].axis == axis

    def test_wildcard_and_node_type_tests(self):
        assert parse("child::*").steps[0].node_test.value == "*"
        assert parse("child::node()").steps[0].node_test.value == "node()"
        assert parse("child::text()").steps[0].node_test.value == "text()"
        assert parse("child::comment()").steps[0].node_test.value == "comment()"
        pi = parse("child::processing-instruction('x')").steps[0].node_test.value
        assert pi == "processing-instruction('x')"

    def test_predicates_attach_to_steps(self):
        expr = parse("child::a[child::b][position() = 1]")
        step = expr.steps[0]
        assert len(step.predicates) == 2
        assert isinstance(step.predicates[1], BinaryOp)

    def test_element_named_like_axis_without_axis_marker(self):
        expr = parse("child/self")
        assert [s.node_test.value for s in expr.steps] == ["child", "self"]
        assert [s.axis for s in expr.steps] == ["child", "child"]


class TestExpressions:
    def test_operator_precedence(self):
        expr = parse("1 + 2 * 3 = 7 and true()")
        assert isinstance(expr, BinaryOp) and expr.op == "and"
        comparison = expr.left
        assert comparison.op == "="
        assert comparison.left.op == "+"
        assert comparison.left.right.op == "*"

    def test_or_lower_than_and(self):
        expr = parse("a or b and c")
        assert expr.op == "or"
        assert expr.right.op == "and"

    def test_left_associativity_of_minus(self):
        expr = parse("5 - 2 - 1")
        assert expr.op == "-"
        assert isinstance(expr.left, BinaryOp) and expr.left.op == "-"
        assert isinstance(expr.right, Number)

    def test_relational_chain(self):
        expr = parse("1 < 2 <= 3")
        assert expr.op == "<="
        assert expr.left.op == "<"

    def test_unary_minus(self):
        expr = parse("-3 + 1")
        assert expr.op == "+"
        assert isinstance(expr.left, Negate)

    def test_union(self):
        expr = parse("a | b | c")
        assert expr.op == "|"
        assert expr.left.op == "|"

    def test_parentheses_override_precedence(self):
        expr = parse("(1 + 2) * 3")
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_function_calls(self):
        expr = parse("concat('a', 'b', 'c')")
        assert isinstance(expr, FunctionCall)
        assert expr.name == "concat"
        assert len(expr.args) == 3
        assert isinstance(expr.args[0], Literal)

    def test_nested_function_calls(self):
        expr = parse("not(count(//a) > 2)")
        assert expr.name == "not"
        assert expr.args[0].op == ">"
        assert expr.args[0].left.name == "count"

    def test_variable_reference(self):
        expr = parse("$x + 1")
        assert isinstance(expr.left, VariableReference)
        assert expr.left.name == "x"

    def test_filter_expression_with_predicate(self):
        expr = parse("(//a)[1]")
        assert isinstance(expr, FilterExpr)
        assert isinstance(expr.primary, LocationPath)
        assert isinstance(expr.predicates[0], Number)

    def test_path_expression_after_function(self):
        expr = parse("id('x')/child::a")
        assert isinstance(expr, PathExpr)
        assert isinstance(expr.start, FunctionCall)
        assert expr.tail.steps[0].node_test.value == "a"

    def test_path_expression_with_double_slash(self):
        expr = parse("id('x')//a")
        assert isinstance(expr, PathExpr)
        assert expr.tail.steps[0].axis == "descendant-or-self"

    def test_node_type_name_as_function_is_not_a_call(self):
        expr = parse("text()")
        assert isinstance(expr, LocationPath)
        assert expr.steps[0].node_test.value == "text()"


class TestAstUtilities:
    def test_size_counts_nodes(self):
        assert parse("child::a").size() == 2  # LocationPath + Step
        assert parse("child::a[child::b]").size() == 4

    def test_walk_preorder(self):
        expr = parse("a and b")
        kinds = [type(node).__name__ for node in expr.walk()]
        assert kinds[0] == "BinaryOp"
        assert kinds.count("LocationPath") == 2

    def test_structural_equality(self):
        assert parse("child::a[b]") == parse("child::a[b]")
        assert parse("child::a") != parse("child::b")

    def test_parse_location_path_helper(self):
        assert isinstance(parse_location_path("//a/b"), LocationPath)
        with pytest.raises(XPathSyntaxError):
            parse_location_path("1 + 2")


class TestParserErrors:
    @pytest.mark.parametrize(
        "expression",
        [
            "",
            "child::",
            "a[",
            "a]",
            "a[]",
            "(a",
            "a b",
            "a and",
            "foo(1,)",
            "child::a/",
            "//",
            "$",
            "a['unterminated]",
        ],
    )
    def test_malformed_expressions_raise(self, expression):
        with pytest.raises(XPathSyntaxError):
            parse(expression)

    def test_error_carries_position(self):
        with pytest.raises(XPathSyntaxError) as excinfo:
            parse("child::a[[]")
        assert excinfo.value.position is not None


class TestNestingLimit:
    """Pathological nesting is a typed syntax error, never a RecursionError."""

    @pytest.mark.parametrize(
        "expression",
        [
            "(" * 5000 + "1" + ")" * 5000,
            "a" + "[a" * 3000 + "]" * 3000,
            "-" * 5000 + "1",
            "not(" * 2000 + "a" + ")" * 2000,
            "//a[" + "(" * 40 + "b" + ")" * 40 + "]",
        ],
    )
    def test_pathological_nesting_is_a_syntax_error(self, expression):
        with pytest.raises(XPathSyntaxError, match="nests deeper") as excinfo:
            parse(expression)
        assert 0 < excinfo.value.position < len(expression)

    def test_the_limit_is_exact_and_points_past_the_last_allowed_level(self):
        from repro.xpath.parser import MAX_NESTING_DEPTH

        assert parse("(" * MAX_NESTING_DEPTH + "1" + ")" * MAX_NESTING_DEPTH) == Number(1.0)
        with pytest.raises(XPathSyntaxError) as excinfo:
            parse("(" * (MAX_NESTING_DEPTH + 1) + "1" + ")" * (MAX_NESTING_DEPTH + 1))
        assert excinfo.value.position == MAX_NESTING_DEPTH + 1

    def test_sibling_predicates_do_not_accumulate_depth(self):
        # Depth counts open levels, not levels ever opened.
        expr = parse("a" + "[b]" * 200 + "/c" * 200)
        assert isinstance(expr, LocationPath)

    def test_a_query_at_the_limit_still_evaluates(self):
        from repro import evaluate
        from repro.xmlmodel import parse_xml
        from repro.xpath.parser import MAX_NESTING_DEPTH

        query = "//a" + "[a" * (MAX_NESTING_DEPTH - 1) + "]" * (MAX_NESTING_DEPTH - 1)
        xml = "<a>" * (MAX_NESTING_DEPTH + 1) + "</a>" * (MAX_NESTING_DEPTH + 1)
        assert [node.order for node in evaluate(query, parse_xml(xml))] == [1, 2]
