"""Unit tests for the static query analyses."""

import gc
import weakref

import pytest

from repro.xpath.analysis import (
    arithmetic_nesting_depth,
    axes_used,
    concat_arity_and_nesting,
    functions_used,
    is_position_sensitive,
    literal_numbers,
    max_predicates_per_step,
    negation_depth,
    query_depth,
    query_features,
    step_count,
    uses_function,
)
from repro.xpath.parser import parse


class TestPositionSensitivity:
    def test_direct_position_use(self):
        assert is_position_sensitive(parse("position() = 1"))
        assert is_position_sensitive(parse("last()"))
        assert is_position_sensitive(parse("position() + last() * 2"))

    def test_position_inside_predicate_is_not_outer_sensitive(self):
        assert not is_position_sensitive(parse("child::a[position() = 1]"))
        assert not is_position_sensitive(parse("//a[last()]/child::b"))

    def test_location_paths_never_sensitive(self):
        assert not is_position_sensitive(parse("child::a/descendant::b"))

    def test_function_arguments_propagate(self):
        assert is_position_sensitive(parse("boolean(position() = last())"))
        assert not is_position_sensitive(parse("count(child::a[position() = 1])"))


class TestNegationDepth:
    def test_no_negation(self):
        assert negation_depth(parse("child::a[child::b]")) == 0

    def test_single_negation(self):
        assert negation_depth(parse("child::a[not(child::b)]")) == 1

    def test_nested_negation(self):
        assert negation_depth(parse("not(child::a[not(child::b[not(child::c)])])")) == 3

    def test_parallel_negations_do_not_add(self):
        assert negation_depth(parse("not(a) and not(b)")) == 1


class TestArithmeticNesting:
    def test_flat_arithmetic(self):
        # Left-deep chains still count nesting per level of the AST.
        assert arithmetic_nesting_depth(parse("1 + 2")) == 1
        assert arithmetic_nesting_depth(parse("position() = 1")) == 0

    def test_nested_arithmetic(self):
        assert arithmetic_nesting_depth(parse("(1 + 2) * (3 - 4)")) == 2
        assert arithmetic_nesting_depth(parse("1 + 2 * 3 - 4")) == 3

    def test_unary_minus_counts(self):
        assert arithmetic_nesting_depth(parse("-(1 + 2)")) == 2


class TestStructuralCounts:
    def test_max_predicates_per_step(self):
        assert max_predicates_per_step(parse("child::a")) == 0
        assert max_predicates_per_step(parse("child::a[b]")) == 1
        assert max_predicates_per_step(parse("child::a[b][c][d]/child::e[f]")) == 3
        assert max_predicates_per_step(parse("(//a)[1][2]")) == 2

    def test_axes_used(self):
        assert axes_used(parse("//a/parent::b[ancestor::c]")) == {
            "descendant-or-self",
            "child",
            "parent",
            "ancestor",
        }

    def test_functions_used_and_uses_function(self):
        expr = parse("count(//a[not(b)]) > position()")
        assert functions_used(expr) == {"count", "not", "position"}
        assert uses_function(expr, {"not"})
        assert not uses_function(expr, {"string"})

    def test_step_count(self):
        assert step_count(parse("//a/b[c/d]")) == 5

    def test_query_depth_grows_with_nesting(self):
        shallow = query_depth(parse("child::a"))
        deep = query_depth(parse("child::a[child::b[child::c[child::d]]]"))
        assert deep > shallow

    def test_literal_numbers(self):
        assert sorted(literal_numbers(parse("a[2] | b[position() = 3.5]"))) == [2.0, 3.5]

    def test_concat_arity_and_nesting(self):
        arity, nesting = concat_arity_and_nesting(
            parse("concat('a', concat('b', 'c', 'd', 'e'))")
        )
        assert arity == 4
        assert nesting == 2
        assert concat_arity_and_nesting(parse("child::a")) == (0, 0)


class TestQueryFeatures:
    def test_comparisons_come_in_pre_order(self):
        expr = parse("//a[b = 1][c != 2 and (d < 3 or e > 4)] | f[g = concat(h, 'x')] = 5")
        comparisons = [
            node for node in expr.walk() if getattr(node, "op", None) in ("=", "!=", "<", ">")
        ]
        found = query_features(expr).comparisons
        assert len(found) == len(comparisons) == 6
        assert all(mine is theirs for mine, theirs in zip(found, comparisons))

    @pytest.mark.parametrize(
        "text", ["/a[b = 1 and c != 'x']/d", "concat('a', concat(b, 'c')) = -(1 + 2)", "a"]
    )
    def test_a_measured_expression_dies_by_reference_count(self, text):
        gc.collect()
        gc.disable()
        try:
            expr = parse(text)
            references = [weakref.ref(node) for node in expr.walk()]
            query_features(expr)
            del expr
            assert [reference() for reference in references] == [None] * len(references)
        finally:
            gc.enable()
