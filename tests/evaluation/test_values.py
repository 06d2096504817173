"""Unit tests for XPath value types, conversions, comparisons and arithmetic."""

import math

import pytest

from repro.errors import XPathTypeError
from repro.evaluation.values import (
    NodeSet,
    arithmetic,
    compare,
    format_number,
    negate,
    to_boolean,
    to_number,
    to_string,
    xpath_round,
)
from repro.xmlmodel import parse_xml
from repro.xmlmodel.document import build_tree
from repro.xmlmodel.idset import IdSet


@pytest.fixture
def document():
    return build_tree(("root", [("a", ["1"]), ("a", ["2"]), ("b", ["two"]), ("empty",)]))


def node_set(document, tag):
    return NodeSet(document.elements_with_tag(tag))


class TestNodeSet:
    def test_document_order_and_dedup(self, document):
        elements = document.elements_with_tag("a")
        ns = NodeSet(list(reversed(elements)) + elements)
        assert ns.nodes == elements
        assert len(ns) == 2

    def test_containment_and_truthiness(self, document):
        ns = node_set(document, "a")
        assert document.elements_with_tag("a")[0] in ns
        assert document.elements_with_tag("b")[0] not in ns
        assert bool(ns)
        assert not bool(NodeSet())

    def test_union(self, document):
        union = node_set(document, "a").union(node_set(document, "b"))
        assert [n.tag for n in union] == ["a", "a", "b"]

    def test_first_and_string_values(self, document):
        ns = node_set(document, "a")
        assert ns.first().string_value() == "1"
        assert ns.string_values() == ["1", "2"]
        assert NodeSet().first() is None


class TestIdBackedNodeSet:
    """The form ``cvt`` produces: ids over a document index, nodes on first touch."""

    XML = "<r><a x='1'>1</a><b>two</b><a>2</a></r>"

    @staticmethod
    def over(document, ids):
        index = document.index
        return NodeSet.from_idset(IdSet.from_iterable(ids, index.size), index)

    def test_size_truth_and_union_build_no_node(self):
        document = parse_xml(self.XML)
        tagged_a, tagged_b = (
            self.over(document, document.columns.ids_by_tag[tag]) for tag in "ab"
        )
        union = tagged_a.union(tagged_b).union(tagged_a)
        assert (len(tagged_a), len(union), bool(union)) == (2, 3, True)
        assert not self.over(document, []) and len(self.over(document, [])) == 0
        assert union.ids.tolist() == [2, 4, 6]
        assert compare("=", tagged_a, True) and to_boolean(union)
        assert not document.has_nodes
        assert [n.tag for n in union] == ["a", "b", "a"] and union.nodes is union.nodes
        assert document.has_nodes

    def test_it_equals_and_mixes_with_the_node_backed_form(self):
        document = parse_xml(self.XML)
        ids = document.columns.ids_by_tag["a"]
        on_ids, on_nodes = self.over(document, ids), NodeSet(document.elements_with_tag("a"))
        assert on_ids == on_nodes and hash(on_ids) == hash(on_nodes)
        assert on_ids.first() is on_nodes.first() and self.over(document, []).first() is None
        assert on_ids.string_values() == ["1", "2"] and to_string(on_ids) == "1"
        attribute = document.attributes[0]
        mixed = on_ids.union(NodeSet([attribute, document.elements_with_tag("b")[0]]))
        assert mixed.ids is None
        assert [n.order for n in mixed] == sorted(n.order for n in mixed)
        assert [n.name() for n in mixed] == ["a", "x", "b", "a"]
        assert attribute in mixed and attribute not in on_ids
        assert all(node in on_ids for node in on_nodes)
        # Another document's node at the same document-order position is no member.
        assert parse_xml(self.XML).elements_with_tag("a")[0] not in on_ids

    def test_union_of_overlapping_ordered_runs(self, document):
        first_two = NodeSet(document.elements[:3])
        last_three = NodeSet(document.elements[2:])
        assert first_two.union(last_three).nodes == document.elements
        assert first_two.union(NodeSet()) is first_two and NodeSet().union(first_two) is first_two


class TestConversions:
    def test_to_boolean(self, document):
        assert to_boolean(True) is True
        assert to_boolean(1.5) is True
        assert to_boolean(0.0) is False
        assert to_boolean(float("nan")) is False
        assert to_boolean("x") is True
        assert to_boolean("") is False
        assert to_boolean(node_set(document, "a")) is True
        assert to_boolean(NodeSet()) is False

    def test_to_number(self, document):
        assert to_number(True) == 1.0
        assert to_number(False) == 0.0
        assert to_number("  3.5 ") == 3.5
        assert math.isnan(to_number("abc"))
        assert math.isnan(to_number(""))
        assert to_number(node_set(document, "a")) == 1.0  # first node's string-value
        assert math.isnan(to_number(node_set(document, "b")))

    def test_to_string(self, document):
        assert to_string(True) == "true"
        assert to_string(False) == "false"
        assert to_string(3.0) == "3"
        assert to_string(3.25) == "3.25"
        assert to_string(float("nan")) == "NaN"
        assert to_string(float("inf")) == "Infinity"
        assert to_string(float("-inf")) == "-Infinity"
        assert to_string(node_set(document, "a")) == "1"
        assert to_string(NodeSet()) == ""

    def test_format_number_integers(self):
        assert format_number(-0.0) == "0"
        assert format_number(100.0) == "100"

    def test_invalid_conversion_raises(self):
        with pytest.raises(XPathTypeError):
            to_boolean(object())  # type: ignore[arg-type]


class TestComparisons:
    def test_scalar_equality_type_promotion(self):
        assert compare("=", 1.0, True)
        assert compare("=", "1", 1.0)
        assert compare("!=", "a", "b")
        assert not compare("=", "a", "b")
        assert compare("=", True, "nonempty")

    def test_scalar_relational_converts_to_number(self):
        assert compare("<", "2", "10")  # numeric, not lexicographic
        assert compare(">=", 3.0, "3")
        assert not compare("<", "abc", 1.0)  # NaN comparisons are false

    def test_node_set_vs_number_existential(self, document):
        ns = node_set(document, "a")  # string-values "1", "2"
        assert compare("=", ns, 2.0)
        assert compare("!=", ns, 2.0)  # some node differs too
        assert compare(">", ns, 1.0)
        assert not compare(">", ns, 5.0)
        assert compare("<", 1.0, ns)

    def test_node_set_vs_string(self, document):
        assert compare("=", node_set(document, "b"), "two")
        assert not compare("=", node_set(document, "b"), "three")

    def test_node_set_vs_boolean(self, document):
        assert compare("=", node_set(document, "a"), True)
        assert compare("=", NodeSet(), False)
        assert not compare("=", NodeSet(), True)

    def test_two_node_sets(self, document):
        a_nodes = node_set(document, "a")
        b_nodes = node_set(document, "b")
        empty = node_set(document, "empty")
        assert compare("=", a_nodes, a_nodes)
        assert not compare("=", a_nodes, b_nodes)  # no common string-value
        assert compare("!=", a_nodes, a_nodes)  # "1" != "2" existentially
        assert not compare("=", a_nodes, empty)  # no shared string-value
        assert not compare("<", a_nodes, b_nodes)  # "two" is NaN numerically

    def test_empty_node_set_never_compares_true_numerically(self, document):
        assert not compare("=", NodeSet(), 0.0)
        assert not compare("<", NodeSet(), 100.0)

    def test_unknown_operator(self):
        with pytest.raises(XPathTypeError):
            compare("~", 1.0, 2.0)


class TestArithmetic:
    def test_basic_operations(self):
        assert arithmetic("+", 1.0, 2.0) == 3.0
        assert arithmetic("-", "5", 2.0) == 3.0
        assert arithmetic("*", 3.0, True) == 3.0
        assert arithmetic("div", 7.0, 2.0) == 3.5

    def test_mod_follows_sign_of_dividend(self):
        assert arithmetic("mod", 5.0, 2.0) == 1.0
        assert arithmetic("mod", -5.0, 2.0) == -1.0
        assert arithmetic("mod", 5.0, -2.0) == 1.0
        assert arithmetic("mod", 1.5, 0.5) == 0.0

    def test_division_by_zero(self):
        assert arithmetic("div", 1.0, 0.0) == math.inf
        assert arithmetic("div", -1.0, 0.0) == -math.inf
        assert math.isnan(arithmetic("div", 0.0, 0.0))
        assert math.isnan(arithmetic("mod", 1.0, 0.0))

    def test_nan_propagation(self):
        assert math.isnan(arithmetic("+", float("nan"), 1.0))
        assert math.isnan(arithmetic("*", "abc", 2.0))

    def test_negate(self):
        assert negate(3.0) == -3.0
        assert negate("4") == -4.0

    def test_unknown_operator(self):
        with pytest.raises(XPathTypeError):
            arithmetic("**", 1.0, 2.0)


class TestRounding:
    def test_round_half_towards_positive_infinity(self):
        assert xpath_round(2.5) == 3.0
        assert xpath_round(-2.5) == -2.0
        assert xpath_round(2.4) == 2.0

    def test_round_preserves_special_values(self):
        assert math.isnan(xpath_round(float("nan")))
        assert xpath_round(math.inf) == math.inf
