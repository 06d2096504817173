"""Unit tests for the thirteen axes and node tests."""

import pytest

from repro.errors import XPathEvaluationError
from repro.xmlmodel.axes import (
    AXIS_NAMES,
    CORE_XPATH_AXES,
    apply_axis_to_set,
    axis_nodes,
    axis_step,
    inverse_axis,
    is_reverse_axis,
    node_test_matches,
    principal_node_type,
)
from repro.xmlmodel.nodes import AttributeNode, ElementNode
from repro.xmlmodel.parser import parse_xml

DOC = "<a><b id='1'><c/><d/></b><b id='2'/><e><f/><g><h/></g></e></a>"


@pytest.fixture
def document():
    return parse_xml(DOC)


def tags(nodes):
    return [getattr(node, "tag", getattr(node, "attr_name", node.node_type.value)) for node in nodes]


def element(document, tag):
    return document.elements_with_tag(tag)[0]


class TestForwardAxes:
    def test_child(self, document):
        assert tags(axis_nodes(element(document, "a"), "child")) == ["b", "b", "e"]

    def test_descendant(self, document):
        assert tags(axis_nodes(element(document, "e"), "descendant")) == ["f", "g", "h"]

    def test_descendant_or_self(self, document):
        assert tags(axis_nodes(element(document, "e"), "descendant-or-self")) == [
            "e",
            "f",
            "g",
            "h",
        ]

    def test_self(self, document):
        assert tags(axis_nodes(element(document, "c"), "self")) == ["c"]

    def test_following_sibling(self, document):
        first_b = document.elements_with_tag("b")[0]
        assert tags(axis_nodes(first_b, "following-sibling")) == ["b", "e"]

    def test_following(self, document):
        assert tags(axis_nodes(element(document, "c"), "following")) == [
            "d",
            "b",
            "e",
            "f",
            "g",
            "h",
        ]

    def test_attribute_axis(self, document):
        first_b = document.elements_with_tag("b")[0]
        attributes = axis_nodes(first_b, "attribute")
        assert [a.attr_name for a in attributes] == ["id"]


class TestReverseAxes:
    def test_parent(self, document):
        assert tags(axis_nodes(element(document, "c"), "parent")) == ["b"]
        assert axis_nodes(document.root, "parent") == []

    def test_ancestor_nearest_first(self, document):
        assert tags(axis_nodes(element(document, "h"), "ancestor")) == ["g", "e", "a", "root"]

    def test_ancestor_or_self(self, document):
        assert tags(axis_nodes(element(document, "h"), "ancestor-or-self"))[0] == "h"

    def test_preceding_sibling_reverse_document_order(self, document):
        e = element(document, "e")
        assert tags(axis_nodes(e, "preceding-sibling")) == ["b", "b"]
        orders = [node.order for node in axis_nodes(e, "preceding-sibling")]
        assert orders == sorted(orders, reverse=True)

    def test_preceding_excludes_ancestors(self, document):
        h = element(document, "h")
        preceding_tags = tags(axis_nodes(h, "preceding"))
        assert "a" not in preceding_tags and "e" not in preceding_tags
        assert preceding_tags == ["f", "b", "d", "c", "b"]

    def test_attribute_node_parent(self, document):
        first_b = document.elements_with_tag("b")[0]
        attribute = axis_nodes(first_b, "attribute")[0]
        assert axis_nodes(attribute, "parent") == [first_b]
        assert axis_nodes(attribute, "following-sibling") == []


class TestDocumentOrderAxesFromAnAttribute:
    """XPath 1.0 §5: an attribute comes after its owner and before the
    owner's children, and neither ``following`` nor ``preceding`` ever
    contains attributes, ancestors or descendants."""

    DOC = '<a><p/><b x="1" y="2"><c><e/></c>text</b><d/></a>'

    @pytest.fixture
    def x(self):
        return parse_xml(self.DOC).elements_with_tag("b")[0].attributes[0]

    def test_following_starts_with_the_owners_children(self, x):
        assert tags(axis_nodes(x, "following")) == ["c", "e", "text", "d"]
        assert tags(axis_step(x, "following", "*")) == ["c", "e", "d"]

    def test_preceding_excludes_the_owner_and_its_ancestors(self, x):
        assert tags(axis_nodes(x, "preceding")) == ["p"]

    def test_the_two_axes_with_ancestors_partition_the_tree_nodes(self, x):
        document = x.document
        seen = (
            axis_nodes(x, "following")
            + axis_nodes(x, "preceding")
            + axis_nodes(x, "ancestor")
        )
        assert sorted(node.order for node in seen) == [
            node.order for node in document.nodes
        ]

    def test_issue_example(self):
        attribute = parse_xml('<a><b x="1"><c/></b><d/></a>').attributes[0]
        assert tags(axis_step(attribute, "following", "*")) == ["c", "d"]
        assert tags(apply_axis_to_set([attribute], "following", "*")) == ["c", "d"]


class TestAxisProperties:
    def test_axis_names_cover_core(self):
        assert "attribute" in AXIS_NAMES
        assert "attribute" not in CORE_XPATH_AXES

    def test_is_reverse_axis(self):
        assert is_reverse_axis("ancestor")
        assert is_reverse_axis("preceding-sibling")
        assert not is_reverse_axis("child")

    def test_inverse_axis_pairs(self):
        pairs = [
            ("child", "parent"),
            ("descendant", "ancestor"),
            ("descendant-or-self", "ancestor-or-self"),
            ("following", "preceding"),
            ("following-sibling", "preceding-sibling"),
            ("self", "self"),
        ]
        for axis, inverse in pairs:
            assert inverse_axis(axis) == inverse
            assert inverse_axis(inverse) == axis

    def test_inverse_of_attribute_axis_raises(self):
        with pytest.raises(XPathEvaluationError):
            inverse_axis("attribute")

    def test_unknown_axis_raises(self, document):
        with pytest.raises(XPathEvaluationError):
            axis_nodes(document.root, "sideways")

    def test_principal_node_type(self):
        assert principal_node_type("child") == "element"
        assert principal_node_type("attribute") == "attribute"

    def test_inverse_axis_roundtrip_semantics(self, document):
        # y in axis(x) iff x in inverse_axis(y), for every element pair.
        for axis in ("child", "descendant", "following", "following-sibling"):
            inverse = inverse_axis(axis)
            for x in document.elements:
                for y in axis_nodes(x, axis):
                    assert x in axis_nodes(y, inverse)


class TestNodeTests:
    def test_name_test(self, document):
        b = document.elements_with_tag("b")[0]
        assert node_test_matches(b, "child", "b")
        assert not node_test_matches(b, "child", "c")

    def test_wildcard_matches_elements_only(self, document):
        text_doc = parse_xml("<a>txt<b/></a>")
        a = text_doc.root.document_element()
        children = axis_nodes(a, "child")
        assert [node_test_matches(child, "child", "*") for child in children] == [False, True]

    def test_node_type_tests(self):
        doc = parse_xml("<a>txt<!--c--><?pi d?><b/></a>")
        a = doc.root.document_element()
        text, comment, pi, b = a.children
        assert node_test_matches(text, "child", "text()")
        assert node_test_matches(comment, "child", "comment()")
        assert node_test_matches(pi, "child", "processing-instruction()")
        assert node_test_matches(pi, "child", "processing-instruction('pi')")
        assert not node_test_matches(pi, "child", "processing-instruction('other')")
        assert all(node_test_matches(child, "child", "node()") for child in a.children)

    def test_attribute_axis_principal_type(self, document):
        b = document.elements_with_tag("b")[0]
        attribute = b.attributes[0]
        assert node_test_matches(attribute, "attribute", "id")
        assert node_test_matches(attribute, "attribute", "*")
        assert not node_test_matches(attribute, "child", "id")

    def test_axis_step_combines_axis_and_test(self, document):
        a = element(document, "a")
        assert tags(axis_step(a, "child", "b")) == ["b", "b"]
        assert tags(axis_step(a, "descendant", "*")) == ["b", "c", "d", "b", "e", "f", "g", "h"]


class TestSetApplication:
    def test_apply_axis_to_set_document_order_no_duplicates(self, document):
        bs = document.elements_with_tag("b")
        result = apply_axis_to_set(bs, "parent", "*")
        assert tags(result) == ["a"]

    def test_apply_axis_to_set_with_node_test(self, document):
        result = apply_axis_to_set([element(document, "a")], "descendant", "b")
        assert tags(result) == ["b", "b"]
