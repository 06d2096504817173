"""Unit tests for the set-at-a-time axis kernels (``DocumentIndex.axis_idset``).

Every set-level axis must agree with the per-node reference implementation
in :mod:`repro.xmlmodel.axes` on arbitrary node sets.
"""

import pytest

from repro.errors import XPathEvaluationError
from repro.xmlmodel.axes import CORE_XPATH_AXES, axis_nodes
from repro.xmlmodel.generators import complete_tree_document, random_document
from repro.xmlmodel.parser import parse_xml

DOC = parse_xml("<a><b><c/><d/></b><b/><e><f><g/></f></e></a>")


def kernel_axis_set(document, axis, nodes):
    index = document.index
    reached = index.axis_idset(axis, index.idset_from_nodes(nodes))
    return set(index.idset_to_node_list(reached))


def reference(document, axis, nodes):
    expected = set()
    for node in nodes:
        expected.update(axis_nodes(node, axis))
    return expected


class TestAgreementWithPerNodeAxes:
    @pytest.mark.parametrize("axis", sorted(CORE_XPATH_AXES))
    def test_singleton_sets(self, axis):
        for node in DOC.nodes:
            assert kernel_axis_set(DOC, axis, {node}) == reference(DOC, axis, {node})

    @pytest.mark.parametrize("axis", sorted(CORE_XPATH_AXES))
    def test_full_node_set(self, axis):
        all_nodes = set(DOC.nodes)
        assert kernel_axis_set(DOC, axis, all_nodes) == reference(DOC, axis, all_nodes)

    @pytest.mark.parametrize("axis", sorted(CORE_XPATH_AXES))
    def test_random_subsets_on_random_documents(self, axis):
        document = random_document(40, seed=17)
        subset = set(document.nodes[:: max(1, len(document.nodes) // 7)])
        assert kernel_axis_set(document, axis, subset) == reference(document, axis, subset)

    @pytest.mark.parametrize("axis", sorted(CORE_XPATH_AXES))
    def test_empty_set_maps_to_empty_set(self, axis):
        assert kernel_axis_set(DOC, axis, set()) == set()


class TestSpecificAxes:
    def test_descendant_of_root_is_everything_below(self):
        result = kernel_axis_set(DOC, "descendant", {DOC.root})
        assert result == set(DOC.nodes) - {DOC.root}

    def test_ancestor_of_leaf(self):
        leaf = DOC.elements_with_tag("g")[0]
        tags = {getattr(node, "tag", "#root") for node in kernel_axis_set(DOC, "ancestor", {leaf})}
        assert tags == {"f", "e", "a", "#root"}

    def test_following_and_preceding_partition(self):
        # For any node: {self} ∪ ancestors ∪ descendants ∪ following ∪ preceding = all nodes.
        for node in DOC.elements:
            groups = [
                {node},
                kernel_axis_set(DOC, "ancestor", {node}),
                kernel_axis_set(DOC, "descendant", {node}),
                kernel_axis_set(DOC, "following", {node}),
                kernel_axis_set(DOC, "preceding", {node}),
            ]
            union = set().union(*groups)
            assert union == set(DOC.nodes)
            total = sum(len(group) for group in groups)
            assert total == len(DOC.nodes)  # pairwise disjoint

    def test_sibling_axes_share_parent(self):
        first_b = DOC.elements_with_tag("b")[0]
        following = kernel_axis_set(DOC, "following-sibling", {first_b})
        assert {node.tag for node in following} == {"b", "e"}
        preceding = kernel_axis_set(DOC, "preceding-sibling", {DOC.elements_with_tag("e")[0]})
        assert {node.tag for node in preceding} == {"b"}

    def test_unknown_axis_raises(self):
        with pytest.raises(XPathEvaluationError):
            kernel_axis_set(DOC, "attribute", {DOC.root})

    def test_larger_balanced_tree(self):
        document = complete_tree_document(3, 4)
        leaves = {node for node in document.elements if not node.children}
        ancestors = kernel_axis_set(document, "ancestor", leaves)
        assert ancestors == {node for node in document.nodes if node.children}
