"""Differential properties: DocumentIndex vs. the object-walk axis code.

The indexed axis machinery (interval arithmetic and array-chain sweeps in
:mod:`repro.xmlmodel.index`) must be observationally identical to the
per-node walk of :mod:`repro.xmlmodel.axes` it accelerates — both the
set-at-a-time kernels used by the Core XPath evaluator and the per-node,
axis-ordered form used by the context-value-table and naive evaluators.
Hypothesis drives both over random documents, random node subsets and
every navigational axis.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlmodel import axis_nodes, axis_step, node_test_matches
from repro.xmlmodel.axes import CORE_XPATH_AXES, apply_axis_to_set
from repro.xmlmodel.kernels import available_backends, use_backend
from tests.properties.strategies import TAGS, documents, documents_with_node_subsets

AXES = sorted(CORE_XPATH_AXES)
NODE_TESTS = sorted(TAGS) + ["*", "node()", "text()"]


class TestSetAtATimeAgreement:
    @settings(max_examples=60, deadline=None)
    @given(
        documents_with_node_subsets(),
        st.sampled_from(AXES),
        st.sampled_from(NODE_TESTS),
    )
    def test_kernels_match_union_of_per_node_walks(
        self, document_and_nodes, axis, node_test
    ):
        document, nodes = document_and_nodes
        index = document.index
        expected = apply_axis_to_set(nodes, axis)
        expected_filtered = apply_axis_to_set(nodes, axis, node_test)
        for backend in available_backends():
            with use_backend(backend):
                reached = index.axis_idset(axis, index.idset_from_nodes(nodes))
                assert index.idset_to_node_list(reached) == expected, backend
                selected = index.filter_idset(reached, axis, node_test)
                assert index.idset_to_node_list(selected) == expected_filtered, backend


class TestPerNodeAgreement:
    @settings(max_examples=60, deadline=None)
    @given(documents(), st.sampled_from(AXES))
    def test_axis_ids_match_axis_nodes_in_axis_order(self, document, axis):
        index = document.index
        for node in document.nodes:
            expected = axis_nodes(node, axis)
            actual = index.ids_to_node_list(index.axis_ids(index.id_of(node), axis))
            assert actual == expected, (axis, node)

    @settings(max_examples=40, deadline=None)
    @given(
        documents(),
        st.sampled_from(AXES),
        st.sampled_from(NODE_TESTS),
    )
    def test_step_ids_match_axis_step(self, document, axis, node_test):
        index = document.index
        for node in document.nodes:
            expected = axis_step(node, axis, node_test)
            actual = index.ids_to_node_list(
                index.step_ids(index.id_of(node), axis, node_test)
            )
            assert actual == expected, (axis, node_test, node)


class TestIndexStructure:
    @settings(max_examples=60, deadline=None)
    @given(documents())
    def test_intervals_characterise_descendants(self, document):
        index = document.index
        for i, node in enumerate(document.nodes):
            lo, hi = i + 1, index.subtree_end[i] + 1
            expected = list(node.iter_descendants())
            assert index.ids_to_node_list(range(lo, hi)) == expected

    @settings(max_examples=60, deadline=None)
    @given(documents())
    def test_pre_post_plane(self, document):
        """descendant(x, y)  ⇔  pre[y] > pre[x] and post[y] < post[x]."""
        index = document.index
        n = index.size
        for x in range(n):
            lo, hi = x + 1, index.subtree_end[x] + 1
            for y in range(n):
                in_plane = y > x and index.post[y] < index.post[x]
                assert in_plane == (lo <= y < hi)

    @settings(max_examples=60, deadline=None)
    @given(documents())
    def test_structure_arrays_match_object_links(self, document):
        index = document.index
        for i, node in enumerate(document.nodes):
            parent = node.parent
            assert index.parent[i] == (-1 if parent is None else index.id_of(parent))
            first = node.children[0] if node.children else None
            assert index.first_child[i] == (
                -1 if first is None else index.id_of(first)
            )
        for tag, ids in index.ids_by_tag.items():
            assert index.ids_to_node_list(ids) == document.elements_with_tag(tag)

    @settings(max_examples=30, deadline=None)
    @given(documents())
    def test_tag_partition_interval_query(self, document):
        index = document.index
        for tag in TAGS:
            for i in range(index.size):
                lo, hi = i + 1, index.subtree_end[i] + 1
                expected = [
                    j
                    for j in range(lo, hi)
                    if node_test_matches(index.nodes[j], "descendant", tag)
                ]
                assert index.tag_ids_in_interval(tag, lo, hi) == expected
