"""Property-based tests for axis algebra and cross-evaluator agreement."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation import ContextValueTableEvaluator, CoreXPathEvaluator, NaiveEvaluator
from repro.fragments import is_core_xpath
from repro.xmlmodel.axes import CORE_XPATH_AXES, apply_axis_to_set, axis_nodes, inverse_axis

from tests.properties.strategies import core_xpath_queries, documents


class TestAxisAlgebraProperties:
    @given(documents(max_nodes=30), st.sampled_from(sorted(CORE_XPATH_AXES)))
    @settings(max_examples=40, deadline=None)
    def test_set_axes_agree_with_per_node_axes(self, document, axis):
        subset = document.nodes[::3]
        index = document.index
        reached = index.axis_idset(axis, index.idset_from_nodes(subset))
        assert index.idset_to_node_list(reached) == apply_axis_to_set(subset, axis)

    @given(documents(max_nodes=25), st.sampled_from(sorted(CORE_XPATH_AXES - {"self"})))
    @settings(max_examples=40, deadline=None)
    def test_inverse_axis_is_the_converse_relation(self, document, axis):
        inverse = inverse_axis(axis)
        for x in document.nodes:
            for y in axis_nodes(x, axis):
                assert x in axis_nodes(y, inverse)

    @given(documents(max_nodes=25))
    @settings(max_examples=30, deadline=None)
    def test_document_partition_property(self, document):
        # For every node: self, ancestors, descendants, preceding and
        # following partition the document (XPath data model invariant).
        for node in document.nodes:
            groups = [
                {node},
                set(axis_nodes(node, "ancestor")),
                set(axis_nodes(node, "descendant")),
                set(axis_nodes(node, "preceding")),
                set(axis_nodes(node, "following")),
            ]
            assert set().union(*groups) == set(document.nodes)
            assert sum(len(group) for group in groups) == len(document.nodes)


class TestEvaluatorAgreementProperties:
    @given(documents(max_nodes=25), core_xpath_queries(allow_negation=True))
    @settings(max_examples=50, deadline=None)
    def test_cvt_and_core_agree_on_core_xpath(self, document, query):
        assert is_core_xpath(query)
        cvt_result = ContextValueTableEvaluator(document).evaluate_nodes(query)
        core_result = CoreXPathEvaluator(document).evaluate_nodes(query)
        assert [n.order for n in cvt_result] == [n.order for n in core_result]

    @given(documents(max_nodes=18), core_xpath_queries(allow_negation=False))
    @settings(max_examples=30, deadline=None)
    def test_naive_agrees_on_positive_queries(self, document, query):
        cvt_result = ContextValueTableEvaluator(document).evaluate_nodes(query)
        naive_result = NaiveEvaluator(document).evaluate_nodes(query)
        assert [n.order for n in cvt_result] == [n.order for n in naive_result]

    @given(documents(max_nodes=25), core_xpath_queries(allow_negation=True))
    @settings(max_examples=30, deadline=None)
    def test_results_are_sorted_and_unique(self, document, query):
        result = ContextValueTableEvaluator(document).evaluate_nodes(query)
        orders = [node.order for node in result]
        assert orders == sorted(orders)
        assert len(orders) == len(set(orders))

    @given(documents(max_nodes=20), core_xpath_queries(allow_negation=True))
    @settings(max_examples=30, deadline=None)
    def test_monotone_under_negation_free_weakening(self, document, query):
        # Dropping all predicates can only enlarge the answer set.
        from repro.xpath.ast import LocationPath, Step

        stripped = LocationPath(
            query.absolute,
            tuple(Step(step.axis, step.node_test, ()) for step in query.steps),
        )
        full = set(ContextValueTableEvaluator(document).evaluate_nodes(query))
        relaxed = set(ContextValueTableEvaluator(document).evaluate_nodes(stripped))
        assert full <= relaxed
