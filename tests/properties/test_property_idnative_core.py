"""Differential suite: id-native core ≡ naive, and core ≡ cvt.

The independent side is the literal functional-semantics
:class:`NaiveEvaluator`: it applies axes one context node at a time and
shares no code with the id-set kernels, so the id-native
:class:`CoreXPathEvaluator` must match it on every Core XPath query.
The context-value-table evaluator routes large frontiers through the same
kernels, so ``core ≡ cvt`` — from every kind of context (the root, tree
nodes, attribute nodes) — is a second agreement, not an independent one.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.evaluation import ContextValueTableEvaluator, NaiveEvaluator
from repro.evaluation.context import Context
from repro.evaluation.core import CoreXPathEvaluator
from repro.evaluation.values import to_boolean
from repro.xmlmodel.idset import DENSITY_FACTOR
from repro.xmlmodel.nodes import sort_document_order
from repro.xpath.ast import LocationPath

from tests.properties.strategies import core_xpath_queries, documents


def _orders(nodes):
    return [node.order for node in nodes]


def _cvt_from(document, query, contexts):
    """The union, in document order, of cvt's answers from each context."""
    cvt = ContextValueTableEvaluator(document)
    selected = []
    for node in contexts:
        selected.extend(cvt.evaluate_nodes(query, Context(node)))
    return sort_document_order(selected)


class TestIdNativeAgainstCvt:
    @given(documents(max_nodes=30), core_xpath_queries(allow_negation=True))
    @settings(max_examples=60, deadline=None)
    def test_same_result_from_root(self, document, query):
        idnative = CoreXPathEvaluator(document).evaluate_nodes(query)
        cvt = ContextValueTableEvaluator(document).evaluate_nodes(query)
        assert _orders(idnative) == _orders(cvt)

    @given(documents(max_nodes=25), core_xpath_queries(allow_negation=True))
    @settings(max_examples=40, deadline=None)
    def test_same_result_from_random_context(self, document, query):
        context = document.nodes[len(document.nodes) // 2 :: 2]
        idnative = CoreXPathEvaluator(document).evaluate_nodes(query, context)
        assert _orders(idnative) == _orders(_cvt_from(document, query, context))

    @given(documents(max_nodes=25), core_xpath_queries(allow_negation=True))
    @settings(max_examples=100, deadline=None)
    def test_same_result_from_attribute_context(self, document, query):
        assume(document.attributes)
        query = LocationPath(False, query.steps)  # absolute paths ignore the context
        # Attributes alone, and mixed with tree nodes: one id-less member
        # sends the whole context set down the per-node route.
        for context in (
            document.attributes[::2],
            document.attributes[:1] + document.nodes[::3],
        ):
            idnative = CoreXPathEvaluator(document).evaluate_nodes(query, context)
            assert _orders(idnative) == _orders(_cvt_from(document, query, context))

    @given(documents(max_nodes=25), core_xpath_queries(allow_negation=True))
    @settings(max_examples=40, deadline=None)
    def test_condition_sets_agree(self, document, query):
        idnative = CoreXPathEvaluator(document).condition_nodes(query)
        cvt = ContextValueTableEvaluator(document)
        holds = [
            node
            for node in document.nodes
            if to_boolean(cvt.evaluate(query, Context(node)))
        ]
        assert _orders(idnative) == _orders(holds)

    @given(documents(max_nodes=25), core_xpath_queries(allow_negation=True))
    @settings(max_examples=40, deadline=None)
    def test_evaluate_ids_matches_node_orders(self, document, query):
        evaluator = CoreXPathEvaluator(document)
        ids = evaluator.evaluate_ids(query)
        nodes = evaluator.evaluate_nodes(query)
        assert ids == sorted(ids)
        assert document.index.ids_to_node_list(ids) == nodes


class TestIdNativeAgainstNaive:
    @given(documents(max_nodes=18), core_xpath_queries(allow_negation=True))
    @settings(max_examples=30, deadline=None)
    def test_naive_agrees(self, document, query):
        idnative = CoreXPathEvaluator(document).evaluate_nodes(query)
        naive = NaiveEvaluator(document).evaluate_nodes(query)
        assert _orders(idnative) == _orders(naive)


class TestDensityTransitions:
    @given(
        documents(max_nodes=DENSITY_FACTOR * 8),
        core_xpath_queries(allow_negation=True),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_agreement_survives_repeated_evaluation(self, document, query, repeats):
        # Repeated evaluation exercises the cached (bitmask-materialised)
        # condition sets; the expected side never touches an id set.
        evaluator = CoreXPathEvaluator(document)
        expected = _orders(NaiveEvaluator(document).evaluate_nodes(query))
        for _ in range(repeats):
            assert _orders(evaluator.evaluate_nodes(query)) == expected
