"""Differential properties: kernel backends are observationally identical.

For random documents and random Core XPath queries, the id-native
evaluator must return the same ids under the ``pure`` and ``vectorized``
backends, and both must agree with the naive functional evaluator,
which walks one context node at a time and never touches the kernel
backends at all (``cvt`` applies its large frontiers through them, so it
is not an independent side).  A second property drives the raw kernel
surface (axis application and IdSet algebra) on random id subsets.
"""

import pytest
from hypothesis import given, settings

from repro.evaluation.core import CoreXPathEvaluator
from repro.evaluation.naive import NaiveEvaluator
from repro.xmlmodel.idset import IdSet
from repro.xmlmodel.kernels import available_backends, use_backend

from tests.properties.strategies import (
    core_xpath_queries,
    documents,
    documents_with_node_subsets,
)

pytestmark = pytest.mark.skipif(
    "vectorized" not in available_backends(),
    reason="vectorized backend needs numpy",
)


class TestQueriesAgreeAcrossBackends:
    @given(documents(max_nodes=30), core_xpath_queries(allow_negation=True))
    @settings(max_examples=60, deadline=None)
    def test_evaluate_ids_identical(self, document, query):
        with use_backend("pure"):
            pure_ids = CoreXPathEvaluator(document).evaluate_ids(query)
        with use_backend("vectorized"):
            vectorized_ids = CoreXPathEvaluator(document).evaluate_ids(query)
        assert pure_ids == vectorized_ids
        assert all(isinstance(i, int) for i in vectorized_ids)

    @given(documents(max_nodes=25), core_xpath_queries(allow_negation=True))
    @settings(max_examples=40, deadline=None)
    def test_both_agree_with_naive_baseline(self, document, query):
        baseline = NaiveEvaluator(document).evaluate_nodes(query)
        expected = [node.order for node in baseline]
        for backend in ("pure", "vectorized"):
            with use_backend(backend):
                nodes = CoreXPathEvaluator(document).evaluate_nodes(query)
            assert [node.order for node in nodes] == expected, backend

    @given(documents(max_nodes=25), core_xpath_queries(allow_negation=True))
    @settings(max_examples=40, deadline=None)
    def test_condition_sets_identical(self, document, query):
        with use_backend("pure"):
            pure_nodes = CoreXPathEvaluator(document).condition_nodes(query)
        with use_backend("vectorized"):
            vectorized_nodes = CoreXPathEvaluator(document).condition_nodes(query)
        assert pure_nodes == vectorized_nodes


_AXES = (
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
)


class TestKernelSurfaceAgreesAcrossBackends:
    @given(documents_with_node_subsets(max_nodes=30))
    @settings(max_examples=50, deadline=None)
    def test_axis_idset_identical(self, document_and_subset):
        document, subset = document_and_subset
        index = document.index
        ids = sorted(index.id_of(node) for node in subset)
        frontier = IdSet.from_sorted(ids, index.size)
        for axis in _AXES:
            with use_backend("pure"):
                pure_result = index.axis_idset(axis, frontier).tolist()
            with use_backend("vectorized"):
                vectorized_result = index.axis_idset(axis, frontier).tolist()
            assert pure_result == vectorized_result, axis

    @given(documents_with_node_subsets(max_nodes=30))
    @settings(max_examples=50, deadline=None)
    def test_idset_algebra_identical(self, document_and_subset):
        document, subset = document_and_subset
        index = document.index
        size = index.size
        members = sorted(index.id_of(node) for node in subset)
        results = {}
        for backend in ("pure", "vectorized"):
            with use_backend(backend):
                a = IdSet.from_sorted(list(members), size)
                b = index.test_idset("*")
                results[backend] = (
                    (a & b).tolist(),
                    (a | b).tolist(),
                    (a - b).tolist(),
                    a.complement().tolist(),
                    IdSet.from_bits(a.bits, size).tolist(),
                )
        assert results["pure"] == results["vectorized"]
