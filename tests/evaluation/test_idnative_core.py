"""Unit and edge-case tests for the id-native Core XPath evaluator.

The differential properties live in
``tests/properties/test_property_idnative_core.py``; this module pins the
corners the issue calls out explicitly — empty frontiers, root-only
documents, and single-tag documents whose frontiers are dense enough to
ride the bitmask path — plus the id-level API surface.
"""

import pytest

from repro.errors import FragmentViolationError
from repro.evaluation.api import evaluate
from repro.evaluation.context import Context
from repro.evaluation.core import CoreXPathEvaluator
from repro.evaluation.cvt import ContextValueTableEvaluator
from repro.planner import plan_query
from repro.xmlmodel import chain_document, parse_xml, wide_document
from repro.xmlmodel.idset import DENSITY_FACTOR, IdSet


class TestEmptyFrontier:
    def test_no_match_returns_empty_list(self):
        document = parse_xml("<a><b/></a>")
        assert CoreXPathEvaluator(document).evaluate_nodes("//zzz") == []

    def test_empty_frontier_short_circuits_later_steps(self):
        document = parse_xml("<a><b/></a>")
        evaluator = CoreXPathEvaluator(document)
        assert evaluator.evaluate_nodes("//zzz/child::b/child::b") == []
        # Only the steps up to the empty frontier are charged: the
        # descendant-or-self step of the // abbreviation plus child::zzz,
        # never the two child::b steps.
        assert evaluator.axis_applications == 2

    def test_empty_context_ids(self):
        document = parse_xml("<a><b/></a>")
        assert CoreXPathEvaluator(document).evaluate_ids("child::b", []) == []

    def test_condition_against_empty_set(self):
        document = parse_xml("<a><b/></a>")
        nodes = CoreXPathEvaluator(document).evaluate_nodes("//b[child::zzz]")
        assert nodes == []


class TestRootOnlyDocument:
    def test_single_element_document(self):
        document = parse_xml("<a/>")
        evaluator = CoreXPathEvaluator(document)
        assert [n.tag for n in evaluator.evaluate_nodes("/child::a")] == ["a"]
        assert evaluator.evaluate_nodes("//a/child::a") == []
        assert evaluator.evaluate_nodes("/descendant-or-self::node()") == list(
            document.nodes
        )

    def test_negation_over_tiny_universe(self):
        document = parse_xml("<a/>")
        nodes = CoreXPathEvaluator(document).evaluate_nodes("//a[not(child::a)]")
        assert [n.tag for n in nodes] == ["a"]


class TestDenseSingleTagDocuments:
    """Single-tag documents make every frontier a large fraction of the
    universe, forcing the IdSet algebra onto the bitmask path."""

    def test_wide_single_tag(self):
        document = wide_document(4 * DENSITY_FACTOR, tag="a")
        idnative = CoreXPathEvaluator(document)
        cvt = ContextValueTableEvaluator(document)
        for query in ("//a", "//a[not(child::a)]", "//a[following-sibling::a]"):
            assert idnative.evaluate_nodes(query) == cvt.evaluate_nodes(query)

    def test_deep_single_tag(self):
        document = chain_document(4 * DENSITY_FACTOR)
        idnative = CoreXPathEvaluator(document)
        cvt = ContextValueTableEvaluator(document)
        for query in ("//a[child::a]", "//a/ancestor::a", "//a[not(descendant::a)]"):
            assert idnative.evaluate_nodes(query) == cvt.evaluate_nodes(query)

    def test_full_universe_frontier_is_dense(self):
        document = wide_document(4 * DENSITY_FACTOR, tag="a")
        index = document.index
        everything = index.axis_idset(
            "descendant-or-self", IdSet.from_sorted([0], index.size)
        )
        assert len(everything) == index.size
        assert everything.is_dense


class TestIdLevelApi:
    def test_evaluate_ids_are_preorder_ranks(self):
        document = parse_xml("<a><b/><c><b/></c></a>")
        assert CoreXPathEvaluator(document).evaluate_ids("//b") == [2, 4]

    def test_context_ids_relative_query(self):
        document = parse_xml("<a><b><c/></b><b/></a>")
        evaluator = CoreXPathEvaluator(document)
        b_ids = evaluator.evaluate_ids("//b")
        assert evaluator.evaluate_ids("child::c", context_ids=b_ids) == [3]

    def test_axis_applications_counter_is_pinned(self):
        document = parse_xml("<a><b><c/></b><b/></a>")
        query = "//b[child::c and not(child::d)]/descendant::c"
        evaluator = CoreXPathEvaluator(document)
        evaluator.evaluate_nodes(query)
        # Three forward steps (// is descendant-or-self::node()/child::b)
        # plus one inverse-axis pass per condition path.  The ledger's
        # evaluation.axis_applications_per_query reads this counter.
        assert evaluator.axis_applications == 5


def _attribute_document():
    """A document and its ``@z`` attribute node (which has no id)."""
    document = parse_xml('<a x="1" y="2"><b z="3"><c/></b><d/></a>')
    (z,) = [a for a in document.attributes if a.attr_name == "z"]
    return document, z


class TestFallbacks:
    @pytest.mark.parametrize(
        "query",
        [
            "parent::b",
            "ancestor::*",
            "ancestor-or-self::node()",
            "following::*",
            "self::node()[parent::b]",
            "ancestor::*[not(child::d)]",
        ],
    )
    def test_attribute_context_agrees_with_oracles(self, query):
        document, attribute = _attribute_document()
        context = Context(attribute)
        expected = evaluate(query, document, engine="cvt", context=context)
        assert expected == evaluate(query, document, engine="naive", context=context)
        assert expected, query  # every row selects something
        assert evaluate(query, document, engine="auto", context=context) == expected
        assert evaluate(query, document, engine="core", context=context) == expected
        evaluator = CoreXPathEvaluator(document)
        assert evaluator.evaluate_nodes(query, [attribute]) == expected
        assert plan_query(query).run(document, context=context) == expected

    def test_mixed_tree_and_attribute_contexts_are_unioned_in_document_order(self):
        document, attribute = _attribute_document()
        (d,) = document.elements_with_tag("d")
        nodes = CoreXPathEvaluator(document).evaluate_nodes(
            "ancestor::*", [d, attribute, attribute]
        )
        assert [n.tag for n in nodes] == ["a", "b"]

    def test_out_of_range_context_ids_rejected(self):
        from repro.errors import XPathEvaluationError

        document = parse_xml("<a><b/></a>")
        evaluator = CoreXPathEvaluator(document)
        with pytest.raises(XPathEvaluationError):
            evaluator.evaluate_ids("child::b", context_ids=[999])
        with pytest.raises(XPathEvaluationError):
            evaluator.evaluate_ids("child::b", context_ids=[-2])

    def test_non_core_query_still_rejected(self):
        document = parse_xml("<a><b/></a>")
        with pytest.raises(FragmentViolationError):
            CoreXPathEvaluator(document).evaluate_nodes("//b[position() = 1]")
        with pytest.raises(FragmentViolationError):
            CoreXPathEvaluator(document).evaluate_ids("count(//b)")

    def test_non_core_query_still_rejected_from_attribute_context(self):
        document, attribute = _attribute_document()
        evaluator = CoreXPathEvaluator(document)
        with pytest.raises(FragmentViolationError):
            evaluator.evaluate_nodes("parent::*[position() = 1]", [attribute])
        with pytest.raises(FragmentViolationError):
            evaluator.evaluate_nodes("count(parent::*)", [attribute])
        with pytest.raises(FragmentViolationError):
            evaluator.evaluate_nodes("parent::*/attribute::x", [attribute])


class TestConditionSetLifetime:
    """A cached condition set lives exactly as long as its expression."""

    @staticmethod
    def _document():
        return parse_xml(
            "<r>" + "".join(f"<a><b{n % 7}/><c{n % 5}/></a>" for n in range(300)) + "</r>"
        )

    def test_evicted_plans_leave_no_sets_behind(self):
        from repro.engine import XPathEngine

        plan_cache_size = 16
        engine = XPathEngine(plan_cache_size=plan_cache_size)
        document = self._document()
        evaluators: dict = {}
        texts = [
            f"/r/a[child::b{i % 7} and not(child::c{i % 5} or child::x{i})]"
            for i in range(600)
        ]
        assert len(set(texts)) == len(texts)
        for text in texts:
            engine.evaluate_detached(text, document, evaluators=evaluators)
        cache = evaluators["core"]._condition_cache
        # Every text caches six sets (and, b, not, or, c, x); only the
        # plans still in the plan cache may keep theirs.
        assert 0 < len(cache) <= 8 * plan_cache_size
        assert len(cache) == 6 * plan_cache_size

    def test_hot_plans_keep_their_sets(self):
        from repro.engine import XPathEngine

        engine = XPathEngine(plan_cache_size=16)
        document = self._document()
        evaluators: dict = {}
        query = "/r/a[child::b3 and not(child::c2)]"
        first = engine.evaluate_detached(query, document, evaluators=evaluators).ids
        evaluator = evaluators["core"]
        held = {key: entry[1] for key, entry in evaluator._condition_cache.items()}
        before = evaluator.axis_applications
        again = engine.evaluate_detached(query, document, evaluators=evaluators)
        assert again.cache_hit and again.ids == first
        # Only the two forward steps ran: both condition paths hit the cache.
        assert evaluator.axis_applications == before + 2
        assert {
            key: entry[1] for key, entry in evaluator._condition_cache.items()
        } == held and all(
            evaluator._condition_cache[key][1] is held[key] for key in held
        )

    def test_a_recycled_id_never_returns_a_stale_set(self):
        from repro.xpath.parser import parse

        document = self._document()
        evaluator = CoreXPathEvaluator(document)
        seen: set[int] = set()
        recycled = 0
        for round_index in range(400):
            # Structurally different every round, so a stale set would be wrong.
            text = f"/r/a[child::b{round_index % 7} and not(child::c{round_index % 5})]"
            expr = parse(text)
            cached_ids = {id(node) for node in expr.walk()}
            recycled += bool(cached_ids & seen)
            expected = CoreXPathEvaluator(document).evaluate_ids(text)
            assert expected, text
            assert evaluator.evaluate_ids(expr) == expected, text
            seen |= cached_ids
            del expr
            assert not evaluator._condition_cache  # the sets died with the AST
        if not recycled:  # pragma: no cover - CPython reuses freed blocks at once
            pytest.skip("the allocator never handed out a repeated id()")
