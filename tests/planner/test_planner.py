"""Unit tests for query planning: engine selection, running, batching."""

import pytest

from repro.errors import XPathEvaluationError
from repro.evaluation import Context, evaluate
from repro.planner import (
    AUTO_ENGINE_CHAIN,
    QueryPlan,
    evaluate_many,
    get_plan,
    plan_query,
)
from repro.xmlmodel import parse_xml
from repro.xpath import parse

DOC = parse_xml("<r><a><b/></a><a/><c>5</c></r>")


class TestEngineSelection:
    @pytest.mark.parametrize(
        "query",
        [
            "/descendant::a",
            "//a[child::b]",
            "//a[not(child::b)]",
            "//a | //c",
            "//a[child::b and not(parent::r)]",
        ],
    )
    def test_core_xpath_selects_core(self, query):
        plan = plan_query(query)
        assert plan.engine == "core"
        assert plan.fallbacks == ("cvt",)
        assert "Core XPath" in plan.classification.fragments

    @pytest.mark.parametrize(
        "query",
        [
            "//a[position() = 2]",
            "//c[. = 5]",
            "count(//a)",
            "//a[attribute::id]",
            "string(//c)",
        ],
    )
    def test_richer_queries_select_cvt(self, query):
        plan = plan_query(query)
        assert plan.engine == "cvt"
        assert plan.fallbacks == ()
        assert "Core XPath" not in plan.classification.fragments

    def test_engine_chain_is_ordered_prefix_of_auto_chain(self):
        for query in ("//a", "count(//a)"):
            chain = plan_query(query).engine_chain
            assert chain == AUTO_ENGINE_CHAIN[AUTO_ENGINE_CHAIN.index(chain[0]) :]

    def test_plan_accepts_parsed_ast(self):
        expr = parse("//a[child::b]")
        plan = plan_query(expr)
        assert plan.engine == "core"
        assert plan.query == expr.unparse()

    def test_explain_mentions_engine_and_fragment(self):
        text = plan_query("//a[not(b)]").explain()
        assert "core" in text
        assert "Core XPath" in text


class TestPlanRun:
    def test_node_set_results_in_document_order(self):
        plan = plan_query("//a[child::b]")
        nodes = plan.run(DOC)
        assert [node.tag for node in nodes] == ["a"]
        assert nodes == evaluate("//a[child::b]", DOC, engine="core")

    def test_scalar_results(self):
        assert plan_query("count(//a)").run(DOC) == 2.0
        assert plan_query("string(//c)").run(DOC) == "5"
        assert plan_query("//c = 5").run(DOC) is True

    def test_run_with_context(self):
        a1 = DOC.elements_with_tag("a")[0]
        assert len(plan_query("child::b").run(DOC, context=Context(a1))) == 1

    def test_run_with_variables(self):
        assert plan_query("$x * 2").run(DOC, variables={"x": 21.0}) == 42.0

    def test_plan_is_document_free(self):
        """One cached plan must serve many documents with no stale state."""
        plan = plan_query("//a[child::b]")
        first = parse_xml("<r><a><b/></a></r>")
        second = parse_xml("<r><a/><a><b/><b/></a></r>")
        assert len(plan.run(first)) == 1
        assert len(plan.run(second)) == 1
        assert plan.run(second)[0].document is second
        # and the original document still answers correctly afterwards
        assert len(plan.run(first)) == 1

    def test_shared_evaluators_are_populated_and_reused(self):
        plan = plan_query("//a[child::b]")
        evaluators = {}
        plan.run(DOC, evaluators=evaluators)
        assert set(evaluators) == {"core"}
        first_instance = evaluators["core"]
        plan.run(DOC, evaluators=evaluators)
        assert evaluators["core"] is first_instance


class TestPlanRunIds:
    def test_core_plan_returns_preorder_ids(self):
        plan = plan_query("//a[child::b]")
        ids = plan.run_ids(DOC)
        assert ids == [DOC.index.id_of(node) for node in plan.run(DOC)]

    def test_non_core_plan_converts_at_boundary(self):
        plan = plan_query("//a[position() = 1]")
        assert plan.engine != "core"
        ids = plan.run_ids(DOC)
        assert DOC.index.ids_to_node_list(ids) == plan.run(DOC)

    def test_scalar_result_rejected(self):
        with pytest.raises(XPathEvaluationError):
            plan_query("count(//a)").run_ids(DOC)

    def test_attribute_results_rejected_with_typed_error(self):
        document = parse_xml('<a id="1"><b x="2"/></a>')
        with pytest.raises(XPathEvaluationError):
            plan_query("//@x").run_ids(document)


class TestEvaluateMany:
    def test_matches_individual_evaluation(self):
        queries = ["//a", "count(//a)", "//a[child::b]", "string(//c)"]
        results = evaluate_many(DOC, queries)
        expected = [evaluate(query, DOC, engine="auto") for query in queries]
        assert results == expected

    def test_builds_shared_index_up_front(self):
        document = parse_xml("<r><a/><a/></r>")
        assert not document.has_index
        evaluate_many(document, ["//a"])
        assert document.has_index

    def test_one_miss_then_hits_on_the_default_cache(self):
        from repro.engine import reset_default_engine

        cache = reset_default_engine().plan_cache
        evaluate_many(DOC, ["//a", "//a"])
        stats = cache.stats()
        assert stats.misses == 1
        assert stats.hits == 1

    def test_empty_query_list(self):
        assert evaluate_many(DOC, []) == []


class TestAutoEngineThroughApi:
    def test_evaluate_auto_matches_default_engine(self):
        for query in ("//a[child::b]", "count(//a)", "//a[position() = 2]"):
            assert evaluate(query, DOC, engine="auto") == evaluate(query, DOC)

    def test_get_plan_uses_default_cache(self):
        plan_a = get_plan("//a[child::b]")
        plan_b = get_plan("//a[child::b]")
        assert plan_a is plan_b
        assert isinstance(plan_a, QueryPlan)

    def test_detached_auto_with_a_shared_evaluator_mapping(self):
        """The default engine's planner bound to a document and one
        caller-held evaluator mapping."""
        from repro.engine import default_engine

        evaluators = {}
        result = default_engine().evaluate_detached(
            "//a[child::b]", DOC, evaluators=evaluators
        )
        assert result.value == evaluate("//a[child::b]", DOC, engine="auto")
        assert set(evaluators) == {"core"}
