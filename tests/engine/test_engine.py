"""Unit tests for the XPathEngine session façade."""

import pytest

from repro.engine import (
    DocHandle,
    QueryRequest,
    XPathEngine,
    default_engine,
    reset_default_engine,
)
from repro.errors import XPathEvaluationError
from repro.evaluation import DEFAULT_MAX_NEGATION_DEPTH, evaluate
from repro.xmlmodel import parse_xml

XML = "<r><a><b/></a><a/><c>5</c></r>"


@pytest.fixture
def engine():
    return XPathEngine()


@pytest.fixture
def doc(engine):
    return engine.add(XML)


class TestDocumentRegistry:
    def test_add_parses_strings_and_accepts_documents(self, engine):
        handle = engine.add(XML)
        assert isinstance(handle, DocHandle)
        assert handle.document.has_index  # forced at registration
        document = parse_xml(XML)
        other = engine.add(document)
        assert other.document is document

    def test_add_is_idempotent_per_document(self, engine):
        document = parse_xml(XML)
        assert engine.add(document) is engine.add(document)
        assert engine.stats().documents.size == 1

    def test_lru_bound_evicts_oldest(self):
        engine = XPathEngine(max_documents=2)
        handles = [engine.add(f"<a n='{i}'/>") for i in range(3)]
        stats = engine.stats().documents
        assert stats.size == 2
        assert stats.evictions == 1
        # The evicted handle still works: the engine re-registers its document.
        assert engine.evaluate("//a", handles[0]).ids == [1]

    def test_handle_evaluate_shortcut(self, doc):
        assert [n.tag for n in doc.evaluate("//b").nodes] == ["b"]

    def test_handle_keeps_one_evaluator_per_kind(self, engine, doc):
        engine.evaluate("//a[child::b]", doc)
        core = doc.evaluators["core"]
        for _ in range(2):
            engine.evaluate("//a[child::b]", doc)
        assert doc.evaluators == {"core": core}
        engine.evaluate("count(//a)", doc)
        assert sorted(doc.evaluators) == ["core", "cvt"]
        assert doc.evaluators["core"] is core


class TestQueryResult:
    def test_node_set_result(self, engine, doc):
        result = engine.evaluate("//a[child::b]", doc)
        assert result.is_node_set
        assert [n.tag for n in result.nodes] == ["a"]
        assert result.ids == [doc.document.index.id_of(n) for n in result.nodes]
        assert result.value == result.nodes
        assert result.engine == "core"
        assert result.classification.most_specific == "positive Core XPath"
        assert result.wall_time >= 0.0

    def test_scalar_result(self, engine, doc):
        result = engine.evaluate("count(//a)", doc)
        assert not result.is_node_set
        assert result.value == 2.0
        with pytest.raises(XPathEvaluationError):
            result.nodes
        with pytest.raises(XPathEvaluationError):
            result.ids

    def test_id_native_result_materialises_lazily(self, engine, doc):
        result = engine.evaluate("//a", doc, ids=True)
        assert result.ids == [2, 4]
        assert [n.tag for n in result.nodes] == ["a", "a"]

    def test_explicit_core_ids_stays_id_native(self, engine, doc):
        result = engine.evaluate("//a", doc, engine="core", ids=True)
        assert result.ids == [2, 4]
        assert result.engine == "core"

    def test_attribute_results_reject_ids(self, engine):
        doc = engine.add('<a id="1"><b x="2"/></a>')
        result = engine.evaluate("//@x", doc)
        assert len(result.nodes) == 1
        with pytest.raises(XPathEvaluationError):
            result.ids

    def test_cache_hit_flag(self, engine, doc):
        assert engine.evaluate("//a[child::b]", doc).cache_hit is False
        assert engine.evaluate("//a[child::b]", doc).cache_hit is True


class TestExplicitEngines:
    @pytest.mark.parametrize("kind", ["cvt", "naive", "core", "singleton", "auto"])
    def test_all_engines_agree(self, engine, doc, kind):
        result = engine.evaluate("/child::r/child::a[child::b]", doc, engine=kind)
        assert [n.tag for n in result.nodes] == ["a"]

    def test_singleton_uses_documented_negation_default(self, engine, doc):
        assert engine.max_negation_depth == DEFAULT_MAX_NEGATION_DEPTH
        result = engine.evaluate(
            "descendant::a[not(child::b)]", doc, engine="singleton"
        )
        assert len(result.nodes) == 1

    def test_variables_through_pool(self, engine, doc):
        assert engine.evaluate("$x * 2", doc, variables={"x": 21.0}).value == 42.0
        # A kept cvt evaluator with stale bindings must not leak old values.
        assert engine.evaluate("$x * 2", doc, variables={"x": 4.0}).value == 8.0

    def test_unknown_engine_points_at_facade(self, engine, doc):
        with pytest.raises(XPathEvaluationError) as excinfo:
            engine.evaluate("//a", doc, engine="quantum")
        assert "XPathEngine" in str(excinfo.value)


class TestBatch:
    def test_batch_matches_single_evaluations(self, engine, doc):
        queries = ["//a", "count(//a)", "//a[child::b]", "string(//c)"]
        batch = engine.evaluate_batch([(q, doc) for q in queries])
        singles = [engine.evaluate(q, doc) for q in queries]
        assert [r.value for r in batch] == [r.value for r in singles]

    def test_batch_accepts_requests_and_tuples(self, engine, doc):
        results = engine.evaluate_batch(
            [("//a", doc), QueryRequest("count(//a)", doc)]
        )
        assert [r.value for r in results][1] == 2.0

    def test_batch_ids_mode(self, engine, doc):
        results = engine.evaluate_batch([("//a", doc), ("//b", doc)], ids=True)
        assert [r.ids for r in results] == [[2, 4], [3]]

    def test_empty_batch(self, engine):
        assert engine.evaluate_batch([]) == []

    def test_bad_request_shape_raises(self, engine, doc):
        with pytest.raises(TypeError):
            engine.evaluate_batch(["//a"])


class TestStats:
    def test_dispatch_counts_by_answering_engine(self, engine, doc):
        engine.evaluate("//a", doc)               # core via auto
        engine.evaluate("count(//a)", doc)        # cvt via auto
        engine.evaluate("//a", doc, engine="naive")
        stats = engine.stats()
        assert stats.dispatch == {"core": 1, "cvt": 1, "naive": 1}
        assert stats.queries == 3
        assert stats.plans.misses == 2  # "//a" is planned once, reused by naive

    def test_describe_mentions_every_section(self, engine, doc):
        engine.evaluate("//a", doc)
        text = engine.stats().describe()
        for fragment in ("plan cache", "documents", "dispatch counts", "queries"):
            assert fragment in text


class TestDetachedEvaluation:
    def test_detached_shares_plans_but_not_registry(self, engine):
        document = parse_xml(XML)
        result = engine.evaluate_detached("//a[child::b]", document)
        assert [n.tag for n in result.nodes] == ["a"]
        assert engine.stats().documents.size == 0
        assert engine.stats().dispatch == {"core": 1}
        assert engine.evaluate_detached("//a[child::b]", document).cache_hit

    def test_detached_documents_are_collectable(self, engine):
        import gc
        import weakref

        document = parse_xml(XML)
        ref = weakref.ref(document)
        assert engine.evaluate_detached("count(//a)", document).value == 2.0
        del document
        gc.collect()
        assert ref() is None, "engine must not retain detached documents"

    def test_shared_evaluators_mapping_is_reused(self, engine):
        document = parse_xml(XML)
        evaluators = {}
        engine.evaluate_detached("//a", document, evaluators=evaluators)
        first = evaluators["core"]
        engine.evaluate_detached("//b", document, evaluators=evaluators)
        assert evaluators["core"] is first


class TestDefaultEngineWiring:
    def test_legacy_evaluate_counts_on_default_engine(self):
        engine = reset_default_engine()
        document = parse_xml(XML)
        evaluate("//a[child::b]", document, engine="auto")
        assert default_engine() is engine
        assert engine.stats().dispatch.get("core") == 1
        # Legacy callers never opted into a session: nothing is pinned.
        assert engine.stats().documents.size == 0

    def test_clear_plan_cache_routes_through_engine_lock(self):
        from repro.planner import clear_plan_cache, default_plan_cache

        engine = reset_default_engine()
        engine.get_plan("//a")
        assert len(default_plan_cache()) == 1
        clear_plan_cache()
        assert len(default_plan_cache()) == 0

    def test_reset_replaces_the_singleton(self):
        first = reset_default_engine()
        assert default_engine() is first
        assert reset_default_engine() is not first
