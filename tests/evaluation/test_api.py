"""Unit tests for the top-level evaluate()/make_evaluator() convenience API."""

import pytest

from repro.errors import XPathEvaluationError
from repro.evaluation import (
    ENGINES,
    Context,
    evaluate,
    evaluate_nodes,
    make_evaluator,
    query_selects,
)
from repro.evaluation.core import CoreXPathEvaluator
from repro.evaluation.cvt import ContextValueTableEvaluator
from repro.evaluation.naive import NaiveEvaluator
from repro.evaluation.singleton import SingletonSuccessChecker
from repro.xmlmodel.parser import parse_xml

DOC = parse_xml("<r><a><b/></a><a/><c>5</c></r>")


class TestMakeEvaluator:
    def test_engine_classes(self):
        assert isinstance(make_evaluator(DOC, "cvt"), ContextValueTableEvaluator)
        assert isinstance(make_evaluator(DOC, "naive"), NaiveEvaluator)
        assert isinstance(make_evaluator(DOC, "core"), CoreXPathEvaluator)
        assert isinstance(make_evaluator(DOC, "singleton"), SingletonSuccessChecker)

    def test_unknown_engine(self):
        with pytest.raises(XPathEvaluationError) as excinfo:
            make_evaluator(DOC, "quantum")
        assert "XPathEngine" in str(excinfo.value)

    def test_auto_is_a_plan_not_an_evaluator_class(self):
        with pytest.raises(XPathEvaluationError) as excinfo:
            make_evaluator(DOC, "auto")
        assert "XPathEngine" in str(excinfo.value)
        nodes = evaluate("/child::r/child::a[child::b]", DOC, engine="auto")
        assert [n.tag for n in nodes] == ["a"]
        assert evaluate("count(//a)", DOC, engine="auto") == 2.0

    def test_shared_evaluators_never_answer_with_stale_bindings(self):
        from repro.engine import default_engine

        evaluators = {}

        def doubled(x):
            return default_engine().evaluate_detached(
                "$x * 2", DOC, variables={"x": x}, evaluators=evaluators
            ).value

        assert doubled(21.0) == 42.0
        # New bindings replace the pooled evaluator, as with a fresh cvt one.
        assert doubled(4.0) == 8.0

    def test_engines_constant_is_complete(self):
        assert set(ENGINES) == {"cvt", "naive", "core", "singleton", "auto"}

    def test_singleton_negation_default_is_shared(self):
        """One documented default threads through make_evaluator, evaluate
        and XPathEngine (it used to be 0 here and a hardcoded 64 there)."""
        from repro.engine import XPathEngine
        from repro.evaluation import DEFAULT_MAX_NEGATION_DEPTH

        checker = make_evaluator(DOC, "singleton")
        assert checker.max_negation_depth == DEFAULT_MAX_NEGATION_DEPTH
        assert XPathEngine().max_negation_depth == DEFAULT_MAX_NEGATION_DEPTH
        # evaluate(engine="singleton") accepts bounded negation by default.
        nodes = evaluate("descendant::a[not(child::b)]", DOC, engine="singleton")
        assert len(nodes) == 1


class TestEvaluate:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_node_set_queries_across_engines(self, engine):
        nodes = evaluate("/child::r/child::a[child::b]", DOC, engine=engine)
        assert [n.tag for n in nodes] == ["a"]

    def test_scalar_results(self):
        assert evaluate("count(//a)", DOC) == 2.0
        assert evaluate("string(//c)", DOC) == "5"
        assert evaluate("//c = 5", DOC) is True

    def test_scalar_results_via_singleton_engine(self):
        assert evaluate("descendant::c = 5", DOC, engine="singleton") is True
        assert evaluate("1 + 2", DOC, engine="singleton") == 3.0

    def test_explicit_context(self):
        a1 = DOC.elements_with_tag("a")[0]
        assert len(evaluate("child::b", DOC, context=Context(a1))) == 1
        assert evaluate("child::b", DOC, engine="core", context=Context(a1))

    def test_variables(self):
        assert evaluate("$x * 2", DOC, variables={"x": 21.0}) == 42.0

    def test_evaluate_nodes_rejects_scalars(self):
        with pytest.raises(XPathEvaluationError):
            evaluate_nodes("1 + 1", DOC)

    def test_query_selects(self):
        assert query_selects("//b", DOC)
        assert not query_selects("//zzz", DOC)
        assert query_selects("//b", DOC, engine="core")
