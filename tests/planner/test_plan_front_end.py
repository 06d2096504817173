"""What building a plan does, and does not do.

* The Figure 1 classification is off the plan path: a plan miss never
  calls :func:`~repro.fragments.classify`, and ``.classification`` calls
  it once, on first read, for the plan and for the results it answers.
* Every function call is checked when the plan is built (XPath 1.0
  §3.2): an unknown function or a wrong arity is an
  :class:`~repro.errors.XPathTypeError` with the evaluator's message,
  whichever engine runs and whether or not evaluation would reach it.
"""

import pytest

import repro.planner.plan as plan_module
from repro import XPathEngine
from repro.errors import XPathTypeError
from repro.evaluation.api import make_evaluator
from repro.planner import PlanCache, plan_query
from repro.serving import ShardedPool
from repro.store import CorpusStore
from repro.xmlmodel import parse_xml
from repro.xpath import parse

XML = "<r><a><b/></a><a/></r>"


@pytest.fixture
def classify_calls(monkeypatch):
    """Count the planner's calls of ``classify``."""
    calls = []
    real = plan_module.classify

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(plan_module, "classify", counting)
    return calls


class TestClassificationIsLazy:
    def test_plan_misses_never_classify(self, classify_calls):
        cache = PlanCache(maxsize=8)
        queries = [f"//a{i}[b or not(c)]" for i in range(50)]
        queries += [f"//a[position() = {i}]" for i in range(50)]
        plans = [cache.plan(query) for query in queries]
        assert cache.misses == 100
        assert classify_calls == []
        assert [plan.engine for plan in plans] == ["core"] * 50 + ["cvt"] * 50

    def test_the_first_read_classifies_once(self, classify_calls):
        plan = plan_query("//a[b and not(c)]")
        first = plan.classification
        assert len(classify_calls) == 1
        assert plan.classification is first
        assert len(classify_calls) == 1
        assert first.most_specific == "Core XPath"
        assert "most specific       : Core XPath" in plan.explain()

    def test_a_result_reads_its_plans_classification(self, classify_calls):
        engine = XPathEngine()
        document = parse_xml(XML)
        results = [engine.evaluate(f"//a[b{i}]", document) for i in range(20)]
        assert classify_calls == []
        assert results[3].classification.most_specific == "positive Core XPath"
        assert results[3].classification is results[3].classification
        assert len(classify_calls) == 1
        assert results[3].classification.query == "/descendant-or-self::node()/child::a[child::b3]"


#: Query → the message the evaluator gives when it reaches the bad call.
BAD_CALLS = {
    "false() and foo(1) = 2": "unknown function foo()",
    "false() and foo()": "unknown function foo()",
    "false() and count(1, 2) = 1":
        "function count() called with 2 argument(s); expected between 1 and 1",
    "true() or nosuch()": "unknown function nosuch()",
    "//a[false() and foo(b)]": "unknown function foo()",
    "count(//a) + bar(last(1))": "unknown function bar()",  # pre-order: bar first
}


class TestCallsAreCheckedWhenPlanned:
    @pytest.mark.parametrize("engine", ["auto", "core", "cvt", "naive"])
    @pytest.mark.parametrize("query", sorted(BAD_CALLS))
    def test_every_engine_refuses_the_query(self, query, engine):
        with pytest.raises(XPathTypeError) as excinfo:
            XPathEngine().evaluate(query, parse_xml(XML), engine=engine)
        assert str(excinfo.value) == BAD_CALLS[query]

    def test_the_plan_refuses_what_evaluation_refuses_alike(self):
        evaluator = make_evaluator(parse_xml(XML), "cvt")
        query = "foo(1) = 2"
        with pytest.raises(XPathTypeError) as reached:
            evaluator.evaluate(parse(query))
        with pytest.raises(XPathTypeError) as planned:
            plan_query(query)
        assert str(planned.value) == str(reached.value)

    def test_good_calls_still_plan(self):
        assert plan_query("concat('a', 'b', 'c')").engine == "cvt"
        assert plan_query("substring('abc', 2)").engine == "cvt"
        assert plan_query("//a[not(b)]").engine == "core"

    def test_the_pool_refuses_them_alike(self, tmp_path):
        store = CorpusStore(tmp_path / "store")
        store.put(XML, key="r")
        with ShardedPool(store, workers=1, warm=False) as pool:
            results = pool.evaluate_batch(
                [(query, "r") for query in sorted(BAD_CALLS)], return_errors=True
            )
        for query, result in zip(sorted(BAD_CALLS), results):
            assert isinstance(result, XPathTypeError), query
            assert str(result) == BAD_CALLS[query]
