"""Integration tests: the four engines (and ElementTree) agree on shared workloads.

Any systematic disagreement between evaluation strategies would undermine
every complexity measurement in the benchmark harness, so this module
cross-checks them on realistic documents: the auction workload, the
generated random documents, and the book catalogue fixture.
"""

import pytest

from repro.bench import elementtree_count
from repro.engine import XPathEngine
from repro.errors import FragmentViolationError, XPathEvaluationError
from repro.evaluation import (
    Context,
    ContextValueTableEvaluator,
    CoreXPathEvaluator,
    NaiveEvaluator,
    SingletonSuccessChecker,
    evaluate,
)
from repro.fragments import is_core_xpath, is_pwf, is_pxpath
from repro.planner import evaluate_many, evaluate_many_ids, plan_query
from repro.xmlmodel import auction_document, parse_xml, random_document

CORE_QUERIES = [
    "/descendant::open_auction[child::bidder]",
    "/descendant::open_auction[not(child::bidder)]",
    "//person[following-sibling::person]",
    "//item[parent::open_auction[child::bidder and child::initial]]",
    "//bidder/following-sibling::bidder",
    "/child::site/child::open_auctions/child::open_auction/child::item",
    "//increase/ancestor::open_auction",
    "//open_auction[descendant::increase or not(child::bidder)]",
]

PWF_QUERIES = [
    "/descendant::open_auction[child::bidder and position() <= last()]",
    "/descendant::bidder[position() = last()]",
    "/descendant::open_auction[child::initial > 50]",
    "/descendant::item[attribute::region = 'europe']",
]


@pytest.fixture(scope="module")
def document():
    return auction_document(sellers=4, items_per_seller=4, seed=3)


class TestCoreQueriesAcrossEngines:
    @pytest.mark.parametrize("query", CORE_QUERIES)
    def test_naive_cvt_core_agree(self, document, query):
        assert is_core_xpath(query)
        cvt = ContextValueTableEvaluator(document).evaluate_nodes(query)
        core = CoreXPathEvaluator(document).evaluate_nodes(query)
        naive = NaiveEvaluator(document).evaluate_nodes(query)
        assert [n.order for n in cvt] == [n.order for n in core] == [n.order for n in naive]


class TestPwfQueriesAcrossEngines:
    @pytest.mark.parametrize("query", PWF_QUERIES)
    def test_cvt_and_singleton_agree(self, document, query):
        assert is_pwf(query) or is_pxpath(query)
        cvt = ContextValueTableEvaluator(document).evaluate_nodes(query)
        singleton = SingletonSuccessChecker(document).evaluate_nodes(query)
        assert [n.order for n in cvt] == [n.order for n in singleton]


class TestAgreementOnRandomDocuments:
    @pytest.mark.parametrize("seed", range(5))
    def test_core_engines_on_random_documents(self, seed):
        document = random_document(60, seed=seed)
        queries = [
            "//a[child::b]",
            "//b[ancestor::a and not(child::c)]",
            "//c/parent::*[following-sibling::*]",
            "//d | //a[descendant::d]",
        ]
        for query in queries:
            cvt = ContextValueTableEvaluator(document).evaluate_nodes(query)
            core = CoreXPathEvaluator(document).evaluate_nodes(query)
            assert [n.order for n in cvt] == [n.order for n in core], (seed, query)


class TestPlannerAutoDispatch:
    """The planner must pick the expected evaluator per fragment and its
    auto-dispatched results must agree with every direct engine."""

    @pytest.mark.parametrize("query", CORE_QUERIES)
    def test_core_queries_dispatch_to_core_and_agree(self, document, query):
        plan = plan_query(query)
        assert plan.engine == "core", plan.classification.most_specific
        planned = plan.run(document)
        direct = CoreXPathEvaluator(document).evaluate_nodes(query)
        cvt = ContextValueTableEvaluator(document).evaluate_nodes(query)
        assert [n.order for n in planned] == [n.order for n in direct]
        assert [n.order for n in planned] == [n.order for n in cvt]

    @pytest.mark.parametrize("query", PWF_QUERIES)
    def test_pwf_queries_dispatch_to_cvt_and_agree(self, document, query):
        plan = plan_query(query)
        assert plan.engine == "cvt", plan.classification.most_specific
        planned = plan.run(document)
        direct = ContextValueTableEvaluator(document).evaluate_nodes(query)
        assert [n.order for n in planned] == [n.order for n in direct]

    def test_batch_dispatch_agrees_with_direct_engines(self, document):
        queries = CORE_QUERIES + PWF_QUERIES
        results = evaluate_many(document, queries)
        for query, planned in zip(queries, results):
            direct = ContextValueTableEvaluator(document).evaluate_nodes(query)
            assert [n.order for n in planned] == [n.order for n in direct], query


SMALL = '<a x="1"><b/><b><c/></b></a>'

#: Engines whose fragment excludes the query reject it before any answer exists.
OUTSIDE_FRAGMENT = {
    ("core", "count(//b)"), ("core", "//@x"), ("singleton", "count(//b)"),
}


class TestIdsContractAcrossEngines:
    """``ids=True`` means the same for every engine kind: ``evaluate``
    itself raises the typed error for a scalar or attribute answer."""

    @pytest.mark.parametrize("engine", ["auto", "cvt", "naive", "core", "singleton"])
    @pytest.mark.parametrize("query", ["count(//b)", "//@x"])
    def test_scalar_and_attribute_answers_raise_in_evaluate(self, engine, query):
        session = XPathEngine()
        document = session.add(SMALL)
        expected = (
            FragmentViolationError
            if (engine, query) in OUTSIDE_FRAGMENT
            else XPathEvaluationError
        )
        with pytest.raises(expected):
            session.evaluate(query, document, engine=engine, ids=True)

    @pytest.mark.parametrize("engine", ["auto", "cvt", "naive", "core", "singleton"])
    def test_node_set_ids_are_the_same_everywhere(self, engine):
        session = XPathEngine()
        result = session.evaluate("//b", session.add(SMALL), engine=engine, ids=True)
        assert result.ids == [2, 3]
        assert [node.tag for node in result.nodes] == ["b", "b"]


class TestEntryPointsAgree:
    """Every way in reaches the same executor: same answers, by value
    and by id, from no context, a tree node and an attribute node."""

    QUERIES = [
        "descendant-or-self::node()/child::b",
        "parent::a/child::b",
        "//b[child::c]",
        "count(//b)",
        "//@x",
    ]

    @pytest.fixture(scope="class")
    def small(self):
        return parse_xml(SMALL)

    @pytest.fixture(scope="class", params=["none", "tree", "attribute"])
    def context(self, request, small):
        a = small.root.children[0]
        return {
            "none": None,
            "tree": Context(a),
            "attribute": Context(a.attributes[0]),
        }[request.param]

    @staticmethod
    def ids_or_error(take_ids):
        try:
            return take_ids()
        except XPathEvaluationError:
            return XPathEvaluationError

    @pytest.mark.parametrize("query", QUERIES)
    def test_values_agree(self, small, context, query):
        session = XPathEngine()
        handle = session.add(small)
        expected = plan_query(query).run(small, context=context)
        answers = {
            "engine.evaluate": session.evaluate(query, handle, context=context).value,
            "evaluate_detached": session.evaluate_detached(
                query, small, context=context
            ).value,
            "evaluate_batch": session.evaluate_batch(
                [(query, handle)], context=context
            )[0].value,
            "free evaluate": evaluate(query, small, engine="auto", context=context),
            "evaluate_many": evaluate_many(small, [query], context=context)[0],
        }
        assert answers == dict.fromkeys(answers, expected)

    @pytest.mark.parametrize("query", QUERIES)
    def test_ids_agree(self, small, context, query):
        session = XPathEngine()
        handle = session.add(small)
        plan = plan_query(query)
        expected = self.ids_or_error(lambda: plan.run_ids(small, context=context))
        if expected is not XPathEvaluationError:
            assert small.index.ids_to_node_list(expected) == plan.run(
                small, context=context
            )
        answers = {
            "engine.evaluate": lambda: session.evaluate(
                query, handle, context=context, ids=True
            ).ids,
            "evaluate_detached": lambda: session.evaluate_detached(
                query, small, context=context, ids=True
            ).ids,
            "evaluate_batch": lambda: session.evaluate_batch(
                [(query, handle)], context=context, ids=True
            )[0].ids,
            "evaluate_many_ids": lambda: evaluate_many_ids(
                small, [query], context=context
            )[0],
        }
        answers = {name: self.ids_or_error(take) for name, take in answers.items()}
        assert answers == dict.fromkeys(answers, expected)


class TestDocumentOrderAxesFromAnAttribute:
    """``cvt`` ≡ ``naive`` ≡ the per-node walk from an attribute context
    (an attribute precedes its owner's children; XPath 1.0 §5)."""

    DOC = '<a><p/><b x="1" y="2"><c><e/></c>text</b><d/></a>'

    @pytest.mark.parametrize(
        "query, axis, node_test",
        [
            ("following::*", "following", "*"),
            ("following::node()", "following", "node()"),
            ("following::d", "following", "d"),
            ("preceding::*", "preceding", "*"),
            ("preceding::node()", "preceding", "node()"),
        ],
    )
    def test_engines_match_the_walk(self, query, axis, node_test):
        from repro.xmlmodel.axes import apply_axis_to_set

        document = parse_xml(self.DOC)
        for attribute in document.attributes:
            expected = apply_axis_to_set([attribute], axis, node_test)
            for engine in ("cvt", "naive", "auto"):
                got = evaluate(query, document, engine=engine, context=Context(attribute))
                assert got == expected, (engine, attribute.attr_name)
        first = Context(document.attributes[0])
        assert [n.tag for n in evaluate("following::*", document, context=first)] == [
            "c", "e", "d",
        ]


class TestAgreementWithElementTree:
    """Cross-check against the independently implemented ElementPath engine."""

    @pytest.mark.parametrize(
        "our_query,element_path",
        [
            ("/child::site/child::people/child::person", "./people/person"),
            ("/child::site/child::open_auctions/child::open_auction", "./open_auctions/open_auction"),
            ("/descendant::bidder", ".//bidder"),
            ("/descendant::open_auction/child::item", ".//open_auction/item"),
            ("/descendant::open_auction[child::bidder]", ".//open_auction[bidder]"),
            ("/descendant::item[attribute::region='europe']", ".//item[@region='europe']"),
        ],
    )
    def test_counts_match(self, document, our_query, element_path):
        ours = len(ContextValueTableEvaluator(document).evaluate_nodes(our_query))
        theirs = elementtree_count(document, element_path)
        assert ours == theirs

    def test_book_catalogue(self, book_document):
        ours = len(ContextValueTableEvaluator(book_document).evaluate_nodes("/descendant::book"))
        assert ours == elementtree_count(book_document, ".//book") == 3
