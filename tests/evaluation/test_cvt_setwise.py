"""Set-at-a-time location steps of the context-value-table evaluator.

``cvt`` sends a frontier of ``SETWISE_MIN_FRONTIER`` or more tree nodes
through the id-set kernels and keeps the per-node walk for everything
else.  The document below is large enough for every ``//…`` frontier to
cross that size, and every query is compared *by value* with
:class:`NaiveEvaluator`, whose per-node walk shares no code with the
kernels.  The path-selection tests count per-node walks directly, so they
fail on an evaluator that walks a large frontier one node at a time.
"""

import pytest

from repro.evaluation import ContextValueTableEvaluator, NaiveEvaluator
from repro.evaluation.cvt import SETWISE_MIN_FRONTIER
from repro.xmlmodel import auction_document
from repro.xmlmodel.axes import CORE_XPATH_AXES
from repro.xmlmodel.kernels import available_backends, use_backend
from repro.xmlmodel.parser import parse_xml

SECTIONS = 2 * SETWISE_MIN_FRONTIER

DOC = parse_xml(
    "<site>"
    + "".join(
        f'<a id="a{i}" n="{i}"><b>{i}</b><!--c{i}--><?t data{i}?><?u x?>'
        f'<b><c/><c k="{i}">x</c></b>text{i}<d/></a>'
        for i in range(SECTIONS)
    )
    + "</site>"
)

VARIABLES = {"two": 2.0, "yes": True, "name": "b"}

NAVIGATIONAL_AXES = sorted(CORE_XPATH_AXES)

#: One predicate-free, one position-free and one positional step per axis.
AXIS_QUERIES = [
    query
    for axis in NAVIGATIONAL_AXES
    for query in (
        f"//*/{axis}::*",
        f"//node()/{axis}::node()",
        f"//*/{axis}::*[child::c or @n]",
        f"//*/{axis}::*[not(self::b)][@id or child::text()]",
        f"//*/{axis}::*[2]",
        f"//*/{axis}::node()[position() = last()]",
        f"count(//b/{axis}::*[position() mod 2 = 1])",
    )
]

#: Position-free predicates whose value is a number (or statically unknown):
#: they select by proximity position, per context node.
NUMERIC_PREDICATE_QUERIES = [
    "//a/child::*[count(child::c)]",
    "//*/child::node()[string-length(.)]",
    "//a/child::*[1 + 1]",
    "//a/child::*[$two]",
    "//a/child::*[$yes]",
    "//a/child::*[$name]",
    "//b/preceding-sibling::node()[count(following-sibling::b)]",
    "//*/*[-1]",
    "//*/*[0.5]",
]

ITERATED_AND_REVERSE_QUERIES = [
    "//*/child::*[child::c or self::d][position() = last()]",
    "//a/child::node()[self::b][2]",
    "//a/child::node()[2][self::b]",
    "//*/descendant::*[self::c][last()][@k]",
    "//c/ancestor::*[1]",
    "//c/ancestor-or-self::*[1]",
    "//d/preceding-sibling::*[1]",
    "//d/preceding::*[1]",
    "//d/preceding::node()[3]",
    "//c/ancestor::*[last()]",
]

PROCESSING_INSTRUCTION_QUERIES = [
    "//a/child::processing-instruction('t')",
    "//a/child::processing-instruction('t')[1]",
    "//node()/following-sibling::processing-instruction('u')[1]",
    "//b/preceding-sibling::processing-instruction()",
    "//a/child::comment()",
    "//*/child::text()[. = 'x']",
]

#: Frontiers that hold attribute nodes, alone or next to tree nodes.
ATTRIBUTE_FRONTIER_QUERIES = [
    "//@k/ancestor-or-self::node()",
    "//@k/ancestor-or-self::node()/parent::*",
    "//@k/ancestor-or-self::node()/self::node()[. = 'x' or . > 3]",
    "//@*/parent::*/child::b[1]",
    "//@n/following::c[1]",
    "//*/attribute::*",
    "//*/attribute::n[. mod 2 = 0]/parent::a/child::d",
]

PATH_EXPRESSION_QUERIES = [
    "(//a | //b)/c",
    "(//a)[1]/following-sibling::*",
    "(//a | //b)/child::*[1]",
    "(//a | //a/@id)/self::node()",
    "(//b | //@k)/parent::*",
    "(//c)[position() > 3]/ancestor::a/d",
    "id('a3 a7')/b[2]/c",
    "(//nosuch)/child::*",
]

SCALAR_QUERIES = [
    "count(//*/following::*[2])",
    "string(//a[last()]/b[1])",
    "sum(//a/@n)",
    "count(//a[b = 3]/following-sibling::a) + count(//c[@k][1])",
    "boolean(//nosuch/child::*[1])",
    # One context node, reverse axis: the result must come out in document order.
    "name((//c)[5]/ancestor::*)",
    "string((//d)[4]/preceding::*[2]/preceding-sibling::node())",
]

ALL_QUERIES = (
    AXIS_QUERIES
    + NUMERIC_PREDICATE_QUERIES
    + ITERATED_AND_REVERSE_QUERIES
    + PROCESSING_INSTRUCTION_QUERIES
    + ATTRIBUTE_FRONTIER_QUERIES
    + PATH_EXPRESSION_QUERIES
    + SCALAR_QUERIES
)


@pytest.fixture(params=available_backends())
def backend(request):
    with use_backend(request.param):
        yield request.param


def values(evaluator_class, query):
    """The XPath value of ``query``; node-sets compare by node identity, in order."""
    return evaluator_class(DOC, VARIABLES).evaluate(query)


def test_the_document_crosses_the_size_constant():
    for tag in "abcd":
        assert len(DOC.elements_with_tag(tag)) >= SETWISE_MIN_FRONTIER


@pytest.mark.parametrize("query", ALL_QUERIES)
def test_cvt_equals_naive(backend, query):
    assert values(ContextValueTableEvaluator, query) == values(NaiveEvaluator, query)


class CountingCvt(ContextValueTableEvaluator):
    """Counts the per-node walks the evaluator falls back to."""

    walks = 0

    def apply_step_to_node(self, step, node):
        self.walks += 1
        return super().apply_step_to_node(step, node)


def walks(query, document=DOC):
    evaluator = CountingCvt(document, VARIABLES)
    evaluator.evaluate(query)
    return evaluator.walks


class TestPathSelection:
    """Which of the four cases a step takes, read off the per-node walks."""

    def test_predicate_free_steps_walk_only_from_the_root(self, backend):
        # descendant-or-self::node() from the one-node root frontier, then
        # two set-wise steps over hundreds of nodes.
        assert walks("//*/following-sibling::node()") == 1

    def test_position_free_predicates_are_evaluated_once_per_candidate(self, backend):
        # The outer steps are set-wise; each of the 2·SECTIONS `b` candidates
        # evaluates child::c once, from its own one-node frontier.
        assert walks("//b[child::c]") == 1 + 2 * SECTIONS

    def test_positional_steps_walk_only_context_nodes_with_a_candidate(self, backend):
        # Only the SECTIONS `a` elements have a `d` child.
        assert walks("//d[1]") == 1 + SECTIONS
        assert walks("//nosuch[1]") == 1

    def test_numeric_predicates_keep_the_per_node_walk(self, backend):
        per_candidate = walks("//a/child::*[count(child::c) > 0]")
        positional = walks("//a/child::*[count(child::c)]")
        # Same predicate evaluations, plus one walk per `a` context node.
        assert positional == per_candidate + SECTIONS

    def test_path_expression_tails_are_one_frontier(self, backend):
        assert walks("(//a | //b)/c") == walks("//a | //b")

    def test_attribute_steps_and_small_frontiers_walk_per_node(self, backend):
        # The attribute axis has no kernel, and the SECTIONS `k` attributes
        # it selects have no id to step from.
        assert walks("//@k/parent::*") == 1 + len(DOC.nodes) + SECTIONS
        small = parse_xml("<r><a><b/></a><a><b/></a><a/></r>")
        assert len(small.nodes) < SETWISE_MIN_FRONTIER
        assert walks("//a/b", small) == 1 + len(small.nodes) + 3


class TestOperationCounter:
    def test_a_setwise_step_ticks_frontier_plus_candidates(self, backend):
        elements = len(DOC.elements)
        with_step = ContextValueTableEvaluator(DOC)
        with_step.evaluate("//*/child::b")
        without = ContextValueTableEvaluator(DOC)
        without.evaluate("//*")
        assert with_step.operations - without.operations == elements + 2 * SECTIONS

    @pytest.mark.parametrize("query", AXIS_QUERIES)
    def test_a_step_never_counts_more_than_twice_its_walk(self, backend, query):
        # Predicate-free and position-free steps count no more than the walk
        # they replace; a positional step counts its candidate set once more.
        cvt = ContextValueTableEvaluator(DOC)
        cvt.evaluate(query)
        naive = NaiveEvaluator(DOC)
        naive.evaluate(query)
        assert cvt.operations <= 2 * naive.operations


#: ``table_entries()`` per query on ``auction_document(4, 4, seed=3)``,
#: recorded from the evaluator that walked every frontier per node: the
#: set-wise steps must fill the context-value tables exactly as it did, so
#: the ledger's ``evaluation.cvt_table_entries_per_query`` cannot drift.
TABLE_ENTRIES = {
    "//open_auction": 1,
    "//open_auction[count(bidder) > 2]": 65,
    "//open_auction[bidder][position() = last()]": 62,
    "//bidder[position() + 1 = last()]/increase": 261,
    "//open_auction/bidder[increase > 5][1]": 203,
    "//*[count(child::*)]": 399,
    "//item[@region = 'europe']/parent::*/seller": 49,
    "(//open_auction | //person)/child::*[2]": 108,
    "count(//bidder/preceding-sibling::bidder[1])": 39,
    "//increase/ancestor::*[starts-with(name(), 'o')]": 208,
}


@pytest.mark.parametrize("query", sorted(TABLE_ENTRIES))
def test_table_entries_are_unchanged(backend, query):
    document = auction_document(sellers=4, items_per_seller=4, seed=3)
    evaluator = ContextValueTableEvaluator(document)
    evaluator.evaluate(query)
    assert evaluator.table_entries() == TABLE_ENTRIES[query]
