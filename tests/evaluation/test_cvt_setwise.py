"""Set-at-a-time location steps of the context-value-table evaluator.

``cvt`` carries every frontier of tree nodes as an id set through the
id-set kernels, evaluates a position-free predicate of the column grammar
once for the whole candidate set, and keeps the per-node walk for the
``attribute`` axis and frontiers that hold attribute nodes.  Every query is
compared *by value* with :class:`NaiveEvaluator`, whose per-node walk
shares no code with the kernels.  The path-selection tests count generic
``evaluate_expr`` frames and per-node walks directly, so they fail on an
evaluator that recurses per candidate where a column would do, or walks a
frontier one node at a time.
"""

import pytest

from repro.errors import XPathTypeError
from repro.evaluation import ContextValueTableEvaluator, NaiveEvaluator
from repro.xmlmodel import auction_document
from repro.xmlmodel.axes import CORE_XPATH_AXES
from repro.xmlmodel.kernels import available_backends, use_backend
from repro.xmlmodel.parser import parse_xml

SECTIONS = 32

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

#: Position-free predicates that are one column over the candidate set.
COLUMN_QUERIES = [
    # existential comparisons, either side, strings and numbers (NaN for 'x')
    "//a[b = 'x']",
    "//a[b != 'x']",
    "//a['x' = b]",
    "//a[b = 3]",
    "//a[3 < b]",
    "//a[b <= -1]",
    "//a[b > 'x']",
    "//a[@n > 3 and @n < 7]",
    "//a[not(@n = 3) or @id = 'a3']",
    "//b[c/@k = 5]",
    "//a[b/c/@* = 7]",
    "//a[b/c/@node() != 7]",
    "//a[descendant::c = 'x']",
    "//c[ancestor::a/@n = 3]",
    "//c[. = 'x']",
    # mixed content: the string-value spans several text nodes
    "//a[. = '3xtext3']",
    "//a[contains(., 'xtext1')]",
    "//*[self::node() = 7]",
    # the pull-back, over forward and reverse axes and nested filters
    "//c[preceding-sibling::c]",
    "//d[preceding::c[@k = 5]]",
    "//a[following-sibling::a[b = 31]/d]",
    "//b[parent::a[@n = 2]/following::a[@n = 4]]",
    "//a[child::processing-instruction('t') = 'data9']",
    "//a[comment() = 'c4' or text() = 'text5']",
    # counts and first targets, grouped by owner
    "//*[count(c) = 2]",
    "//a[count(b) + count(d) = 3]",
    "//a[count(b/c) - count(b[c]) * 2 = 0]",
    "//a[count(b[2]/c[last()]) = 1]",
    "//a[contains(b, 'x')]",  # the first b has no 'x'
    "//a[starts-with(b[2], 'x')]",
    "//a[starts-with(b/c, 'x')]",  # the first c is empty
    "//a[string-length(b) = 2]",
    "//a[string-length(child::node()[2]) > 1]",
    "//a[starts-with(@id, 'a1') and not(contains(@id, '0'))]",
    "//b[contains(c/@k, '1')]",  # the first c has no k
    "//a[string(b) = string(@n)]",
    "//a['x']",
    "//a[''][b]",
    # a nested positional predicate sends the test back to the generic recursion
    "//a[b[2] = 'x']",
    "//a[following-sibling::a[1]/@n = 4]",
    # a column first, then positions; positions first, then a column
    "//a[@n > 3][position() + 2 = last()]",
    "//a/b[c][position() = last()]",
    "//a/*[position() = last() - 1][c = 'x']",
    "count(//a[b = 3 or @n > 29][2])",
]

ALL_QUERIES = (
    AXIS_QUERIES
    + NUMERIC_PREDICATE_QUERIES
    + ITERATED_AND_REVERSE_QUERIES
    + PROCESSING_INSTRUCTION_QUERIES
    + ATTRIBUTE_FRONTIER_QUERIES
    + PATH_EXPRESSION_QUERIES
    + SCALAR_QUERIES
    + COLUMN_QUERIES
)


@pytest.fixture(params=available_backends())
def backend(request):
    with use_backend(request.param):
        yield request.param


def values(evaluator_class, query):
    """The XPath value of ``query``; node-sets compare by node identity, in order."""
    return evaluator_class(DOC, VARIABLES).evaluate(query)


@pytest.mark.parametrize("query", ALL_QUERIES)
def test_cvt_equals_naive(backend, query):
    assert values(ContextValueTableEvaluator, query) == values(NaiveEvaluator, query)


class CountingCvt(ContextValueTableEvaluator):
    """Counts the generic recursion's frames and the per-node walks."""

    frames = walks = 0

    def evaluate_expr(self, expr, context):
        self.frames += 1
        return super().evaluate_expr(expr, context)

    def apply_step_to_node(self, step, node):
        self.walks += 1
        return super().apply_step_to_node(step, node)


def counts(query, document=DOC):
    """``(generic evaluate_expr frames, per-node walks)`` of one evaluation."""
    evaluator = CountingCvt(document, VARIABLES)
    evaluator.evaluate(query)
    return evaluator.frames, evaluator.walks


class TestPathSelection:
    """Which path a step takes, read off the generic frames and the per-node walks.

    Every evaluation has one frame, for the query itself.
    """

    def test_predicate_free_steps_are_kernel_calls(self, backend):
        assert counts("//*/following-sibling::node()") == (1, 0)

    @pytest.mark.parametrize(
        "query",
        [
            "//b[child::c]",
            "//b[child::c = 'x' and count(c) > 1]",
            "//a[@n > 3]/b[c/@k = 5]",
            "//a/child::*[count(child::c) > 0]",
            "//a[not(b = 3) or starts-with(@id, 'a1')]",
            "//a[string-length(b) + count(b/c) > 3][contains(b[2], 'x')]",
        ],
    )
    def test_a_predicate_of_the_column_grammar_is_one_column(self, backend, query):
        assert counts(query) == (1, 0)

    @pytest.mark.parametrize(
        "query",
        [
            "//d[1]",
            "//nosuch[1]",
            "//a/child::*[position() mod 2 = 1]",
            "//a/child::node()[position() + 1 = last()]",
            "//c/ancestor::*[last()]",
            "//a/*[self::b][2]",  # a leading column, then positions
            "//a/*[2][self::b]",  # positions, then a column over the union
        ],
    )
    def test_positions_are_decided_from_position_and_size_alone(self, backend, query):
        assert counts(query) == (1, 0)

    def test_any_other_shape_recurses_once_per_candidate(self, backend):
        candidates = 2 * SECTIONS  # the `b`, and the `c`, elements
        # name() and lang() have no column: the comparison, name() and 'b'
        # (lang() and 'en') are evaluated per candidate.
        assert counts("//b[name() = 'b']") == (1 + 3 * candidates, 0)
        assert counts("//c[lang('en')]") == (1 + 2 * candidates, 0)
        # A number, or a variable that may hold one, selects by proximity
        # position: count() and its path, or $two, per child of an `a`.
        assert counts("//a/child::*[count(child::c)]") == (1 + 2 * 3 * SECTIONS, 0)
        assert counts("//a/child::*[$two]") == (1 + 3 * SECTIONS, 0)
        # A context-free predicate between two positional ones is evaluated
        # per context node, on the one candidate [2] leaves.
        assert counts("//a/*[2][self::b][1]") == (1 + SECTIONS, 0)

    def test_path_expression_tails_are_one_frontier(self, backend):
        # The path expression, the union and its two operands.
        assert counts("(//a | //b)/c") == (4, 0)

    def test_only_attribute_steps_and_attribute_frontiers_walk_per_node(self, backend):
        # The attribute axis has no kernel, and the SECTIONS `k` attributes
        # it selects have no id to step from.
        assert counts("//@k/parent::*") == (1, len(DOC.nodes) + SECTIONS)
        # Small frontiers are nothing special.
        small = parse_xml("<r><a><b/></a><a><b/></a><a/></r>")
        assert counts("//a/b[1]", small) == (1, 0)


class TestColumnErrors:
    """An ill-formed call raises only if XPath's short-circuit lets a candidate reach it."""

    #: Ill-formed, but position-free and boolean: it sits inside a column's path.
    BROKEN = "d[true() and nosuch()]"

    @pytest.mark.parametrize(
        "predicate",
        [
            f"b or {BROKEN}",  # every `a` has a `b`
            f"nosuch and {BROKEN}",
            f"not(b) and {BROKEN}",
            f"b or count({BROKEN}) > 0",
            f"@n > 40 and {BROKEN} = 'x'",
            f"c/{BROKEN}",  # no `a` has a `c` child to step from
        ],
    )
    def test_a_decided_candidate_never_reaches_the_call(self, backend, predicate):
        query = f"//a[{predicate}]"
        assert values(ContextValueTableEvaluator, query) == values(NaiveEvaluator, query)

    @pytest.mark.parametrize(
        "predicate",
        [
            f"nosuch or {BROKEN}",
            f"b and {BROKEN}",
            f"not(b) or {BROKEN}",
            f"@n > 30 and count({BROKEN}) > 0",  # one `a` is left to decide
            f"b/following-sibling::{BROKEN}",
        ],
    )
    def test_an_undecided_candidate_raises_as_naive_does(self, backend, predicate):
        query = f"//a[{predicate}]"
        for evaluator_class in (ContextValueTableEvaluator, NaiveEvaluator):
            with pytest.raises(XPathTypeError, match="unknown function nosuch"):
                values(evaluator_class, query)


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


#: ``table_entries()`` per query on ``auction_document(4, 4, seed=3)``: the
#: sum of |domain| over the columns plus the per-context tuples of the generic
#: recursion, so the ledger's ``evaluation.cvt_table_entries_per_query``
#: cannot drift unnoticed.  The document has 16 open_auction, 52 bidder,
#: 16 item and 199 elements; every query adds 1 for itself at the root.
#: None is above what the evaluator that recursed per candidate recorded
#: (1, 65, 62, 261, 203, 399, 49, 108, 39, 208 in this order).
TABLE_ENTRIES = {
    "//open_auction": 1,
    # comparison, count() and the constant: three columns over 16 auctions
    "//open_auction[count(bidder) > 2]": 1 + 3 * 16,
    # the existence column; positions need no table
    "//open_auction[bidder][position() = last()]": 1 + 16,
    "//bidder[position() + 1 = last()]/increase": 1,
    # the value test over all bidders, before [1]
    "//open_auction/bidder[increase > 5][1]": 1 + 52,
    # a number: count() and its path per element and proximity position
    "//*[count(child::*)]": 1 + 2 * 199,
    "//item[@region = 'europe']/parent::*/seller": 1 + 16,
    # path expression, union, two operands
    "(//open_auction | //person)/child::*[2]": 4,
    # count() and its argument
    "count(//bidder/preceding-sibling::bidder[1])": 2,
    # name() has no column: comparison, name() and 'o' for each of 69 ancestors
    "//increase/ancestor::*[starts-with(name(), 'o')]": 1 + 3 * 69,
}


@pytest.mark.parametrize("query", sorted(TABLE_ENTRIES))
def test_table_entries_are_pinned(backend, query):
    document = auction_document(sellers=4, items_per_seller=4, seed=3)
    evaluator = ContextValueTableEvaluator(document)
    evaluator.evaluate(query)
    assert evaluator.table_entries() == TABLE_ENTRIES[query]
