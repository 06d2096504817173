"""The precedence-climbing parser against the recursive-descent parser it replaced.

``tests/xpath/rd_parser_oracle.py`` is the parser ``repro.xpath.parser``
shipped before, verbatim.  Over generated Core XPath queries, every query
template of the repository's benchmarks and ledger, and one-character or
one-token mutations of all of them, the two must build the same AST, or
reject the text with the same :class:`~repro.errors.XPathSyntaxError`
message at the same offset.

Over the same texts the planner's engine choice is checked against the
Figure 1 classification: ``core`` exactly when ``classify`` puts the
query in Core XPath.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import (
    caterpillar_query,
    descendant_chain_query,
    negation_query,
    positive_condition_query,
    pwf_positional_query,
    representative_queries,
)
from repro.errors import XPathSyntaxError, XPathTypeError
from repro.fragments import classify, violations_core_xpath
from repro.planner import plan_query
from repro.xpath.lexer import tokenize
from repro.xpath.parser import parse

from tests.properties.strategies import core_xpath_queries
from tests.xpath.rd_parser_oracle import parse as oracle_parse


def _outcome(parser, text):
    """What a parser makes of ``text``: its AST, or its error."""
    try:
        return parser(text)
    except XPathSyntaxError as error:
        return ("error", str(error), error.position)


def assert_same(text):
    assert _outcome(parse, text) == _outcome(oracle_parse, text), text


def assert_plan_agrees(text):
    """The plan's engine is ``core`` iff the query is in Core XPath."""
    try:
        expr = parse(text)
    except XPathSyntaxError:
        return
    try:
        engine = plan_query(expr).engine
    except XPathTypeError:  # a bad call (classify may refuse it too): never Core
        assert violations_core_xpath(expr), text
        return
    assert (engine == "core") == ("Core XPath" in classify(expr).fragments), text


# -- the texts -------------------------------------------------------------------


def template_texts() -> list[str]:
    """Every query template the benchmarks and (when importable) the ledger emit."""
    texts = {text for group in representative_queries().values() for text in group}
    for size in (1, 2, 5):
        texts.update((
            caterpillar_query(size),
            descendant_chain_query(size),
            pwf_positional_query(size),
            positive_condition_query(size),
            negation_query(size),
        ))
    try:
        from ledger import corpus, queries
    except ImportError:  # pragma: no cover - the ledger ships with the repository
        return sorted(texts)
    documents = [
        corpus.auction_document("auction", 5, 24),
        corpus.config_document("config", 5, 32),
        corpus.wide_document("wide", 5, 60),
        corpus.deep_document("deep", 5, 140),
    ]
    texts.update(text for document in documents for text, _ in queries.core_queries(document))
    for abbreviated in (False, True):
        texts.update(text for text, _, _ in queries.xpath_queries(documents[0], abbreviated))
    texts.update(request.query for request in queries.hot_requests(documents))
    texts.update(request.query for request in queries.fragment_probes(documents[0]))
    return sorted(texts)


TEMPLATES = template_texts()

#: What a mutation inserts: single characters, and whole tokens.
_CHARACTERS = list("ab1.:*$'\"/[]()@<>=!|+-, ")
_TOKENS = [
    "a", "1", "'s'", "$v", "(", ")", "[", "]", ".", "..", "@", "*", "::", ",", "/",
    "//", "|", "+", "-", "=", "!=", "<", ">=", "and", "or", "div", "mod",
    "child::", "node()", "text()", "not(", "count(", "foo(", "position()",
]


@st.composite
def mutants(draw, texts):
    """A text, mutated by one character or one token (or not at all)."""
    text = draw(texts)
    spans = [token.position for token in tokenize(text)]  # the EOF ends the last
    mutation = draw(st.sampled_from([
        "none", "delete-char", "insert-char", "replace-char",
        "delete-token", "insert-token", "duplicate-token", "swap-tokens",
    ]))
    at = draw(st.integers(0, len(text)))
    if mutation == "delete-char":
        return text[:at] + text[at + 1:]
    if mutation == "insert-char":
        return text[:at] + draw(st.sampled_from(_CHARACTERS)) + text[at:]
    if mutation == "replace-char":
        return text[:at] + draw(st.sampled_from(_CHARACTERS)) + text[at + 1:]
    if mutation == "none" or len(spans) < 2:
        return text
    i = draw(st.integers(0, len(spans) - 2))
    start, end = spans[i], spans[i + 1]
    if mutation == "delete-token":
        return text[:start] + text[end:]
    if mutation == "insert-token":
        return text[:start] + draw(st.sampled_from(_TOKENS)) + text[start:]
    if mutation == "duplicate-token":
        return text[:end] + text[start:end] + text[end:]
    if i + 2 >= len(spans):
        return text
    after = spans[i + 2]
    return text[:start] + text[end:after] + " " + text[start:end] + text[after:]


#: Operands and every binary operator, for chains that climb the whole table.
_OPERANDS = st.sampled_from(
    ["a", "1", "$v", "'s'", "f()", "(b)", "c[1]", "-d", "- -2", "//e", "@f", "."]
)
_BINARY = st.sampled_from(
    ["or", "and", "=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "div", "mod", "|"]
)


@st.composite
def operator_chains(draw):
    operands = draw(st.lists(_OPERANDS, min_size=2, max_size=8))
    return operands[0] + "".join(f" {draw(_BINARY)} {operand}" for operand in operands[1:])


_GENERATED = core_xpath_queries(allow_negation=True).map(lambda query: query.unparse())
FRONT_END_TEXTS = mutants(st.one_of(st.sampled_from(TEMPLATES), _GENERATED))


# -- the properties ----------------------------------------------------------------


def test_every_template_parses_alike_and_plans_by_its_fragment():
    assert len(TEMPLATES) > 1000
    for text in TEMPLATES:
        assert_same(text)
        assert_plan_agrees(text)


@given(FRONT_END_TEXTS)
@settings(max_examples=400, deadline=None)
def test_mutated_texts_parse_alike(text):
    assert_same(text)


@given(operator_chains())
@settings(max_examples=300, deadline=None)
def test_operator_chains_parse_alike(text):
    assert_same(text)


@given(FRONT_END_TEXTS)
@settings(max_examples=150, deadline=None)
def test_mutated_texts_plan_by_their_fragment(text):
    assert_plan_agrees(text)


def test_pathological_nesting_is_refused_alike():
    for text in (
        "(" * 40 + "1" + ")" * 40,
        "a" + "[a" * 40 + "]" * 40,
        "-" * 40 + "1",
        "-" * 31 + "(1)",
        "f(" * 33 + "a" + ")" * 33,
        "a[" * 20 + "(" * 20 + "b" + ")" * 20 + "]" * 20,
    ):
        assert_same(text)
