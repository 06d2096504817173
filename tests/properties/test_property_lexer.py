"""The one-regex lexer against the character scanner it replaced.

``tests/xpath/char_lexer_oracle.py`` is the scanner ``repro.xpath.lexer``
shipped before, verbatim.  Whatever text comes in — token soups that no
grammar would produce, every query template the repository's own
generators emit, texts cut off mid-token — the two must produce the same
``(kind, value, position)`` stream, or reject the text with the same
:class:`~repro.errors.XPathSyntaxError` message at the same offset.
"""

import pytest
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
from repro.errors import XPathSyntaxError
from repro.xpath.lexer import Token, tokenize

from tests.properties.strategies import core_xpath_queries
from tests.xpath.char_lexer_oracle import _SYMBOLS, tokenize as oracle_tokenize


def _outcome(scan, text):
    """What a tokeniser makes of ``text``: its stream, or its error."""
    try:
        return [(t.kind, t.value, t.position) for t in scan(text)]
    except XPathSyntaxError as error:
        return ("error", str(error), error.position)


def assert_same(text):
    assert _outcome(tokenize, text) == _outcome(oracle_tokenize, text), text


# -- token soups ---------------------------------------------------------------

_NCNAMES = st.sampled_from(
    ["a", "_x", "b-c", "d.e", "f1", "ns", "and", "or", "div", "mod", "child", "node", "text"]
)
_PIECES = st.one_of(
    st.sampled_from(_SYMBOLS),  # all 22, `$` on its own included
    _NCNAMES,
    st.builds("{}:{}".format, _NCNAMES, _NCNAMES),  # prefixed QNames
    st.sampled_from(["1", "1.", ".5", "3.14", "0", "12.", "1..2", "1.e"]),
    st.sampled_from(["'lit'", '"lit"', "''", '""', "'a\"b'", '"a\'b"', "'two words'"]),
    st.builds("${}".format, _NCNAMES),
    st.sampled_from(["*", "and", "or", "div", "mod"]),  # extra weight: §3.7
    st.sampled_from(["'open", '"open', "$", "$ x", "#", "!", ":", "a:*", "é", "{", "\\"]),
)
_GAPS = st.sampled_from(["", "", " ", "  ", "\t", "\n", "\r\n"])


@st.composite
def token_soups(draw):
    pieces = draw(st.lists(st.tuples(_GAPS, _PIECES), max_size=12))
    return "".join(gap + piece for gap, piece in pieces) + draw(_GAPS)


@given(token_soups())
@settings(max_examples=600, deadline=None)
def test_token_soups_scan_alike(text):
    assert_same(text)


@given(st.text(alphabet="ab1.:*$'\"/[]()@<>=!|+-, \tand", max_size=24))
@settings(max_examples=400, deadline=None)
def test_character_soups_scan_alike(text):
    assert_same(text)


@given(core_xpath_queries(allow_negation=True))
@settings(max_examples=150, deadline=None)
def test_generated_core_queries_scan_alike(query):
    assert_same(query.unparse())


# -- the section 3.7 rules, position by position ----------------------------------

AMBIGUOUS = ("*", "and", "or", "div", "mod")
BEFORE = ("", "a", "1", "'s'", "$v", ")", "]", ".", "..", "*", "@", "::", "(", "[",
          ",", "/", "//", "|", "+", "-", "=", "!=", "<", "<=", ">", ">=", "and", "a and")


@pytest.mark.parametrize("word", AMBIGUOUS)
@pytest.mark.parametrize("before", BEFORE)
def test_operator_and_name_position(before, word):
    for gap in ("", " "):
        assert_same(f"{before}{gap}{word} b")


# -- every template the repository's generators emit -----------------------------


def _bench_texts():
    texts = [text for group in representative_queries().values() for text in group]
    for size in (1, 2, 5):
        texts += [
            caterpillar_query(size),
            descendant_chain_query(size),
            pwf_positional_query(size),
            positive_condition_query(size),
            negation_query(size),
        ]
    return texts


def test_bench_templates_scan_alike():
    for text in _bench_texts():
        assert_same(text)


def test_ledger_templates_scan_alike():
    corpus = pytest.importorskip("ledger.corpus")
    queries = pytest.importorskip("ledger.queries")
    documents = [
        corpus.auction_document("auction", 5, 24),
        corpus.config_document("config", 5, 32),
        corpus.wide_document("wide", 5, 60),
        corpus.deep_document("deep", 5, 140),
    ]
    texts = {text for document in documents for text, _ in queries.core_queries(document)}
    for abbreviated in (False, True):
        texts.update(text for text, _, _ in queries.xpath_queries(documents[0], abbreviated))
    texts.update(request.query for request in queries.hot_requests(documents))
    texts.update(request.query for request in queries.fragment_probes(documents[0]))
    ingested = corpus.ingest_documents(5, 12, 1.0)
    texts.update(request.query for request in queries.ingest_requests(ingested))
    assert len(texts) > 1000
    for text in texts:
        assert_same(text)


# -- rejected text: same message, same offset ------------------------------------

REJECTED = {
    "unterminated string literal": ("'abc", '"abc', "'"),
    "expected variable name after '$'": ("$", "$ x", "$1", "$$v"),
    "unexpected character": ("#", "!", ":", "é", "a:*"),
}


@pytest.mark.parametrize("message", sorted(REJECTED))
def test_errors_at_start_middle_and_end(message):
    for bad in REJECTED[message]:
        for text in (bad, f"  {bad}", f"a/b[{bad}", f"a = {bad}", f"child::a | {bad} ]"):
            outcome = _outcome(tokenize, text)
            assert outcome[0] == "error" and outcome[1].startswith(message), text
            assert outcome == _outcome(oracle_tokenize, text), text
            assert outcome[2] >= text.index(bad[0])


# -- the token class kept its dataclass surface -----------------------------------


def test_token_equality_hash_and_repr():
    token = Token("name", "a", 3)
    assert token == Token("name", "a", 3) and hash(token) == hash(Token("name", "a", 3))
    assert token != Token("name", "a", 4) and token != ("name", "a", 3)
    assert repr(token) == "Token(kind='name', value='a', position=3)"
    oracle = oracle_tokenize("   a")[0]
    assert repr(tokenize("   a")[0]) == repr(oracle)
    assert not hasattr(token, "__dict__")
