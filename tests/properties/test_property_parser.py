"""Property-based tests for the two front ends.

* XPath: parser/unparser invariants.
* XML: the production token scanner against the character scanner it
  replaced (``tests/xmlmodel/char_scanner_oracle.py``) and a node-walking
  snapshot encoder (``tests/store/reference_dump.py``), with
  :mod:`xml.etree.ElementTree` as the independent third opinion.
"""

import re
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XMLParseError
from repro.store import dump_snapshot
from repro.xmlmodel import Columns, Document, parse_xml, serialize
from repro.xmlmodel.nodes import ElementNode
from repro.xpath.parser import parse
from repro.xpath.unparse import unparse

from tests.properties.strategies import core_xpath_queries
from tests.store.reference_dump import reference_dump
from tests.xmlmodel.char_scanner_oracle import parse_xml_oracle


class TestParserRoundTrip:
    @given(core_xpath_queries(allow_negation=True))
    @settings(max_examples=60, deadline=None)
    def test_unparse_then_parse_is_identity(self, query):
        assert parse(unparse(query)) == query

    @given(core_xpath_queries(allow_negation=False))
    @settings(max_examples=40, deadline=None)
    def test_unparse_is_stable_under_reparsing(self, query):
        text = unparse(query)
        assert unparse(parse(text)) == text

    @given(core_xpath_queries())
    @settings(max_examples=40, deadline=None)
    def test_size_is_positive_and_walk_consistent(self, query):
        assert query.size() == len(list(query.walk()))
        assert query.size() >= 1


class TestArithmeticExpressions:
    @given(
        st.recursive(
            st.integers(min_value=0, max_value=9).map(float),
            lambda children: st.tuples(
                st.sampled_from(["+", "-", "*"]), children, children
            ),
            max_leaves=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_arithmetic_expression_round_trip(self, tree):
        def render(node) -> str:
            if isinstance(node, float):
                return str(int(node))
            operator, left, right = node
            return f"({render(left)} {operator} {render(right)})"

        def value(node) -> float:
            if isinstance(node, float):
                return node
            operator, left, right = node
            table = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}
            return table[operator](value(left), value(right))

        text = render(tree)
        expr = parse(text)
        assert parse(unparse(expr)) == expr
        from repro.evaluation import evaluate
        from repro.xmlmodel import build_tree

        assert evaluate(expr, build_tree(("r",))) == value(tree)


# -- XML ---------------------------------------------------------------------

_SPACE = st.sampled_from(["", " ", "\n", " \t "])
_GAP = st.sampled_from([" ", "\n", "  "])
_NAMES = ("a", "b", "item", "x-y", "n.1", "_u")
_PREFIXED_NAMES = _NAMES + ("ns:a", ":c")
_REFERENCES = ("&lt;", "&gt;", "&amp;", "&apos;", "&quot;", "&#65;", "&#x42;", "&#960;", "&#32;")
_CHUNKS = st.sampled_from(
    ("x", "hello world", " ", "\n  ", "1 > 0", "it's", 'say "hi"', "ünï", "]]") + _REFERENCES
)
_DOCTYPES = (
    "<!DOCTYPE a>",
    '<!DOCTYPE a SYSTEM "a.dtd">',
    "<!DOCTYPE a [<!ELEMENT a ANY>]>",
    '<!DOCTYPE a [<!ELEMENT a ANY><!ENTITY e "v"><!ATTLIST a x CDATA #IMPLIED>]>',
)


@st.composite
def _attributes(draw, names):
    out = []
    for name in draw(st.lists(st.sampled_from(names), max_size=3, unique=True)):
        quote = draw(st.sampled_from("'\""))
        value = "".join(draw(st.lists(_CHUNKS, max_size=3)))
        value = value.replace(quote, "").replace("\n", " ")  # ET normalises newlines
        equals = draw(_SPACE) + "=" + draw(_SPACE)
        out.append(f"{draw(_GAP)}{name}{equals}{quote}{value}{quote}")
    return "".join(out)


def _contents(names):
    text = st.lists(_CHUNKS, min_size=1, max_size=3).map("".join)
    leaves = st.one_of(
        text,
        text,
        st.sampled_from(["<!--note-->", "<!---->", "<!-- <a> & -->"]),
        st.sampled_from(["<?pi?>", "<?pi  some data ?>", "<?t a='1'?>"]),
        st.sampled_from(["<![CDATA[]]>", "<![CDATA[1 < 2 & ]] > ]]>", "<![CDATA[ ]]>"]),
    )

    @st.composite
    def element(draw, children):
        name = draw(st.sampled_from(names))
        head = f"<{name}{draw(_attributes(names))}{draw(_SPACE)}"
        inner = "".join(draw(st.lists(children, max_size=4)))
        if not inner and draw(st.booleans()):
            return head + "/>"
        return f"{head}>{inner}</{name}{draw(_SPACE)}>"

    return st.recursive(leaves, lambda children: element(children), max_leaves=12), element


@st.composite
def xml_texts(draw, names=_PREFIXED_NAMES):
    """A well-formed document exercising every construct the parser reads."""
    content, element = _contents(names)
    misc = st.sampled_from(["", "\n", "<!--c-->", "<?p d?>", " <!--c--> "])
    prolog = draw(st.sampled_from(["", '<?xml version="1.0"?>', '<?xml version="1.0" encoding="UTF-8"?>\n']))
    doctype = draw(st.sampled_from(("",) + _DOCTYPES))
    return "".join(
        [prolog, draw(misc), doctype, draw(misc), draw(element(content)), draw(misc)]
    )


def _et_shape(element):
    return (
        element.tag,
        sorted(element.attrib.items()),
        "".join(element.itertext()),
        [_et_shape(child) for child in element],
    )


def _our_shape(element):
    return (
        element.tag,
        sorted((a.attr_name, a.value) for a in element.attributes),
        element.string_value(),
        [_our_shape(child) for child in element.children if isinstance(child, ElementNode)],
    )


def _slots(document):
    columns = document.columns
    return {
        name: dict(value) if isinstance(value, dict) else list(value)
        for name, value in ((name, getattr(columns, name)) for name in Columns.__slots__)
    }


def _verdict(scanner, text, keep_whitespace_text):
    """The document, or the error the scanner rejected ``text`` with."""
    try:
        return scanner(text, keep_whitespace_text=keep_whitespace_text)
    except XMLParseError as error:
        return error
    except (ValueError, OverflowError):
        # Only the oracle: it lets a bad character reference escape from
        # ``int()`` / ``chr()``; the scanner must word it (asserted below).
        return XMLParseError("invalid character reference")


def _says(error):
    return str(error).rsplit(" (at offset", 1)[0]


#: What the oracle has read past when it starts looking for a terminator.
_OPENER = re.compile(r"<!--|<!\[CDATA\[|<\?[^\s?<>]*|[\"']")
_END_TAG = re.compile(r"</[^<>]*>")
_ATTRIBUTE_HEAD = re.compile(r"[^\s=]+\s*=\s*[\"']")
#: Faults inside a start tag that the oracle, reading left to right, meets
#: before a later syntax error in the same tag — which the scanner, taking
#: the tag as one token, reports first.
_MET_EARLIER_BY_THE_ORACLE = re.compile(
    r"multiple document elements|unknown entity|unterminated entity reference"
    r"|duplicate attribute|invalid character reference"
)


def _same_fault(text, ours, theirs):
    """Do the two errors name one fault, each in its scanner's own terms?

    Same words and same offset, except where the two scanners always
    differed: the scanner points at the construct it rejects, the oracle
    at how far it had read.
    """
    if _says(ours) != _says(theirs):
        return bool(_MET_EARLIER_BY_THE_ORACLE.match(_says(theirs))) and (
            theirs.position is None or theirs.position < ours.position
        )
    if ours.position == theirs.position:
        return True
    skipped = text[ours.position : theirs.position]
    if _says(ours).startswith("mismatched end tag"):
        return bool(_END_TAG.fullmatch(skipped))
    if _says(ours).startswith("unterminated construct"):
        return bool(_OPENER.fullmatch(skipped))
    if _says(ours).startswith("duplicate attribute"):
        return bool(_ATTRIBUTE_HEAD.fullmatch(skipped))
    if _says(ours) == "character data outside document element":
        return skipped.isspace()
    return False


class TestXMLScannerDifferential:
    @given(xml_texts(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_scanner_equals_oracle_scanner(self, text, keep_whitespace_text):
        document = parse_xml(text, keep_whitespace_text=keep_whitespace_text)
        oracle = parse_xml_oracle(text, keep_whitespace_text=keep_whitespace_text)
        assert not document.has_nodes
        assert _slots(document) == _slots(oracle)
        blob = dump_snapshot(document)
        assert blob == reference_dump(oracle)  # text → bytes, no shared code
        assert blob == dump_snapshot(oracle)  # nodes → columns in _freeze
        assert serialize(document) == serialize(oracle)
        assert document.size == oracle.size

    @given(xml_texts(names=_NAMES))
    @settings(max_examples=200, deadline=None)
    def test_scanner_equals_element_tree(self, text):
        ours = parse_xml(text, keep_whitespace_text=True).root.document_element()
        assert _our_shape(ours) == _et_shape(ElementTree.fromstring(text))

    @given(xml_texts(), st.data(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_one_character_off_gets_the_same_verdict(self, text, data, keep_whitespace_text):
        at = data.draw(st.integers(0, len(text) - 1))
        change = data.draw(st.sampled_from(["delete", "replace", "insert"]))
        character = data.draw(st.sampled_from("<>&\"'/=!?;[]- x#\n"))
        mutated = (
            text[:at]
            + (character if change != "delete" else "")
            + text[at + (change != "insert") :]
        )
        ours = _verdict(parse_xml, mutated, keep_whitespace_text)
        theirs = _verdict(parse_xml_oracle, mutated, keep_whitespace_text)
        if isinstance(theirs, Document):
            assert isinstance(ours, Document), (mutated, ours)
            assert _slots(ours) == _slots(theirs)
            assert dump_snapshot(ours) == reference_dump(theirs)
        else:
            assert isinstance(ours, XMLParseError), (mutated, theirs)
            assert _same_fault(mutated, ours, theirs), (mutated, ours, theirs)

    MALFORMED = [
        "",
        "   ",
        "just text",
        "<a>",
        "<a><b></b>",
        "<a></b>",
        "<a><b></a></b>",
        "</a>",
        "<a x='1' x='2'/>",
        "<a x=1/>",
        "<a x/>",
        "<a x= />",
        "<a x='1/>",
        '<a x="1/>',
        "<ax='1'/>",
        "<a>&unknown;</a>",
        "<a>&amp</a>",
        "<a x='&nope;'/>",
        "<a><!--unterminated</a>",
        "<a><![CDATA[unterminated</a>",
        "<a><?pi unterminated</a>",
        "<!DOCTYPE a [<!ELEMENT a ANY><a/>",
        "<a/><b/>",
        "<a></a><a></a>",
        "<a>text</a>trailing text",
        "oops<a/>",
        "<![CDATA[x]]><a/>",
        "<1a/>",
        "<a><-b/></a>",
        "< a/>",
        "<a></ a>",
        "<a></a b>",
        "<?1pi?><a/>",
        "<a",
        "<a/",
        "<",
        "<!a/>",
    ]

    @pytest.mark.parametrize("text", MALFORMED)
    @pytest.mark.parametrize("scanner", [parse_xml, parse_xml_oracle])
    def test_both_scanners_reject_malformed_text(self, scanner, text):
        with pytest.raises(XMLParseError) as excinfo:
            scanner(text)
        assert excinfo.value.position is not None

    @pytest.mark.parametrize(
        "text", ["<a>&#xZZ;</a>", "<a>&#;</a>", "<a>&#x110000;</a>", "<a>&#xD800;</a>", "<a x='&#-1;'/>"]
    )
    def test_bad_character_references_are_parse_errors(self, text):
        # (The oracle lets these escape as ValueError; the scanner must not.)
        with pytest.raises(XMLParseError):
            parse_xml(text)

    def test_one_huge_text_node_is_one_token(self):
        data = "x" * (1 << 20)
        document = parse_xml(f"<a>{data}&amp;</a>")
        assert document.size == 3 and not document.has_nodes
        assert document.columns.strings == ["a", data + "&"]

    def test_deep_nesting_is_iterative(self):
        depth = 100_000
        document = parse_xml("<a>" * depth + "</a>" * depth)
        assert document.size == depth + 1 and not document.has_nodes
        assert document.index.subtree_end[1] == depth
        assert document.columns.post[1] == depth - 1
