"""A served full-XPath answer builds no node.

``cvt`` carries node sets as ids and reads string-values and attributes
from the columns, so ``engine.evaluate(query, document, ids=True)`` — what
the pool and the TCP front door run — and a scalar query leave a parsed or
snapshot-loaded document without its node tree.  The queries are the shapes
of the ledger's ``embedded_xpath`` templates (both spellings) and the two
scalar counts of its serving hot set, re-typed here; asking for ``.nodes``
afterwards builds the tree once and returns the same ids.
"""

import pytest

from repro.engine import XPathEngine
from repro.store import dump_snapshot, load_snapshot
from repro.xmlmodel import parse_xml
from repro.xmlmodel.kernels import available_backends, use_backend
from repro.xmlmodel.nodes import TextNode

REGIONS = ("africa", "europe")

XML = (
    "<site><regions>"
    + "".join(
        f"<{region}>"
        + "".join(
            f"<item><name>thing {n}</name><mailbox>{'<mail/>' * (n % 3)}</mailbox></item>"
            for n in range(5)
        )
        + f"</{region}>"
        for region in REGIONS
    )
    + "</regions><people>"
    + "".join(
        f"<person><name>{name} {n}</name><watches>{'<watch/>' * (n % 4)}</watches></person>"
        for n, name in enumerate(("Ada", "Bo", "Ada", "Cy", "Bo", "Ada"))
    )
    + "</people><open_auctions>"
    + "".join(
        f'<open_auction region="{REGIONS[n % 2]}"><initial>{7 * n % 40}</initial>'
        + "<bidder><increase>2</increase></bidder>" * (n % 5)
        + "</open_auction>"
        for n in range(24)
    )
    + "</open_auctions></site>"
)

CONFIG_XML = (
    "<config><interfaces>"
    + "".join(f"<interface>{'<mtu>1500</mtu>' * (n % 2)}<name>e{n}</name></interface>" for n in range(6))
    + "</interfaces></config>"
)


def templates(child, attribute, auctions):
    """``(query, scalar)`` for every template shape, in one spelling."""
    person = f"/site/people/person[starts-with({child}name, 'Ada')"
    return [
        (f"{auctions}[count({child}bidder) > 1]", False),
        (f"{auctions}/{child}bidder[position() + 1 = last()]", False),
        (f"{auctions}[{child}initial > 11]", False),
        (f"count({auctions}[{child}initial > 11])", True),
        (f"{auctions}[{child}initial > 11 and {child}initial < 30]", False),
        (f"{auctions}[position() + 3 = last()]", False),
        (f"{auctions}[{attribute}region = 'europe']", False),
        (f"{auctions}[count({child}bidder) > 1 and {child}initial > 11]", False),
        (f"{auctions}[{attribute}region = 'africa' and {child}initial > 11]", False),
        (f"{auctions}[{child}initial > 11][position() + 2 = last()]", False),
        (f"{person}]", False),
        (f"{person} and count({child}watches/{child}watch) > 1]", False),
        (f"/site/regions/*/item[count({child}mailbox/{child}mail) > 1]", False),
        (f"count({auctions}[count({child}bidder) > 1 and {attribute}region = 'africa'])", True),
    ]


QUERIES = (
    templates("child::", "attribute::", "/descendant::open_auction")
    + templates("", "@", "//open_auction")
    + [("count(/descendant::bidder)", True)]
)


def nodes_built(action):
    """How many node objects ``action()`` constructs (uids come from one counter)."""
    before = TextNode("").uid
    action()
    return TextNode("").uid - before - 1


@pytest.fixture(params=available_backends())
def backend(request):
    with use_backend(request.param):
        yield request.param


@pytest.fixture(params=["parsed", "lazy snapshot"])
def fresh_document(request):
    def make(xml=XML):
        if request.param == "parsed":
            return parse_xml(xml)
        return load_snapshot(dump_snapshot(parse_xml(xml)), lazy=True)

    return make


def test_the_templates_select_something():
    engine = XPathEngine()
    document = parse_xml(XML)
    for query, scalar in QUERIES:
        result = engine.evaluate(query, document)
        assert result.engine == "cvt", query
        assert result.value, query


def test_ids_and_scalars_build_no_node(backend, fresh_document):
    engine = XPathEngine()
    oracle = parse_xml(XML)
    for query, scalar in QUERIES:
        document = fresh_document()
        result = engine.evaluate(query, document, ids=not scalar)
        answer = result.value if scalar else result.ids
        assert not document.has_nodes, query
        expected = engine.evaluate(query, oracle, engine="naive")
        assert answer == (expected.value if scalar else expected.ids), query


def test_the_hot_set_counts_build_no_node(backend, fresh_document):
    engine = XPathEngine()
    document = fresh_document(CONFIG_XML)
    query = "count(/config/interfaces/interface[child::mtu])"
    assert engine.evaluate(query, document).value == 3.0
    assert engine.evaluate(query, document).value == 3.0  # the warm plan, from its table
    assert not document.has_nodes


def test_asking_for_nodes_builds_the_tree_once(backend, fresh_document):
    engine = XPathEngine()
    document = fresh_document()
    results = [engine.evaluate(query, document, ids=True) for query, scalar in QUERIES if not scalar]
    assert not document.has_nodes
    built = nodes_built(lambda: [result.nodes for result in results])
    assert document.has_nodes and built == document.size
    for result in results:
        assert [document.index.id_of(node) for node in result.nodes] == result.ids
