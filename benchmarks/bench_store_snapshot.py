"""E16 — snapshot hydration: no node objects, identical answers.

The ``repro.store`` snapshot codec stores a document's
:class:`~repro.xmlmodel.columns.Columns` — the same flat arrays the XML
scanner fills and the id-native evaluators read — as one framed binary
blob, so both directions of the store are column-to-bytes copies: ``put``
constructs no node objects, and neither does serving a stored document
through the Core XPath path.  This bench asserts the two store
acceptance gates on 10k-node documents:

* **no nodes** — after ``put(text)`` and an ``ids=True`` Core XPath query
  through a :class:`~repro.store.StoreKey`, the hydrated document reports
  ``has_nodes is False`` and the process-wide node counter has not
  advanced: a count, so it repeats exactly on any machine (how long the
  store paths take is the perf ledger's business — ``ingest_cold_start``
  and its ``xmlmodel.parser`` / ``store`` rows — not a ratio between two
  code paths inside this file);
* **fidelity** — an engine serving a store-hydrated document must
  produce results identical to one serving a freshly parsed document:
  same ids, same node structure, same scalar values, and the hydrated
  document re-serialises to the same XML text.

The pytest-benchmark timings of parse + index and of snapshot load are
kept as ungated trajectory numbers.
"""

import sys

import pytest

from repro.engine import XPathEngine
from repro.store import (
    CorpusStore,
    StoreKey,
    dump_snapshot,
    load_snapshot,
    snapshot_hash,
)
from repro.xmlmodel import (
    auction_document,
    chain_document,
    complete_tree_document,
    serialize,
    wide_document,
)
from repro.xmlmodel.nodes import TextNode
from repro.xmlmodel.parser import parse_xml

_DOCUMENTS = {
    "chain-10k": lambda: chain_document(10_000),
    "wide-10k": lambda: wide_document(10_000, tag="a"),
    "complete-2x13": lambda: complete_tree_document(2, 13),
}

#: The mixed workload evaluated to prove store-hydrated fidelity — axis
#: arithmetic, negation, and scalar aggregates (cvt engine) included.
_WORKLOAD = (
    "//a[child::a]",
    "//a[not(child::a)]",
    "/descendant::a[child::a and not(child::b)]",
    "//a/ancestor::a",
    "//b[ancestor::a]/descendant::c",
    "count(//a)",
)

_FIXTURES = {}


def _fixture(shape):
    """(xml_text, snapshot_bytes) for a shape, built once per session."""
    if shape not in _FIXTURES:
        document = _DOCUMENTS[shape]()
        # The serializer recurses per depth level; the 10k chain needs
        # headroom far beyond the interpreter default.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 3 * len(document.nodes) + 1000))
        try:
            text = serialize(document)
        finally:
            sys.setrecursionlimit(limit)
        _FIXTURES[shape] = (text, dump_snapshot(document))
    return _FIXTURES[shape]


def _parse_and_index(text):
    document = parse_xml(text)
    document.index
    return document


@pytest.mark.parametrize("shape", sorted(_DOCUMENTS))
def test_parse_and_index_timings(benchmark, shape):
    """pytest-benchmark timings for the cold path: parse + index build."""
    text, _ = _fixture(shape)
    benchmark(_parse_and_index, text)


@pytest.mark.parametrize("shape", sorted(_DOCUMENTS))
def test_snapshot_load_timings(benchmark, shape):
    """pytest-benchmark timings for the store path: snapshot load."""
    _, blob = _fixture(shape)
    benchmark(load_snapshot, blob)


def _nodes_created_by(action):
    """How many node objects ``action`` constructs.

    ``XMLNode.uid`` is drawn from one process-wide counter, so two probe
    nodes made around the action differ by one more than that number.
    """
    before = TextNode("").uid
    action()
    return TextNode("").uid - before - 1


@pytest.mark.parametrize("shape", sorted(_DOCUMENTS))
def test_put_and_core_query_construct_no_nodes(tmp_path, shape):
    """Acceptance gate: text → snapshot → ``ids=True`` answer, zero ``XMLNode``s."""
    text, blob = _fixture(shape)
    store = CorpusStore(tmp_path / "corpus")
    engine = XPathEngine().attach_store(store)
    answers = []

    def put_and_query():
        store.put(text, key=shape)
        for query in _WORKLOAD[:5]:  # the Core XPath queries of the workload
            answers.append(engine.evaluate(query, StoreKey(shape), ids=True))

    assert _nodes_created_by(put_and_query) == 0
    document = answers[0].document
    assert document.has_nodes is False
    assert all(answer.engine == "core" and answer.document is document for answer in answers)
    assert store.read_bytes(shape) == blob

    # Asking for nodes is what builds them — once, for the whole document.
    expected = len(document.columns.kinds) + len(document.columns.attr_names)
    assert _nodes_created_by(lambda: answers[0].nodes) == expected
    assert document.has_nodes is True
    assert _nodes_created_by(lambda: [answer.nodes for answer in answers]) == 0


def test_store_hydrated_results_identical(tmp_path):
    """Acceptance gate: store-hydrated serving ≡ fresh parse, exactly."""
    store = CorpusStore(tmp_path / "corpus")
    for shape in sorted(_DOCUMENTS):
        text, blob = _fixture(shape)
        store.put(text, key=shape)
        fresh_engine = XPathEngine()
        fresh = fresh_engine.add(parse_xml(text))
        store_engine = XPathEngine().attach_store(store)
        hydrated = store_engine.add_from_store(shape)

        # The hydrated document is byte-identical at every level that
        # matters: XML serialisation, snapshot bytes, and result ids,
        # node structure and scalar values for the whole workload.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 3 * hydrated.document.size + 1000))
        try:
            assert serialize(hydrated.document) == text
        finally:
            sys.setrecursionlimit(limit)
        assert dump_snapshot(hydrated.document) == blob
        assert snapshot_hash(dump_snapshot(hydrated.document)) == snapshot_hash(blob)
        for query in _WORKLOAD:
            expected = fresh_engine.evaluate(query, fresh)
            got = store_engine.evaluate(query, hydrated)
            if expected.is_node_set:
                assert got.ids == expected.ids, (shape, query)
                assert [n.tag for n in got.nodes] == [
                    n.tag for n in expected.nodes
                ], (shape, query)
            else:
                assert got.value == expected.value, (shape, query)
        stats = store_engine.stats().store
        assert stats is not None and stats.hits >= 1 and stats.misses == 0


def test_mmap_hydration_identical(tmp_path):
    """The mmap/lazy residency answers exactly like the eager one."""
    store = CorpusStore(tmp_path / "corpus")
    text, _ = _fixture("complete-2x13")
    store.put(text, key="doc")
    eager = store.get("doc")
    lazy = store.get("doc", mmap=True)
    engine = XPathEngine()
    for query in _WORKLOAD:
        a = engine.evaluate(query, eager)
        b = engine.evaluate(query, lazy)
        assert (a.ids if a.is_node_set else a.value) == (
            b.ids if b.is_node_set else b.value
        ), query
