"""Unit tests for the snapshot codec (dump/load, framing, residencies)."""

import sys

import pytest

from repro.store import (
    SnapshotError,
    dump_snapshot,
    load_snapshot,
    load_snapshot_with_hash,
    snapshot_hash,
)
from repro.store.codec import MAGIC, VERSION, _HEADER
from repro.xmlmodel import (
    Document,
    DocumentIndex,
    auction_document,
    build_tree,
    chain_document,
    complete_tree_document,
    parse_xml,
    serialize,
    wide_document,
)
from repro.xmlmodel.nodes import (
    AttributeNode,
    CommentNode,
    ElementNode,
    ProcessingInstructionNode,
    RootNode,
    TextNode,
)

MIXED_XML = (
    '<?pi some data?><!--before--><library city="Vienna" id="l1">'
    "<book year='2003'><title>XPath &amp; Complexity</title></book>"
    "<book/><!--inner-->text<empty/></library><!--after-->"
)


def _assert_same_tree(left, right):
    assert type(left) is type(right)
    assert left.order == right.order
    assert left.node_type is right.node_type
    if isinstance(left, ElementNode):
        assert left.tag == right.tag
        assert [(a.attr_name, a.value) for a in left.attributes] == [
            (a.attr_name, a.value) for a in right.attributes
        ]
        for l_attr, r_attr in zip(left.attributes, right.attributes):
            assert l_attr.order == r_attr.order
            assert r_attr.parent is right
    if isinstance(left, (TextNode, CommentNode)):
        assert left.text == right.text
    if isinstance(left, ProcessingInstructionNode):
        assert (left.target, left.data) == (right.target, right.data)
    assert len(left.children) == len(right.children)
    for l_child, r_child in zip(left.children, right.children):
        assert r_child.parent is right
        _assert_same_tree(l_child, r_child)


class TestRoundTrip:
    def test_mixed_document_round_trips_structurally(self):
        document = parse_xml(MIXED_XML)
        loaded = load_snapshot(dump_snapshot(document))
        _assert_same_tree(document.root, loaded.root)
        assert serialize(loaded) == serialize(document)
        assert loaded.size == document.size

    def test_loaded_document_is_fully_wired(self):
        loaded = load_snapshot(dump_snapshot(parse_xml(MIXED_XML)))
        assert isinstance(loaded, Document)
        assert isinstance(loaded.root, RootNode)
        assert loaded.has_index  # no rebuild needed, ever
        assert isinstance(loaded.index, DocumentIndex)
        for node in loaded.nodes:
            assert node.document is loaded
            assert loaded.index.node_of(loaded.index.id_of(node)) is node
        for attribute in loaded.attributes:
            assert isinstance(attribute, AttributeNode)
            assert attribute.document is loaded
        assert [e.tag for e in loaded.elements_with_tag("book")] == ["book", "book"]

    def test_index_arrays_match_a_fresh_build(self):
        document = parse_xml(MIXED_XML)
        fresh = document.index
        loaded = load_snapshot(dump_snapshot(document)).index
        for name in (
            "parent",
            "subtree_end",
            "post",
            "first_child",
            "next_sibling",
            "prev_sibling",
        ):
            assert list(getattr(loaded, name)) == list(getattr(fresh, name)), name
        assert list(loaded.element_ids) == list(fresh.element_ids)
        assert set(loaded.ids_by_tag) == set(fresh.ids_by_tag)
        for tag, partition in fresh.ids_by_tag.items():
            assert list(loaded.ids_by_tag[tag]) == list(partition), tag
        assert set(loaded._ids_by_kind) == set(fresh._ids_by_kind)
        for kind, partition in fresh._ids_by_kind.items():
            assert list(loaded._ids_by_kind[kind]) == list(partition), kind

    def test_unicode_and_interning(self):
        document = build_tree(
            ("μ", {"attr": "väl"}, [("μ", ["ünïcode πλ"]), ("μ", ["ünïcode πλ"])])
        )
        loaded = load_snapshot(dump_snapshot(document))
        assert serialize(loaded) == serialize(document)

    def test_deep_chain_round_trips_without_recursion(self):
        # Reconstruction must be iterative: 5k nesting levels would blow
        # the interpreter stack under a recursive loader.
        document = chain_document(5_000)
        loaded = load_snapshot(dump_snapshot(document))
        assert loaded.size == document.size
        assert loaded.index.subtree_end[0] == document.index.subtree_end[0]


class TestDeterminismAndHash:
    def test_same_document_same_bytes(self):
        assert dump_snapshot(parse_xml(MIXED_XML)) == dump_snapshot(
            parse_xml(MIXED_XML)
        )

    def test_round_trip_is_byte_stable(self):
        blob = dump_snapshot(parse_xml(MIXED_XML))
        assert dump_snapshot(load_snapshot(blob)) == blob

    def test_hash_is_content_hash(self):
        blob = dump_snapshot(parse_xml(MIXED_XML))
        document, digest = load_snapshot_with_hash(blob)
        assert digest == snapshot_hash(blob)
        assert snapshot_hash(dump_snapshot(document)) == digest
        assert snapshot_hash(dump_snapshot(parse_xml("<other/>"))) != digest


class TestLazyResidency:
    def test_lazy_load_is_zero_copy_and_identical(self):
        document = parse_xml(MIXED_XML)
        blob = dump_snapshot(document)
        lazy = load_snapshot(memoryview(blob), lazy=True)
        assert serialize(lazy) == serialize(document)
        # index arrays are views over the snapshot buffer, not copies
        assert isinstance(lazy.index.parent, memoryview)
        assert list(lazy.index.parent) == list(document.index.parent)

    def test_lazy_axes_and_partitions_work(self):
        document = parse_xml(MIXED_XML)
        lazy = load_snapshot(memoryview(dump_snapshot(document)), lazy=True)
        fresh = document.index
        for axis in ("child", "descendant", "ancestor", "following", "preceding"):
            for node_id in range(fresh.size):
                assert lazy.index.axis_ids(node_id, axis) == fresh.axis_ids(
                    node_id, axis
                ), (axis, node_id)
        assert lazy.index.tag_ids_in_interval("book", 0, fresh.size) == list(
            fresh.tag_ids_in_interval("book", 0, fresh.size)
        )


class TestFraming:
    def test_rejects_garbage(self):
        with pytest.raises(SnapshotError, match="magic"):
            load_snapshot(b"not a snapshot at all........")

    def test_rejects_truncation(self):
        with pytest.raises(SnapshotError):
            load_snapshot(dump_snapshot(parse_xml("<a/>"))[:40])

    def test_rejects_future_versions(self):
        blob = bytearray(dump_snapshot(parse_xml("<a/>")))
        blob[len(MAGIC)] = VERSION + 1  # little-endian low byte of version
        with pytest.raises(SnapshotError, match="version"):
            load_snapshot(bytes(blob))

    def test_header_shape(self):
        blob = dump_snapshot(parse_xml("<a/>"))
        magic, version, sections = _HEADER.unpack_from(blob, 0)
        assert magic == MAGIC
        assert version == VERSION
        assert sections == 16


class TestContentKeysDidNotMove:
    """``dump_snapshot(parse_xml(x))`` equals the snapshot the pre-PR-16
    pipeline wrote — character scanner, node tree, node-walking encoder —
    for every generator the suite and the perf ledger draw documents from."""

    GENERATED = {
        "auction": lambda: auction_document(6, seed=3),
        "chain": lambda: chain_document(300),
        "wide": lambda: wide_document(300, tag="a"),
        "complete": lambda: complete_tree_document(3, 5),
        "mixed": lambda: parse_xml(MIXED_XML),
    }

    @staticmethod
    def assert_same_bytes(text):
        from tests.store.reference_dump import reference_dump
        from tests.xmlmodel.char_scanner_oracle import parse_xml_oracle

        document = parse_xml(text)
        blob = dump_snapshot(document)
        assert blob == reference_dump(parse_xml_oracle(text))
        assert not document.has_nodes

    @pytest.mark.parametrize("shape", sorted(GENERATED))
    def test_xmlmodel_generators(self, shape):
        document = self.GENERATED[shape]()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 3 * len(document.nodes) + 1000))
        try:
            text = serialize(document)  # the serialiser recurses per level
        finally:
            sys.setrecursionlimit(limit)
        self.assert_same_bytes(text)

    def test_ledger_corpus(self):
        corpus = pytest.importorskip("ledger.corpus")
        generated = corpus.ingest_documents(5, 12, 1.0) + [
            corpus.auction_document("auction", 5, 40),
            corpus.config_document("config", 5, 60),
            corpus.wide_document("wide", 5, 300),
            corpus.deep_document("deep", 5, 300),
        ]
        for document in generated:
            self.assert_same_bytes(document.xml)
