"""Hypothesis properties of the snapshot codec.

``load(dump(doc))`` must be a perfect clone along every observable
dimension: node identity structure (kinds, names, attribute lists,
parent/child wiring, document order), all navigational axes, and query
results through the id-native evaluator.  Dumping must be deterministic
— the same document always yields the same bytes, and a round-tripped
document re-dumps to the identical snapshot.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation import evaluate
from repro.evaluation.core import CoreXPathEvaluator
from repro.store import (
    CorpusStore,
    SnapshotError,
    StoreError,
    dump_snapshot,
    load_snapshot,
    snapshot_hash,
)
from repro.store.corpus import SNAPSHOT_SUFFIX
from repro.xmlmodel import parse_xml, serialize
from repro.xmlmodel.idset import IdSet
from repro.xmlmodel.nodes import ElementNode

from tests.properties.strategies import ALL_AXES, core_xpath_queries, documents
from tests.store.reference_dump import reference_dump


def _shape(document):
    """The identity structure of a document as comparable plain data."""
    return [
        (
            node.node_type.value,
            node.name(),
            node.order,
            node.parent.order if node.parent is not None else None,
            [child.order for child in node.children],
            [(a.attr_name, a.value, a.order) for a in node.attributes]
            if isinstance(node, ElementNode)
            else [],
        )
        for node in document.nodes
    ]


class TestRoundTripProperties:
    @given(documents(max_nodes=40))
    @settings(max_examples=60, deadline=None)
    def test_node_identity_structure_is_preserved(self, document):
        loaded = load_snapshot(dump_snapshot(document))
        assert _shape(loaded) == _shape(document)
        assert serialize(loaded) == serialize(document)

    @given(documents(max_nodes=30))
    @settings(max_examples=40, deadline=None)
    def test_all_axes_agree_from_every_node(self, document):
        fresh = document.index
        for lazy in (False, True):
            blob = dump_snapshot(document)
            loaded = load_snapshot(memoryview(blob), lazy=lazy).index
            for axis in ALL_AXES:
                for node_id in range(fresh.size):
                    assert loaded.axis_ids(node_id, axis) == fresh.axis_ids(
                        node_id, axis
                    ), (axis, node_id, lazy)

    @given(documents(max_nodes=30), core_xpath_queries(allow_negation=True))
    @settings(max_examples=60, deadline=None)
    def test_evaluate_ids_agrees(self, document, query):
        loaded = load_snapshot(dump_snapshot(document))
        expected = CoreXPathEvaluator(document).evaluate_ids(query)
        assert CoreXPathEvaluator(loaded).evaluate_ids(query) == expected

    @given(documents(max_nodes=30), core_xpath_queries(allow_negation=True))
    @settings(max_examples=30, deadline=None)
    def test_lazy_evaluate_ids_agrees(self, document, query):
        blob = dump_snapshot(document)
        loaded = load_snapshot(memoryview(blob), lazy=True)
        expected = CoreXPathEvaluator(document).evaluate_ids(query)
        assert CoreXPathEvaluator(loaded).evaluate_ids(query) == expected


class TestDeterminismProperties:
    @given(documents(max_nodes=40))
    @settings(max_examples=60, deadline=None)
    def test_dump_is_deterministic_and_round_trip_stable(self, document):
        first = dump_snapshot(document)
        assert dump_snapshot(document) == first
        assert dump_snapshot(load_snapshot(first)) == first
        assert snapshot_hash(first) == snapshot_hash(dump_snapshot(document))


class TestReferenceEncoder:
    @given(documents(max_nodes=40))
    @settings(max_examples=60, deadline=None)
    def test_dump_equals_the_node_walking_reference(self, document):
        # Byte identity with the encoder every stored snapshot was written
        # by: content keys must not move.
        blob = dump_snapshot(document)
        assert blob == reference_dump(document)
        for lazy in (False, True):
            loaded = load_snapshot(blob, lazy=lazy)
            assert not loaded.has_nodes
            assert dump_snapshot(loaded) == blob
            assert reference_dump(loaded) == blob  # via materialised nodes


FUZZ_XML = (
    '<?go now?><lib city="Vienna" x="1"><!--c--><book id="b1"><title>PODS</title>'
    "<year>2003</year></book><book id=\"b2\"><title>Complexity &amp; XPath</title>"
    "<?pi data?>tail</book><empty/><deep><deep><deep>x</deep></deep></deep></lib>"
)
FUZZ_BLOB = dump_snapshot(parse_xml(FUZZ_XML))
FUZZ_QUERIES = (
    "//book[child::title]",
    "//title/following-sibling::*",
    "//deep/ancestor::*",
    "//year/preceding::node()",
    "/descendant::*[not(child::*)]/parent::*",
    "//book/preceding-sibling::node()",
    "//comment() | //processing-instruction() | //text()",
    "count(//book/@id)",
    "string(//title)",
)


def _sections(blob):
    """(tag, offset, length) of every section of a snapshot."""
    _, _, count = struct.unpack_from("<8sII", blob, 0)
    return [struct.unpack_from("<4sQQ", blob, 16 + 20 * i) for i in range(count)]


def _exercise(document):
    """Touch everything a consumer can: nodes, serialiser, kernels, evaluators."""
    index = document.index
    for tag in list(index.ids_by_tag) + ["*", "text()", "node()"]:
        members = index.test_idset(tag)
        for axis in ALL_AXES:
            index.filter_idset(index.axis_idset(axis, members), axis, tag).tolist()
    for node_id in range(index.size):
        for axis in ALL_AXES:
            index.step_ids(node_id, axis, "*")
    assert not document.has_nodes
    nodes = document.nodes
    assert len(nodes) == index.size and len({node.uid for node in nodes}) == len(nodes)
    serialize(document)
    for tag in index.ids_by_tag:
        document.elements_with_tag(tag)
    for query in FUZZ_QUERIES:
        for engine in ("auto", "cvt"):
            evaluate(query, document, engine=engine)
    index.idset_to_node_list(IdSet.full(index.size))


class TestCorruptionNeverEscapesUntyped:
    """Flip bytes anywhere: the load refuses with a typed error, or the
    document it returns can be materialised and queried to the end."""

    @given(
        st.integers(min_value=0, max_value=len(_sections(FUZZ_BLOB)) - 1),
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=0.999999),
                # Small masks on an int32's low byte keep values in range,
                # which is what gets past the validator to the consumers.
                st.sampled_from([1, 2, 3, 4, 7, 8, 16, 0x80, 0xFF]),
                st.booleans(),
            ),
            min_size=1,
            max_size=3,
        ),
        st.booleans(),
    )
    @settings(max_examples=600, deadline=None)
    def test_flips_inside_every_section(self, section, flips, lazy):
        _, offset, length = _sections(FUZZ_BLOB)[section]
        corrupt = bytearray(FUZZ_BLOB)
        for where, mask, low_byte in flips:
            position = int(where * length)
            corrupt[offset + (position - position % 4 if low_byte else position)] ^= mask
        try:
            document = load_snapshot(bytes(corrupt), lazy=lazy)
        except SnapshotError:
            return
        _exercise(document)

    @given(st.integers(min_value=0, max_value=16 + 20 * 16 - 1), st.integers(1, 255))
    @settings(max_examples=150, deadline=None)
    def test_flips_inside_the_header_and_section_table(self, position, mask):
        corrupt = bytearray(FUZZ_BLOB)
        corrupt[position] ^= mask
        try:
            document = load_snapshot(bytes(corrupt))
        except SnapshotError:
            return
        _exercise(document)

    def test_every_section_has_a_flip_the_validator_refuses(self):
        # The fuzz above must not pass vacuously: each section carrying
        # structure is guarded by at least one check.
        for tag, offset, length in _sections(FUZZ_BLOB):
            if tag == b"POST":  # read by no consumer
                continue
            refused = 0
            for position in range(offset, offset + length):
                corrupt = bytearray(FUZZ_BLOB)
                corrupt[position] ^= 0x80
                try:
                    load_snapshot(bytes(corrupt))
                except SnapshotError:
                    refused += 1
            assert refused, tag

    @given(st.integers(min_value=0, max_value=len(FUZZ_BLOB) - 1), st.integers(1, 255), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_store_get_reports_typed_errors(self, tmp_path_factory, position, mask, mmap):
        store = CorpusStore(tmp_path_factory.mktemp("fuzz"))
        entry = store.put(FUZZ_XML, key="doc")
        path = f"{store.root}/snapshots/{entry.hash}{SNAPSHOT_SUFFIX}"
        corrupt = bytearray(FUZZ_BLOB)
        corrupt[position] ^= mask
        with open(path, "wb") as handle:
            handle.write(corrupt)
        try:
            document = store.get("doc", mmap=mmap)
        except (StoreError, SnapshotError):
            return
        assert mmap  # the eager path digest-checks, so it can only refuse
        _exercise(document)


class TestLaneChecksAgainstALoop:
    """The validator's whole-integer lane arithmetic ≡ a per-element loop."""

    INT32 = st.one_of(
        st.integers(-1, 12),
        st.integers(-(2**31), 2**31 - 1),
        st.sampled_from([-2, 2**31 - 1, -(2**31), 0x7FFFFFFE]),
    )

    @staticmethod
    def _accepts(check, *args):
        from repro.store.codec import _Lanes

        try:
            check(_Lanes(), *args)
        except SnapshotError:
            return False
        return True

    @staticmethod
    def _packed(values):
        return memoryview(struct.pack(f"<{len(values)}i", *values))

    @given(st.lists(INT32, max_size=40), st.integers(0, 14))
    @settings(max_examples=300, deadline=None)
    def test_ids(self, values, hi):
        from repro.store.codec import _Lanes

        expected = all(0 <= v < hi for v in values)
        assert self._accepts(_Lanes.ids, self._packed(values), hi) == expected

    @given(st.lists(INT32, max_size=40), st.one_of(st.none(), st.integers(0, 14)))
    @settings(max_examples=300, deadline=None)
    def test_links(self, values, hi):
        from repro.store.codec import _Lanes

        expected = all(v == -1 or (v >= 0 and (hi is None or v < hi)) for v in values)
        assert self._accepts(_Lanes.links, self._packed(values), hi) == expected
        if expected:
            lanes, absent = _Lanes().links(self._packed(values), hi)
            for i, v in enumerate(values):
                assert (lanes >> (32 * i)) & 0xFFFFFFFF == v & 0x7FFFFFFF
                assert (absent >> (32 * i + 31)) & 1 == (v == -1)

    @given(st.lists(st.integers(-1, 9), min_size=1, max_size=30), st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_rising(self, values, hi):
        from repro.store.codec import _Lanes

        expected = (
            values[0] == 0
            and all(a <= b for a, b in zip(values, values[1:]))
            and all(0 <= v < hi for v in values)
        )
        assert self._accepts(_Lanes.rising, self._packed(values), hi) == expected

    @given(st.integers(1, 70))
    def test_position_constants(self, count):
        from repro.store.codec import _Lanes

        ones, high, from_self = _Lanes().constants(count)
        for i in range(count):
            assert (ones >> (32 * i)) & 0xFFFFFFFF == 1
            assert (high >> (32 * i)) & 0xFFFFFFFF == 2**31
            assert (from_self >> (32 * i)) & 0xFFFFFFFF == 2**31 - i
        assert ones >> (32 * count) == 0


class TestLinkOrderIsExactlyEnforced:
    """One int32 of one structure section set to any value: the loader
    refuses exactly when a per-node check of that value would."""

    RULES = {
        b"PAR ": lambda i, v, n: v == -1 if i == 0 else 0 <= v < i,
        b"PSIB": lambda i, v, n: v == -1 or 0 <= v < i,
        b"FCH ": lambda i, v, n: v == -1 or i < v < n,
        b"NSIB": lambda i, v, n: v == -1 or i < v < n,
        b"SUB ": lambda i, v, n: i <= v < n,
    }

    @given(
        st.sampled_from(sorted(RULES)),
        st.floats(min_value=0, max_value=0.999999),
        st.one_of(st.integers(-3, 40), st.sampled_from([2**31 - 1, -(2**31)])),
    )
    @settings(max_examples=500, deadline=None)
    def test_single_value(self, section, where, value):
        offset, length = next(
            (offset, length) for tag, offset, length in _sections(FUZZ_BLOB) if tag == section
        )
        n = length // 4
        node = int(where * n)
        corrupt = bytearray(FUZZ_BLOB)
        struct.pack_into("<i", corrupt, offset + 4 * node, value)
        try:
            load_snapshot(bytes(corrupt))
            accepted = True
        except SnapshotError:
            accepted = False
        assert accepted == self.RULES[section](node, value, n), (section, node, value)
