"""The snapshot codec: a document's columns as flat bytes.

A snapshot is the id-native design taken to disk.  The
:class:`~repro.xmlmodel.columns.Columns` the XML scanner fills and the
evaluators consume at run time — ``parent`` / ``subtree_end`` / ``post``
/ ``first_child`` / ``next_sibling`` / ``prev_sibling``, the per-tag and
per-kind partitions, ``element_ids``, the name / text / attribute string
ids — are packed verbatim as little-endian int32 buffers behind a framed
header, together with the one interned string table.  :func:`dump_snapshot`
packs the columns it is handed and :func:`load_snapshot` hands them back:
neither walks a node tree, invokes the XML parser or re-derives structure.

Framing (all integers little-endian)::

    magic    8 bytes   b"REPROSNP"
    version  u32       format version (1)
    sections u32       number of sections
    table    sections × (tag 4 bytes ASCII, offset u64, length u64)
    payload  the section bodies, 8-byte aligned, in table order

Sections of version 1 (``n`` = tree-node count, ``m`` = attribute count,
``t`` = tag-partition count, ``k`` = kind-partition count):

=========  =====================================================================
``KIND``   ``n`` bytes — node kind per id (0 root, 1 element, 2 text, 3
           comment, 4 processing instruction)
``PAR``    int32[n] — ``Columns.parent``
``SUB``    int32[n] — ``Columns.subtree_end``
``POST``   int32[n] — ``Columns.post``
``FCH``    int32[n] — ``Columns.first_child``
``NSIB``   int32[n] — ``Columns.next_sibling``
``PSIB``   int32[n] — ``Columns.prev_sibling``
``NAME``   int32[n] — string id of the element tag / PI target, else -1
``TEXT``   int32[n] — string id of text/comment data / PI data, else -1
``ATTO``   int32[n+1] — per-node cumulative attribute offsets into ATTN/ATTV
``ATTN``   int32[m] — attribute-name string ids, document order
``ATTV``   int32[m] — attribute-value string ids, document order
``ELEM``   int32[*] — ``Columns.element_ids``
``TPRT``   u32 count ``t``, then int32[2t] (tag string id, length) pairs,
           then the ``t`` concatenated sorted id partitions
``KPRT``   same shape keyed by kind byte — the non-element partitions
``STAB``   u32 count, int32[count+1] byte offsets, UTF-8 blob — the
           interned string table (ids assigned in first-use order)
=========  =====================================================================

Determinism: the scan order, interning order, section order and padding
are all fixed, so the same document always produces the same snapshot
bytes — ``sha256(dump_snapshot(doc))`` is a usable content key, exposed
as :func:`snapshot_hash`.

Loading supports two residencies.  The default (*eager*) copies the
buffers into :class:`array.array` objects so the snapshot bytes can be
released immediately.  With ``lazy=True`` every int32 column and partition
stays a zero-copy ``memoryview`` slice of the caller's buffer — hand
:func:`load_snapshot` an :mod:`mmap`-ed file and the columns are the page
cache.  Either way the load builds **no node objects**: the returned
:class:`~repro.xmlmodel.document.Document` materialises its node tree
from the columns the first time a caller asks for a node, and an
``ids=True`` Core XPath query never does.

Because nothing walks the nodes at load time any more, the structure is
validated instead (:func:`_validate`): a snapshot whose links could send
a kernel out of bounds or around a cycle is refused with
:class:`SnapshotError` before any document exists.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from array import array
from itertools import accumulate
from typing import Any, Optional, Sequence

from repro.errors import ReproError
from repro.xmlmodel.columns import KIND_ROOT, PARTITIONED_KINDS, Columns
from repro.xmlmodel.document import Document

MAGIC = b"REPROSNP"
VERSION = 1

_HEADER = struct.Struct("<8sII")
_SECTION_ENTRY = struct.Struct("<4sQQ")
_U32 = struct.Struct("<I")

#: Fixed section order of version 1 (also the payload order).
_SECTION_ORDER = (
    b"KIND", b"PAR ", b"SUB ", b"POST", b"FCH ", b"NSIB", b"PSIB",
    b"NAME", b"TEXT", b"ATTO", b"ATTN", b"ATTV", b"ELEM", b"TPRT",
    b"KPRT", b"STAB",
)


#: The sections that are one packed int32 array, by the column they hold.
_INT32_SECTIONS = {
    b"PAR ": "parent",
    b"SUB ": "subtree_end",
    b"POST": "post",
    b"FCH ": "first_child",
    b"NSIB": "next_sibling",
    b"PSIB": "prev_sibling",
    b"NAME": "names",
    b"TEXT": "texts",
    b"ATTO": "attr_offsets",
    b"ATTN": "attr_names",
    b"ATTV": "attr_values",
    b"ELEM": "element_ids",
}


class SnapshotError(ReproError):
    """A snapshot could not be encoded or decoded."""


def _int32_bytes(values: Sequence[int]) -> bytes:
    if isinstance(values, memoryview) and sys.byteorder == "little":
        return values.tobytes()  # a lazily loaded column is already packed
    buffer = array("i", values)
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts only
        buffer.byteswap()
    return buffer.tobytes()


def _encode_strings(strings: Sequence[str]) -> bytes:
    try:
        blobs = [value.encode("utf-8") for value in strings]
    except UnicodeEncodeError as error:
        raise SnapshotError(f"string table is not encodable: {error}") from None
    offsets = [0, *accumulate(map(len, blobs))]
    return b"".join([_U32.pack(len(blobs)), _int32_bytes(offsets), *blobs])


def _encode_partitions(partitions: Sequence[tuple[int, Sequence[int]]]) -> bytes:
    """A TPRT/KPRT body: the (key, length) pairs, then the id partitions."""
    header = [_U32.pack(len(partitions))]
    header += [_int32_bytes([key, len(ids)]) for key, ids in partitions]
    return b"".join(header + [_int32_bytes(ids) for _, ids in partitions])


def dump_snapshot(document: Document) -> bytes:
    """Serialise ``document`` to deterministic snapshot bytes.

    The snapshot *is* the document's columns, so this packs
    ``document.columns`` and touches no node object.
    """
    columns = document.columns
    names = columns.names
    # Tag partitions in interning order (== first document occurrence of
    # the string), so the section bytes never depend on dict history.
    tag_partitions = sorted(
        ((names[ids[0]], ids) for ids in columns.ids_by_tag.values()),
        key=lambda partition: partition[0],
    )
    kind_partitions = [(kind, columns.ids_by_kind[kind]) for kind in PARTITIONED_KINDS]

    sections = {
        tag: _int32_bytes(getattr(columns, name))
        for tag, name in _INT32_SECTIONS.items()
    }
    sections[b"KIND"] = bytes(columns.kinds)
    sections[b"TPRT"] = _encode_partitions(tag_partitions)
    sections[b"KPRT"] = _encode_partitions(kind_partitions)
    sections[b"STAB"] = _encode_strings(columns.strings)

    table_size = _HEADER.size + _SECTION_ENTRY.size * len(_SECTION_ORDER)
    offset = table_size
    table: list[bytes] = []
    payload: list[bytes] = []
    for tag in _SECTION_ORDER:
        body = sections[tag]
        padding = (-offset) % 8
        if padding:
            payload.append(b"\x00" * padding)
            offset += padding
        table.append(_SECTION_ENTRY.pack(tag, offset, len(body)))
        payload.append(body)
        offset += len(body)
    return b"".join(
        [_HEADER.pack(MAGIC, VERSION, len(_SECTION_ORDER)), *table, *payload]
    )


def snapshot_hash(data: Any) -> str:
    """The content key of snapshot bytes: their SHA-256 hex digest.

    Accepts any bytes-like object (bytes, memoryview, mmap).
    """
    return hashlib.sha256(data).hexdigest()


class _Reader:
    """Section access over snapshot bytes (zero-copy via memoryview)."""

    def __init__(self, data: Any) -> None:
        view = memoryview(data)
        if len(view) < _HEADER.size:
            raise SnapshotError("snapshot truncated: no header")
        magic, version, count = _HEADER.unpack_from(view, 0)
        if magic != MAGIC:
            raise SnapshotError("not a repro snapshot (bad magic)")
        if version != VERSION:
            raise SnapshotError(
                f"snapshot format version {version} is not supported "
                f"(this build reads version {VERSION})"
            )
        if _HEADER.size + _SECTION_ENTRY.size * count > len(view):
            raise SnapshotError("snapshot truncated: section table overruns it")
        self.view = view
        self.sections: dict[bytes, tuple[int, int]] = {}
        position = _HEADER.size
        for _ in range(count):
            tag, offset, length = _SECTION_ENTRY.unpack_from(view, position)
            position += _SECTION_ENTRY.size
            if offset + length > len(view):
                raise SnapshotError(f"section {tag!r} overruns the snapshot")
            self.sections[tag] = (offset, length)

    def raw(self, tag: bytes) -> memoryview:
        try:
            offset, length = self.sections[tag]
        except KeyError:
            raise SnapshotError(f"snapshot is missing section {tag!r}") from None
        return self.view[offset : offset + length]

    def lanes(self, tag: bytes, count: int) -> memoryview:
        """The raw bytes of a section that must hold exactly ``count`` int32s."""
        view = self.raw(tag)
        if len(view) != 4 * count:
            raise SnapshotError(
                f"section {tag!r} holds {len(view)} bytes, expected {4 * count}"
            )
        return view


# ``Any`` by design: the concrete type is residency-dependent (``array``
# eagerly, an ``"i"``-cast ``memoryview`` lazily) and callers only rely on
# len/index/slice/bisect, which both provide.
def _as_int32(view: memoryview, lazy: bool) -> Any:
    """A view/copy of packed int32s that supports len/index/slice/bisect."""
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts only
        out = array("i", bytes(view))
        out.byteswap()
        return out
    if lazy:
        return view.cast("i")
    out = array("i")
    out.frombytes(view)
    return out


# -- structural validation ---------------------------------------------------
#
# A section of k int32s is read as ONE Python integer whose 32-bit lanes
# are the values, and checked with a handful of whole-integer operations
# (the same "Python-int algebra runs at C speed" the IdSet bitmasks rely
# on): max()/min() over an int32 buffer cost ~25 ns per element and a
# snapshot has a dozen such columns, which is more than the rest of the
# load put together.  Every check adds a lane-aligned constant chosen so
# that a lane's sum stays below 2**32 — nothing carries into a neighbour —
# and whose sign bit (bit 31 of the lane) then answers the comparison:
# ``v + (2**31 - bound)`` has it set exactly when ``v >= bound``.


class _Lanes:
    """Lane-wise checks over packed little-endian int32 sections."""

    def __init__(self) -> None:
        self._width = 1
        self._ones = 1  # 1 in every lane
        self._iota = 0  # lane i holds i
        self._constants: dict[int, tuple[int, int, int]] = {}
        self._headroom: dict[tuple[int, int], int] = {}

    def constants(self, count: int) -> tuple[int, int, int]:
        """For ``count`` lanes: 1s, sign bits, and ``2**31 - i`` in lane ``i``."""
        constants = self._constants.get(count)
        if constants is None:
            while self._width < count:
                # lanes [width, 2·width) = lanes [0, width) + width
                shift = 32 * self._width
                self._iota |= (self._iota + self._ones * self._width) << shift
                self._ones |= self._ones << shift
                self._width *= 2
            mask = (1 << (32 * count)) - 1
            ones = self._ones & mask
            high = ones << 31
            constants = self._constants[count] = ones, high, high - (self._iota & mask)
        return constants

    def below(self, count: int, hi: int) -> int:
        """``2**31 - hi`` in each of ``count`` lanes: added to ``v``, the sign says ``v >= hi``."""
        headroom = self._headroom.get((count, hi))
        if headroom is None:
            headroom = self._headroom[count, hi] = self.constants(count)[0] * (2**31 - hi)
        return headroom

    def ids(self, view: memoryview, hi: int) -> int:
        """The lanes of ``view``, every one of which must be in ``[0, hi)``."""
        if len(view) % 4:
            raise SnapshotError("not a whole number of int32s")
        count = len(view) // 4
        lanes = int.from_bytes(view, "little")
        if (lanes | (lanes + self.below(count, hi))) & self.constants(count)[1]:
            raise SnapshotError(f"a value is not in [0, {hi})")
        return lanes

    def links(self, view: memoryview, hi: Optional[int]) -> tuple[int, int]:
        """The lanes of ``view`` less their sign bits, and those sign bits.

        Every lane must be ``-1`` (no such node: sign bit set, and the
        largest value once it is dropped) or non-negative and, if ``hi``
        is given, below it.
        """
        count = len(view) // 4
        high = self.constants(count)[1]
        lanes = int.from_bytes(view, "little")
        absent = lanes & high
        lanes ^= absent
        if (lanes + (absent >> 31)) & high != absent:
            raise SnapshotError("a negative value that is not -1")
        if hi is not None and (lanes + self.below(count, hi)) & high != absent:
            raise SnapshotError(f"a value is not below {hi}")
        return lanes, absent

    def rising(self, view: memoryview, hi: int) -> int:
        """Check ``0 = v[0] <= v[1] <= … < hi`` and return the last value."""
        lanes = self.ids(view, hi)
        count = len(view) // 4 - 1
        high = self.constants(count)[1]
        steps = (lanes >> 32) + high - (lanes & ((1 << (32 * count)) - 1))
        if lanes & 0xFFFFFFFF or steps & high != high:
            raise SnapshotError("offsets do not rise from 0")
        return lanes >> (32 * count)


def _validate(reader: _Reader, lanes: _Lanes, n: int, string_count: int) -> None:
    """Refuse columns that could crash or hang a consumer.

    Guarantees every structure link is ``-1`` or an id in range that moves
    strictly in its direction (``parent`` and ``prev_sibling`` to earlier
    ids, ``first_child`` and ``next_sibling`` to later ones,
    ``subtree_end`` not before its node), so every chain walk terminates
    inside the arrays; that kinds, string ids and attribute offsets are in
    range; and that section lengths agree with ``n`` and ``m``.
    """
    kinds = bytes(reader.raw(b"KIND"))
    if kinds[0] != KIND_ROOT or kinds.count(KIND_ROOT) != 1:
        raise SnapshotError("node 0 must be the one root node")
    if kinds.translate(None, bytes(range(5))):
        raise SnapshotError("unknown node kind byte")
    if n > 1 and not string_count:
        raise SnapshotError("nodes but no strings")

    m = len(reader.raw(b"ATTN")) // 4
    ones, high, from_self = lanes.constants(n)  # from_self: 2**31 - i in lane i
    from_next = from_self - ones
    section = b""
    try:
        for section in (b"PAR ", b"PSIB"):  # to an earlier node; node 0 has none
            values, absent = lanes.links(reader.lanes(section, n), None)
            if (values + from_self) & high != absent:
                raise SnapshotError("a link does not point to an earlier node")
            if section == b"PAR " and absent != 1 << 31:
                raise SnapshotError("a node other than the root has no parent")
        for section in (b"FCH ", b"NSIB"):  # to a later node, or -1
            values, _ = lanes.links(reader.lanes(section, n), n)
            if (values + from_next) & high != high:
                raise SnapshotError("a link does not point to a later node")
        section = b"SUB "
        values = lanes.ids(reader.lanes(section, n), n)
        if (values + from_self) & high != high:
            raise SnapshotError("a subtree ends before its own node")
        section = b"POST"
        reader.lanes(section, n)  # read by no kernel; only its length is checked
        for section in (b"NAME", b"TEXT"):
            lanes.links(reader.lanes(section, n), string_count)
        for section in (b"ATTN", b"ATTV"):
            lanes.ids(reader.lanes(section, m), string_count)
        section = b"ATTO"
        if lanes.rising(reader.lanes(section, n + 1), m + 1) != m:
            raise SnapshotError("offsets do not end at the attribute count")
        section = b"ELEM"
        lanes.ids(reader.raw(section), n)
    except SnapshotError as error:
        raise SnapshotError(f"section {section!r} is malformed: {error}") from None


def _decode_strings(view: memoryview, lanes: _Lanes) -> list[str]:
    if len(view) < _U32.size:
        raise SnapshotError("string table truncated")
    (count,) = _U32.unpack_from(view, 0)
    start = _U32.size + 4 * (count + 1)
    if start > len(view):
        raise SnapshotError("string table truncated")
    blob = bytes(view[start:])
    lanes.rising(view[_U32.size : start], len(blob) + 1)
    offsets = _as_int32(view[_U32.size : start], lazy=False)
    try:
        if blob.isascii():
            text = blob.decode("ascii")
            return [text[offsets[i] : offsets[i + 1]] for i in range(count)]
        return [
            blob[offsets[i] : offsets[i + 1]].decode("utf-8") for i in range(count)
        ]
    except UnicodeDecodeError as error:
        raise SnapshotError(f"string table is not UTF-8: {error}") from None


def _decode_partitions(
    view: memoryview, lanes: _Lanes, n: int, lazy: bool
) -> list[tuple[int, Any]]:
    """Decode a TPRT/KPRT section into (key, sorted-id-sequence) pairs."""
    if len(view) < _U32.size:
        raise SnapshotError("partition section truncated")
    (count,) = _U32.unpack_from(view, 0)
    start = _U32.size + 8 * count
    if start > len(view):
        raise SnapshotError("partition section truncated")
    header = _as_int32(view[_U32.size : start], lazy=False)
    body = view[start:]
    lanes.ids(body, n)
    out: list[tuple[int, Any]] = []
    position = 0
    for part in range(count):
        key, length = header[2 * part], header[2 * part + 1]
        if length < 0 or position + 4 * length > len(body):
            raise SnapshotError("partition lengths overrun their section")
        out.append((key, _as_int32(body[position : position + 4 * length], lazy)))
        position += 4 * length
    return out


def load_snapshot(data: Any, lazy: bool = False) -> Document:
    """Reconstruct a :class:`Document` (index included) from snapshot bytes.

    Parameters
    ----------
    data:
        Snapshot bytes — anything :class:`memoryview` accepts, including
        an :mod:`mmap` object.
    lazy:
        When True, the columns and partitions stay zero-copy views of
        ``data`` (which must then outlive the document); when False (the
        default) they are copied into process-private arrays.

    The returned document is indistinguishable from a freshly parsed one:
    node identity structure, document order, axes and query results all
    match, ``document.has_index`` is already True and — like a freshly
    parsed one — it holds no node objects until one is asked for.
    Malformed bytes raise :class:`SnapshotError`.
    """
    reader = _Reader(data)
    kinds = reader.raw(b"KIND")
    n = len(kinds)
    if n == 0:
        raise SnapshotError("snapshot holds no nodes")
    lanes = _Lanes()
    strings = _decode_strings(reader.raw(b"STAB"), lanes)
    _validate(reader, lanes, n, len(strings))
    tag_partitions = _decode_partitions(reader.raw(b"TPRT"), lanes, n, lazy)
    kind_partitions = dict(_decode_partitions(reader.raw(b"KPRT"), lanes, n, lazy))
    if tuple(kind_partitions) != PARTITIONED_KINDS:
        raise SnapshotError("kind partitions are not the four non-element kinds")
    if any(not 0 <= name < len(strings) or not len(ids) for name, ids in tag_partitions):
        raise SnapshotError("a tag partition is empty or names no string")

    columns = Columns(
        kinds=kinds if lazy else bytes(kinds),
        strings=strings,
        ids_by_tag={strings[name]: ids for name, ids in tag_partitions},
        ids_by_kind=kind_partitions,
        **{
            name: _as_int32(reader.raw(tag), lazy)
            for tag, name in _INT32_SECTIONS.items()
        },
    )
    document = Document.from_columns(columns)
    document.index  # a hydrated document is ready to serve: has_index is True
    return document


def load_snapshot_with_hash(data: Any, lazy: bool = False) -> tuple[Document, str]:
    """:func:`load_snapshot` plus the content hash of ``data``."""
    return load_snapshot(data, lazy=lazy), snapshot_hash(data)
