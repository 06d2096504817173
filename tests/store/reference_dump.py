"""A node-walking snapshot encoder: the byte-identity oracle of the codec.

``repro.store.codec.dump_snapshot`` packs the columns a document already
holds.  This module computes the same version-1 snapshot the way the
codec did until PR 16 — from the :class:`~repro.xmlmodel.nodes.XMLNode`
tree alone: structure arrays from ``parent`` / ``children`` pointers,
partitions and the string table from a walk over ``document.nodes`` — and
reads nothing from ``document.columns`` or ``document.index``.  Equal
bytes therefore mean the facts a producer records (scanner or
``_freeze``), the links and partitions ``derive_columns`` makes of them
and the section packing all agree with an implementation that shares none of their code, and that the
content key of every stored document is unchanged.
"""

from __future__ import annotations

import struct
from array import array

from repro.xmlmodel.document import Document
from repro.xmlmodel.nodes import (
    CommentNode,
    ElementNode,
    NodeType,
    ProcessingInstructionNode,
    TextNode,
)

_KIND_BY_TYPE = {
    NodeType.ROOT: 0,
    NodeType.ELEMENT: 1,
    NodeType.TEXT: 2,
    NodeType.COMMENT: 3,
    NodeType.PROCESSING_INSTRUCTION: 4,
}
_SECTION_ORDER = (
    b"KIND", b"PAR ", b"SUB ", b"POST", b"FCH ", b"NSIB", b"PSIB",
    b"NAME", b"TEXT", b"ATTO", b"ATTN", b"ATTV", b"ELEM", b"TPRT",
    b"KPRT", b"STAB",
)


def _int32(values) -> bytes:
    return struct.pack(f"<{len(values)}i", *values)


def reference_dump(document: Document) -> bytes:
    """Version-1 snapshot bytes of ``document``, derived from its node objects."""
    nodes = document.nodes
    n = len(nodes)
    id_of = {node.uid: i for i, node in enumerate(nodes)}

    parent = [-1] * n
    first_child = [-1] * n
    next_sibling = [-1] * n
    prev_sibling = [-1] * n
    ids_by_tag: dict[str, list[int]] = {}
    ids_by_kind: dict[int, list[int]] = {0: [], 2: [], 3: [], 4: []}
    element_ids: list[int] = []
    for i, node in enumerate(nodes):
        if node.parent is not None:
            parent[i] = id_of[node.parent.uid]
        child_ids = [id_of[child.uid] for child in node.children]
        if child_ids:
            first_child[i] = child_ids[0]
        for left, right in zip(child_ids, child_ids[1:]):
            next_sibling[left] = right
            prev_sibling[right] = left
        if isinstance(node, ElementNode):
            ids_by_tag.setdefault(node.tag, []).append(i)
            element_ids.append(i)
        else:
            ids_by_kind[_KIND_BY_TYPE[node.node_type]].append(i)

    subtree_end = list(range(n))
    for i in range(n - 1, -1, -1):
        if node_children := nodes[i].children:
            subtree_end[i] = subtree_end[id_of[node_children[-1].uid]]

    post = [0] * n
    counter = 0
    stack = [(0, False)]
    while stack:
        i, expanded = stack.pop()
        if expanded:
            post[i] = counter
            counter += 1
            continue
        stack.append((i, True))
        for child in reversed(nodes[i].children):
            stack.append((id_of[child.uid], False))

    strings: dict[str, int] = {}

    def intern(value: str) -> int:
        return strings.setdefault(value, len(strings))

    kinds = bytearray(n)
    names = [-1] * n
    texts = [-1] * n
    attr_offsets = [0] * (n + 1)
    attr_names: list[int] = []
    attr_values: list[int] = []
    for i, node in enumerate(nodes):
        kinds[i] = _KIND_BY_TYPE[node.node_type]
        if isinstance(node, ElementNode):
            names[i] = intern(node.tag)
            for attribute in node.attributes:
                attr_names.append(intern(attribute.attr_name))
                attr_values.append(intern(attribute.value))
        elif isinstance(node, (TextNode, CommentNode)):
            texts[i] = intern(node.text)
        elif isinstance(node, ProcessingInstructionNode):
            names[i] = intern(node.target)
            texts[i] = intern(node.data)
        attr_offsets[i + 1] = len(attr_names)

    def partitions(keyed: list[tuple[int, list[int]]]) -> bytes:
        head = b"".join(_int32([key, len(ids)]) for key, ids in keyed)
        return struct.pack("<I", len(keyed)) + head + b"".join(
            _int32(ids) for _, ids in keyed
        )

    blobs = [value.encode("utf-8") for value in strings]
    offsets = [0]
    for blob in blobs:
        offsets.append(offsets[-1] + len(blob))
    sections = {
        b"KIND": bytes(kinds),
        b"PAR ": _int32(parent),
        b"SUB ": _int32(subtree_end),
        b"POST": _int32(post),
        b"FCH ": _int32(first_child),
        b"NSIB": _int32(next_sibling),
        b"PSIB": _int32(prev_sibling),
        b"NAME": _int32(names),
        b"TEXT": _int32(texts),
        b"ATTO": _int32(attr_offsets),
        b"ATTN": _int32(attr_names),
        b"ATTV": _int32(attr_values),
        b"ELEM": _int32(element_ids),
        b"TPRT": partitions(
            sorted((strings[tag], ids) for tag, ids in ids_by_tag.items())
        ),
        b"KPRT": partitions(sorted(ids_by_kind.items())),
        b"STAB": struct.pack("<I", len(blobs)) + _int32(offsets) + b"".join(blobs),
    }

    offset = 16 + 20 * len(_SECTION_ORDER)
    table: list[bytes] = []
    payload: list[bytes] = []
    for tag in _SECTION_ORDER:
        body = sections[tag]
        padding = (-offset) % 8
        payload.append(b"\x00" * padding)
        offset += padding
        table.append(struct.pack("<4sQQ", tag, offset, len(body)))
        payload.append(body)
        offset += len(body)
    return b"".join(
        [struct.pack("<8sII", b"REPROSNP", 1, len(_SECTION_ORDER)), *table, *payload]
    )
