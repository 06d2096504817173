"""The document as flat columns — the form it is parsed into, stored in and queried on.

A :class:`Columns` value holds one entry per tree node, in document
(pre-order) order, for every property the evaluators and the snapshot
codec need: the node kind, the structure links as integer ids, string ids
for names and character data, and the attribute lists as offsets into two
parallel id arrays.  Strings live once in a first-use-order table.  The
id-native Core XPath path reads nothing else; node *objects* are built
from these columns only when somebody asks for one (see
:class:`repro.xmlmodel.document.Document`).

:func:`derive_columns` is the one place the columns are derived.  A
producer — the XML scanner reading text, ``Document(root)`` walking a
:class:`~repro.xmlmodel.document.DocumentBuilder` tree — records only
what a pre-order scan knows for free (each node's kind, its parent, where
its subtree ended, its interned strings and attribute pairs); the sibling
and child links, the post-order ranks and the id partitions all follow
from ``parent`` / ``subtree_end`` / ``kinds`` in a few tight passes here.
"""

from __future__ import annotations

from itertools import compress
from typing import Any

#: Node kind bytes of the ``kinds`` column (and of the snapshot format).
KIND_ROOT = 0
KIND_ELEMENT = 1
KIND_TEXT = 2
KIND_COMMENT = 3
KIND_PI = 4

#: The non-element kinds, each with its own sorted id partition.
PARTITIONED_KINDS = (KIND_ROOT, KIND_TEXT, KIND_COMMENT, KIND_PI)


class Columns:
    """One document's columns; ``n`` tree nodes, ``m`` attributes.

    The sequence types are residency-dependent — ``list`` / ``bytearray``
    fresh from :func:`derive_columns`, :class:`array.array` / ``bytes``
    from an eager snapshot load, ``memoryview`` from a lazy one — and
    consumers rely on len/index/slice/iteration only.  Columns are
    immutable once built.

    ===================  ====================================================
    ``kinds``            ``n`` kind bytes (``KIND_*``)
    ``parent``           id of the parent, ``-1`` for the root
    ``subtree_end``      id of the last node in the subtree (``i`` for a leaf)
    ``post``             post-order rank
    ``first_child``      id of the first child, else ``-1``
    ``next_sibling``     id of the following sibling, else ``-1``
    ``prev_sibling``     id of the preceding sibling, else ``-1``
    ``names``            string id of the element tag / PI target, else ``-1``
    ``texts``            string id of text / comment / PI data, else ``-1``
    ``attr_offsets``     ``n + 1`` cumulative offsets into the two below
    ``attr_names``       ``m`` attribute-name string ids, document order
    ``attr_values``      ``m`` attribute-value string ids, document order
    ``strings``          the string table, ids assigned in first-use order
    ``element_ids``      sorted ids of the element nodes
    ``ids_by_tag``       tag → sorted ids of the elements carrying it
    ``ids_by_kind``      non-element kind byte → sorted ids of that kind
    ===================  ====================================================
    """

    __slots__ = (
        "kinds",
        "parent",
        "subtree_end",
        "post",
        "first_child",
        "next_sibling",
        "prev_sibling",
        "names",
        "texts",
        "attr_offsets",
        "attr_names",
        "attr_values",
        "strings",
        "element_ids",
        "ids_by_tag",
        "ids_by_kind",
    )

    def __init__(
        self,
        *,
        kinds: Any,
        parent: Any,
        subtree_end: Any,
        post: Any,
        first_child: Any,
        next_sibling: Any,
        prev_sibling: Any,
        names: Any,
        texts: Any,
        attr_offsets: Any,
        attr_names: Any,
        attr_values: Any,
        strings: list[str],
        element_ids: Any,
        ids_by_tag: dict[str, Any],
        ids_by_kind: dict[int, Any],
    ) -> None:
        self.kinds = kinds
        self.parent = parent
        self.subtree_end = subtree_end
        self.post = post
        self.first_child = first_child
        self.next_sibling = next_sibling
        self.prev_sibling = prev_sibling
        self.names = names
        self.texts = texts
        self.attr_offsets = attr_offsets
        self.attr_names = attr_names
        self.attr_values = attr_values
        self.strings = strings
        self.element_ids = element_ids
        self.ids_by_tag = ids_by_tag
        self.ids_by_kind = ids_by_kind


_IS_KIND = {
    kind: bytes(int(byte == kind) for byte in range(256))
    for kind in (KIND_ELEMENT,) + PARTITIONED_KINDS
}


def derive_columns(
    *,
    kinds: bytearray,
    parent: list[int],
    subtree_end: list[int],
    names: list[int],
    texts: list[int],
    attr_offsets: list[int],
    attr_names: list[int],
    attr_values: list[int],
    strings: list[str],
) -> Columns:
    """The full :class:`Columns` of a document from its scan-order facts.

    The arguments are what a single pre-order pass over a document
    records per node — ``parent[0] == -1`` and ``kinds[0] == KIND_ROOT``
    for the root, ``subtree_end[i]`` the id of the last node opened
    before node ``i`` closed — plus the string table with ids in
    first-use order.  They are adopted, not copied.  Derived here, and
    only here:

    * ``first_child[i]`` is ``i + 1`` when the subtree goes on past ``i``;
    * ``next_sibling[i]`` is the node after ``i``'s subtree when that
      node hangs off the same parent, and ``prev_sibling`` inverts it;
    * ``post[i]`` — the post-order rank — is ``subtree_end[i]`` minus the
      depth of ``i``: of the nodes opened up to the end of its subtree,
      only its ancestors close later;
    * the partitions are the ids of each kind, and the element ids
      grouped by tag, all in document order.
    """
    n = len(kinds)
    ids = range(n)
    first_child = [i + 1 if end > i else -1 for i, end in zip(ids, subtree_end)]
    parent_after = parent[1:]
    parent_after.append(-2)  # nothing follows the root's subtree
    next_sibling = [
        end + 1 if parent_after[end] == up else -1 for end, up in zip(subtree_end, parent)
    ]
    prev_sibling = [-1] * n
    depth = [0] * n
    for i in range(1, n):
        depth[i] = depth[parent[i]] + 1
        following = next_sibling[i]
        if following != -1:
            prev_sibling[following] = i
    post = [end - level for end, level in zip(subtree_end, depth)]

    element_ids = list(compress(ids, kinds.translate(_IS_KIND[KIND_ELEMENT])))
    by_name: dict[int, list[int]] = {}
    for i in element_ids:
        try:
            by_name[names[i]].append(i)
        except KeyError:
            by_name[names[i]] = [i]
    return Columns(
        kinds=kinds,
        parent=parent,
        subtree_end=subtree_end,
        post=post,
        first_child=first_child,
        next_sibling=next_sibling,
        prev_sibling=prev_sibling,
        names=names,
        texts=texts,
        attr_offsets=attr_offsets,
        attr_names=attr_names,
        attr_values=attr_values,
        strings=strings,
        element_ids=element_ids,
        ids_by_tag={strings[name]: members for name, members in by_name.items()},
        ids_by_kind={
            kind: list(compress(ids, kinds.translate(_IS_KIND[kind])))
            for kind in PARTITIONED_KINDS
        },
    )
