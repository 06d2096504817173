"""The document as flat columns — the form it is parsed into, stored in and queried on.

A :class:`Columns` value holds one entry per tree node, in document
(pre-order) order, for every property the evaluators and the snapshot
codec need: the node kind, the structure links as integer ids, string ids
for names and character data, and the attribute lists as offsets into two
parallel id arrays.  Strings live once in a first-use-order table.  The
id-native Core XPath path reads nothing else; node *objects* are built
from these columns only when somebody asks for one (see
:class:`repro.xmlmodel.document.Document`).

:class:`ColumnBuilder` is the one place the columns are derived: the XML
scanner feeds it tokens, and ``Document(root)`` feeds it a walk over a
:class:`~repro.xmlmodel.document.DocumentBuilder` tree.  It keeps the open
nodes on a stack and fills ``parent`` / ``subtree_end`` / ``post`` /
``first_child`` / ``next_sibling`` / ``prev_sibling`` as nodes open and
close, so no second pass over the document is needed.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

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
    fresh from a :class:`ColumnBuilder`, :class:`array.array` / ``bytes``
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


class ColumnBuilder:
    """Push/pop construction of :class:`Columns`, root already open.

    ``open`` adds a node under the innermost open one and makes it the
    innermost; ``close`` closes it.  A leaf is an ``open`` followed by a
    ``close``.  String ids are handed out in first-use order — name, then
    attribute name/value pairs, then text — which is what makes the
    snapshot bytes of a document deterministic.
    """

    __slots__ = ("_columns", "_string_ids", "_open", "_last_child")

    def __init__(self) -> None:
        self._columns = Columns(
            kinds=bytearray(),
            parent=[],
            subtree_end=[],
            post=[],
            first_child=[],
            next_sibling=[],
            prev_sibling=[],
            names=[],
            texts=[],
            attr_offsets=[0],
            attr_names=[],
            attr_values=[],
            strings=[],
            element_ids=[],
            ids_by_tag={},
            ids_by_kind={kind: [] for kind in PARTITIONED_KINDS},
        )
        self._string_ids: dict[str, int] = {}
        self._open: list[int] = []
        #: Last child so far of each open node, parallel to ``_open``.
        self._last_child: list[int] = []
        self.open(KIND_ROOT)

    def _intern(self, value: str) -> int:
        string_ids = self._string_ids
        string_id = string_ids.get(value)
        if string_id is None:
            string_id = string_ids[value] = len(string_ids)
            self._columns.strings.append(value)
        return string_id

    def open(
        self,
        kind: int,
        name: Optional[str] = None,
        text: Optional[str] = None,
        attributes: Iterable[tuple[str, str]] = (),
    ) -> None:
        """Add a node of ``kind`` under the innermost open node and descend into it."""
        columns = self._columns
        node_id = len(columns.kinds)
        columns.kinds.append(kind)
        opened = self._open
        if opened:
            parent = opened[-1]
            previous = self._last_child[-1]
            if previous == -1:
                columns.first_child[parent] = node_id
            else:
                columns.next_sibling[previous] = node_id
            self._last_child[-1] = node_id
        else:
            parent = previous = -1
        columns.parent.append(parent)
        columns.prev_sibling.append(previous)
        columns.first_child.append(-1)
        columns.next_sibling.append(-1)
        columns.subtree_end.append(node_id)
        columns.post.append(0)
        intern = self._intern
        columns.names.append(-1 if name is None else intern(name))
        if kind == KIND_ELEMENT:
            columns.element_ids.append(node_id)
            partition = columns.ids_by_tag.get(name)
            if partition is None:
                partition = columns.ids_by_tag[name] = []
            partition.append(node_id)
            for attr_name, attr_value in attributes:
                columns.attr_names.append(intern(attr_name))
                columns.attr_values.append(intern(attr_value))
        else:
            columns.ids_by_kind[kind].append(node_id)
        columns.attr_offsets.append(len(columns.attr_names))
        columns.texts.append(-1 if text is None else intern(text))
        opened.append(node_id)
        self._last_child.append(-1)

    def close(self) -> None:
        """Close the innermost open node."""
        columns = self._columns
        node_id = self._open.pop()
        self._last_child.pop()
        end = columns.subtree_end[node_id] = len(columns.kinds) - 1
        # post-order rank = pre-order rank + descendants - depth
        columns.post[node_id] = end - len(self._open)

    def finish(self) -> Columns:
        """Close the root and return the columns."""
        if len(self._open) != 1:
            raise ValueError(f"{len(self._open) - 1} node(s) left open at finish()")
        self.close()
        return self._columns
