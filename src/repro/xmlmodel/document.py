"""The :class:`Document`: flat columns, and a node tree built on demand.

A ``Document`` is a frozen XML document.  Its substance is a
:class:`~repro.xmlmodel.columns.Columns` value — one entry per tree node
in document order — which is what the XML scanner emits, what a snapshot
stores and what the id-native evaluators read through
:attr:`Document.index`.  The tree of :class:`~repro.xmlmodel.nodes.XMLNode`
objects (``root`` / ``nodes`` / ``attributes``) is a second, derived form:
a document parsed from text or loaded from a snapshot builds it the first
time somebody asks for a node, once, and keeps it, so node identity per
document is stable.  A document made from a
:class:`DocumentBuilder` tree starts from the nodes and derives the same
columns when it freezes.
"""

from __future__ import annotations

import threading
from typing import Iterator, Optional

from repro.xmlmodel.columns import (
    KIND_COMMENT,
    KIND_ELEMENT,
    KIND_PI,
    KIND_ROOT,
    KIND_TEXT,
    Columns,
    derive_columns,
)
from repro.xmlmodel.index import DocumentIndex
from repro.xmlmodel.nodes import (
    AttributeNode,
    CommentNode,
    ElementNode,
    NodeType,
    ProcessingInstructionNode,
    RootNode,
    TextNode,
    XMLNode,
    _node_counter,
)

_KIND_OF_TYPE = {
    NodeType.ROOT: KIND_ROOT,
    NodeType.ELEMENT: KIND_ELEMENT,
    NodeType.TEXT: KIND_TEXT,
    NodeType.COMMENT: KIND_COMMENT,
    NodeType.PROCESSING_INSTRUCTION: KIND_PI,
}


class NodeTree:
    """The node objects of one document, as built by one materialisation."""

    __slots__ = ("nodes", "attributes", "id_by_uid")

    def __init__(
        self,
        nodes: list[XMLNode],
        attributes: list[AttributeNode],
        id_by_uid: dict[int, int],
    ) -> None:
        #: Tree nodes in document order; a node's position is its id.
        self.nodes = nodes
        #: Attribute nodes in document order.
        self.attributes = attributes
        #: ``uid`` → id for the tree nodes (attributes have no id).
        self.id_by_uid = id_by_uid


class Document:
    """A frozen XML document: columns, an index over them, nodes on demand.

    Parameters
    ----------
    root:
        The :class:`RootNode` of a node tree.  The constructor freezes the
        tree: it assigns ``order`` to every node (root, elements, text,
        comments, processing instructions and attributes) and derives the
        document's columns from it.

    Documents that come from :func:`~repro.xmlmodel.parser.parse_xml` or a
    snapshot are built by :meth:`from_columns` instead and hold no node
    objects until ``root``, ``nodes``, ``attributes``, ``elements_with_tag``
    or a node-returning method of the index is used:

    >>> from repro.xmlmodel import parse_xml
    >>> from repro.evaluation.core import CoreXPathEvaluator
    >>> document = parse_xml("<a><b/><b><c/></b></a>")
    >>> document.has_nodes
    False
    >>> CoreXPathEvaluator(document).evaluate_ids("//b[child::c]")
    [3]
    >>> document.has_nodes          # the id-native path never needed one
    False
    >>> document.index.node_of(3).tag
    'b'
    >>> document.has_nodes
    True
    >>> document.nodes[3] is document.index.node_of(3)
    True
    """

    def __init__(self, root: RootNode) -> None:
        if not isinstance(root, RootNode):
            raise TypeError("Document requires a RootNode")
        self._adopt(*self._freeze(root))

    @classmethod
    def from_columns(cls, columns: Columns) -> "Document":
        """A document over ``columns``; its node tree is built on first use."""
        document = cls.__new__(cls)
        document._adopt(columns, None)
        return document

    def _adopt(self, columns: Columns, tree: Optional[NodeTree]) -> None:
        #: The document as flat columns (read-only).
        self.columns = columns
        self._tree = tree
        self._tree_lock = threading.Lock()
        self._index: Optional[DocumentIndex] = None

    # -- the two derivations: nodes → columns, columns → nodes ---------------------

    def _freeze(self, root: RootNode) -> tuple[Columns, NodeTree]:
        """Assign document order and derive the columns from the node tree.

        Attribute nodes are ordered directly after their owning element and
        before that element's children, following the XPath data model.
        The walk records the same per-node facts the XML scanner does —
        kind, parent, end of subtree, strings interned name first, then
        attribute pairs, then text — and hands them to the same
        :func:`~repro.xmlmodel.columns.derive_columns`.
        """
        nodes: list[XMLNode] = []
        attributes: list[AttributeNode] = []
        id_by_uid: dict[int, int] = {}
        kinds = bytearray()
        parent: list[int] = []
        subtree_end: list[int] = []
        names: list[int] = []
        texts: list[int] = []
        attr_offsets = [0]
        attr_names: list[int] = []
        attr_values: list[int] = []
        string_ids: dict[str, int] = {}

        def intern(value: Optional[str]) -> int:
            return -1 if value is None else string_ids.setdefault(value, len(string_ids))

        order = 0
        # A node to open with its parent's id, or — as ``(None, i)`` — node i to close.
        stack: list[tuple[Optional[XMLNode], int]] = [(root, -1)]
        while stack:
            node, up = stack.pop()
            if node is None:
                subtree_end[up] = len(nodes) - 1
                continue
            node.order = order
            order += 1
            node.document = self
            node_id = id_by_uid[node.uid] = len(nodes)
            nodes.append(node)
            kinds.append(_KIND_OF_TYPE[node.node_type])
            parent.append(up)
            subtree_end.append(node_id)
            if isinstance(node, ElementNode):
                names.append(intern(node.tag))
                for attribute in node.attributes:
                    attribute.order = order
                    order += 1
                    attribute.document = self
                    attributes.append(attribute)
                    attr_names.append(intern(attribute.attr_name))
                    attr_values.append(intern(attribute.value))
                texts.append(-1)
            elif isinstance(node, ProcessingInstructionNode):
                names.append(intern(node.target))
                texts.append(intern(node.data))
            else:
                names.append(-1)
                texts.append(intern(getattr(node, "text", None)))
            attr_offsets.append(len(attr_names))
            if node.children:
                stack.append((None, node_id))
                stack.extend((child, node_id) for child in reversed(node.children))
        columns = derive_columns(
            kinds=kinds,
            parent=parent,
            subtree_end=subtree_end,
            names=names,
            texts=texts,
            attr_offsets=attr_offsets,
            attr_names=attr_names,
            attr_values=attr_values,
            strings=list(string_ids),
        )
        return columns, NodeTree(nodes, attributes, id_by_uid)

    def _materialise(self) -> NodeTree:
        """The node tree, built from the columns by whichever caller is first.

        One linear pass under a once-only lock, so concurrent first
        touches all see the same node objects.  Nodes are stored in
        pre-order, so every parent id precedes its children and links can
        be patched as objects come into existence; ``__new__`` + direct
        slot writes skip the constructors' bookkeeping — the columns
        already describe a frozen, validated tree.
        """
        with self._tree_lock:
            if self._tree is None:
                self._tree = self._build_tree()
            return self._tree

    def _build_tree(self) -> NodeTree:
        columns = self.columns
        kinds = columns.kinds
        parent = columns.parent
        names = columns.names
        texts = columns.texts
        attr_offsets = columns.attr_offsets
        attr_names = columns.attr_names
        attr_values = columns.attr_values
        strings = columns.strings
        n = len(kinds)
        nodes: list[XMLNode] = [None] * n  # type: ignore[list-item]
        attributes: list[AttributeNode] = []
        id_by_uid: dict[int, int] = {}
        order = 0
        node: XMLNode
        for i in range(n):
            kind = kinds[i]
            if kind == KIND_ELEMENT:
                node = ElementNode.__new__(ElementNode)
                node.node_type = NodeType.ELEMENT
                node.tag = strings[names[i]]
                node_attributes: list[AttributeNode] = []
                node.attributes = node_attributes
            elif kind == KIND_TEXT:
                node = TextNode.__new__(TextNode)
                node.node_type = NodeType.TEXT
                node.text = strings[texts[i]]
            elif kind == KIND_ROOT:
                node = RootNode.__new__(RootNode)
                node.node_type = NodeType.ROOT
            elif kind == KIND_COMMENT:
                node = CommentNode.__new__(CommentNode)
                node.node_type = NodeType.COMMENT
                node.text = strings[texts[i]]
            else:
                node = ProcessingInstructionNode.__new__(ProcessingInstructionNode)
                node.node_type = NodeType.PROCESSING_INSTRUCTION
                node.target = strings[names[i]]
                node.data = strings[texts[i]]
            node.children = []
            node.order = order
            order += 1
            node.uid = uid = next(_node_counter)
            node.document = self
            id_by_uid[uid] = i
            parent_id = parent[i]
            if parent_id == -1:
                node.parent = None
            else:
                parent_node = nodes[parent_id]
                node.parent = parent_node
                parent_node.children.append(node)
            nodes[i] = node
            if kind == KIND_ELEMENT:
                for j in range(attr_offsets[i], attr_offsets[i + 1]):
                    attribute = AttributeNode.__new__(AttributeNode)
                    attribute.node_type = NodeType.ATTRIBUTE
                    attribute.attr_name = strings[attr_names[j]]
                    attribute.value = strings[attr_values[j]]
                    attribute.parent = node
                    attribute.children = []
                    attribute.order = order
                    order += 1
                    attribute.uid = next(_node_counter)
                    attribute.document = self
                    node_attributes.append(attribute)
                    attributes.append(attribute)
        return NodeTree(nodes, attributes, id_by_uid)

    # -- node populations ------------------------------------------------------

    @property
    def has_nodes(self) -> bool:
        """True once the node tree exists (see the class docstring)."""
        return self._tree is not None

    @property
    def root(self) -> RootNode:
        """The conceptual root node (builds the node tree on first use)."""
        return (self._tree or self._materialise()).nodes[0]  # type: ignore[return-value]

    @property
    def nodes(self) -> list[XMLNode]:
        """All tree nodes (root, elements, text, comments, PIs) in document order.

        Attribute nodes are excluded, matching the paper's ``dom`` which
        ranges over tree nodes; they remain reachable via the attribute axis.
        Builds the node tree on first use.
        """
        return (self._tree or self._materialise()).nodes

    @property
    def attributes(self) -> list[AttributeNode]:
        """All attribute nodes in document order (builds the node tree on first use)."""
        return (self._tree or self._materialise()).attributes

    @property
    def elements(self) -> list[ElementNode]:
        """All element nodes in document order."""
        return [node for node in self.nodes if isinstance(node, ElementNode)]

    def dom(self) -> list[XMLNode]:
        """Return the paper's ``dom``: the root plus all element nodes.

        The hardness constructions and the Singleton-Success checker range
        over this set.  Text/comment/PI nodes are still part of the document
        and reachable by axes, but the complexity accounting in the paper is
        in terms of elements.
        """
        return [
            node
            for node in self.nodes
            if node.node_type in (NodeType.ROOT, NodeType.ELEMENT)
        ]

    @property
    def index(self) -> DocumentIndex:
        """The :class:`DocumentIndex` over this document's columns.

        Made on first use and cached for the lifetime of the document, so
        every evaluator (and every query in a batch) shares the same
        arrays, partition sets and kernel state.  A node's id in the index
        is its pre-order rank among the tree nodes (attributes have no id).

        Examples
        --------
        >>> from repro.xmlmodel import parse_xml
        >>> document = parse_xml("<a><b/><b/></a>")
        >>> document.has_index
        False
        >>> document.index.size == len(document.nodes)
        True
        >>> document.index is document.index    # made once, then cached
        True
        """
        if self._index is None:
            self._index = DocumentIndex(self)
        return self._index

    @property
    def has_index(self) -> bool:
        """True if the document index has already been made."""
        return self._index is not None

    def elements_with_tag(self, tag: str) -> list[ElementNode]:
        """Return all elements with the given tag, in document order."""
        nodes = self.nodes
        return [nodes[i] for i in self.columns.ids_by_tag.get(tag, ())]  # type: ignore[misc]

    @property
    def root_tag(self) -> Optional[str]:
        """The document element's tag (``None`` if the root has no element
        child), read from the columns."""
        columns = self.columns
        child = columns.first_child[0]
        while child != -1:
            if columns.kinds[child] == KIND_ELEMENT:
                return columns.strings[columns.names[child]]
            child = columns.next_sibling[child]
        return None

    @property
    def size(self) -> int:
        """The number of nodes in the document (|D| in the paper)."""
        return len(self.columns.kinds) + len(self.columns.attr_names)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[XMLNode]:
        return iter(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Document root_tag={self.root_tag!r} size={self.size}>"


class DocumentBuilder:
    """Imperative builder producing a :class:`Document`.

    The builder exposes the small push/pop interface used by the XML parser
    and by the synthetic document generators::

        builder = DocumentBuilder()
        builder.start_element("library", {"city": "Vienna"})
        builder.start_element("book")
        builder.text("PODS 2003")
        builder.end_element()
        builder.end_element()
        document = builder.finish()
    """

    def __init__(self) -> None:
        self._root = RootNode()
        self._stack: list[XMLNode] = [self._root]
        self._finished = False

    @property
    def current(self) -> XMLNode:
        """The node new children are currently appended to."""
        return self._stack[-1]

    def start_element(
        self, tag: str, attributes: Optional[dict[str, str]] = None
    ) -> ElementNode:
        """Open a new element and make it the current node."""
        self._check_open()
        element = ElementNode(tag, attributes)
        self.current.append_child(element)
        self._stack.append(element)
        return element

    def end_element(self) -> None:
        """Close the current element."""
        self._check_open()
        if len(self._stack) == 1:
            raise ValueError("end_element() without matching start_element()")
        self._stack.pop()

    def add_element(
        self, tag: str, attributes: Optional[dict[str, str]] = None
    ) -> ElementNode:
        """Add an empty element without descending into it."""
        element = self.start_element(tag, attributes)
        self.end_element()
        return element

    def text(self, data: str) -> TextNode:
        """Append a text node to the current element."""
        self._check_open()
        node = TextNode(data)
        self.current.append_child(node)
        return node

    def comment(self, data: str) -> CommentNode:
        """Append a comment node to the current element."""
        self._check_open()
        node = CommentNode(data)
        self.current.append_child(node)
        return node

    def processing_instruction(self, target: str, data: str = "") -> ProcessingInstructionNode:
        """Append a processing-instruction node to the current element."""
        self._check_open()
        node = ProcessingInstructionNode(target, data)
        self.current.append_child(node)
        return node

    def finish(self) -> Document:
        """Close the builder and return the frozen :class:`Document`."""
        self._check_open()
        if len(self._stack) != 1:
            raise ValueError(
                f"{len(self._stack) - 1} element(s) left unclosed at finish()"
            )
        self._finished = True
        return Document(self._root)

    def _check_open(self) -> None:
        if self._finished:
            raise ValueError("builder already finished")


def build_tree(spec, builder: Optional[DocumentBuilder] = None) -> Document:
    """Build a document from a nested-tuple specification.

    The specification format is ``(tag, attributes_dict, children_list)``
    where ``attributes_dict`` and ``children_list`` may be omitted, and a
    bare string is a text node.  This compact form is used heavily in tests::

        build_tree(("a", [("b", {"id": "1"}, ["hello"]), ("b",)]))
    """
    own_builder = builder is None
    if builder is None:
        builder = DocumentBuilder()
    _build_tree_node(spec, builder)
    if own_builder:
        return builder.finish()
    return None  # type: ignore[return-value]


def _build_tree_node(spec, builder: DocumentBuilder) -> None:
    if isinstance(spec, str):
        builder.text(spec)
        return
    if not isinstance(spec, tuple) or not spec:
        raise TypeError(f"invalid tree spec: {spec!r}")
    tag = spec[0]
    attributes: dict[str, str] = {}
    children: list = []
    for part in spec[1:]:
        if isinstance(part, dict):
            attributes = part
        elif isinstance(part, list):
            children = part
        else:
            raise TypeError(f"invalid tree spec component: {part!r}")
    builder.start_element(tag, attributes)
    for child in children:
        _build_tree_node(child, builder)
    builder.end_element()
