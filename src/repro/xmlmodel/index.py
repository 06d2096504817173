"""Array-backed document index for constant-factor-cheap axis evaluation.

The evaluators in :mod:`repro.evaluation` spend nearly all of their time
applying axes.  The object-walk implementations traverse ``parent`` /
``children`` pointers and hash node objects into Python sets, which is
linear but with a heavy constant.  :class:`DocumentIndex` works on the
document's :class:`~repro.xmlmodel.columns.Columns` instead — flat integer
arrays over the tree nodes in document order, filled by the XML scanner
(or read straight out of a snapshot) in one O(|D|) pass:

* ``pre`` / ``post`` — pre- and post-order ranks.  Because tree nodes are
  stored in pre-order, a node's id *is* its pre-order rank, and the
  descendants of node ``i`` are exactly the contiguous id interval
  ``i+1 .. subtree_end[i]``.  The classic interval characterisations
  follow: ``ancestor(j, i)  ⇔  j < i ≤ subtree_end[j]``,
  ``following(i) = { j : j > subtree_end[i] }`` and
  ``preceding(i) = { j : subtree_end[j] < i }``.
* ``parent`` / ``first_child`` / ``next_sibling`` / ``prev_sibling`` —
  structure links as integer ids (``-1`` when absent), so axis sweeps
  never touch node objects.
* ``ids_by_tag`` / ``element_ids`` — per-tag (and per-node-kind)
  partitions of the ids, kept sorted in document order so a name test
  over a contiguous axis interval reduces to a binary search, and a name
  test over an arbitrary id set to a sorted-partition intersection.

Two surfaces are exposed on top of these arrays:

* the **set-at-a-time kernels** (:meth:`axis_idset`, :meth:`filter_idset`)
  take and return :class:`~repro.xmlmodel.idset.IdSet` values — the only
  set-level axis algebra, and the hot path of the Core XPath evaluator,
  which materialises nodes once, via :meth:`idset_to_node_list`;
* the **per-node enumerations** (:meth:`axis_ids`, :meth:`step_ids`,
  :meth:`tag_ids_in_interval`) return ids in axis order for one context
  node and serve the ``cvt`` / ``naive`` evaluators.

Neither surface touches a node object: node tests read the ``kinds`` /
``names`` columns.  Only the id ↔ node conversions (:attr:`nodes`,
:meth:`node_of`, :meth:`id_of`, :meth:`ids_to_node_list`, …) need the
node tree, and the first of them to run has the owning document build it.

All operations cover the navigational axes only — attribute nodes are
not tree nodes and keep using the object walk of
:mod:`repro.xmlmodel.axes`, which is also the oracle both surfaces are
tested against.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Tuple

from repro.errors import XPathEvaluationError
from repro.xmlmodel.columns import KIND_COMMENT, KIND_ELEMENT, KIND_PI, KIND_TEXT
from repro.xmlmodel.idset import IdSet
from repro.xmlmodel.kernels import KernelBackend, active_backend
from repro.xmlmodel.nodes import XMLNode

if TYPE_CHECKING:  # import cycle: document.py imports this module
    from repro.xmlmodel.document import Document, NodeTree

#: Kind byte selected by each parameterless kind test.
_KIND_OF_TEST = {
    "text()": KIND_TEXT,
    "comment()": KIND_COMMENT,
    "processing-instruction()": KIND_PI,
}


class DocumentIndex:
    """Axis kernels and node tests over the columns of a frozen document.

    Parameters
    ----------
    document:
        The document whose :attr:`~repro.xmlmodel.document.Document.columns`
        to work on.  The index aliases the structure columns (no copy) and
        keeps only a weak reference to the document itself, so a document
        nobody else holds is freed by reference counting alone.

    Examples
    --------
    Obtained via :attr:`repro.xmlmodel.document.Document.index`:

    >>> from repro.xmlmodel import parse_xml
    >>> from repro.xmlmodel.idset import IdSet
    >>> index = parse_xml("<a><b/><b><c/></b></a>").index
    >>> index.subtree_end[0]            # the root's subtree spans everything
    4
    >>> root = IdSet.from_sorted([0], index.size)
    >>> bs = index.filter_idset(index.axis_idset("descendant", root), "child", "b")
    >>> [index.node_of(i).tag for i in bs.ids]
    ['b', 'b']
    """

    __slots__ = (
        "columns",
        "size",
        "parent",
        "subtree_end",
        "post",
        "first_child",
        "next_sibling",
        "prev_sibling",
        "ids_by_tag",
        "element_ids",
        "_ids_by_kind",
        "_test_idsets",
        "_kernel_states",
        "_owner",
        "_tree",
    )

    def __init__(self, document: "Document") -> None:
        columns = document.columns
        self.columns = columns
        self.size = len(columns.kinds)
        self.parent = columns.parent
        self.subtree_end = columns.subtree_end
        self.post = columns.post
        self.first_child = columns.first_child
        self.next_sibling = columns.next_sibling
        self.prev_sibling = columns.prev_sibling
        self.ids_by_tag = columns.ids_by_tag
        self.element_ids = columns.element_ids
        self._ids_by_kind = columns.ids_by_kind
        self._test_idsets: dict[Tuple[str, str], IdSet] = {}
        self._kernel_states: dict[str, Any] = {}
        self._owner = weakref.ref(document)
        # A tree that already exists is held strongly: its nodes point back
        # at the document, which keeps it alive while this index hands them out.
        self._tree: Optional["NodeTree"] = document._tree

    # -- id/node conversion --------------------------------------------------

    def _materialise(self) -> "NodeTree":
        """Have the owning document build its node tree (once) and keep it."""
        document = self._owner()
        if document is None:
            # Only this index outlived the document it was made for; any
            # document over the same columns is that document again.
            from repro.xmlmodel.document import Document

            document = Document.from_columns(self.columns)
            document._index = self
            self._owner = weakref.ref(document)
        tree = self._tree = document._materialise()
        return tree

    @property
    def nodes(self) -> List[XMLNode]:
        """The tree nodes in document order (builds the node tree on first use)."""
        return (self._tree or self._materialise()).nodes

    def id_of(self, node: XMLNode) -> int:
        """Return the document-order id of ``node``.

        Raises :class:`KeyError` for nodes outside the indexed tree
        (attribute nodes, nodes of another document).
        """
        return (self._tree or self._materialise()).id_by_uid[node.uid]

    def node_of(self, node_id: int) -> XMLNode:
        """Return the node with document-order id ``node_id``."""
        return (self._tree or self._materialise()).nodes[node_id]

    def ids_to_node_list(self, ids: Iterable[int]) -> List[XMLNode]:
        """Convert ids to a node list, preserving iteration order."""
        nodes = (self._tree or self._materialise()).nodes
        return [nodes[i] for i in ids]

    def contains(self, node: XMLNode) -> bool:
        """Return True if ``node`` is a tree node of the indexed document."""
        return node.uid in (self._tree or self._materialise()).id_by_uid

    # -- per-node axis enumeration (axis order) --------------------------------

    def axis_ids(self, node_id: int, axis: str) -> List[int]:
        """Return the ids on ``axis`` from ``node_id`` in axis order.

        Forward axes come out in document order (ascending ids), reverse
        axes in reverse document order, matching
        :func:`repro.xmlmodel.axes.axis_nodes`.
        """
        if axis == "self":
            return [node_id]
        if axis == "child":
            result = []
            j = self.first_child[node_id]
            next_sibling = self.next_sibling
            while j != -1:
                result.append(j)
                j = next_sibling[j]
            return result
        if axis == "parent":
            j = self.parent[node_id]
            return [] if j == -1 else [j]
        if axis == "descendant":
            return list(range(node_id + 1, self.subtree_end[node_id] + 1))
        if axis == "descendant-or-self":
            return list(range(node_id, self.subtree_end[node_id] + 1))
        if axis == "ancestor" or axis == "ancestor-or-self":
            result = [node_id] if axis == "ancestor-or-self" else []
            parent = self.parent
            j = parent[node_id]
            while j != -1:
                result.append(j)
                j = parent[j]
            return result
        if axis == "following-sibling":
            result = []
            next_sibling = self.next_sibling
            j = next_sibling[node_id]
            while j != -1:
                result.append(j)
                j = next_sibling[j]
            return result
        if axis == "preceding-sibling":
            result = []
            prev_sibling = self.prev_sibling
            j = prev_sibling[node_id]
            while j != -1:
                result.append(j)
                j = prev_sibling[j]
            return result
        if axis == "following":
            return list(range(self.subtree_end[node_id] + 1, self.size))
        if axis == "preceding":
            subtree_end = self.subtree_end
            return [j for j in range(node_id - 1, -1, -1) if subtree_end[j] < node_id]
        raise XPathEvaluationError(f"axis {axis!r} is not a navigational axis")

    def step_ids(self, node_id: int, axis: str, node_test: str = "node()") -> List[int]:
        """Return the ids selected by ``axis::node_test`` from ``node_id``.

        Axis order is preserved (forward axes ascending, reverse axes
        descending), so the result can feed positional predicates directly.
        Name tests over the contiguous-interval axes (``descendant``,
        ``descendant-or-self``, ``following``) hit the per-tag partition:
        two binary searches instead of a filtered scan.
        """
        if node_test == "node()":
            return self.axis_ids(node_id, axis)
        if not node_test.endswith(")") and node_test != "*":
            if axis == "descendant":
                return self.tag_ids_in_interval(
                    node_test, node_id + 1, self.subtree_end[node_id] + 1
                )
            if axis == "descendant-or-self":
                return self.tag_ids_in_interval(
                    node_test, node_id, self.subtree_end[node_id] + 1
                )
            if axis == "following":
                return self.tag_ids_in_interval(
                    node_test, self.subtree_end[node_id] + 1, self.size
                )
        ids = self.axis_ids(node_id, axis)
        kinds = self.columns.kinds
        if node_test == "*":
            return [j for j in ids if kinds[j] == KIND_ELEMENT]
        if not node_test.endswith(")"):
            # Name tests select elements, the principal node type of every
            # navigational axis; PI targets live in the same column.
            partition = self.ids_by_tag.get(node_test)
            if not partition:
                return []
            names = self.columns.names
            name = names[partition[0]]
            return [j for j in ids if names[j] == name and kinds[j] == KIND_ELEMENT]
        kind = _KIND_OF_TEST.get(node_test)
        if kind is not None:
            return [j for j in ids if kinds[j] == kind]
        return self._with_pi_target(ids, node_test)

    def _with_pi_target(self, ids: Iterable[int], node_test: str) -> List[int]:
        """The members of ``ids`` passing ``processing-instruction('target')``."""
        if not node_test.startswith("processing-instruction("):
            return []
        target = node_test[len("processing-instruction(") : -1].strip("'\"")
        kinds, names, strings = (
            self.columns.kinds, self.columns.names, self.columns.strings,
        )
        return [j for j in ids if kinds[j] == KIND_PI and strings[names[j]] == target]

    def tag_ids_in_interval(self, tag: str, lo: int, hi: int) -> List[int]:
        """Return the ids of ``tag`` elements with ``lo <= id < hi`` (sorted).

        This is the per-tag partition fast path: a name test over a
        contiguous axis interval (descendant, descendant-or-self,
        following) is two binary searches plus a slice.
        """
        partition = self.ids_by_tag.get(tag)
        if not partition:
            return []
        block = partition[bisect_left(partition, lo) : bisect_left(partition, hi)]
        # Snapshot-loaded indexes back partitions with array('i') /
        # memoryview buffers whose slices are not lists; normalise so the
        # documented list contract holds for every index residency.
        return block if isinstance(block, list) else list(block)

    # -- id-native axis kernels (IdSet in, IdSet out) --------------------------
    #
    # These are the hot path of the id-native Core XPath evaluator: node
    # sets stay :class:`~repro.xmlmodel.idset.IdSet` values end-to-end, so
    # a step is interval arithmetic (descendant/following/preceding),
    # array-chain sweeps (child/parent/sibling/ancestor) or a
    # sorted-partition intersection (name tests), never a walk over node
    # objects.

    def idset_from_nodes(self, nodes_in: Iterable[XMLNode]) -> IdSet:
        """Convert nodes to an :class:`IdSet` (KeyError for non-tree nodes)."""
        id_by_uid = (self._tree or self._materialise()).id_by_uid
        return IdSet.from_iterable(
            (id_by_uid[node.uid] for node in nodes_in), self.size
        )

    def idset_to_node_list(self, ids: IdSet) -> List[XMLNode]:
        """Materialise an :class:`IdSet` as nodes in document order.

        Ids are pre-order ranks, so ascending id order *is* document
        order — no sort is needed.  This is the single node
        materialisation of the id-native evaluation path (and a Python-int
        boundary: backend array results are converted here in bulk).
        """
        nodes = (self._tree or self._materialise()).nodes
        members = ids.ids
        if isinstance(members, range):
            return nodes[members.start : members.stop]
        converter = getattr(members, "tolist", None)
        if converter is not None:
            members = converter()
        return [nodes[i] for i in members]

    def axis_idset(self, axis: str, ids: IdSet) -> IdSet:
        """Apply a navigational axis to an :class:`IdSet`, id-natively."""
        try:
            function = self._AXIS_IDSET_FUNCTIONS[axis]
        except KeyError:
            raise XPathEvaluationError(
                f"axis {axis!r} is not a navigational axis"
            ) from None
        return function(self, ids)

    def _kernel(self) -> Tuple[KernelBackend, Any]:
        """The active backend plus this index's per-backend kernel state.

        State (numpy array copies for the vectorized backend, the index
        itself for pure) is built on first use and cached per backend
        name, so in-process backend switches (``use_backend``) never see
        a stale or foreign state.
        """
        backend = active_backend()
        state = self._kernel_states.get(backend.name)
        if state is None:
            state = backend.index_state(self)
            self._kernel_states[backend.name] = state
        return backend, state

    def _idset_self(self, ids: IdSet) -> IdSet:
        return ids

    def _idset_child(self, ids: IdSet) -> IdSet:
        if not ids:
            return IdSet.empty(self.size)
        backend, state = self._kernel()
        return IdSet.from_sorted(backend.child(state, ids.ids), self.size)

    def _idset_parent(self, ids: IdSet) -> IdSet:
        if not ids:
            return IdSet.empty(self.size)
        backend, state = self._kernel()
        return IdSet.from_sorted(backend.parent(state, ids.ids), self.size)

    def _idset_descendant(self, ids: IdSet) -> IdSet:
        if not ids:
            return IdSet.empty(self.size)
        backend, state = self._kernel()
        return IdSet.from_sorted(
            backend.descendant(state, ids.ids, False), self.size
        )

    def _idset_descendant_or_self(self, ids: IdSet) -> IdSet:
        if not ids:
            return IdSet.empty(self.size)
        backend, state = self._kernel()
        return IdSet.from_sorted(
            backend.descendant(state, ids.ids, True), self.size
        )

    def _idset_ancestor(self, ids: IdSet) -> IdSet:
        if not ids:
            return IdSet.empty(self.size)
        backend, state = self._kernel()
        return IdSet.from_sorted(backend.ancestor(state, ids.ids), self.size)

    def _idset_ancestor_or_self(self, ids: IdSet) -> IdSet:
        return ids | self._idset_ancestor(ids)

    def _idset_following_sibling(self, ids: IdSet) -> IdSet:
        if not ids:
            return IdSet.empty(self.size)
        backend, state = self._kernel()
        return IdSet.from_sorted(
            backend.following_sibling(state, ids.ids), self.size
        )

    def _idset_preceding_sibling(self, ids: IdSet) -> IdSet:
        if not ids:
            return IdSet.empty(self.size)
        backend, state = self._kernel()
        return IdSet.from_sorted(
            backend.preceding_sibling(state, ids.ids), self.size
        )

    def _idset_following(self, ids: IdSet) -> IdSet:
        if not ids:
            return IdSet.empty(self.size)
        backend, state = self._kernel()
        return IdSet.from_sorted(backend.following(state, ids.ids), self.size)

    def _idset_preceding(self, ids: IdSet) -> IdSet:
        if not ids:
            return IdSet.empty(self.size)
        backend, state = self._kernel()
        return IdSet.from_sorted(backend.preceding(state, ids.ids), self.size)

    _AXIS_IDSET_FUNCTIONS = {
        "self": _idset_self,
        "child": _idset_child,
        "parent": _idset_parent,
        "descendant": _idset_descendant,
        "descendant-or-self": _idset_descendant_or_self,
        "ancestor": _idset_ancestor,
        "ancestor-or-self": _idset_ancestor_or_self,
        "following": _idset_following,
        "following-sibling": _idset_following_sibling,
        "preceding": _idset_preceding,
        "preceding-sibling": _idset_preceding_sibling,
    }

    # -- id-native node tests ---------------------------------------------------

    def test_idset(self, node_test: str) -> Optional[IdSet]:
        """The partition of ids passing ``node_test``, as a cached IdSet.

        Covers the node tests whose members form a static partition of the
        document: names, ``*``, ``node()``, ``text()``, ``comment()`` and
        ``processing-instruction()``.  Returns ``None`` for tests that need
        per-node inspection (``processing-instruction('target')``).  The
        IdSets are cached per kernel backend (:meth:`IdSet.partition`
        hands the ids to the backend once and gives a dense partition its
        probe mask), so their materialisations are shared by every query
        on this document.
        """
        key = (active_backend().name, node_test)
        cached = self._test_idsets.get(key)
        if cached is not None:
            return cached
        if node_test == "node()":
            result = IdSet.full(self.size)  # an identity of ``&``: never probed
            self._test_idsets[key] = result
            return result
        if node_test == "*":
            members = self.element_ids
        elif node_test in _KIND_OF_TEST:
            members = self._ids_by_kind[_KIND_OF_TEST[node_test]]
        elif node_test.endswith(")"):
            return None  # parametrised test: filter per node
        else:
            members = self.ids_by_tag.get(node_test, [])
        result = IdSet.partition(members, self.size)
        self._test_idsets[key] = result
        return result

    def filter_idset(self, ids: IdSet, axis: str, node_test: str) -> IdSet:
        """Restrict ``ids`` to the members passing ``node_test`` on ``axis``.

        Name tests intersect with the sorted per-tag partition (a sparse
        ``ids`` is probed into it and stays a sorted sequence; the full
        set yields the cached partition itself); only parametrised tests
        such as ``processing-instruction('target')`` fall back to per-node
        checks.
        """
        if node_test == "node()":
            return ids
        partition = self.test_idset(node_test)
        if partition is not None:
            return ids & partition
        return IdSet.from_sorted(self._with_pi_target(ids, node_test), self.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DocumentIndex size={self.size} tags={len(self.ids_by_tag)}>"
