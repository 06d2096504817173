"""The thirteen XPath 1.0 axes (minus the namespace axis) and their inverses.

Every axis is exposed in two forms:

* :func:`axis_nodes` returns, for a single context node, the nodes on the
  axis **in axis order** — forward axes in document order, reverse axes
  (``ancestor``, ``ancestor-or-self``, ``preceding``,
  ``preceding-sibling``) in reverse document order.  Axis order is what
  ``position()`` and ``last()`` are defined against.
* :func:`apply_axis_to_set` maps a *set* of context nodes to the set of all
  nodes reachable over the axis, in document order.  This set-at-a-time
  form, together with :func:`inverse_axis`, is what makes the linear-time
  Core XPath algorithm possible.

The functions operate on :class:`~repro.xmlmodel.nodes.XMLNode` trees that
have been frozen into a :class:`~repro.xmlmodel.document.Document` (so that
document order is available).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import XPathEvaluationError
from repro.xmlmodel.nodes import AttributeNode, ElementNode, XMLNode, sort_document_order

#: Names of the supported axes, as they appear in XPath syntax.
AXIS_NAMES = (
    "self",
    "child",
    "parent",
    "descendant",
    "descendant-or-self",
    "ancestor",
    "ancestor-or-self",
    "following",
    "following-sibling",
    "preceding",
    "preceding-sibling",
    "attribute",
)

#: Axes whose axis order is reverse document order.
REVERSE_AXES = frozenset(
    {"ancestor", "ancestor-or-self", "preceding", "preceding-sibling"}
)

#: The axes allowed in Core XPath (Definition 2.5) — all navigational axes,
#: excluding the attribute axis.
CORE_XPATH_AXES = frozenset(AXIS_NAMES) - {"attribute"}

#: Inverse axis table used for evaluating condition location paths backwards.
INVERSE_AXIS = {
    "self": "self",
    "child": "parent",
    "parent": "child",
    "descendant": "ancestor",
    "ancestor": "descendant",
    "descendant-or-self": "ancestor-or-self",
    "ancestor-or-self": "descendant-or-self",
    "following": "preceding",
    "preceding": "following",
    "following-sibling": "preceding-sibling",
    "preceding-sibling": "following-sibling",
}


def is_reverse_axis(axis: str) -> bool:
    """Return True if ``axis`` enumerates nodes in reverse document order."""
    return axis in REVERSE_AXES


def inverse_axis(axis: str) -> str:
    """Return the inverse of ``axis`` (e.g. child ↦ parent).

    The attribute axis has no navigational inverse; asking for it raises
    :class:`XPathEvaluationError`.
    """
    try:
        return INVERSE_AXIS[axis]
    except KeyError:
        raise XPathEvaluationError(f"axis {axis!r} has no inverse") from None


def principal_node_type(axis: str) -> str:
    """Return the principal node type of ``axis`` ("element" or "attribute")."""
    return "attribute" if axis == "attribute" else "element"


# ---------------------------------------------------------------------------
# Per-node axis enumeration (axis order)
# ---------------------------------------------------------------------------


def _self(node: XMLNode) -> Iterator[XMLNode]:
    yield node


def _child(node: XMLNode) -> Iterator[XMLNode]:
    yield from node.children


def _parent(node: XMLNode) -> Iterator[XMLNode]:
    if isinstance(node, AttributeNode):
        if node.parent is not None:
            yield node.parent
        return
    if node.parent is not None:
        yield node.parent


def _descendant(node: XMLNode) -> Iterator[XMLNode]:
    yield from node.iter_descendants()


def _descendant_or_self(node: XMLNode) -> Iterator[XMLNode]:
    yield from node.iter_descendants_or_self()


def _ancestor(node: XMLNode) -> Iterator[XMLNode]:
    yield from node.iter_ancestors()


def _ancestor_or_self(node: XMLNode) -> Iterator[XMLNode]:
    yield node
    yield from node.iter_ancestors()


def _following_sibling(node: XMLNode) -> Iterator[XMLNode]:
    if node.parent is None or isinstance(node, AttributeNode):
        return
    siblings = node.parent.children
    index = siblings.index(node)
    yield from siblings[index + 1 :]


def _preceding_sibling(node: XMLNode) -> Iterator[XMLNode]:
    if node.parent is None or isinstance(node, AttributeNode):
        return
    siblings = node.parent.children
    index = siblings.index(node)
    yield from reversed(siblings[:index])


def _following(node: XMLNode) -> Iterator[XMLNode]:
    """All nodes after ``node`` in document order, excluding descendants."""
    current = node
    if isinstance(node, AttributeNode) and node.parent is not None:
        # An attribute comes before its owner's children in document order
        # (XPath 1.0 §5) and they are not its descendants.
        current = node.parent
        yield from current.iter_descendants()
    while current is not None:
        for sibling in _following_sibling(current):
            yield from sibling.iter_descendants_or_self()
        current = current.parent


def _preceding(node: XMLNode) -> Iterator[XMLNode]:
    """All nodes before ``node`` in document order, excluding ancestors.

    Yields in reverse document order, as required for a reverse axis.
    """
    ancestors = set(node.iter_ancestors())
    ancestors.add(node)
    result = [
        other
        for other in node.root().iter_descendants_or_self()
        if other.order < node.order and other not in ancestors
    ]
    yield from reversed(result)


def _attribute(node: XMLNode) -> Iterator[XMLNode]:
    if isinstance(node, ElementNode):
        yield from node.attributes


_AXIS_FUNCTIONS = {
    "self": _self,
    "child": _child,
    "parent": _parent,
    "descendant": _descendant,
    "descendant-or-self": _descendant_or_self,
    "ancestor": _ancestor,
    "ancestor-or-self": _ancestor_or_self,
    "following": _following,
    "following-sibling": _following_sibling,
    "preceding": _preceding,
    "preceding-sibling": _preceding_sibling,
    "attribute": _attribute,
}


def axis_nodes(node: XMLNode, axis: str) -> list[XMLNode]:
    """Return the nodes on ``axis`` from ``node``, in axis order."""
    try:
        func = _AXIS_FUNCTIONS[axis]
    except KeyError:
        raise XPathEvaluationError(f"unknown axis {axis!r}") from None
    return list(func(node))


def node_test_matches(node: XMLNode, axis: str, node_test: str) -> bool:
    """Return True if ``node`` passes the node test ``node_test`` on ``axis``.

    Supported node tests are a name, ``*``, ``node()``, ``text()``,
    ``comment()`` and ``processing-instruction()``.
    """
    if node_test == "node()":
        return True
    if node_test == "text()":
        return node.node_type.value == "text"
    if node_test == "comment()":
        return node.node_type.value == "comment"
    if node_test == "processing-instruction()" or node_test.startswith(
        "processing-instruction("
    ):
        if node.node_type.value != "processing-instruction":
            return False
        if node_test == "processing-instruction()":
            return True
        target = node_test[len("processing-instruction(") : -1].strip("'\"")
        return node.name() == target
    principal = principal_node_type(axis)
    if principal == "attribute":
        if not isinstance(node, AttributeNode):
            return False
        return node_test == "*" or node.attr_name == node_test
    if not isinstance(node, ElementNode):
        return False
    return node_test == "*" or node.tag == node_test


def axis_step(node: XMLNode, axis: str, node_test: str) -> list[XMLNode]:
    """Return the nodes selected by ``axis::node_test`` from ``node``, in axis order."""
    return [
        candidate
        for candidate in axis_nodes(node, axis)
        if node_test_matches(candidate, axis, node_test)
    ]


# ---------------------------------------------------------------------------
# Set-at-a-time axis application (document order)
# ---------------------------------------------------------------------------


def apply_axis_to_set(nodes: Iterable[XMLNode], axis: str, node_test: str = "node()") -> list[XMLNode]:
    """Apply ``axis::node_test`` to every node in ``nodes``; return the union.

    The result is duplicate-free and in document order.  For tree axes this
    runs in time linear in the document size (each node is visited a
    bounded number of times), which is the key primitive of the linear-time
    Core XPath evaluator.
    """
    result: dict[int, XMLNode] = {}
    for node in nodes:
        for candidate in axis_nodes(node, axis):
            if node_test_matches(candidate, axis, node_test):
                result[candidate.uid] = candidate
    return sort_document_order(result.values())
