"""XPath 1.0 value types, conversions, comparisons and arithmetic.

XPath 1.0 expressions evaluate to one of four types: node-set, number
(an IEEE double), string, or boolean.  This module implements those types
and the conversion, comparison and arithmetic rules of the recommendation
(sections 3.4, 3.5 and 4).  Every evaluator in the package shares these
semantics, which is what makes the cross-evaluator agreement tests
meaningful.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.errors import XPathTypeError
from repro.xmlmodel.nodes import XMLNode, sort_document_order

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.xmlmodel.idset import IdSet
    from repro.xmlmodel.index import DocumentIndex

_order = attrgetter("order")


class NodeSet:
    """An XPath node-set: a duplicate-free collection ordered in document order.

    A node-set is carried either as its nodes or — what the context-value
    table evaluator produces for tree nodes — as an
    :class:`~repro.xmlmodel.idset.IdSet` over a document index.  The
    id-backed form answers ``len``, truth and :meth:`union` from the ids;
    :attr:`nodes` gathers the node objects once, on first touch.
    """

    __slots__ = ("_nodes", "ids", "index")

    def __init__(self, nodes: Iterable[XMLNode] = ()) -> None:
        self._nodes: list[XMLNode] | None = sort_document_order(nodes)
        #: The members as document-order ids; None for a node-backed set.
        self.ids: IdSet | None = None
        #: The index ``ids`` are ids of.
        self.index: DocumentIndex | None = None

    @classmethod
    def from_ordered(cls, nodes: Sequence[XMLNode]) -> "NodeSet":
        """Build a node-set from nodes already known to be sorted and unique."""
        node_set = cls.__new__(cls)
        node_set._nodes = list(nodes)
        node_set.ids = node_set.index = None
        return node_set

    @classmethod
    def from_idset(cls, ids: "IdSet", index: "DocumentIndex") -> "NodeSet":
        """The tree nodes of ``index`` with the given ids; no node is built yet."""
        node_set = cls.__new__(cls)
        node_set._nodes = None
        node_set.ids = ids
        node_set.index = index
        return node_set

    @property
    def nodes(self) -> list[XMLNode]:
        """The members in document order (an id-backed set gathers them once)."""
        nodes = self._nodes
        if nodes is None:
            nodes = self._nodes = self.index.idset_to_node_list(  # type: ignore[union-attr]
                self.ids  # type: ignore[arg-type]
            )
        return nodes

    def __iter__(self):
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes if self.ids is None else self.ids)

    def __bool__(self) -> bool:
        return bool(self.nodes if self.ids is None else self.ids)

    def __contains__(self, node: XMLNode) -> bool:
        # Members are sorted by ``order``, which is unique within a document.
        nodes = self.nodes
        at = bisect_left(nodes, node.order, key=_order)
        return at < len(nodes) and nodes[at] is node

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NodeSet):
            return NotImplemented
        return self.nodes == other.nodes

    def __hash__(self) -> int:
        return hash(tuple(node.uid for node in self.nodes))

    def first(self) -> XMLNode | None:
        """Return the first node in document order, or None if empty."""
        if not self:
            return None
        if self._nodes is None:
            return self.index.node_of(self.ids.ids[0])  # type: ignore[union-attr]
        return self._nodes[0]

    def union(self, other: "NodeSet") -> "NodeSet":
        """Return the union of two node-sets (document order preserved)."""
        if self.ids is not None and other.ids is not None and self.index is other.index:
            return NodeSet.from_idset(self.ids | other.ids, self.index)  # type: ignore[arg-type]
        if not other:
            return self
        if not self:
            return other
        # Two duplicate-free runs in document order, which the sort merges in
        # one pass; a node of both ends up next to itself.
        merged = sorted(self.nodes + other.nodes, key=_order)
        return NodeSet.from_ordered(
            [node for at, node in enumerate(merged) if at == 0 or node is not merged[at - 1]]
        )

    def string_values(self) -> list[str]:
        """Return the string-value of every member, in document order."""
        return [node.string_value() for node in self.nodes]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeSet({self.nodes!r})"


#: The Python-level union of XPath value types.
XPathValue = NodeSet | float | str | bool


# ---------------------------------------------------------------------------
# Conversions (XPath 1.0 section 4)
# ---------------------------------------------------------------------------


def to_boolean(value: XPathValue) -> bool:
    """Convert ``value`` to boolean with the rules of the ``boolean()`` function."""
    if isinstance(value, bool):
        return value
    if isinstance(value, NodeSet):
        return len(value) > 0
    if isinstance(value, float):
        return value != 0.0 and not math.isnan(value)
    if isinstance(value, str):
        return len(value) > 0
    raise XPathTypeError(f"cannot convert {type(value).__name__} to boolean")


def to_number(value: XPathValue) -> float:
    """Convert ``value`` to a number with the rules of the ``number()`` function."""
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return string_to_number(value)
    if isinstance(value, NodeSet):
        return string_to_number(to_string(value))
    raise XPathTypeError(f"cannot convert {type(value).__name__} to number")


def to_string(value: XPathValue) -> str:
    """Convert ``value`` to a string with the rules of the ``string()`` function."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return format_number(value)
    if isinstance(value, NodeSet):
        first = value.first()
        return first.string_value() if first is not None else ""
    raise XPathTypeError(f"cannot convert {type(value).__name__} to string")


def string_to_number(text: str) -> float:
    """Convert a string to a number the way ``number()`` does (NaN if it is not one)."""
    stripped = text.strip()
    if not stripped:
        return float("nan")
    try:
        return float(stripped)
    except ValueError:
        return float("nan")


def format_number(value: float) -> str:
    """Format a number the way XPath's ``string()`` does."""
    if math.isnan(value):
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    if value == int(value):
        return str(int(value))
    return repr(value)


# ---------------------------------------------------------------------------
# Comparisons (XPath 1.0 section 3.4)
# ---------------------------------------------------------------------------

#: The six comparison operators on two numbers, two strings or two booleans.
NUMERIC_COMPARATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def compare(op: str, left: XPathValue, right: XPathValue) -> bool:
    """Evaluate ``left op right`` with XPath 1.0's existential comparison rules."""
    if op not in NUMERIC_COMPARATORS:
        raise XPathTypeError(f"unknown comparison operator {op!r}")
    left_is_set = isinstance(left, NodeSet)
    right_is_set = isinstance(right, NodeSet)
    if left_is_set and right_is_set:
        return _compare_two_node_sets(op, left, right)
    if left_is_set:
        return _compare_node_set_to_value(op, left, right, flipped=False)
    if right_is_set:
        return _compare_node_set_to_value(_flip(op), right, left, flipped=False)
    return _compare_scalars(op, left, right)


def _flip(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}[op]


def _compare_two_node_sets(op: str, left: NodeSet, right: NodeSet) -> bool:
    left_values = left.string_values()
    right_values = right.string_values()
    if op in ("=", "!="):
        return any(
            NUMERIC_COMPARATORS[op](lv, rv) for lv in left_values for rv in right_values
        )
    return any(
        NUMERIC_COMPARATORS[op](string_to_number(lv), string_to_number(rv))
        for lv in left_values
        for rv in right_values
    )


def _compare_node_set_to_value(op: str, node_set: NodeSet, value: XPathValue, flipped: bool) -> bool:
    if isinstance(value, bool):
        comparator = NUMERIC_COMPARATORS[op]
        return comparator(to_number(to_boolean(node_set)), to_number(value)) if op not in ("=", "!=") else comparator(to_boolean(node_set), value)
    test = string_value_test(op, value)
    return any(test(sv) for sv in node_set.string_values())


def string_value_test(
    op: str, value: float | str, node_set_on_left: bool = True
) -> Callable[[str], bool]:
    """The test one member's string-value must pass for ``node-set op value`` to hold.

    A node-set compared with a number or a string is true iff *some*
    member passes: against a number, and for every operator but ``=`` /
    ``!=``, both sides go through ``number()`` (NaN is never equal, less
    or greater); ``=`` / ``!=`` against a string compare strings.
    ``node_set_on_left=False`` is ``value op node-set``.
    """
    if not node_set_on_left:
        op = _flip(op)
    comparator = NUMERIC_COMPARATORS[op]
    if isinstance(value, float) or op not in ("=", "!="):
        target = to_number(value)
        return lambda string_value: comparator(string_to_number(string_value), target)
    return lambda string_value: comparator(string_value, value)


def _compare_scalars(op: str, left: XPathValue, right: XPathValue) -> bool:
    comparator = NUMERIC_COMPARATORS[op]
    if op in ("=", "!="):
        if isinstance(left, bool) or isinstance(right, bool):
            return comparator(to_boolean(left), to_boolean(right))
        if isinstance(left, float) or isinstance(right, float):
            return comparator(to_number(left), to_number(right))
        return comparator(to_string(left), to_string(right))
    return comparator(to_number(left), to_number(right))


# ---------------------------------------------------------------------------
# Arithmetic (XPath 1.0 section 3.5)
# ---------------------------------------------------------------------------


def arithmetic(op: str, left: XPathValue, right: XPathValue) -> float:
    """Evaluate the arithmetic operator ``op`` on two values."""
    a = to_number(left)
    b = to_number(right)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "div":
        if b == 0.0:
            if math.isnan(a) or a == 0.0:
                return float("nan")
            return math.inf * math.copysign(1.0, a) * math.copysign(1.0, b)
        return a / b
    if op == "mod":
        if b == 0.0 or math.isnan(a) or math.isnan(b) or math.isinf(a):
            return float("nan")
        return math.fmod(a, b)
    raise XPathTypeError(f"unknown arithmetic operator {op!r}")


def negate(value: XPathValue) -> float:
    """Evaluate unary minus."""
    return -to_number(value)


def xpath_round(value: float) -> float:
    """Round to the nearest integer, ties towards positive infinity (XPath rule).

    XPath 1.0 §4.4: NaN, ±∞ and ±0 are returned unchanged, and an
    argument in [−0.5, −0) rounds to −0.  The result is a number (a
    float), like every XPath number.
    """
    if math.isnan(value) or math.isinf(value):
        return value
    floor = math.floor(value)
    rounded = float(floor + 1 if value - floor >= 0.5 else floor)
    if rounded == 0.0 and math.copysign(1.0, value) < 0:
        return -0.0
    return rounded
