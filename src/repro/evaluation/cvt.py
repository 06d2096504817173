"""The context-value-table dynamic-programming evaluator (Proposition 2.7).

This is the algorithm whose existence makes the combined complexity of full
XPath 1.0 polynomial: for every node of the query parse tree a
*context-value table* is maintained that maps evaluation contexts to the
value of that sub-expression, and every (sub-expression, context) pair is
computed at most once — the paper's "one tuple for each meaningful
context" (Theorem 7.2's proof sketch).

For a sub-expression that does not read ``position()``/``last()`` the
meaningful contexts are just nodes, so its table is a **column over a node
set**.  This evaluator keeps node sets as
:class:`~repro.xmlmodel.idset.IdSet` values over the document index from the
first step of a location path to the last, and fills such a column for the
whole set at once wherever the sub-expression's shape allows:

* **Ids end to end.**  A location path carries its frontier as an
  ``IdSet``; a step from a frontier ``F`` finds its candidates ``C`` as
  ``filter_idset(axis_idset(axis, F), axis, test)`` — two calls into the
  document's one axis algebra, already in document order and bounded by
  |D| however many navigation paths lead there (the naive evaluator
  differs exactly here).  From a single context node the candidates come
  from :meth:`~repro.xmlmodel.index.DocumentIndex.step_ids` instead, except
  on the axes whose answer from one node is an interval of ids, which the
  kernels return in O(1).  The answer is an id-backed
  :class:`~repro.evaluation.values.NodeSet`: ``count()``, ``boolean()`` and
  ``|`` never build a node, and a top-level answer reaches
  :class:`~repro.engine.result.QueryResult` as ids.  Only the ``attribute``
  axis and frontiers that hold attribute nodes (which have no id) walk node
  objects, through :meth:`BaseEvaluator.apply_step_to_node`.
* **Two ways to evaluate a predicate**, chosen from the predicate's static
  shape alone.  A predicate that keeps or drops a candidate whoever selected
  it (:func:`_is_context_free_filter`: position-free and never a number) is
  applied to the whole candidate set first.  If it is built from the column
  grammar — ``and`` / ``or`` / ``not`` / ``boolean``, a relative path as an
  existence test, ``path RelOp constant`` on either side, ``count(path)``
  and arithmetic over it, ``starts-with`` / ``contains`` /
  ``string-length`` of a path's first target (:func:`_has_column`) — its
  truth is **one column**: ``and`` / ``or`` / ``not`` are ``&`` / ``|`` /
  ``-`` with the right operand evaluated only on the members the left did
  not decide; a path is applied *forward* from the candidates set-wise,
  each target's string-value is tested once, read from the ``texts`` /
  ``kinds`` / ``subtree_end`` columns (or ``attr_names`` / ``attr_values``
  for a final ``attribute::`` step), and the surviving targets are pulled
  *back* through the inverse axes; counts and first targets of child
  chains are grouped by ``parent^k(target)``.  Any other shape takes **the
  generic recursion**: :meth:`BaseEvaluator.evaluate_expr` once per
  candidate, with a table per sub-expression keyed by context.
* **Positional predicates on ids.**  What is left after the leading
  context-free predicates counts proximity positions per context node:
  each context node with a candidate lists its own candidates in axis order
  (``step_ids``), and a predicate that reads nothing but ``position()``,
  ``last()``, numbers and operators is decided from ``(position, size)``
  alone — no node, no :class:`Context`, no table key.  Anything else
  positional is :meth:`BaseEvaluator.filter_by_predicate` on nodes.
  Trailing context-free predicates are applied to the union again.

:class:`~repro.evaluation.naive.NaiveEvaluator` keeps the per-node walk
throughout and is the kernel-free oracle.

Table keys respect position-sensitivity: a sub-expression that does not
use ``position()``/``last()`` at its own level is tabulated per context
node only, which keeps tables small (the practical refinement the authors
describe in their companion papers [3, 4]).  A table lives exactly as long
as its expression object — in practice as long as the plan cache keeps the
plan — while :meth:`ContextValueTableEvaluator.table_entries` counts every
tuple ever tabulated.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from repro.errors import XPathTypeError
from repro.evaluation.base import BaseEvaluator, ExprRef, predicate_selects
from repro.evaluation.context import Context
from repro.evaluation.values import (
    NUMERIC_COMPARATORS,
    NodeSet,
    XPathValue,
    arithmetic,
    compare,
    negate,
    string_value_test,
    to_boolean,
)
from repro.xmlmodel.axes import CORE_XPATH_AXES, inverse_axis, is_reverse_axis
from repro.xmlmodel.columns import KIND_TEXT
from repro.xmlmodel.document import Document
from repro.xmlmodel.idset import IdSet
from repro.xmlmodel.kernels import active_backend
from repro.xmlmodel.nodes import XMLNode, sort_document_order
from repro.xpath.analysis import is_position_sensitive
from repro.xpath.ast import (
    BinaryOp,
    FunctionCall,
    Literal,
    LocationPath,
    Negate,
    Number,
    PathExpr,
    Step,
    XPathExpr,
)
from repro.xpath.functions import NUMBER, OBJECT, STRING, static_type
from repro.xpath.parser import parse

#: A location path's frontier: ids, or nodes once an attribute node is among them.
Frontier = Union[IdSet, list[XMLNode]]

#: From one context node these axes select an interval of ids, which the
#: set kernels return as a ``range`` without listing it.
_INTERVAL_AXES = frozenset({"descendant", "descendant-or-self", "following", "preceding"})

_TRUTH, _NUMBERS, _STRINGS = "truth", "numbers", "strings"


# -- static shape ----------------------------------------------------------------


def _is_context_free_filter(predicate: XPathExpr) -> bool:
    """True if ``predicate`` keeps or drops a candidate whoever selected it.

    That needs a value that depends on the candidate alone (no
    ``position()``/``last()``) and that can only be read as a boolean: a
    number -- or a variable, which may hold one -- is compared with the
    proximity position, which is per context node.
    """
    if is_position_sensitive(predicate):
        return False
    try:
        return static_type(predicate) not in (NUMBER, OBJECT)
    except XPathTypeError:
        # An unknown function: evaluation reports it, and only if the step
        # has a candidate to evaluate it on.
        return False


def _constant(expr: XPathExpr) -> Union[str, float, None]:
    """The value of a literal or a (negated) number; None for anything else."""
    if isinstance(expr, (Literal, Number)):
        return expr.value
    if isinstance(expr, Negate):
        value = _constant(expr.operand)
        return None if value is None else negate(value)
    return None


def _is_call(expr: XPathExpr, names: Sequence[str], arity: int) -> bool:
    return isinstance(expr, FunctionCall) and expr.name in names and len(expr.args) == arity


def _attribute_name(step: Step) -> Optional[str]:
    """The name a final ``attribute::`` step asks for; None for ``*`` / ``node()``."""
    test = step.node_test
    return test.text() if test.kind == "name" and not test.is_wildcard() else None


def _split_attribute(path: LocationPath) -> tuple[Sequence[Step], Optional[Step]]:
    """``path``'s navigational steps and its final ``attribute::`` step, if it has one.

    Raises :class:`ValueError` for a path no column reads: an absolute one,
    an ``attribute`` step anywhere else, one with predicates or with a node
    test no attribute passes.
    """
    steps, attribute = path.steps, None
    if steps and steps[-1].axis == "attribute":
        steps, attribute = steps[:-1], steps[-1]
        if attribute.predicates or attribute.node_test.text() not in (
            _attribute_name(attribute), "*", "node()"
        ):
            raise ValueError(path)
    if path.absolute or any(step.axis not in CORE_XPATH_AXES for step in steps):
        raise ValueError(path)
    return steps, attribute


def _is_pullable(path: XPathExpr) -> bool:
    """True if the candidates ``path`` selects something from can be found from its targets.

    Pulling targets back through the inverse axes is exact when every step
    selects ``axis(context) & S`` for a set ``S`` that does not depend on the
    context node, that is, when every predicate is a context-free filter.
    """
    if not isinstance(path, LocationPath):
        return False
    try:
        steps, _ = _split_attribute(path)
    except ValueError:
        return False
    return all(_is_context_free_filter(p) for step in steps for p in step.predicates)


def _owner_distance(path: XPathExpr, attribute_allowed: bool) -> Optional[int]:
    """``k`` if each target of ``path`` is selected from ``parent^k(target)`` alone, else None.

    True of relative chains of ``child`` and ``self`` steps, whatever their
    predicates: a target has one owner, so counts and first targets can be
    grouped by it.  A final ``attribute::name`` step (for string columns) has
    its element as the target.
    """
    if not isinstance(path, LocationPath):
        return None
    try:
        steps, attribute = _split_attribute(path)
    except ValueError:
        return None
    if attribute is not None and (not attribute_allowed or _attribute_name(attribute) is None):
        return None
    if any(step.axis not in ("child", "self") for step in steps):
        return None
    return sum(1 for step in steps if step.axis == "child")


def _has_column(expr: XPathExpr, kind: str = _TRUTH) -> bool:
    """True if ``expr`` can be computed for a whole candidate set at once.

    ``kind`` is what the column holds: the members at which ``expr`` is
    true, or one number or string per member.  The grammar is the one the
    ``_truth`` / ``_numbers`` / ``_strings`` methods of the evaluator
    implement, case for case; nothing in it can raise at evaluation time
    except a predicate nested in one of its paths.
    """
    if kind == _NUMBERS:
        if isinstance(expr, Number):
            return True
        if isinstance(expr, Negate):
            return _has_column(expr.operand, _NUMBERS)
        if isinstance(expr, BinaryOp) and expr.is_arithmetic():
            return _has_column(expr.left, _NUMBERS) and _has_column(expr.right, _NUMBERS)
        if _is_call(expr, ("count",), 1):
            return _owner_distance(expr.args[0], False) is not None
        return _is_call(expr, ("string-length",), 1) and _has_column(expr.args[0], _STRINGS)
    if kind == _STRINGS:
        if isinstance(expr, Literal):
            return True
        if _is_call(expr, ("string",), 1):
            return _has_column(expr.args[0], _STRINGS)
        return _owner_distance(expr, True) is not None
    if isinstance(expr, BinaryOp):
        if expr.is_boolean():
            return _has_column(expr.left) and _has_column(expr.right)
        if not expr.is_comparison():
            return expr.is_arithmetic() and _has_column(expr, _NUMBERS)
        if isinstance(expr.left, LocationPath) or isinstance(expr.right, LocationPath):
            return (_is_pullable(expr.left) and _constant(expr.right) is not None) or (
                _is_pullable(expr.right) and _constant(expr.left) is not None
            )
        return _scalar_kind(expr.left) is not None and _scalar_kind(expr.right) is not None
    if isinstance(expr, LocationPath):
        return _is_pullable(expr)
    if _is_call(expr, ("not", "boolean"), 1):
        return _has_column(expr.args[0])
    if _is_call(expr, ("true", "false"), 0):
        return True
    if _is_call(expr, ("starts-with", "contains"), 2):
        return all(_has_column(arg, _STRINGS) for arg in expr.args)
    return _scalar_kind(expr) is not None


def _scalar_kind(expr: XPathExpr) -> Optional[str]:
    """``_NUMBERS`` or ``_STRINGS`` if ``expr`` has a column of its static type, else None."""
    try:
        kind = {NUMBER: _NUMBERS, STRING: _STRINGS}.get(static_type(expr))
    except XPathTypeError:  # an unknown function
        return None
    return kind if kind is not None and _has_column(expr, kind) else None


def _positional_value(expr: XPathExpr) -> Optional[Callable[[int, int], XPathValue]]:
    """``expr`` as a function of ``(position, size)``, if it reads nothing else.

    That is the case for expressions over ``position()``, ``last()``,
    numbers and operators; None for any other expression.
    """
    if isinstance(expr, Number):
        number = expr.value
        return lambda position, size: number
    if _is_call(expr, ("position",), 0):
        return lambda position, size: float(position)
    if _is_call(expr, ("last",), 0):
        return lambda position, size: float(size)
    if isinstance(expr, Negate):
        operand = _positional_value(expr.operand)
        return None if operand is None else lambda position, size: negate(operand(position, size))
    if not isinstance(expr, BinaryOp) or expr.is_union():
        return None
    left, right = _positional_value(expr.left), _positional_value(expr.right)
    if left is None or right is None:
        return None
    op = expr.op
    if op == "and":
        return lambda position, size: to_boolean(left(position, size)) and to_boolean(
            right(position, size)
        )
    if op == "or":
        return lambda position, size: to_boolean(left(position, size)) or to_boolean(
            right(position, size)
        )
    if expr.is_comparison():
        holds = _comparator(expr)
        return lambda position, size: holds(left(position, size), right(position, size))
    return lambda position, size: arithmetic(op, left(position, size), right(position, size))


def _comparator(expr: BinaryOp) -> Callable[[XPathValue, XPathValue], bool]:
    """``expr``'s comparison as a function of its two operands' values.

    Two numbers compare by the operator itself; any other pairing goes
    through the conversions of :func:`~repro.evaluation.values.compare`.
    """
    op = expr.op
    if static_type(expr.left) == static_type(expr.right) == NUMBER:
        return NUMERIC_COMPARATORS[op]
    return lambda left, right: compare(op, left, right)


# -- tables and contexts -----------------------------------------------------------


#: Table key of the root context; node uids are never negative.
_ROOT_KEY = -1


class _RootContext(Context):
    """The initial context ``(root, 1, 1)``; its node is built only if something reads it."""

    def __init__(self, document: Document) -> None:
        object.__setattr__(self, "_document", document)

    @property
    def node(self) -> XMLNode:  # type: ignore[override]
        return self._document.root  # type: ignore[attr-defined]

    def key(self) -> tuple[int, int, int]:
        return (_ROOT_KEY, 1, 1)

    def node_key(self) -> int:
        return _ROOT_KEY


class ContextValueTableEvaluator(BaseEvaluator):
    """Polynomial-time full-XPath evaluation via context-value tables."""

    def __init__(
        self, document: Document, variables: Optional[Mapping[str, XPathValue]] = None
    ) -> None:
        super().__init__(document, variables)
        self.index = document.index
        self._universe = self.index.size
        self._root = IdSet.from_sorted([0], self._universe)  # the root's id is 0
        # id(expr) -> (weak reference to expr, is it position-sensitive, its
        # rows).  The reference's callback removes the entry when the
        # expression dies, so an id reused by a later expression finds nothing.
        self._tables: dict[int, tuple[ExprRef, bool, dict[object, XPathValue]]] = {}
        self._weak_self = weakref.ref(self)
        self._entries = 0
        self._latest: Optional[XPathExpr] = None

    def evaluate(self, query: XPathExpr | str, context: Optional[Context] = None) -> XPathValue:
        # Tables die with their expression; holding the latest one keeps the
        # tables of a query given as text readable after it has been answered.
        self._latest = parse(query) if isinstance(query, str) else query
        return super().evaluate(self._latest, context)

    def initial_context(self) -> Context:
        return _RootContext(self.document)

    # -- sharing wrapper --------------------------------------------------------

    def evaluate_expr(self, expr: XPathExpr, context: Context) -> XPathValue:
        table = self._tables.get(id(expr))
        if table is None or table[0]() is not expr:
            table = self._tables[id(expr)] = (
                ExprRef(expr, self._weak_self), is_position_sensitive(expr), {},
            )
        _, sensitive, rows = table
        key = context.key() if sensitive else context.node_key()
        if key in rows:
            return rows[key]
        value = rows[key] = super().evaluate_expr(expr, context)
        self._entries += 1
        return value

    def _forget(self, key: int) -> None:
        """The expression with this id died: drop its table."""
        self._tables.pop(key, None)

    def _tabulated(self, domain: IdSet) -> None:
        """Account for a column: one tuple, and one operation, per member of its domain."""
        self._entries += len(domain)
        self.env.tick(len(domain))

    # -- introspection -------------------------------------------------------------

    def table_entries(self) -> int:
        """Total number of (sub-expression, context) pairs tabulated so far.

        Rows of the per-context tables and rows of the columns alike (a
        column over a domain counts ``|domain|``); the count only grows, so
        it can be read after the expressions, and their tables, are gone.
        This is the space measure the paper's Theorems 7.2/7.3 reason
        about; the data- and query-complexity benches report it alongside
        wall-clock time.
        """
        return self._entries

    def table_count(self) -> int:
        """Number of distinct live sub-expressions that own a per-context table."""
        return len(self._tables)

    # -- location paths ---------------------------------------------------------------

    def evaluate_location_path(self, expr: LocationPath, context: Context) -> NodeSet:
        if expr.absolute or isinstance(context, _RootContext):
            return self._apply_steps(expr.steps, self._root)
        return self._apply_steps(expr.steps, self._frontier_of([context.node]))

    def _evaluate_path_expr(self, expr: PathExpr, context: Context) -> NodeSet:
        """``(start)/tail``: the start node-set is the tail's first frontier."""
        start = self.evaluate_expr(expr.start, context)
        if not isinstance(start, NodeSet):
            raise XPathTypeError("the first operand of '/' must be a node-set")
        if start.ids is not None and start.index is self.index:
            return self._apply_steps(expr.tail.steps, start.ids)
        return self._apply_steps(expr.tail.steps, self._frontier_of(start.nodes))

    def _frontier_of(self, nodes: Sequence[XMLNode]) -> Frontier:
        """``nodes`` as a frontier: ids, unless one of them (an attribute) has none."""
        try:
            return self.index.idset_from_nodes(nodes)
        except KeyError:
            return sort_document_order(nodes)

    def _ids(self, members: list[int]) -> IdSet:
        """Sorted, duplicate-free ids as a set, in the active backend's sequence type."""
        return IdSet.from_sorted(active_backend().prepare_sorted(members), self._universe)

    def _apply_steps(self, steps: Sequence[Step], frontier: Frontier) -> NodeSet:
        """Apply ``steps`` to a duplicate-free frontier in document order.

        Every intermediate frontier is again duplicate-free and in document
        order, which is what bounds it by |D| and hence keeps the whole
        evaluation polynomial.
        """
        for step in steps:
            if not frontier:
                break
            if isinstance(frontier, IdSet):
                frontier = self._step(step, frontier)
            else:
                frontier = self._walk(step, frontier)
        if isinstance(frontier, IdSet):
            return NodeSet.from_idset(frontier, self.index)
        return NodeSet.from_ordered(frontier)

    def _walk(self, step: Step, frontier: Sequence[XMLNode]) -> Frontier:
        """One step by the per-node walk: attribute nodes have no id to step from or to."""
        selected: list[XMLNode] = []
        for node in frontier:
            selected.extend(self.apply_step_to_node(step, node))
        if step.axis == "attribute":
            return sort_document_order(selected)
        return self._frontier_of(selected)  # `self` / `ancestor-or-self` keep attributes

    def _step(self, step: Step, frontier: IdSet) -> Frontier:
        """One step from a frontier of tree nodes, on ids."""
        axis = step.axis
        index = self.index
        if axis == "attribute":
            return self._walk(step, index.idset_to_node_list(frontier))
        test = step.node_test.text()
        if len(frontier) == 1 and axis not in _INTERVAL_AXES:
            listed = index.step_ids(int(frontier.ids[0]), axis, test)
            candidates = self._ids(listed[::-1] if is_reverse_axis(axis) else listed)
        else:
            candidates = index.filter_idset(index.axis_idset(axis, frontier), axis, test)
        self.env.tick(len(frontier) + len(candidates))
        # A context-free predicate keeps or drops a candidate whoever
        # selected it: the leading ones filter the candidate set, the trailing
        # ones the union of what the positional ones in between select.
        predicates = step.predicates
        leading = 0
        while leading < len(predicates) and _is_context_free_filter(predicates[leading]):
            leading += 1
        trailing = len(predicates)
        while trailing > leading and _is_context_free_filter(predicates[trailing - 1]):
            trailing -= 1
        for predicate in predicates[:leading]:
            candidates = self._filter(predicate, candidates)
        if leading < trailing:
            candidates = self._select_by_position(
                step, predicates[leading:trailing], frontier, candidates, leading > 0
            )
        for predicate in predicates[trailing:]:
            candidates = self._filter(predicate, candidates)
        return candidates

    # -- positional predicates: per context node, on ids ------------------------------

    def _select_by_position(
        self,
        step: Step,
        predicates: Sequence[XPathExpr],
        frontier: IdSet,
        candidates: IdSet,
        narrowed: bool,
    ) -> IdSet:
        """Apply predicates that count proximity positions, per context node.

        ``candidates`` is what the step's axis, node test and leading
        predicates leave (``narrowed`` if a predicate dropped any); only the
        context nodes that reach one of them are visited.
        """
        if not candidates:
            return candidates
        index = self.index
        axis, test = step.axis, step.node_test.text()
        if len(frontier) > 1:
            frontier = frontier & index.axis_idset(inverse_axis(axis), candidates)
        members = set(candidates.tolist()) if narrowed else None
        filters = [self._position_filter(predicate) for predicate in predicates]
        selected: list[int] = []
        for context_id in frontier.tolist():
            listed = index.step_ids(context_id, axis, test)  # in axis order
            self.env.tick(1 + len(listed))
            if members is not None:
                listed = [i for i in listed if i in members]
            for keep in filters:
                if not listed:
                    break
                listed = keep(listed)
            selected.extend(listed)
        return self._ids(sorted(set(selected)))

    def _position_filter(self, predicate: XPathExpr) -> Callable[[list[int]], list[int]]:
        """``predicate`` as a filter of one context node's candidates, in axis order."""
        value = _positional_value(predicate)
        if value is None:
            return lambda listed: self._filter_listed(predicate, listed)
        # Which positions survive depends on the size alone.
        kept_of_size: dict[int, list[int]] = {}

        def keep(listed: list[int]) -> list[int]:
            size = len(listed)
            kept = kept_of_size.get(size)
            if kept is None:
                kept = kept_of_size[size] = [
                    position - 1
                    for position in range(1, size + 1)
                    if predicate_selects(value(position, size), position)
                ]
            return [listed[at] for at in kept]

        return keep

    def _filter_listed(self, predicate: XPathExpr, listed: list[int]) -> list[int]:
        """:meth:`filter_by_predicate`, on nodes, for one context node's candidates given as ids."""
        kept = self.filter_by_predicate(self.index.ids_to_node_list(listed), predicate)
        return [self.index.id_of(node) for node in kept]

    # -- context-free predicates: once for the whole candidate set ----------------------

    def _filter(self, predicate: XPathExpr, candidates: IdSet) -> IdSet:
        """The candidates a context-free ``predicate`` keeps."""
        if not candidates:
            return candidates
        if _has_column(predicate):
            return self._truth(predicate, candidates)
        nodes = self.index.idset_to_node_list(candidates)
        return self._ids([
            i
            for i, node in zip(candidates.tolist(), nodes)
            if to_boolean(self.evaluate_expr(predicate, Context(node)))
        ])

    def _pick(self, domain: IdSet, flags: Iterable[object]) -> IdSet:
        return self._ids([i for i, flag in zip(domain.tolist(), flags) if flag])

    def _truth(self, expr: XPathExpr, domain: IdSet) -> IdSet:
        """The members of ``domain`` at which ``boolean(expr)`` holds (see :func:`_has_column`)."""
        if not domain:
            return domain
        self._tabulated(domain)
        if isinstance(expr, BinaryOp) and expr.is_boolean():
            # XPath's short-circuit: the right operand only sees the members
            # the left one did not decide.
            left = self._truth(expr.left, domain)
            if expr.op == "and":
                return self._truth(expr.right, left)
            return left | self._truth(expr.right, domain - left)
        if isinstance(expr, BinaryOp) and expr.is_comparison():
            for path, other, path_on_left in (
                (expr.left, expr.right, True), (expr.right, expr.left, False),
            ):
                if isinstance(path, LocationPath):
                    passes = string_value_test(expr.op, _constant(other), path_on_left)
                    return self._owners(path, domain, passes)
            left, right = self._scalars(expr.left, domain), self._scalars(expr.right, domain)
            return self._pick(domain, map(_comparator(expr), left, right))
        if isinstance(expr, LocationPath):
            return self._owners(expr, domain, None)
        if isinstance(expr, FunctionCall):
            if expr.name == "not":
                return domain - self._truth(expr.args[0], domain)
            if expr.name == "boolean":
                return self._truth(expr.args[0], domain)
            if expr.name == "true":
                return domain
            if expr.name == "false":
                return IdSet.empty(self._universe)
            if expr.name in ("starts-with", "contains"):
                left, right = (self._strings(arg, domain) for arg in expr.args)
                if expr.name == "contains":
                    return self._pick(domain, (b in a for a, b in zip(left, right)))
                return self._pick(domain, (a.startswith(b) for a, b in zip(left, right)))
        return self._pick(domain, map(to_boolean, self._scalars(expr, domain)))

    def _scalars(self, expr: XPathExpr, domain: IdSet) -> list:
        if static_type(expr) == NUMBER:
            return self._numbers(expr, domain)
        return self._strings(expr, domain)

    def _numbers(self, expr: XPathExpr, domain: IdSet) -> list[float]:
        """``expr``'s number at each member of ``domain``, in order."""
        self._tabulated(domain)
        if isinstance(expr, Number):
            return [expr.value] * len(domain)
        if isinstance(expr, Negate):
            return [negate(value) for value in self._numbers(expr.operand, domain)]
        if isinstance(expr, BinaryOp):
            left, right = self._numbers(expr.left, domain), self._numbers(expr.right, domain)
            return [arithmetic(expr.op, a, b) for a, b in zip(left, right)]
        assert isinstance(expr, FunctionCall)
        if expr.name == "string-length":
            return [float(len(value)) for value in self._strings(expr.args[0], domain)]
        counts = dict.fromkeys(domain.tolist(), 0.0)
        for owner, _ in self._targets_by_owner(expr.args[0], domain):
            counts[owner] += 1.0
        return list(counts.values())

    def _strings(self, expr: XPathExpr, domain: IdSet) -> list[str]:
        """``expr``'s string at each member of ``domain``, in order."""
        self._tabulated(domain)
        if isinstance(expr, Literal):
            return [expr.value] * len(domain)
        if isinstance(expr, FunctionCall):  # string(e)
            return self._strings(expr.args[0], domain)
        # A node-set as a string: the string-value of its first node.
        assert isinstance(expr, LocationPath)
        attribute = _split_attribute(expr)[1]
        pairs = self._targets_by_owner(expr, domain)
        if attribute is None:
            first: dict[int, int] = {}
            for owner, target in pairs:
                first.setdefault(owner, target)
            values = dict(zip(first, self._string_values(first.values())))
        else:
            # The first target is the attribute of the first element that has it.
            name = _attribute_name(attribute)
            values = {}
            for owner, element in pairs:
                if owner not in values:
                    for value in self._attribute_values(element, name):
                        values[owner] = value
        return [values.get(member, "") for member in domain.tolist()]

    def _targets_by_owner(self, path: LocationPath, domain: IdSet) -> Iterator[tuple[int, int]]:
        """``(owner, target)`` for every target of a child/self chain, in document order."""
        steps, _ = _split_attribute(path)
        distance = sum(1 for step in steps if step.axis == "child")
        targets = self._apply_steps(steps, domain)
        parent = self.index.parent
        for target in targets.ids.tolist():  # type: ignore[union-attr]
            owner = target
            for _ in range(distance):
                owner = parent[owner]
            yield owner, target

    def _owners(
        self, path: LocationPath, domain: IdSet, passes: Optional[Callable[[str], bool]]
    ) -> IdSet:
        """The members of ``domain`` from which ``path`` selects a node that ``passes``.

        ``passes`` tests a target's string-value (None: any target will do).
        The path is applied forward from the whole domain, the targets are
        tested once each, and the survivors are pulled back through the
        inverse axes, each time within the frontier that step started from.
        """
        steps, attribute = _split_attribute(path)
        index = self.index
        frontiers = [domain]
        for step in steps:
            frontier = self._step(step, frontiers[-1])
            assert isinstance(frontier, IdSet)
            if not frontier:
                return frontier
            frontiers.append(frontier)
        witnesses = frontiers.pop()
        if attribute is not None:
            name = _attribute_name(attribute)
            witnesses = self._ids([
                element
                for element in witnesses.tolist()
                if any(
                    passes is None or passes(value)
                    for value in self._attribute_values(element, name)
                )
            ])
        elif passes is not None:
            targets = witnesses.tolist()
            witnesses = self._pick(witnesses, map(passes, self._string_values(targets)))
        for step in reversed(steps):
            if not witnesses:
                break
            witnesses = frontiers.pop() & index.axis_idset(inverse_axis(step.axis), witnesses)
        return witnesses

    # -- string-values from the columns ---------------------------------------------

    def _string_values(self, node_ids: Iterable[int]) -> list[str]:
        """The XPath string-values of tree nodes, read from the columns."""
        columns = self.index.columns
        kinds, texts, strings, subtree_end = (
            columns.kinds, columns.texts, columns.strings, columns.subtree_end,
        )
        values = []
        for node_id in node_ids:
            end = subtree_end[node_id]
            if end == node_id:  # a leaf: its own character data, if it has any
                values.append(strings[texts[node_id]] if texts[node_id] != -1 else "")
            elif end == node_id + 1:  # an only child
                values.append(strings[texts[end]] if kinds[end] == KIND_TEXT else "")
            else:
                values.append("".join([
                    strings[texts[i]] for i in range(node_id + 1, end + 1) if kinds[i] == KIND_TEXT
                ]))
        return values

    def _attribute_values(self, element: int, name: Optional[str]) -> Iterator[str]:
        """The values of ``element``'s attributes called ``name`` (of all of them for None)."""
        columns = self.index.columns
        strings, names = columns.strings, columns.attr_names
        for slot in range(columns.attr_offsets[element], columns.attr_offsets[element + 1]):
            if name is None or strings[names[slot]] == name:
                yield strings[columns.attr_values[slot]]
