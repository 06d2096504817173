"""The context-value-table dynamic-programming evaluator (Proposition 2.7).

This is the algorithm whose existence makes the combined complexity of full
XPath 1.0 polynomial: for every node of the query parse tree a
*context-value table* is maintained that maps evaluation contexts to the
value of that sub-expression, and every (sub-expression, context) pair is
computed at most once.

Two ingredients give the polynomial bound:

* **Sharing.**  The table lookup in :meth:`evaluate_expr` means a
  sub-expression is never re-evaluated for a context it has been evaluated
  in before — the paper's "one tuple for each meaningful context"
  (Theorem 7.2's proof sketch).
* **Set-at-a-time location paths.**  A location path is evaluated step by
  step over a *deduplicated* frontier of nodes in document order, so the
  number of intermediate nodes never exceeds |D| regardless of how many
  navigation paths lead to them; the naive evaluator differs exactly here.
  A step is applied to the frontier as a set wherever its meaning allows
  (:meth:`ContextValueTableEvaluator._apply_step_to_frontier`).  The
  candidate set ``C`` of a navigational step from a frontier ``F`` of tree
  nodes is two calls into the document's one axis algebra,
  ``filter_idset(axis_idset(axis, F), axis, test)``, already in document
  order.  Then one of four cases applies:

  1. no predicates: ``C`` is the next frontier;
  2. every predicate is position-free and cannot be a number: whether a
     candidate survives does not depend on which context node selected it,
     so each predicate is evaluated once per member of ``C`` (filling the
     tables exactly as a per-node walk would, without its
     context-node x candidate loop);
  3. ``position()``/``last()`` or a numeric (or statically unknown) value:
     proximity positions count per context node, so the per-node walk of
     :meth:`BaseEvaluator.apply_step_to_node` stays, but only over
     ``F & axis_idset(inverse_axis(axis), C)`` -- the context nodes that
     have a candidate at all;
  4. the per-node walk alone, for what it is the only correct or the
     cheaper path for: the ``attribute`` axis, context nodes with no
     document-order id (attributes), and frontiers below
     :data:`SETWISE_MIN_FRONTIER`.

  ``(start)/tail`` path expressions seed the same loop with the whole
  start node-set.  The choice is made from the step and the frontier
  alone; :class:`~repro.evaluation.naive.NaiveEvaluator` keeps the per-node
  walk throughout and is the kernel-free oracle.

Context keys respect position-sensitivity: a sub-expression that does not
use ``position()``/``last()`` at its own level is tabulated per context
node only, which keeps tables small (this is the practical refinement the
authors describe in their companion papers [3, 4]).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.errors import XPathTypeError
from repro.evaluation.base import BaseEvaluator
from repro.evaluation.context import Context
from repro.evaluation.values import NodeSet, XPathValue, to_boolean
from repro.xmlmodel.axes import inverse_axis, is_reverse_axis
from repro.xmlmodel.document import Document
from repro.xmlmodel.idset import IdSet
from repro.xmlmodel.nodes import XMLNode, sort_document_order
from repro.xpath.analysis import is_position_sensitive
from repro.xpath.ast import LocationPath, PathExpr, Step, XPathExpr
from repro.xpath.functions import NUMBER, OBJECT, static_type

#: Frontiers smaller than this stay on the per-node walk.  Whatever the
#: frontier size, a set-wise step costs two kernel calls plus the id/node
#: conversions -- 15-40 us by the ledger's ``xmlmodel.kernels.axis_us.*`` and
#: ``filter_us`` rows -- and a predicate-free per-node walk about 2 us, so
#: the kernels repay themselves from sixteen context nodes on (the measured
#: break-even under both kernel backends).
SETWISE_MIN_FRONTIER = 16


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


class ContextValueTableEvaluator(BaseEvaluator):
    """Polynomial-time full-XPath evaluation via context-value tables."""

    def __init__(
        self, document: Document, variables: Optional[Mapping[str, XPathValue]] = None
    ) -> None:
        super().__init__(document, variables)
        self._tables: dict[int, dict[object, XPathValue]] = {}
        self._sensitivity: dict[int, bool] = {}
        # Tables are keyed by id(expr); pin every tabulated expression so a
        # garbage-collected AST can never hand its id (and hence its stale
        # table) to a structurally different expression parsed later.
        self._pinned: dict[int, XPathExpr] = {}

    # -- sharing wrapper --------------------------------------------------------

    def evaluate_expr(self, expr: XPathExpr, context: Context) -> XPathValue:
        table = self._tables.get(id(expr))
        if table is None:
            table = self._tables[id(expr)] = {}
            self._pinned[id(expr)] = expr
        key = self._context_key(expr, context)
        if key in table:
            return table[key]
        value = super().evaluate_expr(expr, context)
        table[key] = value
        return value

    def _context_key(self, expr: XPathExpr, context: Context):
        expr_id = id(expr)
        sensitive = self._sensitivity.get(expr_id)
        if sensitive is None:
            sensitive = is_position_sensitive(expr)
            self._sensitivity[expr_id] = sensitive
        return context.key() if sensitive else context.node_key()

    # -- introspection -------------------------------------------------------------

    def table_entries(self) -> int:
        """Total number of (sub-expression, context) pairs tabulated so far.

        This is the space measure the paper's Theorems 7.2/7.3 reason
        about; the data- and query-complexity benches report it alongside
        wall-clock time.
        """
        return sum(len(table) for table in self._tables.values())

    def table_count(self) -> int:
        """Number of distinct sub-expressions that own a table."""
        return len(self._tables)

    # -- location paths ---------------------------------------------------------------

    def evaluate_location_path(self, expr: LocationPath, context: Context) -> NodeSet:
        start = self.document.root if expr.absolute else context.node
        return self._apply_steps(expr.steps, [start])

    def _evaluate_path_expr(self, expr: PathExpr, context: Context) -> NodeSet:
        """``(start)/tail``: the start node-set is the tail's first frontier."""
        start_value = self.evaluate_expr(expr.start, context)
        if not isinstance(start_value, NodeSet):
            raise XPathTypeError("the first operand of '/' must be a node-set")
        return self._apply_steps(expr.tail.steps, start_value.nodes)

    def _apply_steps(self, steps: Sequence[Step], frontier: Sequence[XMLNode]) -> NodeSet:
        for step in steps:
            frontier = self._apply_step_to_frontier(step, frontier)
        return NodeSet.from_ordered(frontier)

    def _apply_step_to_frontier(
        self, step: Step, frontier: Sequence[XMLNode]
    ) -> list[XMLNode]:
        """Apply one step to a duplicate-free frontier in document order.

        The result is again duplicate-free and in document order, which is
        what bounds every frontier by |D| and hence keeps the whole
        evaluation polynomial.  ``frontier`` is never mutated.
        """
        if len(frontier) == 1:
            # One context node: axis order is document order, or its reverse.
            selected = self.apply_step_to_node(step, frontier[0])
            return selected[::-1] if is_reverse_axis(step.axis) else selected
        if len(frontier) >= SETWISE_MIN_FRONTIER and step.axis != "attribute":
            try:
                context_ids = self.document.index.idset_from_nodes(frontier)
            except KeyError:
                pass  # an attribute node in the frontier: it has no id to step from
            else:
                return self._apply_step_setwise(step, context_ids)
        return self._apply_step_per_node(step, frontier)

    def _apply_step_per_node(self, step: Step, frontier: Sequence[XMLNode]) -> list[XMLNode]:
        collected: list[XMLNode] = []
        for node in frontier:
            collected.extend(self.apply_step_to_node(step, node))
        return sort_document_order(collected)

    def _apply_step_setwise(self, step: Step, context_ids: IdSet) -> list[XMLNode]:
        """Apply a navigational step to a whole frontier of tree nodes at once."""
        index = self.document.index
        axis = step.axis
        candidates = index.filter_idset(
            index.axis_idset(axis, context_ids), axis, step.node_test.text()
        )
        self.env.tick(len(context_ids) + len(candidates))
        if not candidates:
            return []
        if not all(_is_context_free_filter(p) for p in step.predicates):
            # position()/last()/numeric predicates count per context node, so
            # the per-node walk stays -- over the context nodes that reach a
            # candidate at all.
            reaching = context_ids & index.axis_idset(inverse_axis(axis), candidates)
            return self._apply_step_per_node(step, index.idset_to_node_list(reaching))
        selected = index.idset_to_node_list(candidates)
        for predicate in step.predicates:
            selected = [
                node
                for node in selected
                if to_boolean(self.evaluate_expr(predicate, Context(node)))
            ]
        return selected
