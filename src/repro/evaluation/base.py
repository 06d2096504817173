"""Shared expression-evaluation machinery for the naive and DP evaluators.

The two full-XPath evaluators (:class:`repro.evaluation.naive.NaiveEvaluator`
and :class:`repro.evaluation.cvt.ContextValueTableEvaluator`) implement the
same W3C semantics and differ *only* in their evaluation strategy for
location paths and in whether (sub-expression, context) results are shared.
Everything strategy-independent — operator semantics, the core function
library, predicate filtering with positional renumbering, filter and path
expressions — lives here so the complexity difference between the two is
isolated to the two strategy hooks.

:class:`ExprRef` is the one lifetime rule of the evaluators' per-expression
caches (``core``'s condition sets, ``cvt``'s tables): an entry lives as
long as its expression object.
"""

from __future__ import annotations

import weakref
from typing import Callable, Mapping, Optional, Sequence

from repro.errors import XPathEvaluationError, XPathTypeError
from repro.evaluation.context import Context, Environment, initial_context
from repro.evaluation.library import call_function
from repro.evaluation.values import (
    NodeSet,
    XPathValue,
    arithmetic,
    compare,
    negate,
    to_boolean,
)
from repro.xmlmodel.axes import axis_step, is_reverse_axis
from repro.xmlmodel.document import Document
from repro.xmlmodel.nodes import XMLNode
from repro.xpath.ast import (
    BinaryOp,
    FilterExpr,
    FunctionCall,
    Literal,
    LocationPath,
    Negate,
    Number,
    PathExpr,
    Step,
    VariableReference,
    XPathExpr,
)
from repro.xpath.functions import validate_call
from repro.xpath.parser import parse


class ExprRef(weakref.ref):
    """A weak reference to a cached expression that can find its own cache entry.

    The ``weakref.KeyedRef`` pattern: the cache key (``id(expr)``) and a
    *weak* reference to the owning evaluator ride on the reference
    itself, so the one module-level callback below needs no closure —
    nothing reachable from a callback points back at an evaluator or its
    cache, and a dropped evaluator (and the document under it) is freed
    by reference counting.  The owner's ``_forget(key)`` drops the entry
    when the expression dies, before its id can be reused.
    """

    __slots__ = ("key", "owner")

    def __new__(cls, expr: XPathExpr, owner: "weakref.ref"):
        self = super().__new__(cls, expr, _forget_expr)
        self.key = id(expr)
        self.owner = owner
        return self

    def __init__(self, expr: XPathExpr, owner: "weakref.ref") -> None:
        super().__init__(expr, _forget_expr)


def _forget_expr(reference: ExprRef) -> None:
    evaluator = reference.owner()
    if evaluator is not None:
        evaluator._forget(reference.key)


def predicate_selects(value: XPathValue, position: int) -> bool:
    """Whether a predicate that evaluated to ``value`` keeps the node at ``position``.

    A number selects the node at that proximity position; any other value
    is converted to boolean (XPath 1.0 section 2.4).
    """
    if isinstance(value, float):
        return value == float(position)
    return to_boolean(value)


class BaseEvaluator:
    """Semantics shared by the naive and context-value-table evaluators.

    Parameters
    ----------
    document:
        The document queries are evaluated against.
    variables:
        Optional variable bindings for ``$name`` references.
    """

    def __init__(
        self, document: Document, variables: Optional[Mapping[str, XPathValue]] = None
    ) -> None:
        self.document = document
        self.env = Environment(document, dict(variables or {}))

    # -- public API -----------------------------------------------------------

    def evaluate(self, query: XPathExpr | str, context: Optional[Context] = None) -> XPathValue:
        """Evaluate ``query`` (AST or source text) and return its XPath value."""
        expr = parse(query) if isinstance(query, str) else query
        if context is None:
            context = self.initial_context()
        return self.evaluate_expr(expr, context)

    def initial_context(self) -> Context:
        """The context a query without one is evaluated in: the root, position 1 of 1."""
        return initial_context(self.document)

    def evaluate_nodes(
        self, query: XPathExpr | str, context: Optional[Context] = None
    ) -> list[XMLNode]:
        """Evaluate ``query`` and return the resulting nodes in document order.

        Raises :class:`XPathTypeError` if the query does not produce a node-set.
        """
        value = self.evaluate(query, context)
        if not isinstance(value, NodeSet):
            raise XPathTypeError(
                f"query returned {type(value).__name__}, not a node-set"
            )
        return list(value.nodes)

    @property
    def operations(self) -> int:
        """Number of elementary evaluation operations performed so far."""
        return self.env.operations

    # -- dispatch -----------------------------------------------------------------

    def evaluate_expr(self, expr: XPathExpr, context: Context) -> XPathValue:
        """Evaluate ``expr`` in ``context``; subclasses may wrap this with sharing."""
        self.env.tick()
        if isinstance(expr, LocationPath):
            return self.evaluate_location_path(expr, context)
        if isinstance(expr, PathExpr):
            return self._evaluate_path_expr(expr, context)
        if isinstance(expr, FilterExpr):
            return self._evaluate_filter_expr(expr, context)
        if isinstance(expr, BinaryOp):
            return self._evaluate_binary(expr, context)
        if isinstance(expr, Negate):
            return negate(self.evaluate_expr(expr.operand, context))
        if isinstance(expr, FunctionCall):
            return self._evaluate_function_call(expr, context)
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, Number):
            return expr.value
        if isinstance(expr, VariableReference):
            return self.env.variable(expr.name)
        if isinstance(expr, Step):
            # A bare step only occurs when a Step is evaluated as a relative
            # location path of length one (the reductions build such ASTs).
            return self.evaluate_location_path(LocationPath(False, (expr,)), context)
        raise XPathTypeError(f"cannot evaluate {type(expr).__name__}")

    # -- strategy hook -------------------------------------------------------------

    def evaluate_location_path(self, expr: LocationPath, context: Context) -> NodeSet:
        """Evaluate a location path; implemented by each concrete evaluator."""
        raise NotImplementedError

    # -- strategy-independent constructs ----------------------------------------------

    def _evaluate_path_expr(self, expr: PathExpr, context: Context) -> NodeSet:
        start_value = self.evaluate_expr(expr.start, context)
        if not isinstance(start_value, NodeSet):
            raise XPathTypeError("the first operand of '/' must be a node-set")
        collected: list[XMLNode] = []
        for node in start_value:
            tail_value = self.evaluate_location_path(
                expr.tail, context.with_node(node)
            )
            collected.extend(tail_value.nodes)
        return NodeSet(collected)

    def _evaluate_filter_expr(self, expr: FilterExpr, context: Context) -> NodeSet:
        value = self.evaluate_expr(expr.primary, context)
        if not isinstance(value, NodeSet):
            raise XPathTypeError("predicates may only be applied to node-sets")
        nodes = list(value.nodes)
        for predicate in expr.predicates:
            nodes = self.filter_by_predicate(nodes, predicate)
        return NodeSet.from_ordered(nodes)

    def _evaluate_binary(self, expr: BinaryOp, context: Context) -> XPathValue:
        if expr.op == "or":
            if to_boolean(self.evaluate_expr(expr.left, context)):
                return True
            return to_boolean(self.evaluate_expr(expr.right, context))
        if expr.op == "and":
            if not to_boolean(self.evaluate_expr(expr.left, context)):
                return False
            return to_boolean(self.evaluate_expr(expr.right, context))
        left = self.evaluate_expr(expr.left, context)
        right = self.evaluate_expr(expr.right, context)
        if expr.op == "|":
            if not isinstance(left, NodeSet) or not isinstance(right, NodeSet):
                raise XPathTypeError("operands of '|' must be node-sets")
            return left.union(right)
        if expr.is_comparison():
            return compare(expr.op, left, right)
        if expr.is_arithmetic():
            return arithmetic(expr.op, left, right)
        raise XPathTypeError(f"unknown operator {expr.op!r}")

    def _evaluate_function_call(self, expr: FunctionCall, context: Context) -> XPathValue:
        validate_call(expr)
        args = [self.evaluate_expr(arg, context) for arg in expr.args]
        return call_function(expr.name, args, context, self.env)

    # -- predicates --------------------------------------------------------------------

    def filter_by_predicate(
        self, candidates: Sequence[XMLNode], predicate: XPathExpr
    ) -> list[XMLNode]:
        """Filter ``candidates`` (already in the relevant proximity order) by a predicate.

        A numeric predicate value selects the node at that proximity
        position; any other value is converted to boolean.
        """
        size = len(candidates)
        kept: list[XMLNode] = []
        for position, node in enumerate(candidates, start=1):
            value = self.evaluate_expr(predicate, Context(node, position, size))
            if predicate_selects(value, position):
                kept.append(node)
        return kept

    def apply_step_to_node(self, step: Step, node: XMLNode) -> list[XMLNode]:
        """Apply one location step to a single context node.

        Returns the selected nodes in axis order (the order ``position()``
        counts in); callers that need document order must sort.  When the
        document carries a :class:`~repro.xmlmodel.index.DocumentIndex` the
        navigational axes are enumerated from the index arrays instead of
        walking node objects; the attribute axis and attribute context
        nodes fall back to the object walk.
        """
        self.env.tick()
        candidates = self._step_candidates(step, node)
        self.env.tick(len(candidates))
        for predicate in step.predicates:
            candidates = self.filter_by_predicate(candidates, predicate)
        return candidates

    def _step_candidates(self, step: Step, node: XMLNode) -> list[XMLNode]:
        """Enumerate ``step``'s axis from ``node``, indexed when possible."""
        if step.axis != "attribute":
            index = getattr(self.document, "index", None)
            if index is not None:
                try:
                    node_id = index.id_of(node)
                except KeyError:
                    pass
                else:
                    return index.ids_to_node_list(
                        index.step_ids(node_id, step.axis, step.node_test.text())
                    )
        return axis_step(node, step.axis, step.node_test.text())
