"""Id-native linear-time evaluation of Core XPath (Proposition 2.7, second part).

Core XPath (Definition 2.5) has location paths, the navigational axes and
boolean conditions built from ``and``, ``or``, ``not`` and location paths.
The evaluator in this module runs in time O(|D| · |Q|), and — new since
the id-native rewrite — never touches a node object between parsing and
the final materialisation:

* frontiers and condition sets are
  :class:`~repro.xmlmodel.idset.IdSet` values over the document-order ids
  of the :class:`~repro.xmlmodel.index.DocumentIndex` (sorted id arrays,
  or bitmasks where both operands of an operation were dense);
* each step applies its axis to the whole frontier in O(|D|) using the
  id-set kernels of the index (interval arithmetic for
  ``descendant``/``following``/``preceding``, array-chain sweeps for the
  rest), then restricts by the node test and the predicates' condition
  sets — a sparse frontier is probed into each and stays a sorted id
  array, so the next axis kernel reads it as is;
* every condition is compiled to the *id set of nodes satisfying it*
  (``E[bexpr]`` in the proof discussion), computed bottom-up; ``and`` /
  ``or`` / ``not`` become ``&`` / ``|`` / complement on those sets;
* a location path used as a condition is evaluated *backwards* through
  inverse axes, so it also costs one O(|D|) pass per step;
* condition sets are cached per sub-expression, so each of the |Q|
  sub-expressions contributes O(|D|) work; an entry lives exactly as long
  as its expression object (in practice: as long as the plan cache keeps
  the plan), so evicted plans leave nothing behind;
* ids are pre-order ranks, so the final id array *is* document order —
  the result is materialised into nodes exactly once, at the API
  boundary (:meth:`CoreXPathEvaluator.evaluate_nodes`), with no sort.

This is the only Core XPath evaluator and the id-set kernels are the
only set-at-a-time axis algebra; their oracle is the per-node walk of
:mod:`repro.xmlmodel.axes` (and ``naive`` for whole queries), which
shares no code with them; ``cvt`` applies its large frontiers through
the same kernels.  The one input ids cannot express — a
context node outside the indexed tree (an attribute node) — is answered
by :class:`~repro.evaluation.cvt.ContextValueTableEvaluator`, one
evaluation per context node.

The evaluator rejects queries outside Core XPath with
:class:`~repro.errors.FragmentViolationError`; use the full-XPath
evaluators for anything richer.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Optional

from repro.errors import FragmentViolationError, XPathEvaluationError
from repro.evaluation.base import ExprRef
from repro.evaluation.context import Context
from repro.evaluation.cvt import ContextValueTableEvaluator
from repro.fragments.classify import violations_core_xpath
from repro.xmlmodel.axes import CORE_XPATH_AXES, inverse_axis
from repro.xmlmodel.document import Document
from repro.xmlmodel.idset import IdSet
from repro.xmlmodel.nodes import XMLNode, sort_document_order
from repro.xpath.ast import (
    BinaryOp,
    FunctionCall,
    LocationPath,
    Step,
    XPathExpr,
)
from repro.xpath.parser import parse


class CoreXPathEvaluator:
    """O(|D| · |Q|) evaluation of Core XPath queries, natively on id sets.

    One evaluator instance serves any number of queries against its
    document; condition sets are cached across queries for as long as
    the expression objects they belong to are alive, and
    ``axis_applications`` counts the set-at-a-time axis applications
    performed (the cost measure of the linear-time argument).

    >>> from repro.xmlmodel import parse_xml
    >>> document = parse_xml("<a><b><c/></b><b/></a>")
    >>> evaluator = CoreXPathEvaluator(document)
    >>> [node.tag for node in evaluator.evaluate_nodes("//b[child::c]")]
    ['b']
    >>> evaluator.evaluate_ids("//b")
    [2, 4]
    """

    def __init__(self, document: Document) -> None:
        self.document = document
        self.index = document.index
        self._universe = self.index.size
        # id(expr) -> (weak reference to expr, its condition set).  The
        # reference's callback removes the entry when the expression dies,
        # so an id reused by a later, different expression finds nothing.
        self._condition_cache: dict[int, tuple[ExprRef, IdSet]] = {}
        self._weak_self = weakref.ref(self)
        # Immutable, so one instance of each serves every query.
        self._root = IdSet.from_sorted([0], self._universe)  # the root's id is 0
        self._everything = IdSet.full(self._universe)
        #: Number of set-at-a-time axis applications performed (cost measure).
        self.axis_applications = 0

    # -- public API ----------------------------------------------------------

    def evaluate_nodes(
        self,
        query: XPathExpr | str,
        context_nodes: Optional[Iterable[XMLNode]] = None,
    ) -> list[XMLNode]:
        """Evaluate a Core XPath query and return the result in document order.

        ``context_nodes`` is the set of context nodes for a relative query;
        it defaults to the document root (so absolute and relative queries
        both work out of the box).  This is the single point where ids are
        materialised back into nodes.
        """
        expr = parse(query) if isinstance(query, str) else query
        if context_nodes is None:
            starts = self._root
        else:
            nodes = list(context_nodes)
            try:
                starts = self.index.idset_from_nodes(nodes)
            except KeyError:
                # A context node without a document-order id (an attribute
                # node): no kernel can step from it.
                return self._evaluate_per_node(expr, nodes)
        return self.index.idset_to_node_list(self._evaluate_union(expr, starts))

    def evaluate_idset(
        self,
        query: XPathExpr | str,
        context_ids: Optional[Iterable[int]] = None,
    ) -> IdSet:
        """Evaluate a Core XPath query entirely on ids; the answer stays an :class:`IdSet`.

        The entry point for callers that stay id-native themselves — the
        planner uses it, so an ``engine="auto"`` answer leaves kernel
        land only at the conversion its caller asks for
        (:meth:`~repro.xmlmodel.idset.IdSet.tolist`, ``tobytes`` or node
        materialisation).  ``context_ids`` defaults to the root.
        """
        expr = parse(query) if isinstance(query, str) else query
        if context_ids is None:
            starts = self._root
        else:
            members = list(context_ids)
            universe = self._universe
            if any(not 0 <= i < universe for i in members):
                raise XPathEvaluationError(
                    f"context ids must lie in [0, {universe}); got "
                    f"{[i for i in members if not 0 <= i < universe][:5]}"
                )
            starts = IdSet.from_iterable(members, universe)
        return self._evaluate_union(expr, starts)

    def evaluate_ids(
        self,
        query: XPathExpr | str,
        context_ids: Optional[Iterable[int]] = None,
    ) -> list[int]:
        """:meth:`evaluate_idset` as a plain list: the selected ids ascending (= document order)."""
        return self.evaluate_idset(query, context_ids).tolist()

    def condition_nodes(self, condition: XPathExpr | str) -> list[XMLNode]:
        """Return, in document order, the nodes at which ``condition`` holds.

        This is the set ``E[bexpr]`` of the linear-time algorithm and the
        paper's notation ``[[φ]]`` for condition expressions.
        """
        expr = parse(condition) if isinstance(condition, str) else condition
        return self.index.idset_to_node_list(self._condition_set(expr))

    # -- helpers --------------------------------------------------------------

    def _evaluate_per_node(self, expr: XPathExpr, nodes: list[XMLNode]) -> list[XMLNode]:
        """Answer a Core XPath query from contexts that have no id.

        One context-value-table evaluation per context node, merged into
        document order.  ``cvt`` accepts all of XPath, so Definition 2.5
        membership (the check the planner dispatches on) is enforced here.
        """
        violations = violations_core_xpath(expr)
        if violations:
            raise FragmentViolationError("Core XPath", violations)
        evaluator = ContextValueTableEvaluator(self.document)
        selected: list[XMLNode] = []
        for node in nodes:
            selected.extend(evaluator.evaluate_nodes(expr, Context(node)))
        return sort_document_order(selected)

    # -- top level ------------------------------------------------------------

    def _evaluate_union(self, expr: XPathExpr, starts: IdSet) -> IdSet:
        if isinstance(expr, BinaryOp) and expr.op == "|":
            return self._evaluate_union(expr.left, starts) | self._evaluate_union(
                expr.right, starts
            )
        if isinstance(expr, LocationPath):
            return self._evaluate_path(expr, starts)
        raise FragmentViolationError(
            "Core XPath",
            [f"top-level expression must be a location path or union, got {type(expr).__name__}"],
        )

    # -- location paths --------------------------------------------------------

    def _evaluate_path(self, path: LocationPath, starts: IdSet) -> IdSet:
        frontier = self._root if path.absolute else starts
        for step in path.steps:
            frontier = self._apply_step(step, frontier)
            if not frontier:
                return frontier
        return frontier

    def _apply_step(self, step: Step, frontier: IdSet) -> IdSet:
        self._require_navigational(step)
        self.axis_applications += 1
        reached = self.index.axis_idset(step.axis, frontier)
        selected = self.index.filter_idset(reached, step.axis, step.node_test.text())
        for predicate in step.predicates:
            if not selected:
                break
            selected = selected & self._condition_set(predicate)
        return selected

    # -- condition sets -----------------------------------------------------------

    def _condition_set(self, expr: XPathExpr) -> IdSet:
        cached = self._condition_cache.get(id(expr))
        if cached is not None and cached[0]() is expr:
            return cached[1]
        result = self._compute_condition_set(expr)
        self._condition_cache[id(expr)] = (ExprRef(expr, self._weak_self), result)
        return result

    def _forget(self, key: int) -> None:
        """The expression with this id died: drop its condition set."""
        self._condition_cache.pop(key, None)

    def _compute_condition_set(self, expr: XPathExpr) -> IdSet:
        if isinstance(expr, BinaryOp) and expr.op == "and":
            return self._condition_set(expr.left) & self._condition_set(expr.right)
        if isinstance(expr, BinaryOp) and expr.op == "or":
            return self._condition_set(expr.left) | self._condition_set(expr.right)
        if isinstance(expr, FunctionCall) and expr.name == "not" and len(expr.args) == 1:
            return self._condition_set(expr.args[0]).complement()
        if isinstance(expr, FunctionCall) and expr.name == "true" and not expr.args:
            return self._everything
        if isinstance(expr, FunctionCall) and expr.name == "false" and not expr.args:
            return IdSet.empty(self._universe)
        if isinstance(expr, FunctionCall) and expr.name == "boolean" and len(expr.args) == 1:
            return self._condition_set(expr.args[0])
        if isinstance(expr, BinaryOp) and expr.op == "|":
            return self._condition_set(expr.left) | self._condition_set(expr.right)
        if isinstance(expr, LocationPath):
            return self._path_condition_set(expr)
        raise FragmentViolationError(
            "Core XPath",
            [
                "conditions may only use and/or/not and location paths; "
                f"found {type(expr).__name__} ({expr})"
            ],
        )

    def _path_condition_set(self, path: LocationPath) -> IdSet:
        """Ids from which ``path`` selects at least one node, via inverse axes."""
        if path.absolute:
            matches = self._evaluate_path(path, self._root)
            return self._everything if matches else IdSet.empty(self._universe)
        # Work backwards: witnesses is the set of ids y such that the steps
        # processed so far succeed when y is the node selected by the step
        # immediately before them.
        witnesses = self._everything
        for step in reversed(path.steps):
            self._require_navigational(step)
            satisfying = self.index.filter_idset(
                witnesses, step.axis, step.node_test.text()
            )
            for predicate in step.predicates:
                satisfying = satisfying & self._condition_set(predicate)
            self.axis_applications += 1
            witnesses = self.index.axis_idset(inverse_axis(step.axis), satisfying)
        return witnesses

    # -- validation -----------------------------------------------------------------

    def _require_navigational(self, step: Step) -> None:
        if step.axis not in CORE_XPATH_AXES:
            raise FragmentViolationError(
                "Core XPath", [f"axis {step.axis!r} is not part of Core XPath"]
            )
