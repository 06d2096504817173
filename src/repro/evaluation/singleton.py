"""The Singleton-Success checker of Lemma 5.4 / Table 1 (pWF and pXPath).

The paper proves LOGCFL membership of pWF (Theorem 5.5) and pXPath
(Theorem 6.2) by exhibiting an NAuxPDA that *guesses* a context and result
value for every node of the query parse tree and verifies the guesses with
purely local consistency checks — the rows of Table 1.  Nothing larger
than a context triple and a scalar value is ever stored, and node sets are
never materialised.

:class:`SingletonSuccessChecker` is the deterministic simulation of that
machine: each existential guess is replaced by enumeration over its
(polynomial) domain — document nodes for node-valued guesses, the step's
witness set for positions — and the recursion is memoised on
``(sub-expression, context, value)`` so the overall work stays polynomial.
The structure of the checks follows Table 1 row by row; the node-set
result case loops over candidate nodes exactly as in the proof of
Theorem 5.5, and ``not(π)`` with bounded nesting depth is handled by a
loop over ``dom`` as in the proof of Theorem 5.9.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import FragmentViolationError, XPathEvaluationError, XPathTypeError
from repro.evaluation.context import Context, initial_context
from repro.evaluation.values import compare as value_compare
from repro.evaluation.values import xpath_round
from repro.xmlmodel.axes import axis_step
from repro.xmlmodel.document import Document
from repro.xmlmodel.nodes import XMLNode
from repro.xpath.analysis import negation_depth
from repro.xpath.ast import (
    BinaryOp,
    FunctionCall,
    Literal,
    LocationPath,
    Negate,
    Number,
    Step,
    XPathExpr,
)
from repro.xpath.functions import NODESET, static_type
from repro.xpath.parser import parse
from repro.xpath.transform import push_negations

#: The negation-nesting bound the public API threads through by default.
#:
#: ``SingletonSuccessChecker`` itself defaults to 0 (plain pWF/pXPath, the
#: fragments of Theorems 5.5/6.2); the convenience layer —
#: :func:`repro.evaluation.api.make_evaluator`,
#: :func:`repro.evaluation.api.evaluate` and
#: :class:`repro.engine.XPathEngine` — uses this far-above-any-real-query
#: bound instead, so ``engine="singleton"`` accepts the bounded-negation
#: extension of Theorem 5.9 without per-call tuning.
DEFAULT_MAX_NEGATION_DEPTH = 64

#: Scalar functions the checker can evaluate deterministically in place.
_DETERMINISTIC_FUNCTIONS = {
    "concat": lambda args: "".join(str(a) for a in args),
    "starts-with": lambda args: str(args[0]).startswith(str(args[1])),
    "contains": lambda args: str(args[1]) in str(args[0]),
    "floor": lambda args: float(math.floor(args[0])),
    "ceiling": lambda args: float(math.ceil(args[0])),
    "round": lambda args: xpath_round(args[0]),
    "true": lambda args: True,
    "false": lambda args: False,
}

_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "div": lambda a, b: a / b if b != 0 else math.copysign(math.inf, a) * math.copysign(1.0, b) if a != 0 else math.nan,
    "mod": lambda a, b: math.fmod(a, b) if b != 0 else math.nan,
}


class SingletonSuccessChecker:
    """Guess-and-check evaluation of pWF / pXPath queries (Table 1).

    Parameters
    ----------
    document:
        The document to evaluate against.
    max_negation_depth:
        Maximum allowed nesting depth of ``not(…)`` around location paths
        (Theorem 5.9 / 6.3).  The default of 0 is plain pWF/pXPath.
    """

    def __init__(self, document: Document, max_negation_depth: int = 0) -> None:
        self.document = document
        self.max_negation_depth = max_negation_depth
        self._memo: dict[tuple, bool] = {}
        self._steps_memo: dict[tuple, bool] = {}
        # Memo keys embed id(expr); pin checked expressions so ids are never
        # recycled across queries evaluated by the same checker instance.
        self._pinned: list = []
        # The guessing domain: tree nodes plus attribute nodes, so that
        # pXPath queries ending in the attribute axis are covered too.
        self._domain: list[XMLNode] = list(document.nodes) + list(document.attributes)
        #: Number of local consistency checks performed (cost measure).
        self.checks = 0

    # -- public API -------------------------------------------------------------

    def singleton_success(
        self,
        query: XPathExpr | str,
        value,
        context: Optional[Context] = None,
    ) -> bool:
        """Decide the Singleton-Success problem (Definition 5.3).

        ``value`` is a node for node-set-typed queries, ``True`` for
        boolean-typed queries, or a number/string for scalar queries.
        """
        expr = self._prepare(query)
        if context is None:
            context = initial_context(self.document)
        return self._check(expr, context, value)

    def evaluate_nodes(
        self, query: XPathExpr | str, context: Optional[Context] = None
    ) -> list[XMLNode]:
        """Return the full node-set result by looping Singleton-Success over dom.

        This is exactly the reduction used in the proof of Theorem 5.5.
        """
        expr = self._prepare(query)
        if context is None:
            context = initial_context(self.document)
        return [node for node in self._domain if self._check(expr, context, node)]

    def evaluate_boolean(
        self, query: XPathExpr | str, context: Optional[Context] = None
    ) -> bool:
        """Return the boolean value of ``query``.

        Checking *false* is the complement problem; LOGCFL is closed under
        complement (Proposition 2.4), so returning ``not check(true)`` is
        legitimate.
        """
        expr = self._prepare(query)
        if context is None:
            context = initial_context(self.document)
        return self._check(expr, context, True)

    def evaluate_number(
        self, query: XPathExpr | str, context: Optional[Context] = None
    ) -> float:
        """Return the numeric value of a number-typed query (evaluated scalar-only)."""
        expr = self._prepare(query)
        if context is None:
            context = initial_context(self.document)
        return float(self._eval_scalar(expr, context))

    # -- preparation ----------------------------------------------------------------

    def _prepare(self, query: XPathExpr | str) -> XPathExpr:
        expr = parse(query) if isinstance(query, str) else query
        depth = negation_depth(expr)
        if depth > self.max_negation_depth:
            raise FragmentViolationError(
                "pWF/pXPath",
                [
                    f"negation depth {depth} exceeds the allowed bound "
                    f"{self.max_negation_depth} (Definition 5.1(2) / Theorem 5.9)"
                ],
            )
        if depth:
            expr = push_negations(expr)
        self._pinned.append(expr)
        return expr

    # -- the checker -------------------------------------------------------------------

    def _check(self, expr: XPathExpr, context: Context, value) -> bool:
        key = (id(expr), context.key(), _value_key(value))
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        # Guard against reentrancy on the same key (cannot happen for
        # well-formed queries, but protects against pathological ASTs).
        self._memo[key] = False
        result = self._check_uncached(expr, context, value)
        self._memo[key] = result
        return result

    def _check_uncached(self, expr: XPathExpr, context: Context, value) -> bool:
        self.checks += 1
        if isinstance(expr, LocationPath):
            return self._check_location_path(expr, context, value)
        if isinstance(expr, Step):
            return self._check_location_path(LocationPath(False, (expr,)), context, value)
        if isinstance(expr, BinaryOp):
            return self._check_binary(expr, context, value)
        if isinstance(expr, FunctionCall):
            return self._check_function(expr, context, value)
        if isinstance(expr, (Number, Literal, Negate)):
            return _scalar_equal(self._eval_scalar(expr, context), value)
        raise FragmentViolationError(
            "pWF/pXPath", [f"construct {type(expr).__name__} is not supported by the checker"]
        )

    # -- Table 1: location paths ----------------------------------------------------

    def _check_location_path(self, expr: LocationPath, context: Context, value) -> bool:
        if not isinstance(value, XMLNode):
            if value is True:
                # A location path in boolean position has exists-semantics
                # (footnote 3 of the paper): guess the witness node.
                return any(
                    self._check_location_path(expr, context, node)
                    for node in self._domain
                )
            return False
        start = self.document.root if expr.absolute else context.node
        if not expr.steps:
            return expr.absolute and value is self.document.root
        return self._check_steps(expr.steps, start, value)

    def _check_steps(self, steps: tuple[Step, ...], start: XMLNode, target: XMLNode) -> bool:
        key = (tuple(id(s) for s in steps), start.uid, target.uid)
        cached = self._steps_memo.get(key)
        if cached is not None:
            return cached
        self._steps_memo[key] = False
        result = self._check_steps_uncached(steps, start, target)
        self._steps_memo[key] = result
        return result

    def _check_steps_uncached(
        self, steps: tuple[Step, ...], start: XMLNode, target: XMLNode
    ) -> bool:
        head, rest = steps[0], steps[1:]
        if len(head.predicates) > 1:
            raise FragmentViolationError(
                "pWF/pXPath",
                ["iterated predicates [e1][e2]… are excluded (Definition 5.1(1))"],
            )
        witnesses = axis_step(start, head.axis, head.node_test.text())
        size = len(witnesses)
        for position, witness in enumerate(witnesses, start=1):
            self.checks += 1
            if rest:
                if not self._check_steps(rest, witness, target):
                    continue
            elif witness is not target:
                continue
            if head.predicates:
                predicate_context = Context(witness, position, size)
                if not self._check(head.predicates[0], predicate_context, True):
                    continue
            return True
        return False

    # -- Table 1: boolean and scalar operators --------------------------------------

    def _check_binary(self, expr: BinaryOp, context: Context, value) -> bool:
        if expr.op == "and":
            return (
                value is True
                and self._check(expr.left, context, True)
                and self._check(expr.right, context, True)
            )
        if expr.op == "or":
            return value is True and (
                self._check(expr.left, context, True)
                or self._check(expr.right, context, True)
            )
        if expr.op == "|":
            return isinstance(value, XMLNode) and (
                self._check(expr.left, context, value)
                or self._check(expr.right, context, value)
            )
        if expr.is_comparison():
            if value is not True:
                return False
            return self._check_comparison(expr, context)
        if expr.is_arithmetic():
            return _scalar_equal(self._eval_scalar(expr, context), value)
        raise FragmentViolationError("pWF/pXPath", [f"operator {expr.op!r} is not supported"])

    def _check_comparison(self, expr: BinaryOp, context: Context) -> bool:
        left_candidates = self._comparison_candidates(expr.left, context)
        right_candidates = self._comparison_candidates(expr.right, context)
        return any(
            value_compare(expr.op, left, right)
            for left in left_candidates
            for right in right_candidates
        )

    def _comparison_candidates(self, expr: XPathExpr, context: Context) -> list:
        """Candidate scalar values of one comparison operand.

        Node-set operands contribute the string-value of every node the
        operand can evaluate to (existential semantics); scalar operands
        contribute their single deterministic value.  Boolean operands are
        rejected, mirroring Definition 6.1(3).
        """
        operand_type = static_type(expr)
        if operand_type == "boolean":
            raise FragmentViolationError(
                "pXPath",
                ["comparisons with boolean operands are forbidden (Definition 6.1(3))"],
            )
        if operand_type == NODESET:
            return [
                node.string_value()
                for node in self._domain
                if self._check(expr, context, node)
            ]
        return [self._eval_scalar(expr, context)]

    def _check_function(self, expr: FunctionCall, context: Context, value) -> bool:
        if expr.name == "position":
            return _scalar_equal(float(context.position), value)
        if expr.name == "last":
            return _scalar_equal(float(context.size), value)
        if expr.name == "boolean" and len(expr.args) == 1:
            return value is True and self._check_exists(expr.args[0], context)
        if expr.name == "not" and len(expr.args) == 1:
            # After push_negations, not() only wraps node-set expressions
            # (Theorem 5.9's normal form): loop over dom, Theorem 5.9 style.
            return value is True and not self._check_exists(expr.args[0], context)
        if expr.name in ("true", "false"):
            return _scalar_equal(expr.name == "true", value)
        if expr.name in _DETERMINISTIC_FUNCTIONS or expr.name in (
            "substring",
            "substring-before",
            "substring-after",
            "translate",
        ):
            return _scalar_equal(self._eval_scalar(expr, context), value)
        raise FragmentViolationError(
            "pXPath",
            [f"function {expr.name}() is excluded from pWF/pXPath (Definition 6.1(2))"],
        )

    def _check_exists(self, expr: XPathExpr, context: Context) -> bool:
        """Does the (node-set-typed) expression select at least one node?"""
        if static_type(expr) != NODESET:
            return self._check(expr, context, True)
        return any(self._check(expr, context, node) for node in self._domain)

    # -- deterministic scalar evaluation -----------------------------------------------

    def _eval_scalar(self, expr: XPathExpr, context: Context):
        """Evaluate a scalar (number/string) pWF/pXPath expression deterministically.

        Scalars in pWF/pXPath are built from ``position()``, ``last()``,
        constants, bounded arithmetic and bounded ``concat``; their values
        fit in logarithmic space, which is why the NAuxPDA can carry them
        on its worktape.
        """
        if isinstance(expr, Number):
            return expr.value
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, Negate):
            return -float(self._eval_scalar(expr.operand, context))
        if isinstance(expr, FunctionCall):
            if expr.name == "position":
                return float(context.position)
            if expr.name == "last":
                return float(context.size)
            if expr.name in _DETERMINISTIC_FUNCTIONS:
                args = [self._eval_scalar(arg, context) for arg in expr.args]
                return _DETERMINISTIC_FUNCTIONS[expr.name](args)
            if expr.name == "substring":
                args = [self._eval_scalar(arg, context) for arg in expr.args]
                text = str(args[0])
                start = int(math.floor(float(args[1]) + 0.5))
                if len(args) >= 3:
                    length = int(math.floor(float(args[2]) + 0.5))
                    return text[max(start - 1, 0) : max(start - 1 + length, 0)]
                return text[max(start - 1, 0) :]
            if expr.name == "substring-before":
                haystack, needle = (str(self._eval_scalar(a, context)) for a in expr.args)
                index = haystack.find(needle)
                return haystack[:index] if index >= 0 else ""
            if expr.name == "substring-after":
                haystack, needle = (str(self._eval_scalar(a, context)) for a in expr.args)
                index = haystack.find(needle)
                return haystack[index + len(needle) :] if index >= 0 else ""
        if isinstance(expr, BinaryOp) and expr.is_arithmetic():
            left = float(self._eval_scalar(expr.left, context))
            right = float(self._eval_scalar(expr.right, context))
            return float(_ARITHMETIC[expr.op](left, right))
        raise FragmentViolationError(
            "pWF/pXPath",
            [
                f"expression {expr} is not a logspace-evaluable scalar "
                "(Definition 5.1(3) / 6.1(4))"
            ],
        )


def _value_key(value):
    if isinstance(value, XMLNode):
        return ("node", value.uid)
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, float):
        return ("number", value)
    if isinstance(value, (int,)):
        return ("number", float(value))
    if isinstance(value, str):
        return ("string", value)
    raise XPathTypeError(f"unsupported result value of type {type(value).__name__}")


def _scalar_equal(computed, value) -> bool:
    if isinstance(computed, bool) or isinstance(value, bool):
        return computed is value
    if isinstance(computed, float) and isinstance(value, (int, float)):
        return computed == float(value)
    return computed == value
