"""Static analyses of XPath expressions.

These purely syntactic measures are used by the context-value-table
evaluator (position sensitivity), by the fragment classifiers
(Definitions 2.5, 2.6, 5.1 and 6.1 restrict negation, iterated predicates
and arithmetic nesting), and by the query-complexity benchmarks (query
size and depth).

Everything the classifiers measure comes from one traversal,
:func:`query_features`; the per-feature functions
(:func:`max_predicates_per_step`, :func:`functions_used`,
:func:`arithmetic_nesting_depth`, :func:`concat_arity_and_nesting`) are
views of its result, so each measure has one definition.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.xpath.ast import (
    ARITHMETIC_OPERATORS,
    BinaryOp,
    COMPARISON_OPERATORS,
    FilterExpr,
    FunctionCall,
    LocationPath,
    Negate,
    Number,
    PathExpr,
    Step,
    XPathExpr,
)


def is_position_sensitive(expr: XPathExpr) -> bool:
    """Return True if ``expr``'s value can depend on the context position or size.

    ``position()``/``last()`` occurrences nested inside a step's (or filter
    expression's) predicates refer to the positions generated by *that*
    step, so they do not make the outer expression position-sensitive;
    location paths never depend on the outer position at all.
    """
    if isinstance(expr, FunctionCall):
        if expr.name in ("position", "last"):
            return True
        return any(is_position_sensitive(arg) for arg in expr.args)
    if isinstance(expr, (LocationPath, Step)):
        return False
    if isinstance(expr, PathExpr):
        return is_position_sensitive(expr.start)
    if isinstance(expr, FilterExpr):
        return is_position_sensitive(expr.primary)
    if isinstance(expr, BinaryOp):
        return is_position_sensitive(expr.left) or is_position_sensitive(expr.right)
    if isinstance(expr, Negate):
        return is_position_sensitive(expr.operand)
    return False


def uses_function(expr: XPathExpr, names: frozenset[str] | set[str]) -> bool:
    """Return True if any function in ``names`` is called anywhere in ``expr``."""
    return any(
        isinstance(node, FunctionCall) and node.name in names for node in expr.walk()
    )


def negation_depth(expr: XPathExpr) -> int:
    """Return the maximum nesting depth of ``not(…)`` calls in ``expr``.

    Theorem 5.9 allows pWF to be extended by negation of *bounded* depth
    without leaving LOGCFL; this measure is that bound.
    """
    best = 0
    current = 1 if isinstance(expr, FunctionCall) and expr.name == "not" else 0
    for child in expr.children():
        best = max(best, negation_depth(child))
    return best + current


class QueryFeatures(NamedTuple):
    """What the fragment definitions measure, from one pass over a query."""

    #: Largest number of iterated predicates ``[e1]…[ek]`` on any step.
    max_predicates: int
    #: Names of the functions called anywhere in the query.
    functions: frozenset[str]
    #: Maximum nesting depth of arithmetic operators (Definition 5.1(3)).
    arithmetic_depth: int
    #: Largest ``concat()`` arity and nesting depth (Definition 6.1(4)).
    concat_arity: int
    concat_nesting: int
    #: Every comparison (``=``, ``!=``, ``<``, …), in pre-order.
    comparisons: tuple[BinaryOp, ...]


def query_features(expr: XPathExpr) -> QueryFeatures:
    """Measure ``expr`` for the fragment classifiers in a single traversal.

    A nesting depth is the largest number of nesting nodes on one path
    from the root, so both depths are carried *down* the traversal with
    each node and nothing has to be merged on the way back up.  The
    traversal is an explicit stack, not a recursive closure: a closure
    that calls itself is a reference cycle, which would keep the
    ``comparisons`` (and the AST under them) alive until the cycle
    collector runs.
    """
    functions: set[str] = set()
    comparisons: list[BinaryOp] = []
    max_predicates = arithmetic_depth = concat_arity = concat_nesting = 0
    stack = [(expr, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        node, arithmetic, concat = pop()
        # Most frequent node types first; a LocationPath has nothing to measure.
        if isinstance(node, (Step, FilterExpr)):
            if len(node.predicates) > max_predicates:
                max_predicates = len(node.predicates)
        elif isinstance(node, LocationPath):
            pass
        elif isinstance(node, BinaryOp):
            if node.op in ARITHMETIC_OPERATORS:
                arithmetic += 1
            elif node.op in COMPARISON_OPERATORS:
                comparisons.append(node)
        elif isinstance(node, FunctionCall):
            functions.add(node.name)
            if node.name == "concat":
                concat += 1
                if concat > concat_nesting:
                    concat_nesting = concat
                if len(node.args) > concat_arity:
                    concat_arity = len(node.args)
        elif isinstance(node, Negate):
            arithmetic += 1
        if arithmetic > arithmetic_depth:
            arithmetic_depth = arithmetic
        children = node.children()
        if children:
            # Last child first, so children pop (and comparisons are
            # collected) in pre-order.
            for child in reversed(children):
                push((child, arithmetic, concat))
    return QueryFeatures(
        max_predicates, frozenset(functions), arithmetic_depth,
        concat_arity, concat_nesting, tuple(comparisons),
    )


def arithmetic_nesting_depth(expr: XPathExpr) -> int:
    """Return the maximum nesting depth of arithmetic operators (Definition 5.1(3))."""
    return query_features(expr).arithmetic_depth


def max_predicates_per_step(expr: XPathExpr) -> int:
    """Return the largest number of iterated predicates ``[e1]…[ek]`` on any step."""
    return query_features(expr).max_predicates


def concat_arity_and_nesting(expr: XPathExpr) -> tuple[int, int]:
    """Return ``(max arity, max nesting depth)`` of ``concat()`` calls (Definition 6.1(4))."""
    features = query_features(expr)
    return features.concat_arity, features.concat_nesting


def axes_used(expr: XPathExpr) -> set[str]:
    """Return the set of axis names occurring in ``expr``."""
    return {node.axis for node in expr.walk() if isinstance(node, Step)}


def functions_used(expr: XPathExpr) -> set[str]:
    """Return the set of function names called in ``expr``."""
    return set(query_features(expr).functions)


def query_depth(expr: XPathExpr) -> int:
    """Return the height of the expression tree."""
    children = expr.children()
    if not children:
        return 1
    return 1 + max(query_depth(child) for child in children)


def step_count(expr: XPathExpr) -> int:
    """Return the number of location steps anywhere in the query."""
    return sum(1 for node in expr.walk() if isinstance(node, Step))


def literal_numbers(expr: XPathExpr) -> list[float]:
    """Return every numeric literal appearing in the query."""
    return [node.value for node in expr.walk() if isinstance(node, Number)]
