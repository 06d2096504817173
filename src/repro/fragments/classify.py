"""Syntactic membership tests for the paper's XPath fragments.

The paper studies six fragments, ordered by inclusion as in Figure 1:

* **PF** — location paths without conditions (Section 4);
* **positive Core XPath** — Core XPath without ``not`` (Section 4);
* **Core XPath** — Definition 2.5;
* **pWF** — the "positive"/"parallel" Wadler fragment, Definition 5.1;
* **WF** — the Wadler fragment, Definition 2.6;
* **pXPath** — positive/parallel XPath, Definition 6.1;
* **XPath** — the full language (everything this engine parses).

Each ``violations_*`` function returns a human-readable list of reasons a
query falls outside the fragment (empty list = member), and ``is_*`` are
the corresponding booleans.  :func:`classify` returns every fragment a
query belongs to together with the most specific one and its combined
complexity from Figure 1.

The fragments nest, and so do their definitions here: PF is Core XPath's
list plus the no-predicates rule, positive Core XPath is Core XPath's list
unless ``not`` occurs, pWF extends WF's list, and every counting rule
(iterated predicates, functions used, arithmetic and ``concat`` nesting)
reads one :func:`~repro.xpath.analysis.query_features` traversal.
:func:`classify` therefore derives each list once — two grammar descents
(Core XPath, WF) and one features pass per query — through the same
functions, so each rule's wording exists in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.xpath.analysis import QueryFeatures, query_features
from repro.xpath.ast import (
    ARITHMETIC_OPERATORS,
    BinaryOp,
    COMPARISON_OPERATORS,
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
from repro.xpath.functions import BOOLEAN, OBJECT, PXPATH_FORBIDDEN_FUNCTIONS, static_type
from repro.xpath.parser import parse

#: The navigational axes admitted by Definition 2.5.
CORE_AXES = frozenset(
    {
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
    }
)

#: Default bound on arithmetic/concat nesting (the constant k of Definitions
#: 5.1(3) and 6.1(4)).  Any constant works for the theory; the classifiers
#: take it as a parameter with this default.
DEFAULT_NESTING_BOUND = 3

FRAGMENT_COMPLEXITY = {
    "PF": "NL-complete",
    "positive Core XPath": "LOGCFL-complete",
    "Core XPath": "P-complete",
    "pWF": "LOGCFL",
    "WF": "P-complete",
    "pXPath": "LOGCFL-complete",
    "XPath": "P-complete",
}

#: Fragment inclusion order used to pick the most specific fragment; earlier
#: entries are more specific (Figure 1).
FRAGMENT_ORDER = (
    "PF",
    "positive Core XPath",
    "Core XPath",
    "pWF",
    "WF",
    "pXPath",
    "XPath",
)


def _as_expr(query: XPathExpr | str) -> XPathExpr:
    return parse(query) if isinstance(query, str) else query


# ---------------------------------------------------------------------------
# Core XPath (Definition 2.5)
# ---------------------------------------------------------------------------


def violations_core_xpath(query: XPathExpr | str, allow_negation: bool = True) -> list[str]:
    """Return the reasons ``query`` is not a Core XPath query (empty = member)."""
    walk = _core_xpath_walk(_as_expr(query), allow_negation)
    return [template.format(subject) for template, subject in walk]


def _core_xpath_walk(
    expr: XPathExpr, allow_negation: bool
) -> Iterator[tuple[str, object]]:
    """Definition 2.5's rule: yield each violation of ``expr``, in query order.

    A violation is a message template and the subject it names, formatted
    only by a caller that wants the words: :func:`is_core_xpath` stops at
    the first one and formats nothing, :func:`violations_core_xpath`
    formats them all, so the planner's boolean and :func:`classify`'s
    reasons come from this one walk.  One explicit stack of
    ``(node, is_condition)`` items, popped in query order; a step is never
    a condition.
    """
    if not _is_union_of_location_paths(expr):
        yield "top-level expression must be a location path (or union of them)", None
        return
    stack: list[tuple[XPathExpr, bool]] = [(expr, False)]
    pop, push = stack.pop, stack.append
    while stack:
        node, condition = pop()
        if condition:
            if isinstance(node, BinaryOp) and node.op in ("and", "or"):
                push((node.right, True))
                push((node.left, True))
            elif isinstance(node, FunctionCall) and node.name == "not" and len(node.args) == 1:
                if not allow_negation:
                    yield "the not() function is excluded (positive fragment)", None
                push((node.args[0], True))
            elif isinstance(node, LocationPath):
                for location_step in reversed(node.steps):
                    push((location_step, False))
            else:
                yield "condition {} is not built from and/or/not and location paths", node
        elif isinstance(node, Step):
            if node.axis not in CORE_AXES:
                yield "axis {!r} is outside Core XPath", node.axis
            for predicate in reversed(node.predicates):
                push((predicate, True))
        elif isinstance(node, LocationPath):
            for location_step in reversed(node.steps):
                push((location_step, False))
        else:  # a union: the check above admitted nothing else
            push((node.right, False))
            push((node.left, False))


def _is_union_of_location_paths(expr: XPathExpr) -> bool:
    if isinstance(expr, LocationPath):
        return True
    if isinstance(expr, BinaryOp) and expr.op == "|":
        return _is_union_of_location_paths(expr.left) and _is_union_of_location_paths(expr.right)
    return False


def is_core_xpath(query: XPathExpr | str) -> bool:
    """Definition 2.5 membership: the walk finds no violation (the planner's test)."""
    return next(_core_xpath_walk(_as_expr(query), True), None) is None


def is_positive_core_xpath(query: XPathExpr | str) -> bool:
    """Core XPath without negation (Theorem 4.1/4.2's fragment)."""
    return not violations_core_xpath(query, allow_negation=False)


# ---------------------------------------------------------------------------
# PF (Section 4)
# ---------------------------------------------------------------------------


def violations_pf(query: XPathExpr | str) -> list[str]:
    """PF: Core XPath location paths with no conditions at all."""
    expr = _as_expr(query)
    return _pf_from_core(violations_core_xpath(expr), query_features(expr))


def _pf_from_core(core: list[str], features: QueryFeatures) -> list[str]:
    """PF's list given Core XPath's: the same reasons, else the predicate rule."""
    if not core and features.max_predicates > 0:
        return ["PF forbids conditions (bracketed predicates)"]
    return list(core)


def is_pf(query: XPathExpr | str) -> bool:
    """Membership in the path-expressions fragment PF."""
    return not violations_pf(query)


# ---------------------------------------------------------------------------
# WF (Definition 2.6)
# ---------------------------------------------------------------------------


def violations_wf(query: XPathExpr | str) -> list[str]:
    """Return the reasons ``query`` is not in the Wadler fragment WF."""
    expr = _as_expr(query)
    violations: list[str] = []
    expr_type = static_type(expr)
    if expr_type == OBJECT:
        violations.append("variables are outside WF")
    _collect_wf_violations(expr, violations, role="expr")
    return violations


def _collect_wf_violations(expr: XPathExpr, violations: list[str], role: str) -> None:
    """Check the WF grammar; ``role`` is one of expr/bexpr/nexpr/locpath."""
    if isinstance(expr, LocationPath):
        if role == "nexpr":
            violations.append(
                "WF comparisons only relate numeric expressions, not location paths"
            )
        for location_step in expr.steps:
            if location_step.axis not in CORE_AXES:
                violations.append(f"axis {location_step.axis!r} is outside WF")
            for predicate in location_step.predicates:
                _collect_wf_violations(predicate, violations, role="bexpr")
        return
    if isinstance(expr, BinaryOp):
        if expr.op == "|":
            _collect_wf_violations(expr.left, violations, role="locpath")
            _collect_wf_violations(expr.right, violations, role="locpath")
            return
        if expr.op in ("and", "or"):
            _collect_wf_violations(expr.left, violations, role="bexpr")
            _collect_wf_violations(expr.right, violations, role="bexpr")
            return
        if expr.op in COMPARISON_OPERATORS:
            _collect_wf_violations(expr.left, violations, role="nexpr")
            _collect_wf_violations(expr.right, violations, role="nexpr")
            return
        if expr.op in ARITHMETIC_OPERATORS:
            if role not in ("nexpr", "expr"):
                violations.append(f"arithmetic {expr} used where a {role} is required")
            _collect_wf_violations(expr.left, violations, role="nexpr")
            _collect_wf_violations(expr.right, violations, role="nexpr")
            return
    if isinstance(expr, Negate):
        _collect_wf_violations(expr.operand, violations, role="nexpr")
        return
    if isinstance(expr, FunctionCall):
        if expr.name == "not" and len(expr.args) == 1:
            _collect_wf_violations(expr.args[0], violations, role="bexpr")
            return
        if expr.name in ("position", "last") and not expr.args:
            if role not in ("nexpr", "expr"):
                violations.append(f"{expr.name}() used where a {role} is required")
            return
        violations.append(f"function {expr.name}() is outside WF")
        return
    if isinstance(expr, Number):
        return
    if isinstance(expr, Literal):
        violations.append("string literals are outside WF")
        return
    if isinstance(expr, (FilterExpr, PathExpr)):
        violations.append(f"{type(expr).__name__} expressions are outside WF")
        return
    if isinstance(expr, VariableReference):
        violations.append("variables are outside WF")
        return
    if isinstance(expr, Step):
        _collect_wf_violations(LocationPath(False, (expr,)), violations, role)
        return
    violations.append(f"unsupported construct {type(expr).__name__} in WF")


def is_wf(query: XPathExpr | str) -> bool:
    """Definition 2.6 membership."""
    return not violations_wf(query)


# ---------------------------------------------------------------------------
# pWF (Definition 5.1)
# ---------------------------------------------------------------------------


def violations_pwf(
    query: XPathExpr | str, nesting_bound: int = DEFAULT_NESTING_BOUND
) -> list[str]:
    """Return the reasons ``query`` is not in pWF."""
    expr = _as_expr(query)
    return _pwf_from_wf(violations_wf(expr), query_features(expr), nesting_bound)


def _pwf_from_wf(
    wf: list[str], features: QueryFeatures, nesting_bound: int
) -> list[str]:
    """pWF's list given WF's: the same reasons plus Definition 5.1's three rules."""
    violations = list(wf)
    if features.max_predicates >= 2:
        violations.append(
            "iterated predicates χ::t[e1]…[ek] with k ≥ 2 are excluded (Definition 5.1(1))"
        )
    if "not" in features.functions:
        violations.append("the not() function is excluded (Definition 5.1(2))")
    depth = features.arithmetic_depth
    if depth > nesting_bound:
        violations.append(
            f"arithmetic nesting depth {depth} exceeds the bound {nesting_bound} "
            "(Definition 5.1(3))"
        )
    return violations


def is_pwf(query: XPathExpr | str, nesting_bound: int = DEFAULT_NESTING_BOUND) -> bool:
    """Definition 5.1 membership."""
    return not violations_pwf(query, nesting_bound)


# ---------------------------------------------------------------------------
# pXPath (Definition 6.1)
# ---------------------------------------------------------------------------


def violations_pxpath(
    query: XPathExpr | str,
    nesting_bound: int = DEFAULT_NESTING_BOUND,
    features: QueryFeatures | None = None,
) -> list[str]:
    """Return the reasons ``query`` is not in pXPath.

    ``features`` is ``query_features(query)`` when the caller already has it.
    """
    if features is None:
        features = query_features(_as_expr(query))
    violations: list[str] = []
    if features.max_predicates >= 2:
        violations.append(
            "iterated predicates χ::t[e1]…[ek] with k ≥ 2 are excluded (Definition 6.1(1))"
        )
    forbidden = features.functions & PXPATH_FORBIDDEN_FUNCTIONS
    if forbidden:
        violations.append(
            f"forbidden function(s) {', '.join(sorted(forbidden))} (Definition 6.1(2))"
        )
    for node in features.comparisons:
        if BOOLEAN in (static_type(node.left), static_type(node.right)):
            violations.append(
                f"comparison {node} has a boolean operand (Definition 6.1(3))"
            )
    depth = features.arithmetic_depth
    if depth > nesting_bound:
        violations.append(
            f"arithmetic nesting depth {depth} exceeds the bound {nesting_bound} "
            "(Definition 6.1(4))"
        )
    if features.concat_arity > max(nesting_bound, 2):
        violations.append(
            f"concat() arity {features.concat_arity} exceeds the bound (Definition 6.1(4))"
        )
    if features.concat_nesting > nesting_bound:
        violations.append(
            f"concat() nesting depth {features.concat_nesting} exceeds the bound "
            "(Definition 6.1(4))"
        )
    return violations


def is_pxpath(query: XPathExpr | str, nesting_bound: int = DEFAULT_NESTING_BOUND) -> bool:
    """Definition 6.1 membership."""
    return not violations_pxpath(query, nesting_bound)


# ---------------------------------------------------------------------------
# Classification (Figure 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """Result of classifying a query against every fragment of Figure 1."""

    query: str
    fragments: tuple[str, ...]
    most_specific: str
    combined_complexity: str
    violations: dict = field(default_factory=dict, compare=False, hash=False)

    def __contains__(self, fragment: str) -> bool:
        return fragment in self.fragments


def classify(query: XPathExpr | str, nesting_bound: int = DEFAULT_NESTING_BOUND) -> Classification:
    """Classify ``query`` against every fragment and report Figure 1's complexity."""
    expr = _as_expr(query)
    core = violations_core_xpath(expr)
    wf = violations_wf(expr)
    features = query_features(expr)
    membership: dict[str, list[str]] = {
        "PF": _pf_from_core(core, features),
        # Without a not() the positive fragment has nothing to add or remove.
        "positive Core XPath": (
            violations_core_xpath(expr, allow_negation=False)
            if "not" in features.functions
            else list(core)
        ),
        "Core XPath": core,
        "pWF": _pwf_from_wf(wf, features, nesting_bound),
        "WF": wf,
        "pXPath": violations_pxpath(expr, nesting_bound, features),
        "XPath": [],
    }
    fragments = tuple(name for name in FRAGMENT_ORDER if not membership[name])
    most_specific = fragments[0]
    return Classification(
        query=expr.unparse(),
        fragments=fragments,
        most_specific=most_specific,
        combined_complexity=FRAGMENT_COMPLEXITY[most_specific],
        violations={name: reasons for name, reasons in membership.items() if reasons},
    )
