"""Convenience entry points: evaluate a query with a chosen engine.

These free functions are thin wrappers over the process-default
:class:`repro.engine.XPathEngine` (see :func:`repro.engine.default_engine`),
which owns the plan cache, the document registry and the per-document
evaluators.  New code should talk to an engine directly — it gets the
richer :class:`~repro.engine.result.QueryResult` (metadata, ids) and the
batch entry point; these wrappers keep the historic
"bare value" convention.

Five engines are available, matching the paper's algorithmic landscape:

``"cvt"`` (default)
    The context-value-table dynamic program — polynomial combined
    complexity for full XPath 1.0 (Proposition 2.7).
``"naive"``
    The literal functional-semantics evaluator — worst-case exponential in
    the query size (the behaviour of fielded engines the introduction
    describes).
``"core"``
    The O(|D|·|Q|) Core XPath evaluator — only accepts Core XPath.
    Id-native: evaluates on integer id sets over the document index and
    materialises nodes once, at this API boundary.
``"singleton"``
    The Singleton-Success checker of Lemma 5.4 — only accepts pWF/pXPath
    (with negation nesting bounded by
    :data:`~repro.evaluation.singleton.DEFAULT_MAX_NEGATION_DEPTH`).
``"auto"``
    The query planner (:mod:`repro.planner`): classifies the query once,
    picks the cheapest sound evaluator (``core`` → ``cvt`` → ``naive``)
    and caches the compiled plan for reuse.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.errors import XPathEvaluationError
from repro.evaluation.context import Context
from repro.evaluation.core import CoreXPathEvaluator
from repro.evaluation.cvt import ContextValueTableEvaluator
from repro.evaluation.naive import NaiveEvaluator
from repro.evaluation.singleton import (
    DEFAULT_MAX_NEGATION_DEPTH,
    SingletonSuccessChecker,
)
from repro.evaluation.values import XPathValue
from repro.xmlmodel.document import Document
from repro.xmlmodel.nodes import XMLNode
from repro.xpath.ast import XPathExpr

ENGINES = ("cvt", "naive", "core", "singleton", "auto")


def make_evaluator(
    document: Document,
    engine: str = "cvt",
    variables: Optional[Mapping[str, XPathValue]] = None,
    max_negation_depth: int = DEFAULT_MAX_NEGATION_DEPTH,
):
    """Instantiate the evaluator object for ``engine`` on ``document``.

    The one place evaluators are constructed outside this package
    (:meth:`repro.planner.plan.QueryPlan.execute` calls it).  ``"auto"``
    is a plan over these engines, not an evaluator class: run it with
    ``evaluate(..., engine="auto")`` or a :class:`repro.engine.XPathEngine`.
    """
    if engine == "cvt":
        return ContextValueTableEvaluator(document, variables)
    if engine == "naive":
        return NaiveEvaluator(document, variables)
    if engine == "core":
        return CoreXPathEvaluator(document)
    if engine == "singleton":
        return SingletonSuccessChecker(document, max_negation_depth=max_negation_depth)
    raise XPathEvaluationError(
        f"unknown engine {engine!r}; choose one of {ENGINES[:-1]} "
        '("auto" is a plan over these, run by evaluate() and '
        "repro.engine.XPathEngine, not an evaluator class)"
    )


def evaluate(
    query: XPathExpr | str,
    document: Document,
    engine: str = "cvt",
    context: Optional[Context] = None,
    variables: Optional[Mapping[str, XPathValue]] = None,
) -> XPathValue | list[XMLNode] | bool:
    """Evaluate ``query`` on ``document`` with the chosen engine.

    Node-set results are returned as a plain list of nodes in document
    order; other results as Python ``float`` / ``str`` / ``bool``.  This
    delegates to the process-default :class:`~repro.engine.XPathEngine`
    (sharing its plan cache and counters) but evaluates *detached*: the
    engine keeps no reference to ``document``.  Use the engine directly
    to get the full :class:`~repro.engine.result.QueryResult`, evaluators
    kept per document and the batch entry point.

    Examples
    --------
    >>> from repro.xmlmodel import parse_xml
    >>> document = parse_xml("<a><b/><b><c/></b></a>")
    >>> [n.tag for n in evaluate("//b[child::c]", document, engine="auto")]
    ['b']
    >>> evaluate("count(//b)", document)
    2.0
    """
    from repro.engine import default_engine

    return default_engine().evaluate_detached(
        query, document, context=context, variables=variables, engine=engine
    ).value


def evaluate_nodes(
    query: XPathExpr | str,
    document: Document,
    engine: str = "cvt",
    context: Optional[Context] = None,
) -> list[XMLNode]:
    """Evaluate a node-set query and return its nodes in document order."""
    result = evaluate(query, document, engine=engine, context=context)
    if not isinstance(result, list):
        raise XPathEvaluationError(
            f"query produced a {type(result).__name__}, not a node-set"
        )
    return result


def query_selects(
    query: XPathExpr | str,
    document: Document,
    engine: str = "cvt",
) -> bool:
    """Return True if the (node-set) query selects at least one node.

    This "is the result non-empty" form is the decision problem all of the
    paper's hardness reductions target.
    """
    return bool(evaluate_nodes(query, document, engine=engine))
