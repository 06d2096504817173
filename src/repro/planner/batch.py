"""Batch evaluation wrappers over the process-default engine.

:func:`evaluate_many` is the classic high-throughput entry point: it
compiles (or recalls) a plan per query, forces the shared
:class:`~repro.xmlmodel.index.DocumentIndex` to exist before the first
query runs, and reuses evaluator instances across the whole batch so
context-value tables accumulate instead of being rebuilt.

The plan cache and counters live on the process-default engine
(:func:`repro.engine.default_engine`), not in module globals: the
functions here are views that keep the historic list-of-bare-values
signature over one loop of
:meth:`~repro.engine.XPathEngine.evaluate_detached` — the engine never
retains the document, so transient documents stay collectable; register
documents with an engine (`engine.add`) to opt into cross-call evaluator
pooling, and construct a private :class:`~repro.engine.XPathEngine` for
isolated counters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional

from repro.evaluation.context import Context
from repro.evaluation.values import XPathValue
from repro.planner.cache import PlanCache
from repro.planner.plan import QueryPlan
from repro.xmlmodel.document import Document
from repro.xmlmodel.nodes import XMLNode
from repro.xpath.ast import XPathExpr

if TYPE_CHECKING:  # pragma: no cover - the engine package imports this one
    from repro.engine.result import QueryResult


def default_plan_cache() -> PlanCache:
    """Return the process-default plan cache (the default engine's).

    The returned object is shared with concurrently running evaluations;
    read its :meth:`~repro.planner.cache.PlanCache.stats` freely, but
    mutate it through :func:`clear_plan_cache` (which takes the engine's
    plan lock) rather than calling ``.clear()`` on it directly.
    """
    from repro.engine import default_engine

    return default_engine().plan_cache


def clear_plan_cache() -> None:
    """Clear the process-default plan cache (mainly for tests)."""
    from repro.engine import default_engine

    default_engine().clear_plan_cache()


def get_plan(query: XPathExpr | str) -> QueryPlan:
    """Return the (cached) plan for ``query`` from the process-default engine."""
    from repro.engine import default_engine

    return default_engine().get_plan(query)


def _detached(
    document: Document,
    queries: Iterable[XPathExpr | str],
    context: Optional[Context],
    variables: Optional[Mapping[str, XPathValue]],
) -> "Iterator[QueryResult]":
    """The one batch loop: a result per query, sharing all per-document work."""
    from repro.engine import default_engine

    engine = default_engine()
    document.index  # build the shared index before the first query
    evaluators: dict[str, object] = {}  # shared for the batch, then dropped
    for query in queries:
        yield engine.evaluate_detached(
            query, document, context=context, variables=variables,
            evaluators=evaluators,
        )


def evaluate_many(
    document: Document,
    queries: Iterable[XPathExpr | str],
    context: Optional[Context] = None,
    variables: Optional[Mapping[str, XPathValue]] = None,
) -> list[XPathValue | list[XMLNode] | bool]:
    """Evaluate ``queries`` against ``document``, sharing all per-document work.

    One :class:`~repro.xmlmodel.index.DocumentIndex` is built up front and
    one evaluator per engine is reused for the whole batch, so the
    marginal cost of the i-th query is evaluation only — no re-parsing,
    re-classification, re-indexing or evaluator construction.

    Returns the per-query results in input order, with the same result
    conventions as :meth:`QueryPlan.run`.

    Examples
    --------
    >>> from repro.xmlmodel import parse_xml
    >>> document = parse_xml("<a><b/><b><c/></b></a>")
    >>> [r if not isinstance(r, list) else len(r) for r in
    ...  evaluate_many(document, ["//b", "//b[child::c]", "count(//b)"])]
    [2, 1, 2.0]
    """
    return [r.value for r in _detached(document, queries, context, variables)]


def evaluate_many_ids(
    document: Document,
    queries: Iterable[XPathExpr | str],
    context: Optional[Context] = None,
    variables: Optional[Mapping[str, XPathValue]] = None,
) -> list[list[int]]:
    """Like :func:`evaluate_many`, but return document-order ids per query.

    The ``.ids`` of the same results :func:`evaluate_many` takes the
    ``.value`` of: Core XPath answers are carried as ids, so no node
    objects are materialised at all — the preferred form for callers
    that post-process results positionally (serving layers, join
    pipelines).  Queries must all produce node-sets; a scalar- or
    attribute-producing query raises
    :class:`~repro.errors.XPathEvaluationError`.
    """
    return [r.ids for r in _detached(document, queries, context, variables)]
