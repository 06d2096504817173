"""Query plans: one parse and one fragment test, many evaluations.

A :class:`QueryPlan` is the compiled form of an XPath query.  Building a
plan parses the query and asks Definition 2.5 one question — is it Core
XPath? (:func:`repro.fragments.is_core_xpath`, a walk that stops at the
first violation) — whose answer picks the primary evaluator:

=====================  ==========  =====================================
query fragment         engine      why
=====================  ==========  =====================================
Core XPath (incl. PF)  ``core``    O(|D|·|Q|) set-at-a-time evaluation
                                   (Proposition 2.7, second part)
anything richer        ``cvt``     polynomial context-value tables for
                                   full XPath 1.0 (Proposition 2.7)
=====================  ==========  =====================================

The full Figure 1 classification is no part of building a plan:
:attr:`QueryPlan.classification` computes it on first read.  An unknown
function or a wrong arity is an error of the query (XPath 1.0 §3.2), so
:func:`plan_query` raises :class:`~repro.errors.XPathTypeError` for it,
with an evaluator's message, whether or not evaluation would reach it.

``cvt`` is the fallback of a ``core`` plan: if the Core evaluator
rejects the query with :class:`~repro.errors.FragmentViolationError` —
which can only happen if the planner and the evaluator ever disagree
on the fragment boundary — the plan silently retries with ``cvt``, which
accepts all of XPath 1.0, so a plan's answer is always the full-XPath
semantics.  ``naive`` is no link of the chain: it is the explicit
``engine="naive"`` oracle, exponential in the worst case (E8).
Evaluation errors other than fragment violations propagate unchanged.

Plans hold no document state: the same plan object can be run against any
number of documents, and per-document acceleration lives in the
:class:`~repro.xmlmodel.index.DocumentIndex` each document carries.

Every entry point reaches one executor, :meth:`QueryPlan.execute`: it
owns evaluator construction and reuse, the fallback chain and each
engine's calling convention.  ``core``-engine answers, and ``cvt``
answers made of tree nodes, are carried as the evaluator's id set;
:meth:`QueryPlan.run` and :meth:`QueryPlan.run_ids` are the ``.value`` and
``.ids`` views of the
:class:`~repro.engine.result.QueryResult` it returns, which materialises
nodes (or converts nodes to ids) only when asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, MutableMapping, Optional

from repro.errors import FragmentViolationError
from repro.evaluation.api import make_evaluator
from repro.evaluation.context import Context
from repro.evaluation.singleton import DEFAULT_MAX_NEGATION_DEPTH
from repro.evaluation.values import NodeSet, XPathValue
from repro.fragments.classify import (
    DEFAULT_NESTING_BOUND,
    Classification,
    classify,
    is_core_xpath,
)
from repro.telemetry.render import render_kv_block
from repro.telemetry.trace import Trace, maybe_span
from repro.xmlmodel.document import Document
from repro.xmlmodel.idset import IdSet
from repro.xmlmodel.nodes import XMLNode
from repro.xpath.ast import FunctionCall, XPathExpr
from repro.xpath.functions import BOOLEAN, NODESET, static_type, validate_call
from repro.xpath.parser import parse

if TYPE_CHECKING:  # pragma: no cover - the engine package imports this module
    from repro.engine.result import QueryResult

#: The auto-dispatch preference order, cheapest sound evaluator first.
AUTO_ENGINE_CHAIN = ("core", "cvt")


@dataclass(frozen=True)
class QueryPlan:
    """A query compiled to an evaluator choice plus fallback chain.

    Attributes
    ----------
    query:
        The query text the plan was built from (the cache key).
    expr:
        The parsed AST, shared by every run of this plan.
    classification:
        The full Figure 1 classification (fragments, combined complexity,
        per-fragment violation reasons), computed on first read.
    engine:
        The auto-selected primary engine.
    fallbacks:
        Strictly more general engines tried in order if an evaluator
        rejects the query as outside its fragment.
    nesting_bound:
        The arithmetic-nesting bound :attr:`classification` uses.

    Examples
    --------
    >>> from repro.xmlmodel import parse_xml
    >>> plan = plan_query("//b[child::c]")
    >>> plan.engine, plan.fallbacks
    ('core', ('cvt',))
    >>> [n.tag for n in plan.run(parse_xml("<a><b><c/></b><b/></a>"))]
    ['b']
    >>> plan.run(parse_xml("<x><b><c/></b></x>"))  # same plan, any document
    [<ElementNode 'b' order=2>]
    """

    query: str
    expr: XPathExpr
    engine: str
    fallbacks: tuple[str, ...]
    nesting_bound: int = DEFAULT_NESTING_BOUND

    @cached_property
    def classification(self) -> Classification:
        """The Figure 1 classification of :attr:`expr`, computed on first read."""
        return classify(self.expr, self.nesting_bound)

    @property
    def engine_chain(self) -> tuple[str, ...]:
        """The primary engine followed by its fallbacks."""
        return (self.engine, *self.fallbacks)

    def run(
        self,
        document: Document,
        context: Optional[Context] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
        evaluators: Optional[MutableMapping[str, object]] = None,
    ) -> XPathValue | list[XMLNode] | bool:
        """Evaluate the plan against ``document``; the ``.value`` of :meth:`execute`.

        Node-set results come back as a list of nodes in document order,
        scalars as plain ``float`` / ``str`` / ``bool`` — the same
        convention as :func:`repro.evaluation.api.evaluate`.
        """
        return self.execute(document, context, variables, evaluators).value

    def run_ids(
        self,
        document: Document,
        context: Optional[Context] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
        evaluators: Optional[MutableMapping[str, object]] = None,
    ) -> list[int]:
        """Evaluate the plan and return document-order ids; the ``.ids`` of :meth:`execute`.

        Raises :class:`~repro.errors.XPathEvaluationError` if the query
        produces a scalar, or nodes without an id (attribute nodes).

        >>> from repro.xmlmodel import parse_xml
        >>> plan = plan_query("//b")
        >>> plan.run_ids(parse_xml("<a><b/><c><b/></c></a>"))
        [2, 4]
        """
        return self.execute(document, context, variables, evaluators).ids

    def execute(
        self,
        document: Document,
        context: Optional[Context] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
        evaluators: Optional[MutableMapping[str, object]] = None,
        engine: str = "auto",
        max_negation_depth: int = DEFAULT_MAX_NEGATION_DEPTH,
    ) -> "QueryResult":
        """Run this plan's query and return its answer (no timing metadata).

        The one executor every entry point reaches: ``engine="auto"``
        walks :attr:`engine_chain`, retrying with the next, strictly more
        general engine when an evaluator rejects the query as outside its
        fragment; an explicit engine is a one-link chain, so its
        :class:`~repro.errors.FragmentViolationError` propagates.  The
        answer is carried as whatever the evaluator produced — an
        :class:`~repro.xmlmodel.idset.IdSet` for ``core`` from the root
        and for a ``cvt`` answer made of tree nodes, nodes or a scalar
        otherwise — and the
        :class:`~repro.engine.result.QueryResult` converts on demand.

        ``evaluators`` is an optional per-document engine→evaluator cache:
        batch callers pass one mapping for a whole workload so the
        context-value tables (and the core evaluator's condition sets)
        accumulate across queries instead of being rebuilt per query.
        ``max_negation_depth`` reaches only a ``singleton`` checker built
        here.
        """
        from repro.engine.result import QueryResult  # engine imports planner

        chain = self.engine_chain if engine == "auto" else (engine,)
        for kind in chain:
            try:
                payload = self._evaluate(
                    kind, document, context, variables, evaluators,
                    max_negation_depth,
                )
                break
            except FragmentViolationError:
                if kind == chain[-1]:  # unreachable on auto: "cvt" accepts full XPath
                    raise
        return QueryResult(self.query, chain[0], document, plan=self, **payload)

    def _evaluate(
        self,
        kind: str,
        document: Document,
        context: Optional[Context],
        variables: Optional[Mapping[str, XPathValue]],
        evaluators: Optional[MutableMapping[str, object]],
        max_negation_depth: int,
    ) -> dict[str, object]:
        """One engine's calling convention: ``{"ids": …}`` or ``{"value": …}``."""
        evaluator = evaluators.get(kind) if evaluators is not None else None
        if (
            evaluator is not None
            and kind in ("cvt", "naive")
            and evaluator.env.variables != dict(variables or {})
        ):
            # Variable bindings are frozen into an evaluator at
            # construction; reusing one under different bindings would
            # silently answer with the old values.
            evaluator = None
        if evaluator is None:
            evaluator = make_evaluator(document, kind, variables, max_negation_depth)
        if kind == "core" and context is None:
            # Stay on the IdSet: a list, packed bytes or nodes are built
            # only if a caller asks for them.
            payload = {"ids": evaluator.evaluate_idset(self.expr)}
        else:
            if kind == "core":
                value = evaluator.evaluate_nodes(self.expr, [context.node])
            elif kind == "singleton":
                # The checker decides one typed question at a time, so the
                # result shape follows the query's static type.
                result_type = static_type(self.expr)
                if result_type == NODESET:
                    value = evaluator.evaluate_nodes(self.expr, context)
                elif result_type == BOOLEAN:
                    value = evaluator.evaluate_boolean(self.expr, context)
                else:
                    value = evaluator.evaluate_number(self.expr, context)
            else:
                value = evaluator.evaluate(self.expr, context)
                if isinstance(value, NodeSet):
                    # Tree nodes of this document (what ``cvt`` selects on
                    # the navigational axes) stay ids, like a core answer.
                    on_ids = value.ids is not None and value.index is document.index
                    value = value.ids if on_ids else list(value.nodes)
            payload = {"ids": value} if isinstance(value, IdSet) else {"value": value}
        if evaluators is not None:
            evaluators[kind] = evaluator
        return payload

    def explain(self) -> str:
        """Return a human-readable description of the plan."""
        return render_kv_block([
            ("query", self.query),
            ("most specific", self.classification.most_specific),
            ("combined complexity", self.classification.combined_complexity),
            ("selected engine", self.engine),
            ("fallback chain", " -> ".join(self.fallbacks) or "(none)"),
        ])


def plan_query(
    query: XPathExpr | str,
    nesting_bound: int = DEFAULT_NESTING_BOUND,
    trace: Optional[Trace] = None,
) -> QueryPlan:
    """Compile ``query`` into a :class:`QueryPlan` (uncached).

    Core XPath queries (including the smaller PF and positive fragments)
    get the linear-time ``core`` engine; everything else gets the
    polynomial ``cvt`` engine, which is also the Core plans' one
    fallback.  ``naive`` is never planned: it runs only when asked for.
    An unknown function or a wrong arity raises
    :class:`~repro.errors.XPathTypeError`, whichever engine will run.

    ``trace`` (optional) records the compile stages as ``parse`` and
    ``plan`` spans.
    """
    if isinstance(query, str):
        with maybe_span(trace, "parse"):
            expr = parse(query)
        text = query
    else:
        expr = query
        text = expr.unparse()
    with maybe_span(trace, "plan"):
        if is_core_xpath(expr):  # whose only calls are not(·)
            engine, fallbacks = "core", ("cvt",)
        else:
            for node in expr.walk():  # pre-order, the order evaluation meets them
                if isinstance(node, FunctionCall):
                    validate_call(node)
            engine, fallbacks = "cvt", ()
    return QueryPlan(text, expr, engine, fallbacks, nesting_bound)
