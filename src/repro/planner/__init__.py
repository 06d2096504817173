"""Compiled query plans: classify once, evaluate many times.

The paper's complexity map (Figure 1) is exactly a query-planning rule: a
query's syntactic fragment determines the cheapest sound evaluator for
it.  This package turns that observation into infrastructure:

* :mod:`repro.planner.plan` — :class:`QueryPlan`: a query parsed and
  fragment-classified once, with the evaluator auto-selected along the
  ``core → cvt`` chain;
* :mod:`repro.planner.cache` — :class:`PlanCache`: an LRU cache of plans
  keyed by query text, with hit/miss/eviction accounting;
* :mod:`repro.planner.batch` — :func:`evaluate_many` /
  :func:`evaluate_many_ids`: many queries against one document share a
  single :class:`~repro.xmlmodel.index.DocumentIndex` and per-engine
  evaluator instances.  These (and the default cache accessors) are
  views over the process-default :class:`repro.engine.XPathEngine`,
  which owns the plan cache and the per-document evaluators (and, through
  ``evaluate_batch`` with :class:`~repro.store.StoreKey` documents, the
  store-hydrated batch).
"""

from repro.planner.batch import (
    clear_plan_cache,
    default_plan_cache,
    evaluate_many,
    evaluate_many_ids,
    get_plan,
)
from repro.planner.cache import CacheStats, PlanCache
from repro.planner.plan import AUTO_ENGINE_CHAIN, QueryPlan, plan_query

__all__ = [
    "AUTO_ENGINE_CHAIN",
    "CacheStats",
    "PlanCache",
    "QueryPlan",
    "clear_plan_cache",
    "default_plan_cache",
    "evaluate_many",
    "evaluate_many_ids",
    "get_plan",
    "plan_query",
]
