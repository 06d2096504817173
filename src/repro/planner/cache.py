"""An LRU cache of compiled query plans keyed by query text.

Serving the same queries over and over is the expected production shape
(the ROADMAP's "heavy traffic" north star), and parsing plus the engine
choice is pure per-query work — so it is done once and memoised here,
with the Figure 1 classification once read.  The cache is a plain ordered-dict LRU with explicit hit / miss /
eviction counters, sized in number of plans.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.fragments.classify import DEFAULT_NESTING_BOUND
from repro.planner.plan import QueryPlan, plan_query
from repro.telemetry.trace import Trace
from repro.xpath.ast import XPathExpr


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of a :class:`PlanCache`'s counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PlanCache:
    """LRU cache mapping query text to :class:`QueryPlan`.

    Parameters
    ----------
    maxsize:
        Maximum number of plans kept; the least recently used plan is
        evicted when a new plan would exceed it.  Must be positive.
    nesting_bound:
        The arithmetic-nesting bound forwarded to the fragment
        classifiers (Definitions 5.1(3)/6.1(4)).

    Examples
    --------
    The ``hits`` / ``misses`` / ``evictions`` counters accumulate over
    the cache's lifetime; :meth:`stats` snapshots them (also printed by
    ``python -m repro plan "<query>" --stats`` for the process-wide
    cache):

    >>> cache = PlanCache(maxsize=2)
    >>> cache.plan("//a").engine, cache.plan("//a").engine
    ('core', 'core')
    >>> stats = cache.stats()
    >>> (stats.hits, stats.misses, stats.size, stats.maxsize)
    (1, 1, 1, 2)
    >>> stats.hit_rate
    0.5
    >>> _ = (cache.plan("//b"), cache.plan("//c"))   # overflows maxsize=2
    >>> cache.stats().evictions
    1
    """

    def __init__(
        self, maxsize: int = 256, nesting_bound: int = DEFAULT_NESTING_BOUND
    ) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self.nesting_bound = nesting_bound
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._plans: OrderedDict[str, QueryPlan] = OrderedDict()

    def plan(
        self, query: XPathExpr | str, trace: Optional[Trace] = None
    ) -> QueryPlan:
        """Return the plan for ``query``, compiling and caching on a miss.

        String queries are keyed verbatim; AST inputs are keyed by their
        canonical unparsed text.  The two share an entry only when the
        string already is the canonical form — an abbreviated string like
        ``//a`` and its parsed AST occupy separate entries.

        ``trace`` (optional) records the planning stages: a cache hit is
        one zero-cost ``plan`` marker span, a miss gets the real
        ``parse``/``plan`` spans from :func:`plan_query`.
        """
        key = query if isinstance(query, str) else query.unparse()
        plans = self._plans
        cached = plans.get(key)
        if cached is not None:
            plans.move_to_end(key)
            self.hits += 1
            if trace is not None:
                trace.add_span("plan", duration=0.0, cache="hit")
            return cached
        self.misses += 1
        compiled = plan_query(query, self.nesting_bound, trace=trace)
        plans[key] = compiled
        if len(plans) > self.maxsize:
            plans.popitem(last=False)
            self.evictions += 1
        return compiled

    def stats(self) -> CacheStats:
        """Return a snapshot of the cache counters."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._plans),
            maxsize=self.maxsize,
        )

    def clear(self) -> None:
        """Drop every cached plan and reset the counters."""
        self._plans.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, query: str) -> bool:
        return query in self._plans

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PlanCache size={len(self._plans)}/{self.maxsize} "
            f"hits={self.hits} misses={self.misses} evictions={self.evictions}>"
        )
