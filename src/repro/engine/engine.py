"""`XPathEngine`: the stateful session façade over the whole pipeline.

One engine object owns everything a serving process accumulates across
queries — the document registry (LRU-bounded, index forced once per
document), the plan cache, and one evaluator per (document, engine kind)
— and exposes one uniform result type
(:class:`~repro.engine.result.QueryResult`) in place of the legacy
``XPathValue | list[XMLNode] | bool`` union.

Threads and processes
---------------------

Any thread may call any method.  The plan cache is guarded by one
engine-level lock; requests on one document run one at a time under
that document's handle lock (:mod:`repro.engine.registry`), requests on
different documents interleave.  Throughput beyond one core comes from
processes: :meth:`XPathEngine.serve` (a
:class:`~repro.serving.ShardedPool`) and :meth:`XPathEngine.serve_network`.

Examples
--------
>>> from repro.engine import XPathEngine
>>> engine = XPathEngine()
>>> doc = engine.add("<a><b/><b><c/></b></a>")
>>> result = engine.evaluate("//b[child::c]", doc)
>>> [node.tag for node in result.nodes], result.engine
(['b'], 'core')
>>> engine.evaluate("count(//b)", doc).value
2.0
>>> [r.ids for r in engine.evaluate_batch([("//b", doc), ("//c", doc)])]
[[2, 3], [4]]
>>> engine.evaluate("//b[child::c]", doc).cache_hit
True
>>> stats = engine.stats()
>>> (stats.documents.size, stats.dispatch["core"] >= 2)
(1, True)
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, replace
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Union

from repro.errors import XPathEvaluationError
from repro.evaluation.context import Context
from repro.evaluation.singleton import DEFAULT_MAX_NEGATION_DEPTH
from repro.evaluation.values import XPathValue
from repro.engine.registry import DocHandle, DocumentRegistry, RegistryStats
from repro.engine.result import QueryResult
from repro.fragments.classify import DEFAULT_NESTING_BOUND
from repro.planner.cache import CacheStats, PlanCache
from repro.planner.plan import QueryPlan
from repro.store import StoreKey
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.render import render_kv_block
from repro.telemetry.slowlog import DEFAULT_SLOW_THRESHOLD, SlowQueryLog
from repro.telemetry.trace import Trace, maybe_span
from repro.xmlmodel.document import Document
from repro.xmlmodel.kernels import active_backend
from repro.xmlmodel.parser import parse_xml
from repro.xpath.ast import XPathExpr

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.serving import ServingStats, ShardedPool, XPathServer
    from repro.store import CorpusStore

#: Engines an explicit ``engine=`` override may name (mirrors the legacy API).
ENGINE_KINDS = ("auto", "cvt", "naive", "core", "singleton")

DocumentLike = Union[Document, DocHandle, str]


@dataclass(frozen=True)
class QueryRequest:
    """One unit of work for the batch entry point."""

    query: Union[XPathExpr, str]
    document: DocumentLike
    context: Optional[Context] = None
    variables: Optional[Mapping[str, XPathValue]] = None
    engine: str = "auto"
    ids: bool = False
    trace: bool = False


@dataclass(frozen=True)
class StoreStats:
    """Counters of the engine's corpus-store hydration path.

    ``hits`` counts :meth:`XPathEngine.add_from_store` requests that were
    served (from the live registry or from a snapshot load); ``loads``
    counts the subset that actually deserialised a snapshot from disk
    (cold hydrations); ``misses`` counts requests whose key was absent
    from the store.
    """

    hits: int = 0
    misses: int = 0
    loads: int = 0


@dataclass(frozen=True)
class EngineStats:
    """A point-in-time snapshot of an engine's counters.

    ``dispatch`` counts evaluations by the engine that answered them (the
    planner's pick for auto runs).  ``store`` is None until a corpus store is
    attached; ``serving`` is None until :meth:`XPathEngine.serve` starts
    a worker pool (it then merges the per-worker engine counters).
    """

    plans: CacheStats
    documents: RegistryStats
    dispatch: Mapping[str, int]
    queries: int = 0
    store: Optional[StoreStats] = None
    serving: "Optional[ServingStats]" = None
    kernel_backend: str = "pure"

    def describe(self) -> str:
        """Render the snapshot as the CLI's ``--stats`` block."""
        plans, docs = self.plans, self.documents
        dispatch = (
            " ".join(f"{name}={count}" for name, count in sorted(self.dispatch.items()))
            or "(none)"
        )
        rows = [
            ("plan cache",
             f"{plans.size}/{plans.maxsize} plans, "
             f"{plans.hits} hit(s), {plans.misses} miss(es), "
             f"{plans.evictions} eviction(s), hit rate {plans.hit_rate:.0%}"),
            ("documents",
             f"{docs.size}/{docs.maxsize} registered, "
             f"{docs.adds} add(s), {docs.reuses} reuse(s), "
             f"{docs.evictions} eviction(s)"),
            ("dispatch counts", dispatch),
            ("queries", f"{self.queries} total"),
            ("kernel backend", self.kernel_backend),
        ]
        if self.store is not None:
            rows.append(
                ("store",
                 f"{self.store.hits} hit(s), {self.store.misses} miss(es), "
                 f"{self.store.loads} snapshot load(s)")
            )
        lines = [render_kv_block(rows)]
        if self.serving is not None:
            lines.append(self.serving.describe())
        return "\n".join(lines)


class XPathEngine:
    """A thread-safe session façade over documents, plans and evaluators.

    Parameters
    ----------
    max_documents:
        LRU bound on the document registry; the least recently used
        document (and its evaluators) is dropped beyond it.
    plan_cache_size:
        LRU bound on this engine's own :class:`PlanCache`.
    max_negation_depth:
        The ``not(…)`` nesting bound handed to ``singleton`` evaluators
        (one documented default for the whole public surface:
        :data:`~repro.evaluation.singleton.DEFAULT_MAX_NEGATION_DEPTH`).
    nesting_bound:
        Arithmetic-nesting bound forwarded to the fragment classifiers.
    slow_query_threshold:
        Evaluations at or above this wall time (seconds) are recorded in
        the engine's ring-buffer :attr:`slow_log`.

    Counters live in a per-engine telemetry registry
    (:class:`~repro.telemetry.MetricsRegistry`, per-thread shards, no
    lock on the increment path); :meth:`stats` renders the registry as
    the frozen :class:`EngineStats` view the pre-telemetry API promised.
    """

    def __init__(
        self,
        max_documents: int = 64,
        plan_cache_size: int = 512,
        max_negation_depth: int = DEFAULT_MAX_NEGATION_DEPTH,
        nesting_bound: int = DEFAULT_NESTING_BOUND,
        slow_query_threshold: float = DEFAULT_SLOW_THRESHOLD,
    ) -> None:
        self.max_negation_depth = max_negation_depth
        self._plan_cache = PlanCache(plan_cache_size, nesting_bound)
        self._plan_lock = threading.Lock()
        self._registry = DocumentRegistry(max_documents, engine=self)
        self.metrics = MetricsRegistry()
        self.slow_log = SlowQueryLog(threshold=slow_query_threshold)
        self._queries_total = self.metrics.counter(
            "repro_engine_queries_total", "requests served"
        )
        self._dispatch_total = self.metrics.counter(
            "repro_engine_dispatch_total",
            "evaluations by the engine that answered",
            labels=("engine",),
        )
        self._dispatch_children: dict[str, object] = {}
        self._store_hits_total = self.metrics.counter(
            "repro_engine_store_hits_total", "store hydration requests served"
        )
        self._store_misses_total = self.metrics.counter(
            "repro_engine_store_misses_total",
            "store hydration requests for unknown keys",
        )
        self._store_loads_total = self.metrics.counter(
            "repro_engine_store_loads_total", "cold snapshot loads from disk"
        )
        self._query_seconds = self.metrics.histogram(
            "repro_engine_query_seconds", "end-to-end evaluation wall time"
        )
        self._store: "Optional[CorpusStore]" = None
        self._store_mmap = False
        self._store_lock = threading.Lock()
        # Hydrated documents keyed by (snapshot hash, mmap residency),
        # weakly: re-requests of a live (still-registered) document reuse
        # it — and its evaluators and cached IdSet partitions —
        # without re-reading the snapshot (a warm request costs one
        # manifest mtime check), while evicted documents stay collectable
        # (the WeakValueDictionary drops entries with them).
        self._store_docs: "weakref.WeakValueDictionary[tuple[str, bool], Document]" = (
            weakref.WeakValueDictionary()
        )
        self._serving: "Optional[ShardedPool]" = None
        self._serving_finalizer = None
        self._network_server = None
        # Guards the pool and server handles: serve()/shutdown() and the
        # sharded batches and stats round-trips that use the pool
        # serialise here, so none of them meets a pool being replaced.
        self._serving_lock = threading.RLock()

    # -- documents -------------------------------------------------------------

    def add(self, source: DocumentLike) -> DocHandle:
        """Register a document (or parse and register XML text).

        Registration is idempotent per document object and forces the
        :class:`~repro.xmlmodel.index.DocumentIndex` exactly once, off
        the evaluation hot path.
        """
        if isinstance(source, DocHandle):
            return self._registry.add(source.document)
        if isinstance(source, StoreKey):
            return self.add_from_store(source)
        if isinstance(source, str):
            source = parse_xml(source)
        return self._registry.add(source)

    # -- corpus store ----------------------------------------------------------

    def attach_store(
        self, store: "CorpusStore", mmap: bool = False
    ) -> "XPathEngine":
        """Attach a :class:`~repro.store.CorpusStore` and return the engine.

        Once attached, :meth:`add_from_store` (and
        :class:`~repro.store.StoreKey` documents passed to any evaluate
        entry point) hydrate documents from snapshots instead of parsing
        and re-indexing.  ``mmap=True`` makes hydrations map snapshot
        files zero-copy by default.
        """
        with self._store_lock:
            self._store = store
            self._store_mmap = mmap
        return self

    @property
    def store(self) -> "Optional[CorpusStore]":
        """The attached corpus store, if any."""
        return self._store

    def add_from_store(
        self,
        key: str,
        store: "Optional[CorpusStore]" = None,
        mmap: Optional[bool] = None,
    ) -> DocHandle:
        """Register the document stored under ``key``, hydrating if cold.

        A key whose document is still registered (tracked weakly by
        snapshot hash and residency, so two keys naming identical
        content share one hydration) is reused together with its
        evaluators; an evicted or never-seen key costs one snapshot
        load — never an XML parse, never an index build.  Raises
        :class:`~repro.store.StoreKeyError` for unknown keys.
        """
        store = store if store is not None else self._store
        if store is None:
            raise RuntimeError(
                "no corpus store attached; call engine.attach_store(store) "
                "or pass store=..."
            )
        use_mmap = self._store_mmap if mmap is None else mmap
        try:
            entry = store.stat(key)
        except KeyError:
            self._store_misses_total.inc()
            raise
        cache_key = (entry.hash, use_mmap)
        loaded = False
        handle = None
        with self._store_lock:
            # Any live entry is reusable, registered or not: content is
            # immutable per hash, and re-registering an evicted-but-alive
            # document is cheaper than a reload and preserves node-object
            # identity with results callers may still hold.
            document = self._store_docs.get(cache_key)
        if document is None:
            # Load outside the lock (a stampede may duplicate the work),
            # then publish *and register* under it, so every racer ends
            # up registering the same document object.
            fresh = store.get(key, mmap=use_mmap)
            with self._store_lock:
                document = self._store_docs.get(cache_key)
                if document is None:
                    document = fresh
                    self._store_docs[cache_key] = fresh
                    handle = self._registry.add(fresh)
                    loaded = True
        self._store_hits_total.inc()
        if loaded:
            self._store_loads_total.inc()
        return handle if handle is not None else self._registry.add(document)

    # -- cross-process serving -------------------------------------------------

    def serve(
        self,
        workers: int = 4,
        mmap: bool = True,
        start_method: Optional[str] = None,
        warm: bool = True,
        restarts: Optional[int] = None,
        request_timeout: Optional[float] = None,
    ) -> "ShardedPool":
        """Start (or return) this engine's cross-process serving backend.

        Shards the attached store's documents across ``workers``
        processes over the id-native wire format — see
        :class:`repro.serving.ShardedPool` and ``docs/serving.md``.  The
        pool is supervised: a worker that dies is restarted (up to
        ``restarts`` times per worker, default
        :data:`repro.serving.DEFAULT_MAX_RESTARTS`) and its in-flight
        requests are replayed; ``request_timeout`` bounds each request's
        wall clock (``None`` = no bound).  The pool is cached on the
        engine: a second call with the same ``workers`` returns the live
        pool, a different ``workers`` count shuts the old pool down and
        starts a new one.  The engine's :meth:`stats` merge the workers'
        counters while a pool is live, and the pool is closed when the
        engine is garbage-collected (call :meth:`shutdown_serving` for
        deterministic shutdown).
        """
        if self._store is None:
            raise RuntimeError(
                "no corpus store attached; call engine.attach_store(store) "
                "first — the store is the workers' document transport"
            )
        with self._serving_lock:
            pool = self._serving
            if pool is not None and not pool.closed:
                if pool.workers == workers:
                    return pool
                self.shutdown_serving()
            from repro.serving import DEFAULT_MAX_RESTARTS, ShardedPool

            pool = ShardedPool(
                self._store,
                workers=workers,
                mmap=mmap,
                start_method=start_method,
                warm=warm,
                max_restarts=(
                    DEFAULT_MAX_RESTARTS if restarts is None else restarts
                ),
                request_timeout=request_timeout,
            )
            self._serving = pool
            self._serving_finalizer = weakref.finalize(self, pool.close)
            return pool

    def evaluate_sharded(
        self,
        requests: Iterable[tuple],
        workers: int = 4,
        ids: bool = False,
        trace: bool = False,
    ) -> list[QueryResult]:
        """Evaluate ``(query, store key)`` pairs on the worker pool.

        Results come back in input order and identical to evaluating the
        same requests in process (``engine.evaluate(query,
        StoreKey(key))``).  Reuses a live pool regardless of its worker
        count; starts one with ``workers`` processes otherwise.  Safe
        from any thread but the pool's event loop (batches from
        concurrent threads serialise on the engine's serving lock), also
        while :meth:`serve_network` serves on that loop.
        ``trace=True`` asks the workers for per-stage span trees (see
        :meth:`repro.serving.ShardedPool.evaluate_batch`).
        """
        with self._serving_lock:
            pool = self._serving
            if pool is None or pool.closed:
                pool = self.serve(workers=workers)
            return pool.evaluate_batch(requests, ids=ids, trace=trace)

    def serve_network(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        *,
        max_inflight: Optional[int] = None,
        idle_timeout: Optional[float] = None,
        banner: str = "repro-xpath",
        **serve_kwargs,
    ) -> "XPathServer":
        """Put the network front door on this engine's serving pool.

        Starts (or reuses) the engine's :meth:`serve` pool and binds an
        :class:`repro.serving.XPathServer` over it on the pool's own
        event loop thread (no thread of its own); returns the running
        server (its bound address is ``server.address`` — ``port=0``
        picks an ephemeral port).  :meth:`evaluate_sharded` and
        :meth:`stats` hand their requests to that same loop, so they
        stay safe while network clients are being served.  A
        second call returns the live server.  ``serve_kwargs`` go to
        :meth:`serve` (pool construction).  :meth:`shutdown_serving`
        drains the server before closing the pool.
        """
        with self._serving_lock:
            server = self._network_server
            if server is not None and not server.draining:
                return server
            pool = self.serve(workers=workers, **serve_kwargs)
            from repro.serving import XPathServer

            server = XPathServer(
                pool,
                host=host,
                port=port,
                max_inflight=max_inflight,
                idle_timeout=idle_timeout,
                banner=banner,
            )
            server.start_background()
            self._network_server = server
            return server

    def shutdown_serving(self) -> None:
        """Drain the network server (if any) and close the pool (idempotent)."""
        with self._serving_lock:
            # The server runs on the pool's loop: it stops first, then
            # the pool (and its loop thread) closes.
            if self._network_server is not None:
                self._network_server.shutdown(graceful=True)
            self._network_server = None
            if self._serving_finalizer is not None:
                self._serving_finalizer()  # runs pool.close() exactly once
                self._serving_finalizer = None
            self._serving = None

    @property
    def serving(self) -> "Optional[ShardedPool]":
        """The live serving pool, if :meth:`serve` started one."""
        pool = self._serving
        return pool if pool is not None and not pool.closed else None

    @property
    def plan_cache(self) -> PlanCache:
        """This engine's plan cache (shared by every evaluation)."""
        return self._plan_cache

    @property
    def documents(self) -> DocumentRegistry:
        """The engine's document registry."""
        return self._registry

    # -- planning --------------------------------------------------------------

    def get_plan(self, query: Union[XPathExpr, str]) -> QueryPlan:
        """Return the (cached) plan for ``query`` from this engine's cache."""
        with self._plan_lock:
            return self._plan_cache.plan(query)

    def clear_plan_cache(self) -> None:
        """Clear the plan cache (under the same lock evaluations take)."""
        with self._plan_lock:
            self._plan_cache.clear()

    def _plan(
        self, query: Union[XPathExpr, str], trace: Optional[Trace] = None
    ) -> tuple[QueryPlan, bool]:
        key = query if isinstance(query, str) else query.unparse()
        with self._plan_lock:
            hit = key in self._plan_cache
            return self._plan_cache.plan(query, trace=trace), hit

    # -- evaluation ------------------------------------------------------------

    def evaluate(
        self,
        query: Union[XPathExpr, str],
        document: DocumentLike,
        context: Optional[Context] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
        engine: str = "auto",
        ids: bool = False,
        trace: bool = False,
    ) -> QueryResult:
        """Evaluate one query and return a :class:`QueryResult`.

        ``engine="auto"`` (the default) walks the plan's fallback chain;
        an explicit engine name is a one-link chain (its fragment
        violations propagate).  ``ids=True`` selects no code path — Core
        answers are carried as ids either way — it only makes a scalar
        or attribute answer raise here instead of on ``result.ids``.
        ``trace=True`` additionally records per-stage spans
        (``parse→plan→eval→materialise``) on ``result.trace``.
        """
        request = QueryRequest(
            query, document, context, variables, engine, ids, trace
        )
        return self._evaluate_request(request)

    def evaluate_detached(
        self,
        query: Union[XPathExpr, str],
        document: Union[Document, DocHandle],
        context: Optional[Context] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
        engine: str = "auto",
        ids: bool = False,
        evaluators: Optional[dict] = None,
        trace: bool = False,
    ) -> QueryResult:
        """Evaluate without registering ``document`` in the registry.

        The evaluation shares this engine's plan cache and counters but
        leaves no trace in the document registry — the engine keeps no
        reference to the document, so a transient document is garbage-
        collected as soon as the caller drops it.  This is the path the
        legacy free functions use: they must not grow process-lifetime
        state on behalf of callers that never asked for a session.

        Without ``evaluators`` no evaluator outlives the call; pass one
        mapping across several calls (as :func:`repro.planner.evaluate_many`
        does for a batch) to reuse instances within a scope you control.
        """
        if isinstance(document, DocHandle):
            document = document.document
        request = QueryRequest(
            query, document, context, variables, engine, ids, trace
        )
        return self._evaluate_now(
            request, document, {} if evaluators is None else evaluators
        )

    def evaluate_batch(
        self,
        requests: Iterable[Union[QueryRequest, tuple]],
        context: Optional[Context] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
        engine: str = "auto",
        ids: bool = False,
        trace: bool = False,
    ) -> list[QueryResult]:
        """Evaluate a batch sequentially, sharing plans, indexes and evaluators.

        Requests are ``(query, document)`` pairs or :class:`QueryRequest`
        objects; the keyword arguments are defaults applied to the pair
        form.  Results come back in input order.
        """
        items = self._resolve_requests(
            self._as_request(item, context, variables, engine, ids, trace)
            for item in requests
        )
        return [self._evaluate_request(item) for item in items]

    # -- statistics ------------------------------------------------------------

    def stats(self) -> EngineStats:
        """Return a point-in-time snapshot of every engine counter.

        The counters live in this engine's telemetry registry
        (:attr:`metrics`); this method renders them as the frozen
        :class:`EngineStats` view.  While a serving pool is live
        (:meth:`serve`), the snapshot's ``serving`` field carries the
        merged per-worker counters — one ``stats()`` call describes the
        whole process tree.
        """
        serving = None
        with self._serving_lock:
            pool = self.serving
            if pool is not None:
                serving = pool.stats()
        with self._plan_lock:
            plans = self._plan_cache.stats()
        dispatch = {
            child.labels["engine"]: int(child.value())
            for child in self._dispatch_total.children()
        }
        queries = int(self._queries_total.value())
        store = (
            StoreStats(
                hits=int(self._store_hits_total.value()),
                misses=int(self._store_misses_total.value()),
                loads=int(self._store_loads_total.value()),
            )
            if self._store is not None
            else None
        )
        return EngineStats(
            plans=plans,
            documents=self._registry.stats(),
            dispatch=dispatch,
            queries=queries,
            store=store,
            serving=serving,
            kernel_backend=active_backend().name,
        )

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _as_request(
        item,
        context: Optional[Context],
        variables: Optional[Mapping[str, XPathValue]],
        engine: str,
        ids: bool,
        trace: bool = False,
    ) -> QueryRequest:
        if isinstance(item, QueryRequest):
            return item
        if isinstance(item, tuple) and len(item) == 2:
            return QueryRequest(
                item[0], item[1], context, variables, engine, ids, trace
            )
        raise TypeError(
            "request must be a QueryRequest or a (query, document) pair, "
            f"got {item!r}"
        )

    def _resolve_requests(self, items) -> list[QueryRequest]:
        """Normalise a batch's documents to handles before any work runs.

        In particular, equal XML *text* must resolve to one registered
        document per batch — parsing it per request would yield distinct
        trees, each with its own index and evaluators, and the registry
        would fill with duplicates.
        """
        parsed: dict[str, DocHandle] = {}
        resolved = []
        for item in items:
            document = item.document
            if isinstance(document, str):
                handle = parsed.get(document)
                if handle is None:
                    handle = parsed[document] = self.add(document)
                item = replace(item, document=handle)
            resolved.append(item)
        return resolved

    def _record(self, engine: str) -> None:
        # The labelled child is memoised in a plain dict: labels() itself
        # is get-or-create and always returns the same object, so a racy
        # double-store is benign, and the fast path is one dict hit.
        child = self._dispatch_children.get(engine)
        if child is None:
            child = self._dispatch_total.labels(engine=engine)
            self._dispatch_children[engine] = child
        child.inc()
        self._queries_total.inc()

    def _evaluate_request(self, request: QueryRequest) -> QueryResult:
        """Register the document, then evaluate with its handle's evaluators."""
        handle = self.add(request.document)
        with handle._handle_lock:
            return self._evaluate_now(request, handle.document, handle.evaluators)

    def _evaluate_now(
        self, request: QueryRequest, document: Document, evaluators: dict
    ) -> QueryResult:
        """Plan, execute, stamp: the one function every entry point reaches.

        The plan cache doubles as the parse cache, so explicit-engine runs
        reuse the cached AST (a handle's evaluators memoise on one expr object
        per query text) and inherit the classification metadata; the plan
        executor treats an explicit engine as a one-link chain.  Stamping
        wall time here is what makes ``wall_time`` unconditionally
        populated (and the latency histogram and slow-query log complete).
        """
        if request.engine not in ENGINE_KINDS:
            raise XPathEvaluationError(
                f"unknown engine {request.engine!r}; choose one of {ENGINE_KINDS} "
                "(see repro.engine.XPathEngine for the session API)"
            )
        trace = Trace("engine") if request.trace else None
        start = perf_counter()
        plan, cache_hit = self._plan(request.query, trace)
        engine = plan.engine if request.engine == "auto" else request.engine
        with maybe_span(trace, "eval", engine=engine):
            result = plan.execute(
                document, request.context, request.variables, evaluators,
                request.engine, self.max_negation_depth,
            )
            if request.ids:
                result.packed_ids  # the ids=True contract: a typed error now, not on access
        self._record(engine)
        wall = perf_counter() - start
        self._query_seconds.observe(wall)
        self.slow_log.record(plan.query, engine, wall)
        result.cache_hit, result.wall_time, result.trace = cache_hit, wall, trace
        return result


_default_engine: Optional[XPathEngine] = None
_default_engine_lock = threading.Lock()


def default_engine() -> XPathEngine:
    """Return the process-default engine the legacy free functions share.

    Created lazily on first use; :func:`reset_default_engine` replaces it
    (mainly for tests that need pristine counters).
    """
    global _default_engine
    engine = _default_engine
    if engine is None:
        with _default_engine_lock:
            engine = _default_engine
            if engine is None:
                engine = _default_engine = XPathEngine()
    return engine


def reset_default_engine() -> XPathEngine:
    """Replace the process-default engine with a fresh one and return it."""
    global _default_engine
    with _default_engine_lock:
        _default_engine = XPathEngine()
        return _default_engine
