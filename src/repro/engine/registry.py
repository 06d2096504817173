"""The engine's document registry: handles, LRU bounds, evaluator pools.

A :class:`DocumentRegistry` owns the per-document state a serving session
accumulates:

* the :class:`~repro.xmlmodel.document.Document` itself, with its
  :class:`~repro.xmlmodel.index.DocumentIndex` forced exactly once at
  registration time (never lazily on a hot evaluation path);
* a per-document **evaluator pool**, one free-list per engine kind, so
  context-value tables and id-set condition caches survive across calls
  instead of being rebuilt per query.

Thread-safety is lock-striped: one small registry lock guards only the
LRU ordering (constant-time dict operations), while per-document work —
index forcing, evaluator checkout/checkin — runs under one of
``stripes`` independent locks picked by document handle.  Concurrent
requests against different documents therefore never contend on a
per-document lock, and requests against the same document only contend
for the microseconds of a pool pop/push, never for the evaluation
itself: evaluators are *checked out* (removed from the pool) while in
use, so no two threads ever share an evaluator instance.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.xmlmodel.document import Document

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.engine.engine import XPathEngine
    from repro.engine.result import QueryResult

#: Evaluator instances kept per (document, engine kind); checkins beyond
#: this are dropped so a burst of workers cannot pin unbounded memory.
POOL_DEPTH = 8


class DocHandle:
    """A registered document: the unit the engine's API operates on.

    Handles are cheap tickets — they hold the document, a stable ``uid``,
    and the per-document evaluator pool.  They stay valid after LRU
    eviction (the engine transparently re-registers the document on next
    use); eviction only drops the pooled evaluators.  The engine is held
    weakly (``engine_ref``, shared with the registry): an engine owns its
    registry and the registry its handles, so a strong reference back up
    would be a cycle that keeps every registered document alive until
    the cycle collector gets to it.
    """

    __slots__ = ("uid", "document", "_engine_ref", "_pool", "_stripe", "_retired")

    def __init__(
        self,
        uid: int,
        document: Document,
        engine_ref: "Optional[weakref.ref[XPathEngine]]",
        stripe: threading.RLock,
    ) -> None:
        self.uid = uid
        self.document = document
        self._engine_ref = engine_ref
        self._pool: dict[str, list[object]] = {}
        self._stripe = stripe
        self._retired = False

    @property
    def size(self) -> int:
        """Node count of the registered document (|D|)."""
        return self.document.size

    def evaluate(self, query, **kwargs) -> "QueryResult":
        """Evaluate ``query`` on this document via the owning engine."""
        engine = self._engine_ref() if self._engine_ref is not None else None
        if engine is None:
            raise RuntimeError("handle is not attached to an engine")
        return engine.evaluate(query, self, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DocHandle uid={self.uid} size={self.document.size}>"


@dataclass(frozen=True)
class RegistryStats:
    """A point-in-time snapshot of a :class:`DocumentRegistry`'s counters."""

    size: int
    maxsize: int
    adds: int
    reuses: int
    evictions: int


class DocumentRegistry:
    """LRU-bounded mapping from documents to :class:`DocHandle` entries."""

    def __init__(self, maxsize: int = 64, stripes: int = 8, engine: "Optional[XPathEngine]" = None) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        if stripes < 1:
            raise ValueError("stripes must be at least 1")
        self.maxsize = maxsize
        self._engine_ref = weakref.ref(engine) if engine is not None else None
        self._lock = threading.Lock()
        self._stripes = tuple(threading.RLock() for _ in range(stripes))
        self._handles: "OrderedDict[int, DocHandle]" = OrderedDict()
        self._uids = itertools.count()
        self.adds = 0
        self.reuses = 0
        self.evictions = 0

    def add(self, document: Document) -> DocHandle:
        """Register ``document`` (idempotent) and return its handle.

        The document's index is forced under the handle's stripe lock, so
        a concurrent stampede for the same fresh document ends up sharing
        one index — and with it one set of partition and kernel caches.
        """
        if not isinstance(document, Document):
            raise TypeError(f"expected a Document, got {type(document).__name__}")
        key = id(document)
        evicted: Optional[DocHandle] = None
        with self._lock:
            handle = self._handles.get(key)
            if handle is None:
                uid = next(self._uids)
                handle = DocHandle(
                    uid, document, self._engine_ref, self._stripes[uid % len(self._stripes)]
                )
                self._handles[key] = handle
                self.adds += 1
                if len(self._handles) > self.maxsize:
                    _, evicted = self._handles.popitem(last=False)
                    self.evictions += 1
            else:
                self._handles.move_to_end(key)
                self.reuses += 1
        if evicted is not None:
            self._retire(evicted)
        # Force the index on every path (the reuse path may arrive while a
        # first registration is still building): the stripe serialises the
        # build, and the property's cache makes the second entrant a no-op.
        if not document.has_index:
            with handle._stripe:
                document.index
        return handle

    # -- evaluator pooling -----------------------------------------------------

    def _retire(self, handle: DocHandle) -> None:
        """Mark an evicted handle dead for pooling purposes.

        Eviction can race an in-flight evaluation that checked evaluators
        out of this handle's pool.  Retiring (under the handle's own
        stripe, so it serialises with checkout/checkin) empties the pool
        and makes every later :meth:`checkin` drop its evaluators instead
        of re-pooling them — otherwise the orphaned handle would silently
        pin evaluators (and through them the document) that no future
        request can ever reach, while the re-registered document starts a
        *second* pool for the same document.
        """
        with handle._stripe:
            handle._retired = True
            handle._pool.clear()

    def checkout(self, handle: DocHandle) -> dict[str, object]:
        """Remove one pooled evaluator per engine kind and return them.

        The returned mapping has the shape :meth:`QueryPlan.run` expects
        for its ``evaluators`` argument; entries added to it during the
        run come back to the pool via :meth:`checkin`.
        """
        with handle._stripe:
            out: dict[str, object] = {}
            for engine, free in handle._pool.items():
                if free:
                    out[engine] = free.pop()
            return out

    def checkin(self, handle: DocHandle, evaluators: dict[str, object]) -> None:
        """Return checked-out (and newly built) evaluators to the pool.

        Checkins to a handle that was evicted while the evaluation ran
        are dropped on the floor — see :meth:`_retire`.
        """
        with handle._stripe:
            if handle._retired:
                return
            pool = handle._pool
            for engine, evaluator in evaluators.items():
                free = pool.setdefault(engine, [])
                if evaluator is not None and len(free) < POOL_DEPTH:
                    free.append(evaluator)

    def pooled(self, handle: DocHandle, engine: str) -> int:
        """Number of idle pooled evaluators of kind ``engine`` (for tests)."""
        with handle._stripe:
            return len(handle._pool.get(engine, ()))

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._handles)

    def __contains__(self, document: Document) -> bool:
        with self._lock:
            return id(document) in self._handles

    def stats(self) -> RegistryStats:
        """Return a snapshot of the registry counters."""
        with self._lock:
            return RegistryStats(
                size=len(self._handles),
                maxsize=self.maxsize,
                adds=self.adds,
                reuses=self.reuses,
                evictions=self.evictions,
            )

    def clear(self) -> None:
        """Drop every registered document, its pools, and the counters."""
        with self._lock:
            dropped = list(self._handles.values())
            self._handles.clear()
            self.adds = 0
            self.reuses = 0
            self.evictions = 0
        for handle in dropped:
            self._retire(handle)
