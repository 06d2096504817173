"""The engine's document registry: handles, LRU bounds, per-document evaluators.

A :class:`DocumentRegistry` owns the per-document state a session
accumulates:

* the :class:`~repro.xmlmodel.document.Document` itself, with its
  :class:`~repro.xmlmodel.index.DocumentIndex` forced exactly once at
  registration time (never lazily on a hot evaluation path);
* one evaluator per engine kind on the document's :class:`DocHandle`, so
  context-value tables and id-set condition caches survive across calls
  instead of being rebuilt per query.

One small registry lock guards only the LRU ordering (constant-time
dict operations); each handle's own lock serialises the work on its
document — index forcing and every evaluation with its evaluators — so
requests on one document run one at a time and requests on different
documents interleave.  Eviction only drops the registry's reference: an
evicted handle, and the evaluators on it, die with the last caller that
still holds the handle.
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


class DocHandle:
    """A registered document: the unit the engine's API operates on.

    Handles are cheap tickets — they hold the document, a stable ``uid``,
    ``evaluators`` (engine kind → the one evaluator of that kind for this
    document) and the lock every evaluation on the document holds.  They
    stay valid after LRU eviction (the engine transparently re-registers
    the document on next use).  The engine is held weakly (``engine_ref``,
    shared with the registry): an engine owns its registry and the
    registry its handles, so a strong reference back up would be a cycle
    that keeps every registered document alive until the cycle collector
    gets to it.
    """

    __slots__ = ("uid", "document", "evaluators", "_engine_ref", "_handle_lock")

    def __init__(
        self,
        uid: int,
        document: Document,
        engine_ref: "Optional[weakref.ref[XPathEngine]]",
    ) -> None:
        self.uid = uid
        self.document = document
        self.evaluators: dict[str, object] = {}
        self._engine_ref = engine_ref
        self._handle_lock = threading.Lock()

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

    def __init__(self, maxsize: int = 64, engine: "Optional[XPathEngine]" = None) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self._engine_ref = weakref.ref(engine) if engine is not None else None
        self._lock = threading.Lock()
        self._handles: "OrderedDict[int, DocHandle]" = OrderedDict()
        self._uids = itertools.count()
        self.adds = 0
        self.reuses = 0
        self.evictions = 0

    def add(self, document: Document) -> DocHandle:
        """Register ``document`` (idempotent) and return its handle.

        The document's index is forced under the handle's lock, so a
        concurrent stampede for the same fresh document ends up sharing
        one index — and with it one set of partition and kernel caches.
        """
        if not isinstance(document, Document):
            raise TypeError(f"expected a Document, got {type(document).__name__}")
        key = id(document)
        evicted = None  # held to the return, so it is freed outside the lock
        with self._lock:
            handle = self._handles.get(key)
            if handle is None:
                handle = DocHandle(next(self._uids), document, self._engine_ref)
                self._handles[key] = handle
                self.adds += 1
                if len(self._handles) > self.maxsize:
                    evicted = self._handles.popitem(last=False)
                    self.evictions += 1
            else:
                self._handles.move_to_end(key)
                self.reuses += 1
        # Force the index on every path (the reuse path may arrive while a
        # first registration is still building): the handle's lock
        # serialises the build, and the property's cache makes the second
        # entrant a no-op.
        if not document.has_index:
            with handle._handle_lock:
                document.index
        return handle

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
        """Drop every registered document and the counters."""
        with self._lock:
            self._handles.clear()
            self.adds = 0
            self.reuses = 0
            self.evictions = 0
