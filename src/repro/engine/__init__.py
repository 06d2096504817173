"""The session façade: one stateful entry point for the whole pipeline.

:class:`XPathEngine` owns the state the free-function API used to scatter
across module globals and per-call construction — a document registry, a
plan cache, one evaluator per (document, engine kind) — plus
`evaluate_batch` and a :meth:`~XPathEngine.stats` snapshot.  The legacy
entry points (:func:`repro.evaluate`, :func:`repro.evaluate_many`, …) are
thin wrappers over the process-default engine returned by
:func:`default_engine`.

See ``docs/engine.md`` for the lifecycle, threads and processes, and the
old-call → new-call migration table.
"""

from repro.engine.engine import (
    ENGINE_KINDS,
    EngineStats,
    QueryRequest,
    StoreStats,
    XPathEngine,
    default_engine,
    reset_default_engine,
)
from repro.engine.registry import DocHandle, DocumentRegistry, RegistryStats
from repro.engine.result import QueryResult

__all__ = [
    "ENGINE_KINDS",
    "DocHandle",
    "DocumentRegistry",
    "EngineStats",
    "QueryRequest",
    "QueryResult",
    "RegistryStats",
    "StoreStats",
    "XPathEngine",
    "default_engine",
    "reset_default_engine",
]
