"""The facts the checkers enforce — this module *is* the project spec.

Everything here is data, deliberately: the lock registry, the lock
hierarchy, the wire dispatch roles, the frozen-attribute facts and the
async escape hatches are the hand-maintained invariants PRs 3–7
accumulated, written down once in machine-checkable form.  The prose
rendition lives in ``docs/analysis.md`` (and an executable fence there
asserts the two stay in sync).

Tests build small :class:`AnalysisConfig` instances of their own; the
default one (:func:`default_config`) describes the real tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

#: Lock hierarchy, outermost first.  A ``with`` on a later lock may nest
#: lexically inside a ``with`` on an earlier one, never the reverse.
#: Re-acquiring the same name is allowed (``_serving_lock`` is an
#: RLock).  This tuple is the single source of truth the table in
#: ``docs/analysis.md`` is generated from.
LOCK_ORDER: tuple[str, ...] = (
    "_lock",            # DocumentRegistry: LRU order + counters; CorpusStore:
                        # manifest journal (the manifest's flock is taken
                        # inside it, never the reverse)
    "_handle_lock",     # DocHandle: the document's index build and evaluators
    "_plan_lock",       # XPathEngine: plan-cache access
    "_store_lock",      # XPathEngine: attached store + hydration cache
    "_serving_lock",    # XPathEngine: serving pool / network server (RLock)
    "_lifecycle_lock",  # ShardedPool: the open→closed transition
    "_env_lock",        # serving.pool module: worker-env mutation
    "_telemetry_lock",  # telemetry: shard/child/family creation (leaf lock)
)

#: ``(class name, attribute)`` → guarding lock attribute.  Writes to these
#: attributes outside ``__init__``/``__new__`` must sit lexically inside
#: ``with self.<lock>``.  This is the registry of shared mutable state.
SHARED_CLASS_ATTRS: Mapping[tuple[str, str], str] = {
    # engine/engine.py — store attachment state
    ("XPathEngine", "_store"): "_store_lock",
    ("XPathEngine", "_store_mmap"): "_store_lock",
    # engine/engine.py — serving backends
    ("XPathEngine", "_serving"): "_serving_lock",
    ("XPathEngine", "_serving_finalizer"): "_serving_lock",
    ("XPathEngine", "_network_server"): "_serving_lock",
    # engine/registry.py — LRU counters behind the registry lock
    ("DocumentRegistry", "adds"): "_lock",
    ("DocumentRegistry", "reuses"): "_lock",
    ("DocumentRegistry", "evictions"): "_lock",
    # serving/pool.py — the open/closed transition
    ("ShardedPool", "_closed"): "_lifecycle_lock",
    ("ShardedPool", "_loop"): "_lifecycle_lock",
    # telemetry/metrics.py — the one unsharded metric value
    ("Gauge", "_value"): "_telemetry_lock",
    # telemetry/slowlog.py — mutable threshold (entries ride a deque)
    ("SlowQueryLog", "_threshold"): "_telemetry_lock",
}

#: Path fragments the lock-discipline rule applies to.
LOCK_SCOPE: tuple[str, ...] = (
    "repro/engine/",
    "repro/serving/",
    "repro/store/",
    "repro/telemetry/",
)

#: Where the wire-format constants live.
WIRE_MODULE = "repro/serving/wire.py"

#: The dispatch surfaces, each with the frame constants it is *specified
#: not to handle* (with the reason — this mapping is the protocol role
#: spec, not a suppression).  Every other ``MSG_*`` constant in
#: ``wire.py`` must be referenced (compared in a dispatch arm, or
#: produced via its ``encode_*`` constructor) in each module below.
WIRE_DISPATCH_EXEMPT: Mapping[str, frozenset[str]] = {
    # The worker speaks only the pool<->worker dialect; HELLO/OVERLOADED
    # belong to the network tier in front of it, and METRICS exposition
    # is served by the network server from its own registry (workers
    # contribute through the STATS payload the pool merges).
    "repro/serving/worker.py": frozenset(
        {"MSG_HELLO", "MSG_OVERLOADED", "MSG_METRICS", "MSG_METRICS_REPLY"}
    ),
    # The network server forwards queries to the pool, which owns the
    # pool-internal lifecycle frames.
    "repro/serving/server.py": frozenset(
        {"MSG_WARM", "MSG_READY", "MSG_SHUTDOWN"}
    ),
    # Network clients never see the pool-internal lifecycle frames.
    "repro/serving/client.py": frozenset(
        {"MSG_WARM", "MSG_READY", "MSG_SHUTDOWN"}
    ),
}

#: Prefix the wire rule treats as a frame-type constant.
WIRE_PREFIX = "MSG_"

#: Modules whose ``async def`` bodies must not block the event loop.
ASYNC_SCOPE: tuple[str, ...] = (
    "repro/serving/server.py",
    "repro/serving/client.py",
)

#: Dotted call paths that block (matched on ``a.b.c`` name chains).
BLOCKING_CALLS: frozenset[str] = frozenset(
    {"time.sleep", "socket.create_connection", "open", "input"}
)

#: Method names that block whatever they are called on: sync socket and
#: pipe I/O, thread/future synchronisation, and the pool's synchronous
#: entry points (``pool.evaluate_batch`` and friends wait for the pipes,
#: and raise on the thread of the event loop that drives the pool).
BLOCKING_METHODS: frozenset[str] = frozenset(
    {
        "sleep", "recv", "recv_bytes", "send_bytes", "sendall", "accept",
        "connect", "join", "result", "acquire",
        "evaluate_batch", "evaluate_sharded", "warm_up", "ping",
    }
)

#: Call names that hand work to a thread (their arguments may name or
#: invoke blocking callables) or legitimise an awaited ``sleep``/``wait``.
ASYNC_ESCAPES: frozenset[str] = frozenset(
    {"run_in_executor", "to_thread", "wait_for"}
)

#: Frozen attribute → modules allowed to write it (the owning type's
#: hydration paths).  ``IdSet`` slots and the snapshot-backed document
#: columns (``Columns`` and their ``DocumentIndex`` aliases) are immutable
#: everywhere else: the zero-copy mmap path shares them between processes
#: on that promise.  (``parent`` is deliberately absent: the name collides
#: with the mutable ``XMLNode.parent`` link, so writes to it are covered
#: by the column modules being the only ones that touch these objects.)
_COLUMN_MODULES = (
    "repro/xmlmodel/columns.py",  # where they are built
    "repro/xmlmodel/index.py",  # which aliases them
    "repro/store/codec.py",  # which reads them back from snapshot bytes
)
FROZEN_ATTRS: Mapping[str, tuple[str, ...]] = {
    "universe": ("repro/xmlmodel/idset.py",),
    "_bits": ("repro/xmlmodel/idset.py",),
    "_ids": ("repro/xmlmodel/idset.py", "repro/engine/result.py"),
    # Set once, by `IdSet.partition`, on a dense partition nobody else has
    # seen yet — which is what bounds the masks per document.
    "_probe_mask": ("repro/xmlmodel/idset.py",),
    "subtree_end": _COLUMN_MODULES,
    "post": _COLUMN_MODULES,
    "first_child": _COLUMN_MODULES,
    "next_sibling": _COLUMN_MODULES,
    "prev_sibling": _COLUMN_MODULES,
    "element_ids": _COLUMN_MODULES,
}

#: Functions that are serving *loops*: one uncaught exception kills a
#: worker process or wedges every in-flight request, so broad catches
#: here must either re-raise or log — silently converting is not enough;
#: anything expected must arrive as the typed ``ReproError`` taxonomy.
LOOP_FUNCTIONS: Mapping[str, frozenset[str]] = {
    "repro/serving/worker.py": frozenset({"worker_main"}),
    # The reader callback the pool's event loop runs for every worker
    # pipe and sentinel, and the completion hook it runs for every
    # settled exchange.
    "repro/serving/pool.py": frozenset({"_on_ready", "finish"}),
}

#: Exception names considered "broad" by the hygiene rule.
BROAD_EXCEPTIONS: frozenset[str] = frozenset({"Exception", "BaseException"})

#: Receiver names whose method calls count as logging.
LOGGER_NAMES: frozenset[str] = frozenset({"logger", "logging", "log"})

#: Public packages whose ``__all__`` must stay consistent with the names
#: the top-level ``repro`` package re-exports from them.
PUBLIC_MODULES: tuple[str, ...] = (
    "repro/__init__.py",
    "repro/engine/__init__.py",
    "repro/serving/__init__.py",
    "repro/store/__init__.py",
    "repro/xmlmodel/__init__.py",
    "repro/xmlmodel/kernels/__init__.py",
    "repro/planner/__init__.py",
    "repro/analysis/__init__.py",
    "repro/telemetry/__init__.py",
)

#: Documentation files whose migration tables name ``repro.<name>``
#: attributes; each such name must exist in the top-level ``__all__``.
DOCS_API_TABLES: tuple[str, ...] = (
    "docs/engine.md",
    "docs/telemetry.md",
    "docs/kernels.md",
    "README.md",
)

#: ``repro.<name>`` mentions in docs tables that are modules or
#: CLI-level names, not ``__all__`` entries.
DOCS_API_IGNORE: frozenset[str] = frozenset(
    {
        "analysis", "cli", "engine", "errors", "evaluation", "planner",
        "serving", "store", "telemetry", "xmlmodel", "xpath",
    }
)


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything a run of the checkers needs to know about the project."""

    lock_order: tuple[str, ...] = LOCK_ORDER
    shared_class_attrs: Mapping[tuple[str, str], str] = field(
        default_factory=lambda: dict(SHARED_CLASS_ATTRS)
    )
    lock_scope: tuple[str, ...] = LOCK_SCOPE
    init_methods: frozenset[str] = frozenset({"__init__", "__new__"})

    wire_module: str = WIRE_MODULE
    wire_prefix: str = WIRE_PREFIX
    wire_dispatch_exempt: Mapping[str, frozenset[str]] = field(
        default_factory=lambda: dict(WIRE_DISPATCH_EXEMPT)
    )

    async_scope: tuple[str, ...] = ASYNC_SCOPE
    blocking_calls: frozenset[str] = BLOCKING_CALLS
    blocking_methods: frozenset[str] = BLOCKING_METHODS
    async_escapes: frozenset[str] = ASYNC_ESCAPES

    frozen_attrs: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(FROZEN_ATTRS)
    )

    loop_functions: Mapping[str, frozenset[str]] = field(
        default_factory=lambda: dict(LOOP_FUNCTIONS)
    )
    broad_exceptions: frozenset[str] = BROAD_EXCEPTIONS
    logger_names: frozenset[str] = LOGGER_NAMES

    public_modules: tuple[str, ...] = PUBLIC_MODULES
    docs_api_tables: tuple[str, ...] = DOCS_API_TABLES
    docs_api_ignore: frozenset[str] = DOCS_API_IGNORE

    max_suppressions: int = 5

    def with_overrides(self, **changes: object) -> "AnalysisConfig":
        """A copy with ``changes`` applied (tests build variants this way)."""
        return replace(self, **changes)  # type: ignore[arg-type]


def default_config() -> AnalysisConfig:
    """The configuration describing the real repository layout."""
    return AnalysisConfig()
