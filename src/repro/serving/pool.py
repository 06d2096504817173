"""`ShardedPool`: documents sharded across worker processes.

An in-process :class:`~repro.engine.XPathEngine` evaluates on one core:
pure-Python evaluation holds the GIL, whichever thread calls it.  A
:class:`ShardedPool` scales past that by putting *evaluation itself* on
N worker processes:

* **sharding** — every registered document belongs to exactly one worker,
  assigned deterministically from its snapshot content hash
  (:func:`repro.store.shard_of`), so each document's index, evaluators
  and plan cache warm up in one process and stay there;
* **transport** — the shared :class:`~repro.store.CorpusStore` is the
  only document channel: the parent sends keys, workers hydrate mmap'd
  snapshots (fork/spawn startup pays no XML parse and no index build, and
  mapped snapshot pages are physically shared between processes);
* **wire format** — requests and results cross as the compact id-native
  frames of :mod:`repro.serving.wire` (query text + key in, sorted int32
  id arrays / scalars out), never as pickled nodes;
* **conversations** — each worker has one :class:`_Conversation`, a
  state machine without I/O: its queue and bounded in-flight window of
  queries and control frames, answered strictly in arrival order.  One
  driver does the pipe I/O: the pool's own event loop, on one daemon
  thread from construction to close, with a reader on every pipe and
  process sentinel, so one shard's slow query never holds up another
  shard's answer.  Blocking calls hand their exchanges to that loop and
  wait; :class:`~repro.serving.XPathServer` runs on it;
* **supervision** — a worker that dies (crash, kill, torn frame) is
  restarted with capped exponential backoff and re-warmed from the
  mmap'd store, and the requests that were in flight on it are replayed
  onto the restarted process.  Queries are read-only and idempotent, so
  replay cannot change an answer; it is bounded by a per-request retry
  budget and an optional wall-clock ``request_timeout``, after which the
  caller gets a typed :class:`WorkerCrashed` / :class:`ServingTimeout`
  carrying the worker index and attempt count.

The pool is a *backend*, not a second API: results come back as the same
:class:`~repro.engine.QueryResult` the in-process engine returns (the
reply frame's packed id bytes wired through untouched; a list of ints
or node objects materialise lazily, the latter from a parent-side
hydration of the same snapshot), errors re-raise as their original
exception types, and :meth:`ShardedPool.stats` merges the per-worker
engine counters with the pool's supervision counters (restarts, retried
and timed-out requests, per-worker liveness).  See ``docs/serving.md``
for the architecture, the wire format spec, the supervision state
machine and the operations guide.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import logging
import multiprocessing
import os
import sys
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Union

import repro
import repro.errors as _errors
from repro.errors import ReproError
from repro.engine.result import QueryResult
from repro.serving import wire
from repro.serving.worker import worker_main
from repro.store import CorpusStore, StoreKeyError, shard_of
from repro.store import corpus as _corpus
from repro.telemetry.exposition import counter_family, gauge_family
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.render import render_kv_block
from repro.telemetry.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.xpath.ast import XPathExpr

#: Frames in flight per worker before the pool waits for replies.
#: Big enough to hide IPC latency, small enough that request and reply
#: frames together stay far below any OS pipe buffer.
DEFAULT_WINDOW = 32

#: Restarts a worker may consume over the pool's lifetime before it is
#: marked permanently failed and its shard's requests fail fast.
DEFAULT_MAX_RESTARTS = 3

#: Times one request may be *replayed* onto a restarted worker before it
#: fails with :class:`WorkerCrashed` (total sends = 1 + this).
DEFAULT_MAX_RETRIES = 2

#: Capped exponential restart backoff: the n-th restart of a worker
#: sleeps ``min(RESTART_BACKOFF * 2**n, RESTART_BACKOFF_CAP)`` seconds.
RESTART_BACKOFF = 0.05
RESTART_BACKOFF_CAP = 1.0

#: LRU bound on the pool's parent-side document hydrations (the lazy
#: rehydrations backing ``QueryResult.nodes``); mirrors the engine
#: registry's default bound so a long-lived pool cannot pin the corpus.
PARENT_DOCUMENT_BOUND = 64

_env_lock = threading.Lock()

logger = logging.getLogger("repro.serving.pool")


class ServingError(ReproError):
    """The serving tier itself failed (dead worker, protocol violation)."""


class WorkerCrashed(ServingError):
    """A worker death could not be absorbed transparently.

    Raised when a request exhausts its replay budget on a crashing
    worker, or when a worker exhausts its restart budget and is marked
    permanently failed.  ``worker`` is the worker index, ``attempts`` the
    number of times the request was sent (0 when the error describes the
    worker rather than one request).
    """

    def __init__(self, message: str, worker: int = -1, attempts: int = 0) -> None:
        super().__init__(message)
        self.worker = worker
        self.attempts = attempts


class ServingTimeout(ServingError):
    """A request exceeded the pool's wall-clock ``request_timeout``.

    The owning worker is presumed hung and is killed and restarted; the
    timed-out request is *not* replayed (its budget is wall-clock, not
    attempts).  ``worker`` is the worker index, ``attempts`` how many
    times the request had been sent when the clock ran out.
    """

    def __init__(self, message: str, worker: int = -1, attempts: int = 0) -> None:
        super().__init__(message)
        self.worker = worker
        self.attempts = attempts


def _default_start_method() -> str:
    """``fork`` where the platform offers it (cheap, shares pages), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _start_with_child_importable(process) -> None:
    """Start ``process`` with the repro checkout importable in the child.

    A ``fork`` child inherits the parent's ``sys.path``; a ``spawn`` child
    starts a fresh interpreter that must find :mod:`repro` on its own —
    which fails when the package runs from a source checkout (the root
    ``conftest.py`` injects ``src/`` only into the parent).  Exporting the
    package root through ``PYTHONPATH`` for the duration of the start
    covers both cases.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    with _env_lock:
        saved = os.environ.get("PYTHONPATH")
        parts = [package_root] + ([saved] if saved else [])
        os.environ["PYTHONPATH"] = os.pathsep.join(parts)
        try:
            process.start()
        finally:
            if saved is None:
                os.environ.pop("PYTHONPATH", None)
            else:
                os.environ["PYTHONPATH"] = saved


def rebuild_error(type_name: str, message: str) -> Exception:
    """Rebuild a worker-side exception from its wire descriptor.

    Exception types are looked up in the library's own namespaces only
    (:mod:`repro.errors`, the store and wire errors, and this module's
    :class:`ServingError` family, so a network client gets the pool's
    :class:`ServingTimeout` / :class:`WorkerCrashed` typed) — a peer
    cannot make this process instantiate arbitrary types.  Unknown or
    unreconstructable types degrade to :class:`ServingError` with the
    original text.
    """
    for namespace in (_errors, _corpus, wire, sys.modules[__name__]):
        candidate = getattr(namespace, type_name, None)
        if (
            isinstance(candidate, type)
            and issubclass(candidate, ReproError)
        ):
            try:
                return candidate(message)
            except TypeError:
                break  # constructor wants more than a message
    return ServingError(f"{type_name}: {message}")


@dataclass(frozen=True)
class WorkerStats:
    """One worker's counters, as reported over the wire.

    ``alive``/``restarts`` are pool-side supervision facts: a permanently
    failed worker reports ``alive=False`` with zeroed engine counters, and
    a restarted worker's engine counters restart from zero with it.
    """

    worker: int
    pid: int
    served: int
    queries: int
    dispatch: Mapping[str, int]
    plan_hits: int
    plan_misses: int
    documents: int
    store_hits: int
    store_loads: int
    alive: bool = True
    restarts: int = 0


@dataclass(frozen=True)
class ServingStats:
    """Merged counters across every worker of a :class:`ShardedPool`."""

    workers: int
    served: int
    dispatch: Mapping[str, int]
    plan_hits: int
    plan_misses: int
    documents: int
    store_loads: int
    per_worker: tuple[WorkerStats, ...]
    restarts: int = 0
    retries: int = 0
    timeouts: int = 0
    rejected: int = 0

    def describe(self) -> str:
        """Render the merged snapshot as the CLI's ``--stats`` block."""
        dispatch = (
            " ".join(f"{name}={count}" for name, count in sorted(self.dispatch.items()))
            or "(none)"
        )
        shares = " ".join(
            f"w{stats.worker}={stats.served if stats.alive else 'down'}"
            for stats in self.per_worker
        )
        plan_total = self.plan_hits + self.plan_misses
        hit_rate = self.plan_hits / plan_total if plan_total else 0.0
        return render_kv_block(
            [
                (
                    "serving",
                    f"{self.workers} worker process(es), "
                    f"{self.served} request(s) served ({shares or 'none'})",
                ),
                ("worker dispatch", dispatch),
                (
                    "worker plan caches",
                    f"{self.plan_hits} hit(s), {self.plan_misses} miss(es), "
                    f"hit rate {hit_rate:.0%}",
                ),
                (
                    "worker documents",
                    f"{self.documents} hydrated, "
                    f"{self.store_loads} snapshot load(s)",
                ),
                (
                    "worker supervision",
                    f"{self.restarts} restart(s), "
                    f"{self.retries} retried request(s), {self.timeouts} "
                    f"timeout(s), {self.rejected} rejected batch(es)",
                ),
            ]
        )


class _LazyDocument:
    """A document that hydrates from the store on first real use.

    Wired into id-native :class:`~repro.engine.result.QueryResult`
    payloads as their document: callers that only read ``.ids`` or
    ``.packed_ids`` (the wire format's contract) never trigger a
    parent-side snapshot load —
    the load happens on the first ``.nodes``/``.value`` access, when the
    result object reaches for ``document.index``.
    """

    __slots__ = ("_load", "_resolved")

    def __init__(self, load) -> None:
        self._load = load
        self._resolved = None

    def _resolve(self):
        if self._resolved is None:
            self._resolved = self._load()
        return self._resolved

    @property
    def index(self):
        return self._resolve().index

    @property
    def hydrated(self) -> bool:
        """True once the underlying snapshot load has actually happened."""
        return self._resolved is not None

    def __getattr__(self, name):
        return getattr(self._resolve(), name)




#: The reply each request frame is owed.  A QUERY's TRACE frame, if it
#: asked for one, arrives just before its reply and is absorbed into it.
_REPLIES = {
    wire.MSG_QUERY: (wire.MSG_RESULT_IDS, wire.MSG_RESULT_VALUE, wire.MSG_ERROR),
    wire.MSG_WARM: (wire.MSG_READY,),
    wire.MSG_PING: (wire.MSG_PONG,),
    wire.MSG_STATS: (wire.MSG_STATS_REPLY,),
    wire.MSG_DRAIN: (wire.MSG_DRAINED,),
}


@dataclass(slots=True, eq=False)
class _Exchange:
    """One request frame and the reply a worker owes it.

    The first ``outcome`` (reply message or exception) wins and runs
    ``on_done``.  A worker death re-sends the frame to the restarted
    process, except a ``barrier`` — a restarted worker's own WARM, which
    nothing after it may overtake.
    """

    frame: bytes
    on_done: Optional[Callable] = None
    barrier: bool = False
    timeout: Optional[float] = None
    attempts: int = 0
    sent: Optional[float] = None  # perf_counter of the first send
    expiry: Optional[asyncio.TimerHandle] = None  # armed at the first send
    trace: Optional[dict] = None  # the TRACE payload, if any
    outcome: object = None
    finished: Optional[float] = None

    def finish(self, outcome) -> None:
        if self.outcome is not None:
            return
        self.outcome = outcome
        self.finished = perf_counter()
        if self.expiry is not None:
            self.expiry.cancel()
        if self.on_done is not None:
            try:
                self.on_done(self)
            except Exception:
                # A faulty completion must not strand the other exchanges
                # its driver settles in the same pass.
                logger.exception("an exchange's completion callback failed")


@dataclass(slots=True, eq=False)
class _Conversation:
    """One worker's side of the pool↔worker dialogue, with no I/O.

    ``queue`` holds exchanges not yet sent, ``inflight`` those sent and
    unanswered, oldest first.  A worker answers strictly in arrival
    order, so the next reply frame belongs to ``inflight[0]``.
    """

    window: int
    queue: deque = field(default_factory=deque)
    inflight: deque = field(default_factory=deque)

    def sendable(self, now: float) -> list:
        """Move what the window admits from the queue into flight."""
        queue, inflight = self.queue, self.inflight
        sent = []
        while queue and len(inflight) < self.window and not (
            inflight and inflight[0].barrier
        ):
            exchange = queue.popleft()
            if exchange.outcome is not None:
                continue  # settled before it was sent
            exchange.attempts += 1
            if exchange.sent is None:
                exchange.sent = now
            inflight.append(exchange)
            sent.append(exchange)
        return sent

    def on_reply(self, message: wire.Message) -> Optional[_Exchange]:
        """The exchange ``message`` answers (None for a TRACE frame)."""
        if not self.inflight:
            raise ServingError(f"unsolicited frame of type {message.type}")
        head = self.inflight[0]
        request = head.frame[4]
        if message.type == wire.MSG_TRACE and request == wire.MSG_QUERY:
            head.trace = message.payload
            return None
        if message.type not in _REPLIES[request]:
            raise ServingError(
                f"frame of type {message.type} answers a type-{request} request"
            )
        return self.inflight.popleft()


def _result_by(answer: concurrent.futures.Future, deadline: Optional[float]):
    """``answer``'s result, or None if ``deadline`` passes first."""
    with contextlib.suppress(concurrent.futures.TimeoutError):
        return answer.result(
            None if deadline is None else max(0.0, deadline - perf_counter())
        )


@dataclass(slots=True, eq=False)
class _Worker:
    """One worker slot: its process, the parent's pipe end, its conversation.

    ``conn`` is None while the slot has no live process; ``failed``
    marks a slot past its restart budget (its requests fail fast with
    :class:`WorkerCrashed`).  While ``conn`` is set the loop reads it and
    the process sentinel; ``respawn`` is the pending restart's timer.
    """

    index: int
    process: object
    conn: object
    conversation: _Conversation
    restarts: int = 0
    failed: bool = False
    respawn: object = None


class ShardedPool:
    """N worker processes serving a corpus store's documents by shard.

    Parameters
    ----------
    store:
        The shared :class:`~repro.store.CorpusStore` (or its directory
        path).  Workers open it read-only; it is the only channel
        documents travel over.
    workers:
        Number of worker processes (= number of shards).
    mmap:
        Hydrate snapshots via mmap in the workers (and for the parent's
        lazy node materialisation).  On by default: mapped pages of one
        snapshot are shared between every process that maps it.
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; default ``fork``
        where available, else ``spawn``.  See ``docs/serving.md`` for the
        trade-off.
    warm:
        Hydrate every manifest key into its shard's worker before
        :meth:`__init__` returns, so the first query hits a warm index.
        Restarted workers are always re-warmed before rejoining rotation.
    window:
        Frames in flight per worker before the pool waits for replies.
    max_restarts:
        Supervisor restarts each worker slot may consume over the pool's
        lifetime; beyond it the slot is permanently failed and its
        requests raise :class:`WorkerCrashed`.
    max_retries:
        Times one in-flight request may be replayed onto a restarted
        worker before it fails with :class:`WorkerCrashed`.
    request_timeout:
        Optional wall-clock bound (seconds) per request, measured from
        its first send.  An overdue request's worker is presumed hung:
        it is killed and restarted, the overdue request raises
        :class:`ServingTimeout`, and the worker's other in-flight
        requests are replayed under their retry budgets.
    restart_backoff:
        Base of the capped exponential restart backoff (seconds).

    The pool is thread-safe: it owns one event loop on one daemon thread
    (``repro-pool``), which does all of its pipe I/O, request deadlines
    and restart backoffs.  Blocking calls from any other thread hand
    their exchanges to the loop and wait; on the loop's own thread they
    raise :class:`ServingError` instead of deadlocking (:meth:`submit` is
    the loop's path).  It is a context manager; :meth:`drain` stops
    admission and shuts down gracefully, :meth:`close` is
    drain-with-deadline and is idempotent; either stops the loop.
    """

    def __init__(
        self,
        store: Union[CorpusStore, str, os.PathLike],
        workers: int = 4,
        mmap: bool = True,
        start_method: Optional[str] = None,
        warm: bool = True,
        window: int = DEFAULT_WINDOW,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        max_retries: int = DEFAULT_MAX_RETRIES,
        request_timeout: Optional[float] = None,
        restart_backoff: float = RESTART_BACKOFF,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if window < 1:
            raise ValueError("window must be at least 1")
        if max_restarts < 0:
            raise ValueError("max_restarts must be at least 0")
        if max_retries < 0:
            raise ValueError("max_retries must be at least 0")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if not isinstance(store, CorpusStore):
            store = CorpusStore(store)
        self.store = store
        self.workers = workers
        self.mmap = mmap
        self.start_method = start_method or _default_start_method()
        self.window = window
        self.max_restarts = max_restarts
        self.max_retries = max_retries
        self.request_timeout = request_timeout
        self.restart_backoff = restart_backoff
        self._closed = False
        # The open→closed transition: exactly one of racing drain()/close()
        # calls runs _shutdown, and no blocking call hands the loop an
        # exchange after it began.
        self._lifecycle_lock = threading.Lock()
        # The one driver: its loop and the thread that runs it.
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._drive, name="repro-pool", daemon=True
        )
        # Supervision counters live in a telemetry registry so the ops
        # endpoints can expose them without a parallel bookkeeping path;
        # stats() renders the same counters into ServingStats.
        self.metrics = MetricsRegistry()
        self._restarts_total = self.metrics.counter(
            "repro_pool_restarts_total",
            "Worker processes restarted by the supervisor.",
        )
        self._retries_total = self.metrics.counter(
            "repro_pool_retries_total",
            "Requests replayed onto a restarted worker.",
        )
        self._timeouts_total = self.metrics.counter(
            "repro_pool_timeouts_total",
            "Requests that exceeded the wall-clock request timeout.",
        )
        self._rejected_total = self.metrics.counter(
            "repro_pool_rejected_total",
            "Batch slots rejected for unknown store keys.",
        )
        self._requests_total = self.metrics.counter(
            "repro_pool_requests_total",
            "Requests answered by a worker.",
        )
        self._request_seconds = self.metrics.histogram(
            "repro_pool_request_seconds",
            "Per-request round-trip time through the worker pipe.",
        )
        # content hash -> _LazyDocument, LRU-bounded (see _document)
        self._documents: "OrderedDict[str, _LazyDocument]" = OrderedDict()
        self._context = multiprocessing.get_context(self.start_method)
        self._pool: list[_Worker] = []
        # One callback per server listening on the loop, which the loop's
        # teardown calls: it closes the listener, aborts the connections
        # and returns their handler tasks.  A server cannot outlive its pool.
        self._listeners: set = set()
        try:
            try:
                # Forked before the loop thread exists; the readers go on
                # before the loop runs, so this needs no thread hop.
                for index in range(workers):
                    process, conn = self._spawn(index)
                    worker = _Worker(index, process, conn, _Conversation(window))
                    self._pool.append(worker)
                    self._watch(worker)
            finally:
                self._thread.start()
            if warm:
                self.warm_up()
        except BaseException:
            self.close()
            raise

    # -- lifecycle ---------------------------------------------------------

    def warm_up(self) -> list[int]:
        """Hydrate every manifest key into its shard's worker; returns counts.

        Safe to call again after new :meth:`~repro.store.CorpusStore.put`
        calls — warm keys are registry hits inside the worker, cold ones
        cost exactly one snapshot load each.  A worker that dies while
        warming is restarted under the supervisor's budget; past the
        budget a :class:`WorkerCrashed` naming the worker is raised
        (never a raw ``EOFError``/``OSError`` from the pipe).
        """
        layout = self.store.shard_layout(self.workers)
        plan = [
            (worker, _Exchange(
                wire.encode_warm([entry.key for entry in layout[worker.index]])
            ))
            for worker in self._pool
            if not worker.failed
        ]
        self._run(plan)
        counts = [0] * self.workers
        for worker, exchange in plan:
            if isinstance(exchange.outcome, Exception):
                raise exchange.outcome
            counts[worker.index] = exchange.outcome.hydrated
        return counts

    def ping(self, timeout: float = 5.0) -> tuple[bool, ...]:
        """Probe every worker with PING; returns per-worker liveness.

        A worker is healthy when it answers PONG (with its own pid)
        within the shared ``timeout``.  A worker already dead reports
        False; the pool's loop restarts it after its backoff, as it does
        one that dies during the probe.  A drain/close racing the probe
        fails what it has not answered (False).
        """
        deadline = perf_counter() + timeout
        plan = [
            (worker, _Exchange(wire.encode_ping(worker.index)))
            for worker in self._pool
        ]
        self._run(plan, deadline, probe=True)
        healthy = {
            worker.index: exchange.outcome.pid == worker.process.pid
            for worker, exchange in plan
            if isinstance(exchange.outcome, wire.Message)
        }
        return tuple(healthy.get(index, False) for index in range(self.workers))

    def drain(self, timeout: float = 5.0) -> tuple[Optional[int], ...]:
        """Stop admission, flush the workers, then shut down.

        Sends ``DRAIN`` to every live worker and collects ``DRAINED``
        acknowledgements under one pool-wide ``timeout``; a worker
        answers in arrival order, so the acknowledgement doubles as a
        zero-lost-requests receipt.  Returns the per-worker served count
        from each acknowledgement (``None`` for workers that were already
        dead or missed the deadline — those are terminated).  The pool is
        closed afterwards, its loop thread stopped; further calls raise
        :class:`ServingError`.
        """
        self._require_off_loop()
        with self._lifecycle_lock:
            self._require_open()
            self._closed = True
            return self._shutdown(timeout, graceful=True)

    def close(self, timeout: float = 5.0) -> None:
        """Drain-with-deadline: shut every worker down within ``timeout``.

        The deadline is **pool-wide**, not per worker: with N hung
        workers the call still returns in roughly ``timeout`` (plus a
        short kill grace), never ``N × timeout``.  Idempotent, including
        against a concurrent :meth:`drain`/:meth:`close` from another
        thread: exactly one caller shuts the workers down, the rest
        return (or raise, for ``drain`` on a closed pool) once it has.
        Called on the pool's own loop (a finalizer may run there), it
        hands the shutdown to a thread of its own and returns at once.
        """
        if threading.get_ident() == self._thread.ident:
            threading.Thread(target=self.close, args=(timeout,), daemon=True).start()
            return
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            self._shutdown(timeout, graceful=False)

    def _shutdown(
        self, timeout: float, graceful: bool
    ) -> tuple[Optional[int], ...]:
        """Common drain/close mechanics under one pool-wide deadline.

        On the loop: the DRAIN exchange (``graceful``), then
        :meth:`_teardown`, which stops the loop; the loop thread is
        joined and the processes reaped here.
        """
        deadline = perf_counter() + timeout
        acks: list[Optional[int]] = [None] * len(self._pool)
        if self._thread.is_alive():
            if graceful:
                plan = [
                    (worker, _Exchange(wire.encode_drain()))
                    for worker in self._pool
                ]
                _result_by(
                    self._hand_over(partial(self._dispatch, plan, True)),
                    deadline,
                )
                for worker, exchange in plan:
                    if isinstance(exchange.outcome, wire.Message):
                        acks[worker.index] = exchange.outcome.served
            self._loop.call_soon_threadsafe(self._teardown, graceful)
            self._thread.join()
        for worker in self._pool:
            if worker.process.is_alive():
                worker.process.join(max(0.0, deadline - perf_counter()))
        stragglers = [w for w in self._pool if w.process.is_alive()]
        for worker in stragglers:  # pragma: no cover - hang backstop
            worker.process.kill()
        for worker in stragglers:  # pragma: no cover - hang backstop
            worker.process.join(1.0)
        return tuple(acks)

    def __enter__(self) -> "ShardedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` (or :meth:`drain`) has run."""
        return self._closed

    # -- routing -----------------------------------------------------------

    def shard_for(self, key: str) -> int:
        """The worker index serving ``key`` (deterministic, hash-based)."""
        return shard_of(self.store.stat(key).hash, self.workers)

    # -- evaluation --------------------------------------------------------

    def evaluate(
        self,
        query: "Union[XPathExpr, str]",
        key: str,
        ids: bool = False,
        trace: bool = False,
    ) -> QueryResult:
        """Evaluate one query against the document stored under ``key``."""
        return self.evaluate_batch([(query, key)], ids=ids, trace=trace)[0]

    def evaluate_batch(
        self,
        requests: Iterable[tuple],
        ids: bool = False,
        return_errors: bool = False,
        trace: bool = False,
    ) -> list[QueryResult]:
        """Evaluate ``(query, key)`` pairs across the shards.

        Results come back in input order as
        :class:`~repro.engine.QueryResult` objects and are identical to
        evaluating each request in process.  ``ids=True`` enforces the
        ``evaluate_many_ids`` contract (node-set answers only).  The
        first failing request (by input order) re-raises its worker-side
        exception — after the whole batch has been answered, so the
        conversations stay clean for the next call.  Every key is
        validated against the manifest before anything is enqueued: an
        unknown key rejects the whole batch (counted in
        :class:`ServingStats` ``rejected``) without dispatching a frame.

        ``return_errors=True`` makes nothing raise: a failing request's
        slot carries its rebuilt exception object instead of a result,
        an unknown key fails only its own slot (still counted in
        ``rejected``), and the rest of the batch proceeds normally.

        ``trace=True`` asks the workers for per-stage spans: each
        result's ``trace`` is a ``pool``-tier span tree
        (``enqueue → dispatch → decode``) with the worker's
        ``worker-eval`` / engine spans attached as a child.
        ``wall_time`` is always stamped (traced or not) with the
        request's pipe round-trip time.
        """
        self._require_open()
        batch_start = perf_counter()
        items = []
        for request in requests:
            if not (isinstance(request, tuple) and len(request) == 2):
                raise TypeError(
                    f"request must be a (query, key) pair, got {request!r}"
                )
            query, key = request
            if not isinstance(query, str):
                query = query.unparse()
            items.append((query, str(key)))
        if not items:
            return []

        # Validate the whole batch against the manifest before enqueuing
        # anything (_run does): a bad key leaves nothing half-staged.
        entries: list = []
        plan, exchanges = [], []
        for seq, (query, key) in enumerate(items):
            try:
                entry = self.store.stat(key)
            except StoreKeyError as error:
                self._rejected_total.inc()
                if not return_errors:
                    raise
                entries.append(error)
                exchanges.append(None)
                continue
            exchange = _Exchange(
                wire.encode_query(seq, key, query, ids_only=ids, trace=trace),
                timeout=self.request_timeout,
            )
            plan.append((self._pool[shard_of(entry.hash, self.workers)], exchange))
            entries.append(entry)
            exchanges.append(exchange)
        self._run(plan)

        results = []
        failure: Optional[Exception] = None
        for seq, exchange in enumerate(exchanges):
            answer = entries[seq] if exchange is None else self._answer(
                items[seq][0], entries[seq].hash, exchange, batch_start, trace
            )
            if isinstance(answer, Exception):
                failure = failure or answer
                answer = answer if return_errors else None
            results.append(answer)
        if failure is not None and not return_errors:
            raise failure
        return results

    def submit(
        self, query: str, key: str, done, ids: bool = False, trace: bool = False
    ) -> None:
        """Queue one query; call it on the pool's own event loop.

        The frame goes to its shard's worker at once; ``done`` runs on
        the loop with the :class:`~repro.engine.QueryResult`, or with the
        exception that is the answer.  As in :meth:`evaluate_batch`
        otherwise (it is :class:`~repro.serving.XPathServer`'s path).
        """
        submitted = perf_counter()
        if self._closed:
            done(ServingError("the pool is closed"))
            return
        try:
            entry = self.store.stat(key)
        except StoreKeyError as error:
            self._rejected_total.inc()
            done(error)
            return
        worker = self._pool[shard_of(entry.hash, self.workers)]
        self._submit(worker, _Exchange(
            wire.encode_query(0, key, query, ids_only=ids, trace=trace),
            lambda settled: done(
                self._answer(query, entry.hash, settled, submitted, trace)
            ),
            timeout=self.request_timeout,
        ))
        self._flush(worker)

    def _answer(self, query, content_hash, exchange, started, traced):
        """A settled query exchange as its QueryResult, or its error."""
        message = exchange.outcome
        if isinstance(message, Exception):
            return message
        if message.type == wire.MSG_ERROR:
            return rebuild_error(*message.error)
        sent, done = exchange.sent, exchange.finished
        wall = done - sent
        self._requests_total.inc()
        self._request_seconds.observe(wall)
        pool_trace = None
        if traced:
            pool_trace = Trace("pool")
            pool_trace.add_span("enqueue", offset=0.0, duration=sent - started)
            pool_trace.add_span("dispatch", offset=sent - started, duration=wall)
        if message.type == wire.MSG_RESULT_IDS:
            payload = dict(document=self._document(content_hash), ids=message.packed)
        else:
            payload = dict(document=None, value=message.value)
        result = QueryResult(
            query=query, engine="sharded", wall_time=wall, trace=pool_trace,
            **payload,
        )
        if pool_trace is not None:
            pool_trace.add_span(
                "decode", offset=done - started, duration=perf_counter() - done
            )
            if exchange.trace is not None:
                pool_trace.add_child(Trace.from_dict(exchange.trace))
        return result

    # -- statistics --------------------------------------------------------

    def stats(self) -> ServingStats:
        """Merge every worker's engine counters into one snapshot.

        Dead-while-idle workers are revived first (budget permitting);
        a permanently failed worker contributes a zeroed row with
        ``alive=False``.  Engine counters are per *process*: a restarted
        worker's counters restart from zero (the pool-side ``restarts``/
        ``retries``/``timeouts`` totals persist across restarts).  This
        is :meth:`collect_stats`, handed to the pool's loop and waited
        for.
        """
        stats = self._wait(self.collect_stats)
        if isinstance(stats, Exception):
            raise stats
        return stats

    def collect_stats(self, done: Callable) -> None:
        """:meth:`stats`, called on the pool's own event loop.

        One STATS exchange per worker slot; ``done`` runs on the loop
        with the merged :class:`ServingStats`, or with the exception that
        is the answer (it is the server's STATS/METRICS path).
        """
        if self._closed:
            done(ServingError("the pool is closed"))
            return
        plan = [  # a failed or hung slot's exchange fails: a zeroed row
            (worker, _Exchange(
                wire.encode_stats_request(), timeout=self.request_timeout
            ))
            for worker in self._pool
        ]
        self._dispatch(plan, False, lambda _: done(self._merged_stats(plan)))

    def _merged_stats(self, plan: list) -> ServingStats:
        per_worker = []
        for worker, exchange in plan:
            reply = exchange.outcome
            alive = isinstance(reply, wire.Message)
            payload = reply.payload if alive else dict(  # a failed slot: zeroes
                worker=worker.index, pid=worker.process.pid or 0, served=0,
                queries=0, dispatch={}, plan_hits=0, plan_misses=0,
                documents=0, store_hits=0, store_loads=0,
            )
            per_worker.append(
                WorkerStats(**payload, alive=alive, restarts=worker.restarts)
            )
        dispatch: dict[str, int] = {}
        for stats in per_worker:
            for engine, count in stats.dispatch.items():
                dispatch[engine] = dispatch.get(engine, 0) + count
        return ServingStats(
            workers=self.workers,
            served=sum(stats.served for stats in per_worker),
            dispatch=dispatch,
            plan_hits=sum(stats.plan_hits for stats in per_worker),
            plan_misses=sum(stats.plan_misses for stats in per_worker),
            documents=sum(stats.documents for stats in per_worker),
            store_loads=sum(stats.store_loads for stats in per_worker),
            per_worker=tuple(per_worker),
            restarts=int(self._restarts_total.value()),
            retries=int(self._retries_total.value()),
            timeouts=int(self._timeouts_total.value()),
            rejected=int(self._rejected_total.value()),
        )

    def metric_families(self) -> list[dict]:
        """Pool metrics plus derived worker families, for exposition.

        Returns the family-dict exchange format of
        :mod:`repro.telemetry.exposition`: the pool registry's counters
        and latency histogram, then gauge/counter families derived from
        a fresh :meth:`stats` round-trip (per-worker served counts and
        the merged engine counters).  Like :meth:`stats`, it talks to
        the workers.
        """
        return self._metric_families(self.stats())

    def _metric_families(self, stats: ServingStats) -> list[dict]:
        """:meth:`metric_families` from a snapshot already collected."""
        return self.metrics.snapshot() + [
            gauge_family(
                "repro_pool_workers", "Worker process slots.", self.workers
            ),
            gauge_family(
                "repro_pool_workers_alive", "Worker processes currently alive.",
                sum(1 for row in stats.per_worker if row.alive),
            ),
            counter_family(
                "repro_pool_worker_served_total",
                "Requests served, by worker slot.",
                [({"worker": str(row.worker)}, row.served)
                 for row in stats.per_worker],
            ),
            counter_family(
                "repro_pool_worker_dispatch_total",
                "Engine dispatch counts merged across workers.",
                [({"engine": name}, count)
                 for name, count in sorted(stats.dispatch.items())],
            ),
            counter_family(
                "repro_pool_worker_plan_cache_total",
                "Merged worker plan-cache lookups, by outcome.",
                [({"outcome": "hit"}, stats.plan_hits),
                 ({"outcome": "miss"}, stats.plan_misses)],
            ),
            gauge_family(
                "repro_pool_worker_documents",
                "Documents hydrated across the workers.",
                stats.documents,
            ),
        ]

    # -- the driver: the pool's event loop ---------------------------------

    def _drive(self) -> None:
        """The loop thread: run the loop until :meth:`_teardown` stops it.

        Whatever a server still left on the loop (a slow write, a drain
        in progress) is cancelled and run out before the loop closes.
        """
        loop = self._loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_forever()
            leftover = asyncio.all_tasks(loop)
            for task in leftover:
                task.cancel()
            loop.run_until_complete(
                asyncio.gather(*leftover, return_exceptions=True)
            )
        finally:
            loop.close()

    def _run(self, plan: list, deadline: Optional[float] = None,
             probe: bool = False) -> None:
        """Settle ``plan``'s ``(worker, exchange)`` pairs, or stop at ``deadline``."""
        self._wait(partial(self._dispatch, plan, probe), deadline)

    def _wait(self, start: Callable, deadline: Optional[float] = None):
        """Run ``start(done)`` on the loop and wait for its ``done(value)``.

        Returns ``value`` (None if ``deadline`` passed first).
        """
        self._require_off_loop()
        with self._lifecycle_lock:
            self._require_open()
            answer = self._hand_over(start)
        return _result_by(answer, deadline)

    def _hand_over(self, start: Callable) -> concurrent.futures.Future:
        answer = concurrent.futures.Future()
        self._loop.call_soon_threadsafe(start, answer.set_result)
        return answer

    def _dispatch(self, plan: list, probe: bool, done: Callable) -> None:
        """On the loop: take up ``plan``'s exchanges and send them; ``done``
        runs once every one has settled.

        A worker that died idle is buried (and so restarted) first, even
        if its sentinel is not read yet.  A ``probe``'s exchange for a
        worker that is down fails at once instead of waiting for the
        restart.
        """
        owed = len(plan)

        def settled(exchange: _Exchange) -> None:
            nonlocal owed
            owed -= 1
            if not owed:
                done(None)

        for _, exchange in plan:
            exchange.on_done = settled
        if not plan:
            done(None)
        for worker in self._pool:
            if worker.conn is not None and not worker.process.is_alive():
                self._died(worker)
        for worker, exchange in plan:
            if probe and worker.conn is None:
                exchange.finish(ServingError(f"worker {worker.index} is down"))
            else:
                self._submit(worker, exchange)
        for worker in self._pool:
            self._flush(worker)

    def _teardown(self, graceful: bool) -> None:
        """On the loop, last: close the servers bound on it, let go of
        every pipe, fail what is owed, and stop once the aborted
        connections' handlers have ended (Python 3.11's stream protocol
        logs a cancelled handler as an error)."""
        handlers = [task for abandon in list(self._listeners) for task in abandon()]
        for worker in self._pool:
            if worker.respawn is not None:
                worker.respawn.cancel()
            if worker.conn is not None:
                self._unwatch(worker)
                if not graceful:
                    with contextlib.suppress(OSError, ValueError):
                        worker.conn.send_bytes(wire.encode_shutdown())
                worker.conn.close()
                worker.conn = None
            self._strand(worker)
        if handlers:
            asyncio.gather(*handlers, return_exceptions=True).add_done_callback(
                lambda _: self._loop.stop()
            )
        else:
            self._loop.stop()

    def _watch(self, worker: _Worker) -> None:
        conn, process = worker.conn, worker.process
        self._loop.add_reader(conn.fileno(), self._on_ready, worker, conn)
        self._loop.add_reader(process.sentinel, self._on_ready, worker, process)

    def _unwatch(self, worker: _Worker) -> None:
        self._loop.remove_reader(worker.conn.fileno())
        self._loop.remove_reader(worker.process.sentinel)

    def _on_ready(self, worker: _Worker, source) -> None:
        """``worker``'s pipe has a frame, or its process ended (then its
        last replies are read before it is buried)."""
        conn = worker.conn
        if source is conn:
            self._read(worker)
        elif source is worker.process and conn is not None:
            while worker.conn is conn and conn.poll():
                self._read(worker)
            if worker.conn is conn:
                self._died(worker)

    # -- the conversations -------------------------------------------------

    def _submit(self, worker: _Worker, exchange: _Exchange) -> None:
        if worker.failed:
            exchange.finish(WorkerCrashed(
                f"worker {worker.index} is permanently failed (restart "
                "budget exhausted); request was never dispatched",
                worker=worker.index,
            ))
        else:
            worker.conversation.queue.append(exchange)

    def _flush(self, worker: _Worker) -> None:
        """Send what ``worker``'s window admits; a failed send is its death."""
        if worker.conn is None:
            return
        try:
            for exchange in worker.conversation.sendable(perf_counter()):
                self._send(worker, exchange.frame)
                if exchange.timeout is not None and exchange.expiry is None:
                    exchange.expiry = self._loop.call_later(
                        exchange.timeout, self._expire, worker, exchange
                    )
        except (OSError, ValueError):
            self._died(worker)

    def _read(self, worker: _Worker) -> None:
        """Take one frame from ``worker``'s pipe into its conversation."""
        try:
            message = wire.decode(worker.conn.recv_bytes())
            exchange = worker.conversation.on_reply(message)
        except (EOFError, OSError, ReproError) as error:
            if isinstance(error, ReproError):  # a malformed or out-of-turn frame
                logger.warning("worker %d broke the protocol: %s", worker.index, error)
            self._died(worker)
            return
        if exchange is not None:
            exchange.finish(message)
            if worker.conversation.queue:
                self._flush(worker)  # the reply freed a slot in the window

    def _expire(self, worker: _Worker, exchange: _Exchange) -> None:
        """``exchange`` outlived ``request_timeout`` (from its first send):
        it fails, and a worker that has it in flight is presumed hung and
        replaced (one waiting in the queue for a restart is left be)."""
        hung = exchange in worker.conversation.inflight
        self._timeouts_total.inc()
        exchange.finish(ServingTimeout(
            f"request timed out after {self.request_timeout:.3g}s on "
            f"worker {worker.index} (sent {exchange.attempts} time(s))",
            worker=worker.index,
            attempts=exchange.attempts,
        ))
        if hung:
            self._died(worker)

    def _died(self, worker: _Worker) -> None:
        """Bury ``worker``; replay what it owed on a fresh process, or fail it.

        Within ``max_restarts``, replayable exchanges are requeued (each
        at most ``max_retries`` times) and the slot restarts after the
        backoff; past it the slot fails, with all it owed or had queued.
        """
        self._unwatch(worker)
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(5.0)
        worker.conn.close()
        worker.conn = None
        if self._closed:
            self._strand(worker)
            return
        conversation = worker.conversation
        lost = [e for e in conversation.inflight if e.outcome is None]
        conversation.inflight.clear()
        if worker.restarts >= self.max_restarts:
            worker.failed = True
            for exchange in lost:
                exchange.finish(WorkerCrashed(
                    f"worker {worker.index} crashed and exhausted its restart "
                    f"budget with this request in flight "
                    f"(sent {exchange.attempts} time(s))",
                    worker=worker.index,
                    attempts=exchange.attempts,
                ))
            while conversation.queue:
                self._submit(worker, conversation.queue.popleft())
            return
        replay = []
        for exchange in lost:
            if exchange.barrier:
                exchange.finish(ServingError(f"worker {worker.index} died warming"))
            elif exchange.attempts > self.max_retries:
                exchange.finish(WorkerCrashed(
                    f"request exhausted its retry budget: worker "
                    f"{worker.index} died {exchange.attempts} time(s) with it "
                    f"in flight (max_retries={self.max_retries})",
                    worker=worker.index,
                    attempts=exchange.attempts,
                ))
            else:
                replay.append(exchange)
                self._retries_total.inc()
        conversation.queue.extendleft(reversed(replay))
        backoff = min(
            self.restart_backoff * (2 ** worker.restarts), RESTART_BACKOFF_CAP
        )
        worker.respawn = self._loop.call_later(backoff, self._respawn, worker)

    def _respawn(self, worker: _Worker) -> None:
        """Start a buried worker's new process; it warms up before it serves."""
        worker.respawn = None
        if self._closed:
            return  # _teardown fails what the slot still holds
        worker.restarts += 1
        self._restarts_total.inc()
        worker.process, worker.conn = self._spawn(worker.index)
        layout = self.store.shard_layout(self.workers)
        warm = wire.encode_warm([entry.key for entry in layout[worker.index]])
        worker.conversation.queue.appendleft(
            _Exchange(warm, barrier=True)
        )
        self._watch(worker)
        self._flush(worker)

    def _strand(self, worker: _Worker) -> None:
        """Fail everything ``worker`` owes or has queued: the pool is closed."""
        conversation = worker.conversation
        owed = [*conversation.inflight, *conversation.queue]
        conversation.inflight.clear()
        conversation.queue.clear()
        for exchange in owed:
            exchange.finish(ServingError("the pool is closed"))

    # -- internals ---------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise ServingError("the pool is closed")

    def _require_off_loop(self) -> None:
        if threading.get_ident() == self._thread.ident:
            raise ServingError(
                "a blocking pool call on the pool's own event loop would "
                "deadlock; use submit() there"
            )

    def _spawn(self, index: int):
        """Start one worker process; returns ``(process, parent_conn)``."""
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=worker_main,
            args=(child_conn, self.store.root, self.mmap, index),
            name=f"repro-serve-{index}",
            daemon=True,
        )
        _start_with_child_importable(process)
        child_conn.close()
        return process, parent_conn

    def _document(self, content_hash: str) -> _LazyDocument:
        """The parent-side document for lazy node materialisation.

        A :class:`_LazyDocument`: nothing loads until a caller actually
        materialises nodes (``.nodes``/``.value``), at which point the
        snapshot is hydrated from the same bytes the worker evaluated
        against (mmap'd by default, so the pages are the worker's
        pages).  Hydrations are shared per content hash and LRU-bounded
        at :data:`PARENT_DOCUMENT_BOUND` — results handed out before an
        eviction keep their own reference and stay valid.  Every step is
        one dict operation: the loop thread and a blocking caller may
        both be here.
        """
        document = self._documents.pop(content_hash, None)
        if document is None:
            document = _LazyDocument(
                lambda: self.store.get(content_hash, mmap=self.mmap)
            )
        self._documents[content_hash] = document
        if len(self._documents) > PARENT_DOCUMENT_BOUND:
            self._documents.popitem(last=False)
        return document

    def _send(self, worker: _Worker, frame: bytes) -> None:
        worker.conn.send_bytes(frame)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"<ShardedPool {self.workers} worker(s) {self.start_method} "
            f"{state} store={self.store.root!r}>"
        )
