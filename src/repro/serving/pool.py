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
* **dispatch** — a batch is split by shard, streamed to each worker under
  a bounded in-flight window (both pipe directions keep flowing, so a
  batch larger than the OS pipe buffer cannot deadlock), and reassembled
  in input order by correlation id;
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

import multiprocessing
import os
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Union

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

#: Frames in flight per worker before the dispatcher waits for replies.
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

#: How long the dispatcher waits for a reply before re-checking that the
#: owing workers are still alive (long evaluations just loop).
_LIVENESS_POLL = 1.0

#: LRU bound on the pool's parent-side document hydrations (the lazy
#: rehydrations backing ``QueryResult.nodes``); mirrors the engine
#: registry's default bound so a long-lived pool cannot pin the corpus.
PARENT_DOCUMENT_BOUND = 64

_env_lock = threading.Lock()


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


class _WorkerDied(ServingError):
    """Internal: a pipe operation found the worker dead (supervised)."""

    def __init__(self, worker: "_Worker", what: str = "died mid-conversation") -> None:
        super().__init__(
            f"worker {worker.index} (pid {worker.process.pid}) {what}"
        )
        self.worker = worker


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
    (:mod:`repro.errors`, the store errors) — a worker cannot make the
    parent instantiate arbitrary types.  Unknown or unreconstructable
    types degrade to :class:`ServingError` with the original text.
    """
    for namespace in (_errors, _corpus, wire):
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


class _Worker:
    """One child process plus the parent's end of its pipe.

    ``restarts`` counts the supervisor restarts this slot has consumed;
    ``failed`` marks a slot whose budget is exhausted — its shard's
    requests fail fast with :class:`WorkerCrashed` instead of hanging.
    """

    __slots__ = ("index", "process", "conn", "restarts", "failed")

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.restarts = 0
        self.failed = False


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
        Frames in flight per worker before the dispatcher waits.
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

    The pool is **not** thread-safe: it is a single-dispatcher backend
    (put it behind an :class:`~repro.engine.XPathEngine` or your own lock
    to share it).  It is a context manager; :meth:`drain` stops admission
    and shuts down gracefully, :meth:`close` is drain-with-deadline and
    is idempotent.
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
        # drain()/close() may race from different threads (a front door's
        # signal handler vs. its request loop): this lock makes the
        # open→closed transition atomic, so exactly one caller runs
        # _shutdown and the others observe an already-closed pool.
        self._lifecycle_lock = threading.Lock()
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
            "Requests dispatched through evaluate_batch.",
        )
        self._request_seconds = self.metrics.histogram(
            "repro_pool_request_seconds",
            "Per-request round-trip time through the worker pipe.",
        )
        # content hash -> _LazyDocument, LRU-bounded (see _document)
        self._documents: "OrderedDict[str, _LazyDocument]" = OrderedDict()
        self._context = multiprocessing.get_context(self.start_method)
        self._pool: list[_Worker] = []
        try:
            for index in range(workers):
                process, conn = self._spawn(index)
                self._pool.append(_Worker(index, process, conn))
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
        self._require_open()
        layout = self.store.shard_layout(self.workers)
        counts = [0] * self.workers
        pending = []
        for worker in self._pool:
            if worker.failed:
                continue
            keys = [entry.key for entry in layout[worker.index]]
            try:
                self._send(worker, wire.encode_warm(keys))
            except _WorkerDied:
                counts[worker.index] = self._revive(worker)
                continue
            pending.append(worker)
        for worker in pending:
            try:
                counts[worker.index] = self._expect(
                    worker, wire.MSG_READY
                ).hydrated
            except _WorkerDied:
                counts[worker.index] = self._revive(worker)
        return counts

    def ping(self, timeout: float = 5.0) -> tuple[bool, ...]:
        """Probe every worker with PING; returns per-worker liveness.

        A worker is healthy when it answers PONG (with its own pid)
        within the shared ``timeout``.  The probe never restarts anyone —
        it is the read-only health check a front door polls; the next
        evaluation supervises.  Like every pool method, call it between
        batches (the pool is a single-dispatcher backend).
        """
        # Snapshot the roster under the lifecycle lock: the open check and
        # the worker list must be one atomic observation, or a drain/close
        # racing this probe can close pipes between the check and the
        # sends.  (I/O happens outside the lock — a slow PONG must not
        # block drain() for the whole probe timeout; a pipe torn down by a
        # concurrent close surfaces as a typed ServingError below.)
        with self._lifecycle_lock:
            self._require_open()
            roster = tuple(self._pool)
        deadline = time.monotonic() + timeout
        health = []
        for worker in roster:
            if worker.failed:
                health.append(False)
                continue
            try:
                self._send(worker, wire.encode_ping(worker.index))
                message = self._expect(worker, wire.MSG_PONG, deadline=deadline)
                health.append(message.pid == worker.process.pid)
            except ServingError:
                health.append(False)
        return tuple(health)

    def drain(self, timeout: float = 5.0) -> tuple[Optional[int], ...]:
        """Stop admission, flush the workers, then shut down.

        Sends ``DRAIN`` to every live worker and collects ``DRAINED``
        acknowledgements under one pool-wide ``timeout``; because every
        request is answered before the pool returns it (the dispatcher
        fully drains each batch), the acknowledgement doubles as a
        zero-lost-requests receipt.  Returns the per-worker served count
        from each acknowledgement (``None`` for workers that were already
        dead or missed the deadline — those are terminated).  The pool is
        closed afterwards; further calls raise :class:`ServingError`.
        """
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
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            self._shutdown(timeout, graceful=False)

    def _shutdown(
        self, timeout: float, graceful: bool
    ) -> tuple[Optional[int], ...]:
        """Common drain/close mechanics under one pool-wide deadline."""
        deadline = time.monotonic() + timeout
        acks: list[Optional[int]] = [None] * len(self._pool)
        pending = []
        frame = wire.encode_drain() if graceful else wire.encode_shutdown()
        for worker in self._pool:
            if worker.failed:
                continue
            try:
                worker.conn.send_bytes(frame)
            except (OSError, ValueError):
                continue  # already dead or closed: join/terminate below
            pending.append(worker)
        if graceful:
            for worker in pending:
                try:
                    message = self._expect(
                        worker, wire.MSG_DRAINED, deadline=deadline
                    )
                    acks[worker.index] = message.served
                except ServingError:
                    pass  # dead or overdue: terminated below
        for worker in self._pool:
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        for worker in self._pool:
            if worker.process.is_alive():
                worker.process.join(max(0.0, deadline - time.monotonic()))
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
        exception — after the whole batch has been drained, so the
        connection protocol stays clean for the next call.  Every key is
        validated against the manifest before anything is enqueued: an
        unknown key rejects the whole batch (counted in
        :class:`ServingStats` ``rejected``) without dispatching a frame.

        ``return_errors=True`` is the network front door's contract (one
        multiplexed batch carries many clients' unrelated requests):
        nothing raises — a failing request's slot carries its rebuilt
        exception object instead of a result, an unknown key fails only
        its own slot (still counted in ``rejected``), and the rest of
        the batch proceeds normally.

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
        # anything: a bad key must not leave earlier requests half-staged.
        entries: list = []
        for query, key in items:
            try:
                entries.append(self.store.stat(key))
            except StoreKeyError as error:
                self._rejected_total.inc()
                if not return_errors:
                    raise
                entries.append(error)
        self._supervise()

        queues: list[deque] = [deque() for _ in self._pool]
        hashes: list[Optional[str]] = [None] * len(items)
        replies: list = [None] * len(items)
        for seq, (query, key) in enumerate(items):
            entry = entries[seq]
            if isinstance(entry, Exception):
                replies[seq] = entry
                continue
            hashes[seq] = entry.hash
            shard = shard_of(entry.hash, self.workers)
            frame = wire.encode_query(seq, key, query, ids_only=ids, trace=trace)
            queues[shard].append((frame, seq))
        sent_at: dict[int, float] = {}
        done_at: dict[int, float] = {}
        traces: dict[int, dict] = {}
        self._dispatch(queues, replies, sent_at, done_at, traces)

        results = []
        failure: Optional[tuple[int, Exception]] = None
        for seq, message in enumerate(replies):
            query, key = items[seq]
            if isinstance(message, Exception):
                if failure is None:
                    failure = (seq, message)
                results.append(message if return_errors else None)
                continue
            if message.type == wire.MSG_ERROR:
                error = rebuild_error(*message.error)
                if failure is None:
                    failure = (seq, error)
                results.append(error if return_errors else None)
                continue
            sent = sent_at.get(seq, batch_start)
            done = done_at.get(seq, sent)
            wall = done - sent
            self._requests_total.inc()
            self._request_seconds.observe(wall)
            pool_trace = None
            if trace:
                pool_trace = Trace("pool")
                pool_trace.add_span(
                    "enqueue", offset=0.0, duration=sent - batch_start
                )
                pool_trace.add_span(
                    "dispatch", offset=sent - batch_start, duration=wall
                )
            if message.type == wire.MSG_RESULT_IDS:
                result = QueryResult(
                    query=query,
                    engine="sharded",
                    document=self._document(hashes[seq]),
                    ids=message.packed,
                    wall_time=wall,
                    trace=pool_trace,
                )
            else:
                result = QueryResult(
                    query=query, engine="sharded", document=None,
                    value=message.value, wall_time=wall, trace=pool_trace,
                )
            if pool_trace is not None:
                pool_trace.add_span(
                    "decode",
                    offset=done - batch_start,
                    duration=perf_counter() - done,
                )
                worker_payload = traces.get(seq)
                if worker_payload is not None:
                    pool_trace.add_child(Trace.from_dict(worker_payload))
            results.append(result)
        if failure is not None and not return_errors:
            raise failure[1]
        return results

    # -- statistics --------------------------------------------------------

    def stats(self) -> ServingStats:
        """Merge every worker's engine counters into one snapshot.

        Dead-while-idle workers are revived first (budget permitting);
        a permanently failed worker contributes a zeroed row with
        ``alive=False``.  Engine counters are per *process*: a restarted
        worker's counters restart from zero (the pool-side ``restarts``/
        ``retries``/``timeouts`` totals persist across restarts).
        """
        self._require_open()
        self._supervise()
        per_worker = []
        for worker in self._pool:
            payload = None
            if not worker.failed:
                try:
                    payload = self._stats_roundtrip(worker)
                except _WorkerDied:
                    try:
                        self._revive(worker)
                        payload = self._stats_roundtrip(worker)
                    except (WorkerCrashed, _WorkerDied):
                        payload = None
            if payload is None:
                per_worker.append(self._dead_worker_stats(worker))
            else:
                per_worker.append(
                    WorkerStats(
                        **payload, alive=True, restarts=worker.restarts
                    )
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
        the merged engine counters).  Like :meth:`stats`, call it
        between batches — it talks to the workers.
        """
        stats = self.stats()
        families = self.metrics.snapshot()
        families.append(
            gauge_family(
                "repro_pool_workers", "Worker process slots.", self.workers
            )
        )
        families.append(
            gauge_family(
                "repro_pool_workers_alive",
                "Worker processes currently alive.",
                sum(1 for row in stats.per_worker if row.alive),
            )
        )
        families.append(
            counter_family(
                "repro_pool_worker_served_total",
                "Requests served, by worker slot.",
                [
                    ({"worker": str(row.worker)}, row.served)
                    for row in stats.per_worker
                ],
            )
        )
        families.append(
            counter_family(
                "repro_pool_worker_dispatch_total",
                "Engine dispatch counts merged across workers.",
                [
                    ({"engine": name}, count)
                    for name, count in sorted(stats.dispatch.items())
                ],
            )
        )
        families.append(
            counter_family(
                "repro_pool_worker_plan_cache_total",
                "Merged worker plan-cache lookups, by outcome.",
                [
                    ({"outcome": "hit"}, stats.plan_hits),
                    ({"outcome": "miss"}, stats.plan_misses),
                ],
            )
        )
        families.append(
            gauge_family(
                "repro_pool_worker_documents",
                "Documents hydrated across the workers.",
                stats.documents,
            )
        )
        return families

    def _stats_roundtrip(self, worker: _Worker) -> dict:
        self._send(worker, wire.encode_stats_request())
        return self._expect(worker, wire.MSG_STATS_REPLY).payload

    def _dead_worker_stats(self, worker: _Worker) -> WorkerStats:
        return WorkerStats(
            worker=worker.index,
            pid=worker.process.pid or 0,
            served=0,
            queries=0,
            dispatch={},
            plan_hits=0,
            plan_misses=0,
            documents=0,
            store_hits=0,
            store_loads=0,
            alive=False,
            restarts=worker.restarts,
        )

    # -- internals ---------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise ServingError("the pool is closed")

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

    def _supervise(self) -> None:
        """Sentinel poll: revive workers that died while the pool was idle.

        Budget-exhausted slots stay failed (their shard's requests fail
        fast in dispatch); the batch as a whole proceeds.
        """
        for worker in self._pool:
            if not worker.failed and not worker.process.is_alive():
                try:
                    self._revive(worker)
                except WorkerCrashed:
                    pass  # marked failed; dispatch attributes per request

    def _revive(self, worker: _Worker) -> int:
        """Restart a dead worker with capped exponential backoff.

        Reaps the dead process, sleeps the backoff, starts a fresh
        process on a fresh pipe and re-warms the worker's shard from the
        store before it rejoins rotation; loops (budget-limited) if the
        replacement dies while warming.  Returns the hydrated-document
        count.  Past ``max_restarts`` the slot is marked ``failed`` and
        :class:`WorkerCrashed` is raised naming the worker.
        """
        while True:
            exitcode = worker.process.exitcode
            if worker.process.is_alive():
                worker.process.kill()
            worker.process.join(5.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            if worker.restarts >= self.max_restarts:
                worker.failed = True
                raise WorkerCrashed(
                    f"worker {worker.index} exited with code {exitcode} and "
                    f"exhausted its restart budget "
                    f"({worker.restarts}/{self.max_restarts} restarts used)",
                    worker=worker.index,
                )
            time.sleep(
                min(
                    self.restart_backoff * (2 ** worker.restarts),
                    RESTART_BACKOFF_CAP,
                )
            )
            worker.restarts += 1
            self._restarts_total.inc()
            worker.process, worker.conn = self._spawn(worker.index)
            layout = self.store.shard_layout(self.workers)
            keys = [entry.key for entry in layout[worker.index]]
            try:
                self._send(worker, wire.encode_warm(keys))
                return self._expect(worker, wire.MSG_READY).hydrated
            except _WorkerDied:
                continue  # the replacement died warming: back off and retry

    def _document(self, content_hash: str) -> _LazyDocument:
        """The parent-side document for lazy node materialisation.

        A :class:`_LazyDocument`: nothing loads until a caller actually
        materialises nodes (``.nodes``/``.value``), at which point the
        snapshot is hydrated from the same bytes the worker evaluated
        against (mmap'd by default, so the pages are the worker's
        pages).  Hydrations are shared per content hash and LRU-bounded
        at :data:`PARENT_DOCUMENT_BOUND` — results handed out before an
        eviction keep their own reference and stay valid.
        """
        document = self._documents.get(content_hash)
        if document is None:
            document = _LazyDocument(
                lambda: self.store.get(content_hash, mmap=self.mmap)
            )
            self._documents[content_hash] = document
            if len(self._documents) > PARENT_DOCUMENT_BOUND:
                self._documents.popitem(last=False)
        else:
            self._documents.move_to_end(content_hash)
        return document

    def _dispatch(
        self,
        queues: list[deque],
        replies: list,
        sent_at: dict[int, float],
        done_at: dict[int, float],
        traces: dict[int, dict],
    ) -> None:
        """Stream queued frames to the workers and collect every reply.

        Windowed duplex pumping with supervision: each worker has at most
        ``window`` unanswered frames, replies are read as they arrive (so
        neither pipe direction can fill up and deadlock), and a worker
        dying mid-batch is restarted and its in-flight window *replayed*
        onto the restarted process — queries are idempotent reads, so the
        replay is invisible to the caller.  Replay is bounded by
        ``max_retries`` per request and ``request_timeout`` wall-clock;
        past either bound the affected request's slot in ``replies``
        carries a typed :class:`WorkerCrashed` / :class:`ServingTimeout`
        (surfaced by input order after the batch drains), never a hang.

        ``sent_at``/``done_at`` collect per-seq ``perf_counter`` stamps
        (first send, reply arrival) for latency accounting; ``traces``
        collects TRACE frame payloads by seq — a worker sends them
        immediately before the result frame they annotate.
        """
        inflight: list[dict[int, bytes]] = [{} for _ in self._pool]
        attempts: dict[int, int] = {}
        deadlines: dict[int, float] = {}
        outstanding = sum(len(queue) for queue in queues)

        def fail(seq: int, error: Exception) -> None:
            nonlocal outstanding
            replies[seq] = error
            deadlines.pop(seq, None)
            outstanding -= 1

        def fail_worker_requests(worker: _Worker) -> None:
            """Fail everything routed at a permanently failed worker."""
            window = inflight[worker.index]
            for seq in sorted(window):
                fail(
                    seq,
                    WorkerCrashed(
                        f"worker {worker.index} crashed and exhausted its "
                        f"restart budget with this request in flight "
                        f"(sent {attempts.get(seq, 0)} time(s))",
                        worker=worker.index,
                        attempts=attempts.get(seq, 0),
                    ),
                )
            window.clear()
            queue = queues[worker.index]
            while queue:
                _, seq = queue.popleft()
                fail(
                    seq,
                    WorkerCrashed(
                        f"worker {worker.index} is permanently failed "
                        f"(restart budget exhausted); request was never "
                        "dispatched",
                        worker=worker.index,
                        attempts=attempts.get(seq, 0),
                    ),
                )

        def handle_death(worker: _Worker) -> None:
            """Restart a dead worker and replay its window, budget permitting."""
            window = sorted(inflight[worker.index].items())
            inflight[worker.index].clear()
            try:
                self._revive(worker)
            except WorkerCrashed:
                inflight[worker.index] = {seq: frame for seq, frame in window}
                fail_worker_requests(worker)
                return
            replayable = []
            for seq, frame in window:
                if attempts.get(seq, 0) > self.max_retries:
                    fail(
                        seq,
                        WorkerCrashed(
                            f"request exhausted its retry budget: worker "
                            f"{worker.index} died {attempts[seq]} time(s) "
                            f"with it in flight "
                            f"(max_retries={self.max_retries})",
                            worker=worker.index,
                            attempts=attempts[seq],
                        ),
                    )
                else:
                    replayable.append((frame, seq))
                    self._retries_total.inc()
            queues[worker.index].extendleft(reversed(replayable))

        while outstanding:
            # 0) fail fast anything routed at a permanently failed worker
            for worker in self._pool:
                if worker.failed and (
                    inflight[worker.index] or queues[worker.index]
                ):
                    fail_worker_requests(worker)
            # 1) wall-clock deadlines: an overdue request means its worker
            #    is hung — time the request out, kill and restart the worker,
            #    replay the rest of its window
            if deadlines:
                now = time.monotonic()
                for worker in self._pool:
                    window = inflight[worker.index]
                    overdue = [
                        seq for seq in window
                        if deadlines.get(seq, float("inf")) <= now
                    ]
                    if not overdue:
                        continue
                    for seq in sorted(overdue):
                        del window[seq]
                        self._timeouts_total.inc()
                        fail(
                            seq,
                            ServingTimeout(
                                f"request timed out after "
                                f"{self.request_timeout:.3g}s on worker "
                                f"{worker.index} "
                                f"(sent {attempts.get(seq, 0)} time(s))",
                                worker=worker.index,
                                attempts=attempts.get(seq, 0),
                            ),
                        )
                    worker.process.kill()
                    handle_death(worker)
            # 2) admission: top up every live worker's window
            for worker in self._pool:
                if worker.failed:
                    continue
                queue = queues[worker.index]
                while queue and len(inflight[worker.index]) < self.window:
                    frame, seq = queue[0]
                    try:
                        self._send(worker, frame)
                    except _WorkerDied:
                        handle_death(worker)
                        break
                    queue.popleft()
                    inflight[worker.index][seq] = frame
                    attempts[seq] = attempts.get(seq, 0) + 1
                    sent_at.setdefault(seq, perf_counter())
                    if (
                        self.request_timeout is not None
                        and seq not in deadlines
                    ):
                        deadlines[seq] = (
                            time.monotonic() + self.request_timeout
                        )
            if not outstanding:
                break
            owing = [
                worker for worker in self._pool if inflight[worker.index]
            ]
            if not owing:
                continue  # a revival just requeued everything: re-admit
            # 3) wait for replies (bounded by liveness poll and deadlines)
            poll = _LIVENESS_POLL
            if deadlines:
                soonest = min(deadlines.values())
                poll = max(0.0, min(poll, soonest - time.monotonic()))
            ready = connection_wait(
                [worker.conn for worker in owing], timeout=poll
            )
            if not ready:
                for worker in owing:
                    if not worker.process.is_alive():
                        handle_death(worker)
                continue
            # 4) collect replies
            ready_set = set(ready)
            for worker in owing:
                if worker.conn not in ready_set:
                    continue
                try:
                    message = self._receive(worker)
                except _WorkerDied:
                    handle_death(worker)
                    continue
                if message.type not in (
                    wire.MSG_RESULT_IDS, wire.MSG_RESULT_VALUE,
                    wire.MSG_ERROR, wire.MSG_TRACE,
                ):
                    raise ServingError(
                        f"worker {worker.index} sent frame type "
                        f"{message.type} where a result was expected"
                    )
                if message.seq not in inflight[worker.index]:
                    raise ServingError(
                        f"worker {worker.index} answered unknown request "
                        f"{message.seq}"
                    )
                if message.type == wire.MSG_TRACE:
                    # The span tree for a request still in flight: its
                    # result frame follows on the same pipe.  Absorb it
                    # without resolving the seq.
                    traces[message.seq] = message.payload
                    continue
                del inflight[worker.index][message.seq]
                deadlines.pop(message.seq, None)
                done_at[message.seq] = perf_counter()
                replies[message.seq] = message
                outstanding -= 1

    def _send(self, worker: _Worker, frame: bytes) -> None:
        try:
            worker.conn.send_bytes(frame)
        except (OSError, ValueError):
            raise _WorkerDied(worker) from None

    def _receive(self, worker: _Worker) -> wire.Message:
        try:
            return wire.decode(worker.conn.recv_bytes())
        except (EOFError, OSError):
            raise _WorkerDied(worker) from None

    def _expect(
        self, worker: _Worker, msg_type: int, deadline: Optional[float] = None
    ) -> wire.Message:
        poll = _LIVENESS_POLL
        if deadline is not None:
            poll = min(poll, max(0.0, deadline - time.monotonic()))
        while not worker.conn.poll(poll):
            if not worker.process.is_alive():
                raise _WorkerDied(
                    worker,
                    f"exited with code {worker.process.exitcode} while "
                    "a reply was expected",
                )
            if deadline is not None and time.monotonic() >= deadline:
                raise ServingTimeout(
                    f"worker {worker.index} sent no reply before the "
                    "deadline",
                    worker=worker.index,
                )
        message = self._receive(worker)
        if message.type != msg_type:
            raise ServingError(
                f"worker {worker.index} sent frame type {message.type}, "
                f"expected {msg_type}"
            )
        return message

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"<ShardedPool {self.workers} worker(s) {self.start_method} "
            f"{state} store={self.store.root!r}>"
        )
