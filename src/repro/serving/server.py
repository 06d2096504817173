"""`XPathServer`: the asyncio network front door over the sharded pool.

Until now the :class:`~repro.serving.ShardedPool` spoke only to its own
parent process over pipes; this module puts a real ingress on it — one
asyncio TCP server multiplexing any number of persistent client
connections onto one supervised pool, speaking the same framed ``RPW1``
wire format (:mod:`repro.serving.wire`) end-to-end, so a query crosses
process *and* machine boundaries as the identical compact id-native
frames.

Protocols
---------

A connection declares its protocol with its first byte:

* ``R`` — the **binary protocol**: the client sends the 4-byte magic
  ``RPW1`` as a stream preamble, the server answers with a framed
  ``HELLO`` (protocol version, pid, banner), and both sides then
  exchange length-prefixed frames (:func:`~repro.serving.wire
  .encode_framed`).  Requests are ``QUERY`` frames (the client picks the
  ``seq``); the server answers ``RESULT_IDS`` / ``RESULT_VALUE`` /
  ``ERROR`` / ``OVERLOADED`` carrying the same ``seq`` — responses may
  interleave across a pipelined window, correlation is the client's job
  (:class:`repro.serving.client.ServingClient` does it).  ``PING``,
  ``STATS``, ``METRICS`` and ``DRAIN`` work over the same connection; a
  QUERY carrying ``FLAG_TRACE`` gets a ``TRACE`` frame (the request's
  span tree) immediately before its result frame.
* ``{`` — the **JSON shim** for curl/netcat-style clients: one JSON
  object per line in (``{"key": K, "query": Q}``, optional ``"ids"``,
  ``"trace"`` and ``"seq"``; ``{"op": "ping"}``; ``{"op": "stats"}``;
  ``{"op": "metrics"}`` with optional ``"format": "json"|"prometheus"``
  (anything else answers a ``WireError`` line);
  ``{"op": "trace"}`` for the ring buffer of completed traced
  requests), one JSON object per line out (``{"seq":…, "ids": […]}`` /
  ``{"value": …}`` / ``{"error": {"type":…, "message":…}}`` /
  ``{"overloaded": true, …}``).

Both protocols share one request path — admit → shard conversation →
reply callback → settle, all on the pool's own event loop, which runs
the server too — and differ only in the per-connection encoder that
turns a result, error, overload, stats, metrics or drained receipt into
bytes.  The loop's reader on the
worker's pipe runs ``_settle`` — a plain function, no Task, no Future,
no timer — which releases admission, encodes and writes, and the request
is done in that loop turn when the socket took every byte.  A node-set
answer is
the pool reply's own packed id bytes from pipe to socket
(``QueryResult.packed_ids``); only the JSON encoder turns them into
Python ints.

Admission control and backpressure
----------------------------------

The server keeps a hard bound on concurrently admitted requests,
``max_inflight`` (default: the pool's ``workers × window``, i.e. exactly
what the dispatch windows can keep busy).  A request arriving above the
bound is *rejected immediately* with a typed ``OVERLOADED`` frame (JSON:
``{"overloaded": true}``) carrying the current in-flight count and the
capacity — it is never queued, so offered load beyond capacity costs the
server O(1) memory per rejection instead of an unbounded backlog.
Each shard's requests stream through its own worker conversation, so a
cheap query on one shard never waits for a slow one on another.

Slow clients cannot wedge the server: a write the socket does not take
whole leaves the loop turn and becomes a coroutine that waits, in order
behind the connection's earlier writes, for the transport to drain —
bounded by ``write_timeout``, and a connection that cannot drain within
it is aborted (its admitted requests still complete, release their
admission slots and are discarded).  Idle
connections are closed after ``idle_timeout`` (never while responses are
still owed).

Lifecycle
---------

The server has no thread or event loop of its own: it runs on its
pool's loop (:class:`~repro.serving.ShardedPool` owns one from
construction to close).  :meth:`XPathServer.start_background` binds the
listener there; :meth:`XPathServer.shutdown` (or simply ``with
XPathServer(...) as (host, port):``) is the graceful path, mirroring the
pool's DRAIN semantics one level up: stop accepting connections, reject
new requests as OVERLOADED, wait for the in-flight set to flush to every
client (slow readers included, under the drain deadline), send each
binary client a ``DRAINED`` frame carrying its connection's served count
(JSON: ``{"drained": N}``), close the connections, and finally close the
pool itself if the server built it.  A drain that outlives
``shutdown``'s timeout is cancelled for the fast path, which
``graceful=False`` takes at once: close the listener, abort every
connection.

Operations
----------

``PING`` answers ``PONG`` without touching the pool (liveness), ``STATS``
answers a JSON payload merging the server's own counters (connections,
served, overloaded rejections, in-flight peak) with the pool's merged
per-worker counters — one round-trip describes the whole process tree.
``METRICS`` answers the same counters (plus latency histograms) in
Prometheus text or JSON exposition format, assembled from the server,
pool and worker telemetry registries (:mod:`repro.telemetry`).
Every request emits one structured log record on the
``repro.serving.server`` logger (``query client=… seq=… key=… status=…
wall_ms=…``), datatracker-style: greppable key=value pairs, one line per
event.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import json
import logging
import os
import time
from collections import deque
from functools import partial
from typing import Optional, Union

from repro.errors import ReproError
from repro.serving import wire
from repro.serving.pool import ServingError, ShardedPool
from repro.telemetry.exposition import (
    gauge_family,
    render_json,
    render_prometheus,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import Trace, maybe_span

logger = logging.getLogger("repro.serving.server")

#: Completed traced requests kept in the server's trace ring buffer
#: (retrieved with the JSON shim's ``{"op": "trace"}``).
TRACE_BUFFER = 64


class _BinaryEncoder:
    """Replies as stream-framed ``RPW1`` frames (``seq`` is the correlation)."""

    @staticmethod
    def answer(seq, key, result, trace: Optional[dict]) -> bytes:
        if result.is_node_set:
            # The pool reply's own packed bytes: no id becomes a Python int.
            frame = wire.encode_result_ids(seq, result.packed_ids)
        else:
            frame = wire.encode_result_value(seq, result.value)
        if trace is None:
            return wire.encode_framed(frame)
        # The trace frame precedes its result frame, mirroring the
        # worker→pool hop.
        return wire.encode_framed(wire.encode_trace(seq, trace)) + (
            wire.encode_framed(frame)
        )

    @staticmethod
    def error(error: Exception, seq=0, key=None) -> bytes:
        return wire.encode_framed(
            wire.encode_error(seq, type(error).__name__, str(error))
        )

    @staticmethod
    def overloaded(seq, inflight: int, capacity: int) -> bytes:
        return wire.encode_framed(wire.encode_overloaded(seq, inflight, capacity))

    @staticmethod
    def stats(payload: dict) -> bytes:
        return wire.encode_framed(wire.encode_stats_reply(payload))

    @staticmethod
    def metrics(format: int, body: str) -> bytes:
        return wire.encode_framed(wire.encode_metrics_reply(format, body))

    @staticmethod
    def drained(served: int) -> bytes:
        return wire.encode_framed(wire.encode_drained(served, os.getpid()))


class _JsonEncoder:
    """Replies as one JSON object per line (the curl/netcat shim)."""

    @staticmethod
    def line(payload: dict) -> bytes:
        return (json.dumps(payload) + "\n").encode("utf-8")

    @classmethod
    def answer(cls, seq, key, result, trace: Optional[dict]) -> bytes:
        payload = {"seq": seq, "key": key}
        if result.is_node_set:
            payload["ids"] = result.ids
        else:
            payload["value"] = result.value
        if trace is not None:
            payload["trace"] = trace
        data = cls.line(payload)
        if len(data) > wire.MAX_FRAME:
            # The bound the binary protocol puts on one frame holds for
            # one reply line too.
            raise wire.WireError(
                f"reply line of {len(data)} byte(s) exceeds MAX_FRAME "
                f"({wire.MAX_FRAME})"
            )
        return data

    @classmethod
    def error(cls, error: Exception, **correlation) -> bytes:
        return cls.line({**correlation, "error": {
            "type": type(error).__name__, "message": str(error),
        }})

    @classmethod
    def overloaded(cls, seq, inflight: int, capacity: int) -> bytes:
        return cls.line({
            "seq": seq, "overloaded": True,
            "inflight": inflight, "capacity": capacity,
        })

    @classmethod
    def stats(cls, payload: dict) -> bytes:
        return cls.line({"stats": payload})

    @classmethod
    def metrics(cls, format: int, body: str) -> bytes:
        # Prometheus text rides inside the JSON line as a string.
        if format == wire.METRICS_PROMETHEUS:
            return cls.line({"metrics": body})
        return cls.line({"metrics": json.loads(body)})

    @classmethod
    def drained(cls, served: int) -> bytes:
        return cls.line({"drained": served})


class _Connection:
    """Per-connection state: writer serialisation, flush tracking."""

    __slots__ = (
        "reader", "writer", "peer", "encoder", "lock", "backlog", "pending",
        "answers", "flushed", "served", "errors", "closing", "handler",
    )

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        peername = writer.get_extra_info("peername")
        self.peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        self.encoder = None             # set once the first byte names the protocol
        self.lock = asyncio.Lock()      # one in-order write stream per client
        self.backlog = 0                # writes handed to _flush, not yet done
        self.pending = 0                # responses owed to this client
        self.answers = deque()          # admitted queries' answers, in request order
        self.flushed = asyncio.Event()  # set whenever pending == 0
        self.flushed.set()
        self.served = 0
        self.errors = 0
        self.closing = False
        self.handler = asyncio.current_task()  # the task serving this client


class XPathServer:
    """An asyncio TCP front door over one supervised :class:`ShardedPool`.

    Parameters
    ----------
    pool:
        The :class:`ShardedPool` to serve (the server never closes a
        pool it was given), or a :class:`~repro.store.CorpusStore` /
        store path — then the server builds its own pool at
        :meth:`start_background` with ``workers`` processes and closes
        it on shutdown.
    host, port:
        Listen address; ``port=0`` binds an ephemeral port (read it from
        :attr:`address` after :meth:`start_background`).
    workers:
        Worker count when the server builds its own pool.
    max_inflight:
        Admission bound on concurrently in-flight requests across every
        connection.  Default: the pool's ``workers × window`` — the most
        the worker windows can keep busy; anything above that would
        only queue.
    idle_timeout:
        Seconds a connection may sit idle (no request in flight, nothing
        to read) before the server closes it.  ``None`` = never.
    write_timeout:
        Seconds one response write may take before the client is judged
        wedged and its connection aborted.
    drain_timeout:
        Deadline for the graceful shutdown's flush-everything phase.
    banner:
        Free-text server identification echoed in the HELLO frame.

    The server runs on the pool's event loop, so the pool must outlive
    it: shut the server down before closing a pool it was given (the
    pool stays open for blocking calls all along).  A pool closed first
    closes the listener and the connections with its loop.
    """

    def __init__(
        self,
        pool: Union[ShardedPool, str, os.PathLike, "object"],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 4,
        max_inflight: Optional[int] = None,
        idle_timeout: Optional[float] = None,
        write_timeout: float = 30.0,
        drain_timeout: float = 5.0,
        banner: str = "repro-xpath",
    ) -> None:
        if isinstance(pool, ShardedPool):
            self._pool: Optional[ShardedPool] = pool
            self._pool_source = None
        else:
            self._pool = None
            self._pool_source = pool
        self._workers = workers
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.idle_timeout = idle_timeout
        self.write_timeout = write_timeout
        self.drain_timeout = drain_timeout
        self.banner = banner

        self._own_pool = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._address: Optional[tuple[str, int]] = None
        self._connections: set[_Connection] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._draining = False
        self._closed = False
        self._inflight = 0
        self._idle_event: Optional[asyncio.Event] = None
        # Counters live in a telemetry registry (incremented on the loop
        # thread, read there for STATS/METRICS and by metric_families()
        # on any thread — its per-thread shards make that safe).
        # _inflight and _peak_inflight stay plain ints: they gate
        # admission on the loop thread and are exposed as derived gauges.
        self.metrics = MetricsRegistry()
        self._connections_count = self.metrics.counter(
            "repro_server_connections_total",
            "Client connections accepted since start.",
        )
        self._served_total = self.metrics.counter(
            "repro_server_requests_total",
            "Requests answered with a result frame.",
        )
        self._errors_total = self.metrics.counter(
            "repro_server_request_errors_total",
            "Requests answered with an error frame.",
        )
        self._overloaded_total = self.metrics.counter(
            "repro_server_overloaded_total",
            "Requests rejected by admission control.",
        )
        self._idle_closed_total = self.metrics.counter(
            "repro_server_idle_closed_total",
            "Connections closed for crossing the idle timeout.",
        )
        self._aborted_total = self.metrics.counter(
            "repro_server_aborted_total",
            "Connections aborted as wedged (write timeout or broken pipe).",
        )
        self._request_seconds = self.metrics.histogram(
            "repro_server_request_seconds",
            "Per-request wall time from dispatch to response write.",
        )
        self._peak_inflight = 0
        # Completed traced requests (span-tree dicts), loop thread only.
        self._traces: "deque[dict]" = deque(maxlen=TRACE_BUFFER)
        # Answers whose write did not leave in one piece (loop thread
        # only): the loop holds tasks weakly, so keep them until done.
        self._flushing: "set[asyncio.Task]" = set()
        # The one stopping task every shutdown() caller waits for.
        self._stopping: Optional[asyncio.Future] = None

    # -- properties --------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid once :meth:`start_background` returned)."""
        if self._address is None:
            raise ServingError("the server is not started")
        return self._address

    @property
    def pool(self) -> ShardedPool:
        """The pool behind the front door (built at start if needed)."""
        if self._pool is None:
            raise ServingError("the server is not started")
        return self._pool

    @property
    def draining(self) -> bool:
        """True once :meth:`shutdown` has begun."""
        return self._draining

    # -- lifecycle (on the pool's loop) ------------------------------------

    async def _start(self) -> None:
        """Bind the listening socket, on the pool's loop."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self._pool._listeners.add(self._abandon)
        sockname = self._server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])
        logger.info(
            "listening host=%s port=%d max_inflight=%d workers=%d",
            self._address[0], self._address[1], self.max_inflight,
            self._pool.workers,
        )

    async def _drain(self) -> None:
        """Flush every owed answer, then send DRAINED receipts.

        Mirrors the pool's DRAIN semantics one level up: with admission
        stopped, every owed response is flushed to its client (under
        ``drain_timeout``), then each client gets a DRAINED receipt with
        its connection's served count and is closed.
        """
        deadline = time.monotonic() + self.drain_timeout
        # Wait for the in-flight set to empty (new requests are already
        # rejected by _admit), bounded by the drain deadline.
        self._idle_event = asyncio.Event()
        if self._inflight == 0:
            self._idle_event.set()
        try:
            await asyncio.wait_for(
                self._idle_event.wait(),
                max(0.0, deadline - time.monotonic()),
            )
        except asyncio.TimeoutError:  # pragma: no cover - hung pool backstop
            logger.warning(
                "drain deadline passed with %d request(s) in flight",
                self._inflight,
            )
        # Flush + notify + close every connection (slow readers get until
        # the deadline; a client that cannot take the receipt is aborted).
        for conn in list(self._connections):
            try:
                await asyncio.wait_for(
                    conn.flushed.wait(),
                    max(0.05, deadline - time.monotonic()),
                )
            except asyncio.TimeoutError:  # pragma: no cover - wedged client
                pass
            await self._send_drained(conn)
            self._close_connection(conn)
        logger.info(
            "drained served=%d overloaded=%d connections=%d",
            int(self._served_total.value()),
            int(self._overloaded_total.value()),
            int(self._connections_count.value()),
        )

    async def _stop(self, graceful: bool, timeout: float) -> None:
        """Stop admission and the listener, drain under ``timeout`` (if
        ``graceful``), then abort what is left: every connection still
        open is aborted, and the answers owed to it are dropped when they
        arrive.
        """
        self._draining = True  # _admit answers OVERLOADED from now on
        # Closes the listening socket at once.  (Not wait_closed(): from
        # Python 3.12.1 on it waits for every client connection to close,
        # which the drain itself does last.)
        self._server.close()
        self._pool._listeners.discard(self._abandon)
        if graceful:
            try:
                await asyncio.wait_for(self._drain(), timeout)
            except asyncio.TimeoutError:
                logger.warning("drain outlived its %.3gs timeout: aborting", timeout)
        for conn in list(self._connections):
            self._close_connection(conn, abort=True)
        # Slow writes still finishing end with the server, not later on
        # the pool's loop, which outlives it.
        flushing = list(self._flushing)
        for task in flushing:
            task.cancel()
        await asyncio.gather(*flushing, return_exceptions=True)

    def _abandon(self) -> list:
        """The pool's loop is closing under this server: close the listener,
        abort every connection and return their handlers, which end on the
        EOF of their aborted transport (so none has to be cancelled)."""
        self._server.close()
        connections = list(self._connections)
        for conn in connections:
            self._close_connection(conn, abort=True)
        return [conn.handler for conn in connections]

    async def _stopped(self, graceful: bool, timeout: float) -> None:
        """Wait for the one stopping task every shutdown() caller shares."""
        if self._stopping is None:
            self._stopping = asyncio.ensure_future(self._stop(graceful, timeout))
        await asyncio.shield(self._stopping)

    # -- lifecycle (sync callers) ------------------------------------------

    def start_background(self) -> tuple[str, int]:
        """Bind on the pool's event loop; returns the bound address.

        A server given a store builds its pool here, in the calling
        thread, first.  Starts no thread: the pool's loop thread runs
        the listener and every connection.
        """
        if self._address is not None:
            return self._address
        if self._closed:
            raise ServingError("the server is closed")
        if self._pool is None:
            self._pool = ShardedPool(self._pool_source, workers=self._workers)
            self._own_pool = True
        if self.max_inflight is None:
            self.max_inflight = self._pool.workers * self._pool.window
        self._loop = self._pool._loop
        try:
            asyncio.run_coroutine_threadsafe(self._start(), self._loop).result()
        except BaseException:
            if self._own_pool:  # a retry builds a fresh one
                self._pool.close()
                self._pool, self._own_pool = None, False
            raise
        return self._address

    def shutdown(self, graceful: bool = True, timeout: float = 30.0) -> None:
        """Stop the server from any thread but the pool's loop (idempotent).

        ``graceful=True`` drains first (clients get their owed responses
        and a DRAINED receipt); if the drain outlives ``timeout`` it is
        cancelled, and like ``graceful=False`` the listener is closed and
        the connections aborted.  Then a pool the server built is
        closed.  Concurrent callers share one stopping task and return
        once it is done.
        """
        if self._address is None:
            return  # never bound
        stopped = self._stopped(graceful, timeout)
        try:
            future = asyncio.run_coroutine_threadsafe(stopped, self._loop)
        except RuntimeError:  # the pool was closed first, and its loop with it
            stopped.close()
        else:
            # Cancelled if the pool closes (and its loop stops) meanwhile.
            with contextlib.suppress(concurrent.futures.CancelledError):
                future.result()
        self._closed = True
        if self._own_pool:
            self._pool.close()  # idempotent; after a drain nothing is owed

    def __enter__(self) -> tuple[str, int]:
        return self.start_background()

    def __exit__(self, *exc_info) -> None:
        self.shutdown(graceful=True)

    # -- admission ---------------------------------------------------------

    def _admit(self) -> bool:
        """Admit one request under the in-flight bound (loop thread only)."""
        if self._draining or self._inflight >= self.max_inflight:
            self._overloaded_total.inc()
            return False
        self._inflight += 1
        if self._inflight > self._peak_inflight:
            self._peak_inflight = self._inflight
        return True

    def _release(self) -> None:
        self._inflight -= 1
        if self._inflight == 0 and self._idle_event is not None:
            self._idle_event.set()

    # -- operations --------------------------------------------------------

    def _stats_payload(self, pool_stats) -> dict:
        """The STATS answer: server counters + the pool's merged counters."""
        return {
            "server": {
                "pid": os.getpid(),
                "served": int(self._served_total.value()),
                "errors": int(self._errors_total.value()),
                "overloaded": int(self._overloaded_total.value()),
                "connections_total": int(self._connections_count.value()),
                "connections_active": len(self._connections),
                "inflight": self._inflight,
                "inflight_peak": self._peak_inflight,
                "max_inflight": self.max_inflight,
                "idle_closed": int(self._idle_closed_total.value()),
                "aborted": int(self._aborted_total.value()),
                "draining": self._draining,
            },
            "pool": {
                "workers": pool_stats.workers,
                "served": pool_stats.served,
                "restarts": pool_stats.restarts,
                "retries": pool_stats.retries,
                "timeouts": pool_stats.timeouts,
                "rejected": pool_stats.rejected,
                "documents": pool_stats.documents,
                "plan_hits": pool_stats.plan_hits,
                "plan_misses": pool_stats.plan_misses,
            },
        }

    def metric_families(self) -> list[dict]:
        """Server + pool metric families, ready for exposition.

        The server registry's counters and latency histogram, the
        admission gauges, then the pool's :meth:`~repro.serving
        .ShardedPool.metric_families` — one concatenated list covering
        the whole process tree.  Waits for the pool, so call it from any
        thread but the server's event loop.
        """
        return self._metric_families(self._pool.stats())

    def _metric_families(self, pool_stats) -> list[dict]:
        """:meth:`metric_families` from a pool snapshot already collected."""
        return self.metrics.snapshot() + [
            gauge_family(
                "repro_server_inflight",
                "Requests admitted and not yet answered.", self._inflight,
            ),
            gauge_family(
                "repro_server_inflight_peak",
                "High-water mark of admitted requests.", self._peak_inflight,
            ),
            gauge_family(
                "repro_server_max_inflight",
                "Admission-control capacity.", self.max_inflight or 0,
            ),
            gauge_family(
                "repro_server_connections_active",
                "Client connections currently open.", len(self._connections),
            ),
        ] + self._pool._metric_families(pool_stats)

    # -- connections -------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        conn = _Connection(reader, writer)
        self._connections.add(conn)
        self._connections_count.inc()
        try:
            first = await self._read_with_idle(conn, reader.readexactly, 1)
            if first == wire.MAGIC[:1]:
                rest = await asyncio.wait_for(
                    reader.readexactly(3), self.write_timeout
                )
                if first + rest != wire.MAGIC:
                    raise wire.WireError(
                        f"bad stream preamble {(first + rest)!r}"
                    )
                conn.encoder = _BinaryEncoder
                logger.info("connect client=%s mode=binary", conn.peer)
                await self._serve_binary(conn)
            elif first == b"{":
                conn.encoder = _JsonEncoder
                logger.info("connect client=%s mode=json", conn.peer)
                await self._serve_json(conn, first)
            else:
                raise wire.WireError(
                    f"unknown protocol preamble {first!r} "
                    "(expected RPW1 magic or a JSON line)"
                )
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            _IdleTimeout,
            wire.WireError,
        ) as error:
            if isinstance(error, _IdleTimeout):
                self._idle_closed_total.inc()
                logger.info("idle-close client=%s", conn.peer)
            elif isinstance(error, wire.WireError):
                logger.warning(
                    "protocol-error client=%s error=%s", conn.peer, error
                )
        finally:
            # Flush what this connection is still owed before closing
            # (unless the server is draining, which flushes for us, or
            # the connection is closed already).
            if conn.pending and not self._draining and not conn.closing:
                try:
                    await asyncio.wait_for(
                        conn.flushed.wait(), self.write_timeout
                    )
                except asyncio.TimeoutError:  # pragma: no cover - backstop
                    pass
            self._close_connection(conn)
            logger.info(
                "disconnect client=%s served=%d errors=%d",
                conn.peer, conn.served, conn.errors,
            )

    async def _read_with_idle(self, conn, read, *args):
        """One read under the idle timeout (owed responses stop the clock)."""
        while True:
            if self.idle_timeout is None:
                return await read(*args)
            try:
                return await asyncio.wait_for(read(*args), self.idle_timeout)
            except asyncio.TimeoutError:
                if conn.pending:
                    continue  # not idle: the client is waiting on us
                raise _IdleTimeout() from None

    # -- binary protocol ---------------------------------------------------

    async def _serve_binary(self, conn: _Connection) -> None:
        await self._write(conn, wire.encode_framed(
            wire.encode_hello(os.getpid(), self.banner)
        ))
        while not conn.closing:
            try:
                header = await self._read_with_idle(
                    conn, conn.reader.readexactly, 4
                )
            except asyncio.IncompleteReadError as error:
                if error.partial:
                    raise wire.WireError(
                        f"connection closed inside a frame header "
                        f"({len(error.partial)}/4 byte(s))"
                    ) from None
                return  # clean EOF between frames
            frame = await conn.reader.readexactly(wire.framed_length(header))
            message = wire.decode(frame)
            if message.type == wire.MSG_QUERY:
                await self._submit(
                    conn, message.seq, message.key, message.query,
                    message.ids_only, message.wants_trace,
                )
            elif message.type == wire.MSG_PING:
                await self._write(conn, wire.encode_framed(
                    wire.encode_pong(message.seq, os.getpid())
                ))
            elif message.type == wire.MSG_STATS:
                await self._answer_collected(conn)
            elif message.type == wire.MSG_METRICS:
                await self._answer_collected(conn, message.flags)
            elif message.type == wire.MSG_DRAIN:
                # Client-initiated graceful close: flush what it is owed,
                # acknowledge with its served count, stop reading.
                await asyncio.wait_for(
                    conn.flushed.wait(), self.write_timeout
                )
                await self._send_drained(conn)
                return
            else:
                raise wire.WireError(
                    f"client sent frame type {message.type} where a "
                    "request was expected"
                )

    # -- the request path (both protocols) ---------------------------------

    async def _submit(self, conn, seq, key, query, ids, wants_trace) -> None:
        """Admit one query and submit it to its shard; `_settle` answers it."""
        server_trace = Trace("server") if wants_trace else None
        with maybe_span(server_trace, "admit"):
            admitted = self._admit()
        if not admitted:
            logger.warning(
                "overloaded client=%s seq=%s inflight=%d capacity=%d",
                conn.peer, seq, self._inflight, self.max_inflight,
            )
            await self._write(conn, conn.encoder.overloaded(
                seq, self._inflight, self.max_inflight
            ))
            return
        conn.pending += 1
        conn.flushed.clear()
        slot: list = []
        conn.answers.append(slot)
        self._pool.submit(
            query, key,
            partial(
                self._settle, conn, slot, seq, key, server_trace,
                time.perf_counter(),
            ),
            ids=ids, trace=wants_trace,
        )

    def _settle(self, conn, slot, seq, key, server_trace, started, result) -> None:
        """Answer one admitted query in the loop turn its result arrived in.

        A plain function, run by the pool's reader when the worker's
        reply arrives: release admission, encode, write — and the request
        is done, without a Task or a timer, when the socket took every
        byte.  A connection's answers leave in request order: one that
        arrives before an earlier request's answer waits in its ``slot``
        (another connection's answers never wait for it).  Only a write
        that did not leave whole goes on as a coroutine (:meth:`_flush`,
        under ``conn.lock`` and ``write_timeout``), which finishes the
        request once the transport has drained.  An answer the encoder
        refuses (a frame above ``MAX_FRAME``) is still owed a reply: it
        becomes an error carrying the same ``seq``.
        """
        self._release()
        arrived = time.perf_counter()
        if server_trace is not None:
            server_trace.add_span(
                "server-dispatch",
                offset=started - server_trace.started,
                duration=arrived - started,
            )
        if not isinstance(result, Exception):
            try:
                if server_trace is not None and result.trace is not None:
                    server_trace.add_child(result.trace)
                data = conn.encoder.answer(
                    seq, key, result,
                    None if server_trace is None else server_trace.to_dict(),
                )
            except ReproError as error:
                result = error
            except Exception as error:
                logger.exception("encoding an answer failed untyped")
                result = error
        if isinstance(result, Exception):
            status = f"error:{type(result).__name__}"
            data = conn.encoder.error(result, seq=seq, key=key)
            self._errors_total.inc()
            conn.errors += 1
        else:
            status = "ok"
            self._served_total.inc()
            conn.served += 1
        slot.append((data, (conn, seq, key, status, server_trace, started)))
        answers = conn.answers
        while answers and answers[0]:
            data, finish = answers.popleft()[0]
            finish += (time.perf_counter(),)
            flush = self._send(conn, data)
            if flush is None:
                self._finish(*finish)
            else:
                task = self._loop.create_task(self._finish_after(flush, *finish))
                self._flushing.add(task)
                task.add_done_callback(self._reap)

    async def _finish_after(self, flush, *finish) -> None:
        try:
            await flush
        finally:
            self._finish(*finish)

    def _reap(self, task: "asyncio.Task") -> None:
        self._flushing.discard(task)
        if not task.cancelled() and task.exception() is not None:
            logger.error(
                "finishing a slow write failed", exc_info=task.exception()
            )

    def _finish(
        self, conn, seq, key, status, server_trace, started, write_begun
    ) -> None:
        """Account for one answered request (its write is done or given up)."""
        now = time.perf_counter()
        if server_trace is not None:
            # The write span lands only in the server-side ring buffer:
            # it cannot precede the write it measures.
            server_trace.add_span(
                "write",
                offset=write_begun - server_trace.started,
                duration=now - write_begun,
            )
            self._traces.append(server_trace.to_dict())
        self._request_seconds.observe(now - started)
        conn.pending -= 1
        if conn.pending == 0:
            conn.flushed.set()
        logger.info(
            "query client=%s seq=%s key=%s status=%s wall_ms=%.2f",
            conn.peer, seq, key, status, (now - started) * 1e3,
        )

    async def _answer_collected(self, conn, metrics: Optional[int] = None) -> None:
        """Answer STATS (METRICS in format ``metrics``) once the pool's
        workers have reported, on the loop (:meth:`ShardedPool.collect_stats`)."""
        collected = self._loop.create_future()  # cancelled with this task
        self._pool.collect_stats(
            lambda stats: collected.cancelled() or collected.set_result(stats)
        )
        try:
            pool_stats = await collected
            if isinstance(pool_stats, Exception):
                raise pool_stats
            if metrics is None:
                data = conn.encoder.stats(self._stats_payload(pool_stats))
            else:
                render = (
                    render_prometheus if metrics == wire.METRICS_PROMETHEUS
                    else render_json
                )
                families = self._metric_families(pool_stats)
                data = conn.encoder.metrics(metrics, render(families))
        except ReproError as error:
            data = conn.encoder.error(error)
        except Exception as error:
            logger.exception("stats/metrics collection failed untyped")
            data = conn.encoder.error(error)
        await self._write(conn, data)

    async def _send_drained(self, conn: _Connection) -> None:
        if conn.encoder is None:
            return  # closed before its first byte named a protocol
        try:
            await self._write(conn, conn.encoder.drained(conn.served))
        except (ConnectionError, OSError):  # pragma: no cover - gone client
            pass

    # -- JSON shim ---------------------------------------------------------

    async def _serve_json(self, conn: _Connection, first: bytes) -> None:
        line = first + await conn.reader.readline()
        while not conn.closing:
            text = line.decode("utf-8", errors="replace").strip()
            if text:
                await self._handle_json_line(conn, text)
            line = await self._read_with_idle(conn, conn.reader.readline)
            if not line:
                return  # EOF

    async def _handle_json_line(self, conn: _Connection, text: str) -> None:
        try:
            request = json.loads(text)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            op = request.get("op")
            if op == "metrics":
                fmt = wire.metrics_format_code(request.get("format", "json"))
        except ValueError as error:
            await self._write(conn, _JsonEncoder.error(wire.WireError(str(error))))
            return
        if op == "ping":
            await self._write(
                conn, _JsonEncoder.line({"pong": True, "pid": os.getpid()})
            )
            return
        if op == "stats":
            await self._answer_collected(conn)
            return
        if op == "metrics":
            await self._answer_collected(conn, fmt)
            return
        if op == "trace":
            # The ring buffer of completed traced requests, newest last.
            await self._write(
                conn, _JsonEncoder.line({"traces": list(self._traces)})
            )
            return
        seq = request.get("seq")
        key = request.get("key")
        query = request.get("query")
        if not isinstance(key, str) or not isinstance(query, str):
            await self._write(conn, _JsonEncoder.error(
                wire.WireError('request needs string "key" and "query" fields'),
                seq=seq,
            ))
            return
        await self._submit(
            conn, seq, key, query,
            bool(request.get("ids", False)), bool(request.get("trace", False)),
        )

    # -- writes ------------------------------------------------------------

    def _send(self, conn: _Connection, data: bytes):
        """Write ``data`` in this loop turn if nothing is queued ahead of it.

        Returns None when the write is over — the socket took every byte
        (``get_write_buffer_size() == 0``), or the connection is closing
        and the bytes are dropped.  Otherwise returns the :meth:`_flush`
        coroutine that will finish it; the caller must run it.  While any
        flush is outstanding (``conn.backlog``) later writes queue behind
        it, so frames leave in the order they were sent here.
        """
        if conn.closing:
            return None
        written = conn.backlog == 0
        if written:
            conn.writer.write(data)
            if conn.writer.transport.get_write_buffer_size() == 0:
                return None
        conn.backlog += 1
        return self._flush(conn, None if written else data)

    async def _flush(self, conn: _Connection, data: Optional[bytes]) -> None:
        """The backpressure path of one write: bounded, in order, or abort.

        Under ``conn.lock`` (FIFO, one in-order write stream per client):
        write ``data`` unless :meth:`_send` already did, then wait for
        the transport to drain below its high-water mark.  A client that
        cannot take it within ``write_timeout`` is aborted.
        """
        try:
            async with conn.lock:
                if conn.closing:
                    return
                try:
                    if data is not None:
                        conn.writer.write(data)
                    await asyncio.wait_for(
                        conn.writer.drain(), self.write_timeout
                    )
                except asyncio.TimeoutError:
                    self._aborted_total.inc()
                    logger.warning(
                        "slow-client-abort client=%s timeout=%.3gs",
                        conn.peer, self.write_timeout,
                    )
                    self._close_connection(conn, abort=True)
                except (ConnectionError, OSError):
                    self._close_connection(conn, abort=True)
        finally:
            conn.backlog -= 1

    async def _write(self, conn: _Connection, data: bytes) -> None:
        """One bounded write; a client that cannot drain it is aborted."""
        flush = self._send(conn, data)
        if flush is not None:
            await flush

    def _close_connection(self, conn: _Connection, abort: bool = False) -> None:
        if conn.closing:
            return
        conn.closing = True
        self._connections.discard(conn)
        transport = conn.writer.transport
        try:
            if abort and transport is not None:
                transport.abort()
            else:
                conn.writer.close()
        except (ConnectionError, OSError):  # pragma: no cover - racing close
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "closed" if self._closed
            else "draining" if self._draining
            else "listening" if self._address else "new"
        )
        where = f" on {self._address[0]}:{self._address[1]}" if self._address else ""
        return f"<XPathServer {state}{where}>"


class _IdleTimeout(Exception):
    """Internal: a connection crossed ``idle_timeout`` with nothing owed."""
