"""Clients for the network serving tier (binary ``RPW1`` over TCP).

One client protocol, two transports.  :class:`_ClientProtocol` is the
client side of :class:`~repro.serving.server.XPathServer`'s binary
conversation — the handshake, windowed batches, ``PING``, ``STATS``,
``METRICS`` and ``DRAIN`` — written once and free of I/O: each operation
is a generator that yields the bytes to send next, or asks for the next
decoded reply frame, and returns the result.  A transport connects,
sends bytes, reads one frame at a time and closes; nothing else:

* :class:`ServingClient` — blocking sockets, for scripts, tests and the
  CLI.  Single-threaded use only.
* :class:`AsyncServingClient` — asyncio streams, for callers that
  multiplex many connections in one loop (the E19 benchmark drives the
  server with these); every operation is awaitable.

The conversation: connect, send the 4-byte ``RPW1`` preamble, read the
server's ``HELLO`` (protocol-version checked), then pipeline
length-prefixed frames.  Batches self-window (at most ``window``
unanswered requests on the wire) and reassemble replies by correlation
id, so one slow query does not stall the pipe behind it.  Worker-side
failures come back as the same exception types the in-process engine
raises (rebuilt via :func:`repro.serving.pool.rebuild_error`); an
admission rejection raises the typed :class:`Overloaded` carrying the
server's in-flight count and capacity — callers distinguish "back off
and retry" from "your query is wrong" by exception type alone.

>>> # doctest requires a running server; see docs/serving.md
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import socket
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from repro.serving import wire
from repro.serving.pool import ServingError, rebuild_error
from repro.telemetry.trace import Trace

#: Self-imposed pipelining bound: unanswered requests one client keeps
#: on the wire before reading replies.
DEFAULT_CLIENT_WINDOW = 64


class Overloaded(ServingError):
    """The server rejected a request at admission (no capacity).

    The request was never queued server-side; retry after a backoff, or
    shed load.  ``inflight`` and ``capacity`` are the server's admission
    counter and bound at rejection time.
    """

    def __init__(self, message: str, inflight: int = 0, capacity: int = 0) -> None:
        super().__init__(message)
        self.inflight = inflight
        self.capacity = capacity


class ConnectionDrained(ServingError):
    """The server drained the connection before answering this request."""


@dataclass(frozen=True)
class RemoteResult:
    """One answer from the network tier: sorted ids or a scalar.

    The network client is deliberately id-native end-to-end — there is
    no document on this side of the wire to materialise nodes from, so
    the result is exactly what the frames carry.  ``trace`` carries the
    full cross-tier span tree (``client`` at the root, the server's
    TRACE frame as its child) when the request asked for one.
    """

    query: str
    key: str
    ids: Optional[list[int]] = None
    value: object = None
    trace: Optional[Trace] = None

    @property
    def is_node_set(self) -> bool:
        """True if the answer is an id array (rather than a scalar)."""
        return self.ids is not None


def _result_from(message: "wire.Message", query: str, key: str):
    """Map one reply frame to a RemoteResult or an exception object."""
    if message.type == wire.MSG_RESULT_IDS:
        return RemoteResult(query=query, key=key, ids=message.ids)
    if message.type == wire.MSG_RESULT_VALUE:
        return RemoteResult(query=query, key=key, value=message.value)
    if message.type == wire.MSG_ERROR:
        return rebuild_error(*message.error)
    if message.type == wire.MSG_OVERLOADED:
        return Overloaded(
            f"server overloaded: {message.inflight}/{message.capacity} "
            "request(s) in flight",
            inflight=message.inflight,
            capacity=message.capacity,
        )
    raise ServingError(
        f"server sent frame type {message.type} where a reply was expected"
    )


def _expect(message: "wire.Message", expected: int, request: str) -> "wire.Message":
    """The reply check every operation shares: ``expected`` frame or raise."""
    if message.type == expected:
        return message
    if message.type == wire.MSG_ERROR:
        raise rebuild_error(*message.error)
    raise ServingError(
        f"server answered {request} with frame type {message.type}"
    )


class _BatchState:
    """One batch's reply-correlation bookkeeping (the protocol's window
    loop drives it)."""

    def __init__(
        self, requests: Sequence[tuple], ids: bool, trace: bool = False
    ) -> None:
        self.items: list[tuple[str, str]] = []
        for request in requests:
            if not (isinstance(request, tuple) and len(request) == 2):
                raise TypeError(
                    f"request must be a (query, key) pair, got {request!r}"
                )
            query, key = request
            if not isinstance(query, str):
                query = query.unparse()
            self.items.append((query, str(key)))
        self.ids = ids
        self.trace = trace
        self.results: list = [None] * len(self.items)
        self.pending: set[int] = set()
        self.next_seq = 0
        self.drained = False
        self.sent_at: dict[int, float] = {}
        self.traces: dict[int, dict] = {}

    def frames(self):
        """Yield the remaining request frames (stream-framed), in order."""
        while self.next_seq < len(self.items):
            seq = self.next_seq
            query, key = self.items[seq]
            self.next_seq += 1
            self.pending.add(seq)
            self.sent_at[seq] = time.perf_counter()
            yield wire.encode_framed(
                wire.encode_query(
                    seq, key, query, ids_only=self.ids, trace=self.trace
                )
            )

    def absorb(self, message: "wire.Message") -> None:
        """Record one reply frame against its pending request."""
        if message.type == wire.MSG_DRAINED:
            # The server is going away; everything unanswered fails typed.
            self.drained = True
            for seq in sorted(self.pending | set(range(self.next_seq, len(self.items)))):
                self.results[seq] = ConnectionDrained(
                    "server drained the connection before answering"
                )
            self.pending.clear()
            self.next_seq = len(self.items)
            return
        if message.seq not in self.pending:
            raise ServingError(
                f"server answered unknown request {message.seq}"
            )
        if message.type == wire.MSG_TRACE:
            # The span tree for a pending request: its result frame
            # follows.  Stash it; do not resolve the seq.
            self.traces[message.seq] = message.payload
            return
        self.pending.discard(message.seq)
        query, key = self.items[message.seq]
        result = _result_from(message, query, key)
        if self.trace and isinstance(result, RemoteResult):
            result = replace(
                result, trace=self._client_trace(message.seq)
            )
        self.results[message.seq] = result

    def _client_trace(self, seq: int) -> Trace:
        """The ``client`` tier trace: one round-trip span + server child."""
        trace = Trace("client")
        duration = time.perf_counter() - self.sent_at[seq]  # seq was sent
        trace.add_span("request", offset=0.0, duration=duration)
        payload = self.traces.pop(seq, None)
        if payload is not None:
            trace.add_child(Trace.from_dict(payload))
        return trace

    def finish(self, return_errors: bool):
        if not return_errors:
            for result in self.results:
                if isinstance(result, Exception):
                    raise result
        return self.results


#: What an operation yields to be handed the next decoded reply frame.
_READ = None


def _operation(protocol):
    """Make a generator method of :class:`_ClientProtocol` a client
    operation: calling it hands the generator to the transport's ``_run``
    (which returns the result, or an awaitable of it)."""

    @functools.wraps(protocol)
    def operation(self, *args, **kwargs):
        return self._run(protocol(self, *args, **kwargs))

    return operation


class _ClientProtocol:
    """The client side of one binary conversation, with no I/O.

    Every operation is written once, here, as a generator: it yields the
    bytes to send next, or :data:`_READ` to be sent the next decoded
    reply frame, and returns its result or raises.  A transport subclass
    supplies ``_run(operation)``, which drives one such generator over
    its connection and closes the connection once the protocol has
    marked the client closed — after :meth:`drain`, a failed handshake,
    or any operation that ended with a reply still owed (a timeout, a
    protocol error, an interrupt, a cancelled task): the late reply
    would otherwise answer the next request, whose ``seq`` numbers start
    at 0 again.  The next call then raises the typed "client is closed"
    :class:`ServingError`.
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self.window = window
        self._closed = False
        self.server_pid = 0
        self.banner = ""

    def _require_open(self) -> None:
        if self._closed:
            raise ServingError("the client is closed")

    # -- the conversation --------------------------------------------------

    def _roundtrip(self, data: bytes):
        """Send ``data``, return the reply frame."""
        self._require_open()
        try:
            yield data
            return (yield _READ)
        except BaseException:
            self._closed = True  # the reply may still be owed
            raise

    def _request(self, frame: bytes, expected: int, name: str):
        """One operation round-trip: send ``frame``, check the reply type."""
        reply = yield from self._roundtrip(wire.encode_framed(frame))
        return _expect(reply, expected, name)

    @_operation
    def _handshake(self):
        """Send the ``RPW1`` preamble, check the server's HELLO."""
        hello = yield from self._roundtrip(wire.MAGIC)
        if hello.type != wire.MSG_HELLO:
            problem = f"server opened with frame type {hello.type}, expected HELLO"
        elif hello.version != wire.PROTOCOL_VERSION:
            problem = (
                f"server speaks protocol version {hello.version}, "
                f"this client speaks {wire.PROTOCOL_VERSION}"
            )
        else:
            self.server_pid, self.banner = hello.pid, hello.banner
            return
        self._closed = True
        raise ServingError(problem)

    def _batch(self, requests, ids, return_errors, trace):
        """Pipeline ``requests``, at most ``window`` unanswered at a time."""
        self._require_open()
        state = _BatchState(requests, ids, trace)
        try:
            for frame in state.frames():
                yield frame
                while len(state.pending) >= self.window:
                    state.absorb((yield _READ))
            while state.pending:
                state.absorb((yield _READ))
        finally:
            if state.pending:
                self._closed = True
        return state.finish(return_errors)

    # -- operations --------------------------------------------------------

    @_operation
    def evaluate(
        self,
        query: Union[str, object],
        key: str,
        ids: bool = False,
        trace: bool = False,
    ) -> RemoteResult:
        """Evaluate one query over the wire; raises typed errors."""
        results = yield from self._batch([(query, key)], ids, False, trace)
        return results[0]

    @_operation
    def evaluate_batch(
        self,
        requests: Sequence[tuple],
        ids: bool = False,
        return_errors: bool = False,
        trace: bool = False,
    ) -> list:
        """Pipeline ``(query, key)`` pairs; results come back in order.

        At most ``window`` requests ride the wire unanswered.  With
        ``return_errors=False`` (default) the first failing request (by
        input order) raises after the batch drains; with ``True`` its
        slot carries the exception object instead.  ``trace=True`` asks
        the server for per-stage spans: each result's ``trace`` is the
        cross-tier span tree (client → server → pool → worker → engine).
        A batch that ends with replies still owed closes the client.
        """
        return (yield from self._batch(requests, ids, return_errors, trace))

    @_operation
    def ping(self, seq: int = 0) -> tuple[int, float]:
        """Liveness probe; returns ``(server_pid, round_trip_seconds)``."""
        started = time.perf_counter()
        message = yield from self._request(
            wire.encode_ping(seq), wire.MSG_PONG, "PING"
        )
        elapsed = time.perf_counter() - started
        if message.seq != seq:
            raise ServingError(
                f"server answered PING {seq} with PONG {message.seq}"
            )
        return message.pid, elapsed

    @_operation
    def server_stats(self) -> dict:
        """The server's STATS payload (server counters + pool counters)."""
        message = yield from self._request(
            wire.encode_stats_request(), wire.MSG_STATS_REPLY, "STATS"
        )
        return message.payload

    @_operation
    def server_metrics(self, format: str = "json") -> str:
        """The server's METRICS exposition body as text.

        ``format`` is ``"json"`` (the families document of
        :func:`repro.telemetry.render_json`) or ``"prometheus"`` (the
        classic text exposition format, scrape-ready); anything else is
        a :class:`ValueError`, raised before anything is sent.
        """
        message = yield from self._request(
            wire.encode_metrics_request(wire.metrics_format_code(format)),
            wire.MSG_METRICS_REPLY, "METRICS",
        )
        return message.body

    @_operation
    def drain(self) -> int:
        """Client-initiated graceful close; returns requests served here.

        Sends ``DRAIN``, reads the server's ``DRAINED`` receipt (the
        count of requests this connection was served), closes.
        """
        message = yield from self._request(
            wire.encode_drain(), wire.MSG_DRAINED, "DRAIN"
        )
        self._closed = True
        return message.served


class ServingClient(_ClientProtocol):
    """A blocking-socket client for one :class:`XPathServer` connection.

    Parameters
    ----------
    host, port:
        The server's listen address (e.g. from ``server.address``).
    timeout:
        Socket timeout applied to every send/receive (seconds).
    window:
        Pipelining bound for :meth:`evaluate_batch`.

    Not thread-safe: one connection is one ordered conversation.  Use it
    as a context manager, or call :meth:`drain` / :meth:`close`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        window: int = DEFAULT_CLIENT_WINDOW,
    ) -> None:
        super().__init__(window)
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.settimeout(timeout)
        self._stream = self._sock.makefile("rb")  # header + frame in one recv
        self._handshake()

    def _run(self, operation):
        """Drive one protocol operation over the socket."""
        reply = None
        try:
            while True:
                step = operation.send(reply)
                if step is _READ:
                    reply = self._read_message()
                else:
                    self._sock.sendall(step)
                    reply = None
        except StopIteration as done:
            return done.value
        finally:
            operation.close()
            if self._closed:
                self.close()

    def _recv_exactly(self, size: int) -> bytes:
        data = self._stream.read(size)
        if len(data) < size:
            raise ServingError(
                f"server closed the connection mid-frame "
                f"({len(data)}/{size} byte(s) read)"
            )
        return data

    def _read_message(self) -> "wire.Message":
        length = wire.framed_length(self._recv_exactly(4))
        return wire.decode(self._recv_exactly(length))

    def close(self) -> None:
        """Close the socket (idempotent)."""
        self._closed = True
        with contextlib.suppress(OSError):  # close is best-effort
            self._stream.close()
            self._sock.close()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<ServingClient {state} server_pid={self.server_pid}>"


class AsyncServingClient(_ClientProtocol):
    """An asyncio client for one :class:`XPathServer` connection.

    Build with :meth:`connect`; the API is :class:`ServingClient`'s with
    every operation awaitable, and :meth:`aclose` for ``close``.  One
    instance belongs to one task at a time (one connection is one
    ordered conversation) — run many instances for concurrency, that is
    the point of the async flavour.
    """

    def __init__(self, reader, writer, window: int = DEFAULT_CLIENT_WINDOW) -> None:
        super().__init__(window)
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        window: int = DEFAULT_CLIENT_WINDOW,
    ) -> "AsyncServingClient":
        """Open a connection, shake hands, return a ready client."""
        reader, writer = await asyncio.open_connection(host, port)
        try:
            client = cls(reader, writer, window=window)
        except BaseException:
            writer.close()
            raise
        await client._handshake()
        return client

    async def _run(self, operation):
        """Drive one protocol operation over the stream."""
        reply = None
        try:
            while True:
                step = operation.send(reply)
                if step is _READ:
                    await self._writer.drain()
                    reply = await self._read_message()
                else:
                    self._writer.write(step)
                    reply = None
        except StopIteration as done:
            return done.value
        finally:
            operation.close()
            if self._closed:
                # Not awaited: this may be a task being cancelled.
                self._writer.close()

    async def _read_message(self) -> "wire.Message":
        try:
            header = await self._reader.readexactly(4)
            frame = await self._reader.readexactly(wire.framed_length(header))
        except asyncio.IncompleteReadError as error:
            raise ServingError(
                f"server closed the connection mid-frame "
                f"({len(error.partial)} byte(s) read)"
            ) from None
        return wire.decode(frame)

    async def aclose(self) -> None:
        """Close the connection (idempotent)."""
        self._closed = True
        self._writer.close()
        with contextlib.suppress(ConnectionError, OSError):  # racing close
            await self._writer.wait_closed()

    async def __aenter__(self) -> "AsyncServingClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()


def json_roundtrip(
    host: str,
    port: int,
    lines: Sequence[Union[str, dict]],
    timeout: float = 30.0,
) -> list[dict]:
    """Drive the server's JSON shim: send lines, return parsed replies.

    A convenience for tests and scripts exercising the curl-style
    protocol — each element of ``lines`` (a dict, or a pre-encoded JSON
    string) becomes one request line; the reply lines come back parsed,
    in arrival order (one per request).
    """
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.settimeout(timeout)
        payload = b"".join(
            (line if isinstance(line, str) else json.dumps(line)).encode() + b"\n"
            for line in lines
        )
        sock.sendall(payload)
        replies = []
        buffer = b""
        while len(replies) < len(lines):
            while b"\n" not in buffer:
                chunk = sock.recv(65536)
                if not chunk:
                    raise ServingError(
                        "server closed the JSON connection before answering"
                    )
                buffer += chunk
            line, _, buffer = buffer.partition(b"\n")
            replies.append(json.loads(line.decode("utf-8")))
        return replies
