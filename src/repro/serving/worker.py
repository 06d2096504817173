"""The worker side of the sharded serving tier.

:func:`worker_main` is the entry point a
:class:`~repro.serving.ShardedPool` runs in each child process.  A worker
is deliberately a *complete, ordinary* serving process built from the
in-process pieces:

* one :class:`~repro.engine.XPathEngine` with its own plan cache,
  document registry and per-document evaluators (plan compilation
  happens at most once per distinct query text **per worker**);
* one :class:`~repro.store.CorpusStore` opened read-only on the shared
  store directory — the store *is* the document transport: the parent
  never ships tree bytes, only keys, and hydration uses ``mmap=True`` by
  default so snapshot pages are shared between every process mapping
  them;
* a receive loop over the :mod:`~repro.serving.wire` frames, answering
  ``QUERY`` with ``RESULT_IDS``/``RESULT_VALUE``/``ERROR``, ``WARM`` with
  ``READY``, ``STATS`` with ``STATS_REPLY``, ``PING`` with ``PONG``, and
  exiting cleanly on ``SHUTDOWN``, ``DRAIN`` (after acknowledging with
  ``DRAINED``) or a closed pipe.

The loop drains its pipe without any cross-request synchronisation: the
pool is the only writer, requests carry correlation ids (``seq``), and
each request is answered before the next is read, so replies stream back
in arrival order while the pool's send window keeps the pipe full — the
wire-level batch protocol mirrors what
:func:`repro.planner.evaluate_many_ids` does in process (shared plans,
shared evaluator instances, id-native answers).

Errors never kill a worker: any exception an evaluation raises is sent
back as a typed ``ERROR`` frame and the loop continues with the next
request.  Only a malformed frame (a protocol bug, not a query bug)
terminates the worker, which the pool's supervisor treats like any other
worker death: restart, re-warm, replay.

Fault injection (test-only)
---------------------------

The supervision test-suite and benchmark E18 need workers that die on
cue, under both ``fork`` and ``spawn`` start methods — including workers
the supervisor *restarts*, which the test process never touches directly.
The one channel that reaches all of them is the environment, so a worker
arms an optional fault from ``REPRO_SERVING_FAULT`` at startup
(``tests/serving/faultinject.py`` is the harness that sets it; the
variable is unset in production and this code reduces to a no-op check
per frame).  Spec grammar::

    REPRO_SERVING_FAULT = <action>:<trigger>[:<n>]

    action   exit      — os._exit(1), a hard crash (SIGKILL-equivalent)
             midframe  — write a torn reply frame, then os._exit(1)
             hang      — sleep forever (a live but unresponsive worker)
    trigger  query     — fire on the n-th QUERY frame this process reads
             warm      — fire on the n-th WARM frame
             close     — fire on SHUTDOWN/DRAIN (hang: shutdown never
                         completes; exercises the close deadline)

``REPRO_SERVING_FAULT_ONCE`` may name a file: the fault only fires while
the file exists and firing unlinks it, so exactly one worker process
crashes and its restarted successor is healthy (the recovery scenario).
Without it the fault re-arms in every restarted worker (the
retry-exhaustion scenario).
"""

from __future__ import annotations

import os
import stat
import struct
import time
from typing import TYPE_CHECKING, Optional

from repro.serving import wire
from repro.store import StoreKey
from repro.telemetry.trace import Trace, maybe_span

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from multiprocessing.connection import Connection

    from repro.engine import XPathEngine

FAULT_ENV = "REPRO_SERVING_FAULT"
FAULT_ONCE_ENV = "REPRO_SERVING_FAULT_ONCE"

_FAULT_ACTIONS = ("exit", "midframe", "hang")
_FAULT_TRIGGERS = ("query", "warm", "close")


class _Fault:
    """One armed fault: fire ``action`` on the n-th ``trigger`` frame."""

    __slots__ = ("action", "trigger", "n", "once_path", "count")

    def __init__(self, action: str, trigger: str, n: int, once_path) -> None:
        self.action = action
        self.trigger = trigger
        self.n = n
        self.once_path = once_path
        self.count = 0

    def _armed(self) -> bool:
        if self.once_path is None:
            return True
        # One crash total across the worker's whole restart lineage: the
        # first process to fire consumes the token file.
        try:
            os.unlink(self.once_path)
        except OSError:
            return False
        return True

    def hit(self, trigger: str, conn: "Optional[Connection]" = None,
            reply: Optional[bytes] = None) -> None:
        """Fire if this frame is the n-th of ``trigger`` (may not return)."""
        if trigger != self.trigger:
            return
        self.count += 1
        if self.count != self.n or not self._armed():
            return
        if self.action == "hang":
            time.sleep(3600)  # pragma: no cover - the supervisor kills us
        if self.action == "midframe" and conn is not None and reply is not None:
            # A torn reply: the Connection length prefix promises the full
            # frame, the body stops halfway — the parent sees EOF mid-read.
            header = struct.pack("!i", len(reply))
            os.write(conn.fileno(), header + reply[: len(reply) // 2])
        os._exit(1)


def _load_fault() -> Optional[_Fault]:
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return None
    parts = spec.split(":")
    if len(parts) < 2 or parts[0] not in _FAULT_ACTIONS or parts[1] not in _FAULT_TRIGGERS:
        raise ValueError(f"malformed {FAULT_ENV} spec {spec!r}")
    n = int(parts[2]) if len(parts) > 2 else 1
    return _Fault(parts[0], parts[1], n, os.environ.get(FAULT_ONCE_ENV))


def worker_main(
    conn: "Connection", store_root: str, mmap: bool, worker_id: int
) -> None:
    """Serve queries over ``conn`` until shutdown (runs in a child process)."""
    # Imports happen here, not at module top: under the ``spawn`` start
    # method the child pays them at startup, and keeping them inside the
    # function keeps the module importable for pickling before the heavy
    # engine modules load.
    from repro.engine import XPathEngine
    from repro.store import CorpusStore

    _close_inherited_sockets(conn.fileno())
    engine = XPathEngine().attach_store(CorpusStore(store_root), mmap=mmap)
    fault = _load_fault()
    served = 0
    while True:
        try:
            frame = conn.recv_bytes()
        except (EOFError, OSError):
            break  # parent went away: treat like shutdown
        message = wire.decode(frame)
        if message.type == wire.MSG_SHUTDOWN:
            if fault is not None:
                fault.hit("close")
            break
        if message.type == wire.MSG_DRAIN:
            # Everything the parent sent before DRAIN has already been
            # answered (one reply per request, in arrival order), so the
            # acknowledgement doubles as the "nothing in flight" receipt.
            if fault is not None:
                fault.hit("close")
            conn.send_bytes(wire.encode_drained(served, os.getpid()))
            break
        if message.type == wire.MSG_QUERY:
            reply, trace_frame = _answer(engine, message)
            if fault is not None:
                fault.hit("query", conn, reply)
            if trace_frame is not None:
                # The trace frame precedes its result frame so the pool
                # can attach the span tree before it resolves the seq.
                conn.send_bytes(trace_frame)
            conn.send_bytes(reply)
            served += 1
        elif message.type == wire.MSG_WARM:
            if fault is not None:
                fault.hit("warm")
            hydrated = 0
            for key in message.keys:
                engine.add_from_store(key)
                hydrated += 1
            conn.send_bytes(wire.encode_ready(hydrated, os.getpid()))
        elif message.type == wire.MSG_PING:
            conn.send_bytes(wire.encode_pong(message.seq, os.getpid()))
        elif message.type == wire.MSG_STATS:
            conn.send_bytes(
                wire.encode_stats_reply(_stats_payload(engine, worker_id, served))
            )
        else:
            raise wire.WireError(
                f"worker received a reply-type frame (type {message.type})"
            )
    conn.close()


def _close_inherited_sockets(keep: int) -> None:
    """Close every socket this process inherited except ``keep``, its pipe.

    A ``fork`` child of a network server would otherwise hold its
    listening socket and client connections (a closed port would keep
    accepting, a closed connection never read EOF).  Pipes stay open:
    multiprocessing's process sentinels are pipes.
    """
    try:
        descriptors = [int(name) for name in os.listdir("/dev/fd")]
    except OSError:  # no /dev/fd: a spawn-only platform, nothing inherited
        return
    for fd in descriptors:
        if fd > 2 and fd != keep:
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.close(fd)
            except OSError:
                pass  # not open (the listing's own descriptor, a gap)


def _answer(
    engine: "XPathEngine", message: wire.Message
) -> tuple[bytes, Optional[bytes]]:
    """Evaluate one QUERY message and encode its reply frame(s).

    One ``engine.evaluate`` call: node-set results go out as sorted int32
    id arrays — ``result.packed_ids``, which a Core answer packs straight
    from the kernel backend's array, so neither a node object nor a list
    of Python ints is built just to be re-encoded — scalars as typed
    scalars; under
    :data:`~repro.serving.wire.FLAG_IDS` the engine enforces the
    ``ids=True`` contract — a scalar query is an error.  Any exception
    becomes an ``ERROR`` frame.

    Returns ``(reply, trace_frame)``: under
    :data:`~repro.serving.wire.FLAG_TRACE` the second element is a TRACE
    frame carrying the ``worker`` span tree (with the engine's trace as
    a child) to send *before* the reply; otherwise it is None.  Errors
    carry no trace frame.
    """
    trace = Trace("worker") if message.wants_trace else None
    try:
        handle = engine.add(StoreKey(message.key))
        with maybe_span(trace, "worker-eval"):
            result = engine.evaluate(
                message.query, handle, ids=message.ids_only,
                trace=message.wants_trace,
            )
        if result.is_node_set:
            reply = wire.encode_result_ids(message.seq, result.packed_ids)
        else:
            reply = wire.encode_result_value(message.seq, result.value)
    except Exception as error:  # noqa: BLE001 - every query error crosses the wire
        return wire.encode_error(message.seq, type(error).__name__, str(error)), None
    trace_frame = None
    if trace is not None:
        if result.trace is not None:
            trace.add_child(result.trace)
        trace_frame = wire.encode_trace(message.seq, trace.to_dict())
    return reply, trace_frame


def _stats_payload(engine: "XPathEngine", worker_id: int, served: int) -> dict:
    """The counters a worker reports for the pool's merged ``stats()``."""
    stats = engine.stats()
    return {
        "worker": worker_id,
        "pid": os.getpid(),
        "served": served,
        "queries": stats.queries,
        "dispatch": dict(stats.dispatch),
        "plan_hits": stats.plans.hits,
        "plan_misses": stats.plans.misses,
        "documents": stats.documents.size,
        "store_hits": stats.store.hits if stats.store else 0,
        "store_loads": stats.store.loads if stats.store else 0,
    }
