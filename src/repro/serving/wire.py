"""The id-native wire format of the cross-process serving tier.

Queries and results cross the worker boundary as self-describing binary
frames — never as pickled node objects or documents.  The only things on
the wire are query text, store keys, sorted int32 id arrays, scalars and
typed error descriptors, which is what keeps a sharded request round-trip
cheap: a node-set answer of *n* ids costs ``17 + 4n`` bytes regardless of
how big the nodes it denotes are.

Frame layout (all integers little-endian)::

    offset  size  field
    0       4     magic  b"RPW1"  (repro wire, version 1)
    4       1     message type (u8, one of the MSG_* constants)
    5       ...   type-specific body

Message bodies::

    QUERY        u32 seq · u8 flags · u16 key-len · u32 query-len ·
                 key utf-8 · query utf-8
    RESULT_IDS   u32 seq · u32 count · count × int32 (sorted ids)
    RESULT_VALUE u32 seq · u8 kind · payload
                 kind "F": float64 · "B": u8 bool · "S": u32 len + utf-8
    ERROR        u32 seq · u16 type-len · u32 msg-len · type · message
    WARM         u32 count · count × (u16 key-len · key utf-8)
    READY        u32 hydrated · u32 pid
    STATS        (empty body)
    STATS_REPLY  u32 json-len · utf-8 JSON object
    SHUTDOWN     (empty body)
    PING         u32 seq (echoed back, so probes are correlatable)
    PONG         u32 seq · u32 pid
    DRAIN        (empty body)
    DRAINED      u32 served · u32 pid
    HELLO        u32 protocol version · u32 pid · u16 banner-len · banner
    OVERLOADED   u32 seq · u32 inflight · u32 capacity
    TRACE        u32 seq · u32 json-len · utf-8 JSON trace tree
    METRICS      u8 format (0 JSON, 1 Prometheus text)
    METRICS_REPLY u8 format · u32 len · utf-8 exposition body

``HELLO`` and ``OVERLOADED`` belong to the network tier
(:mod:`repro.serving.server`): a server greets every accepted binary
connection with HELLO (so clients can verify the protocol version before
sending work), and answers a request that found the admission window full
with OVERLOADED instead of queueing it unboundedly.

``TRACE`` is the telemetry side-channel: a QUERY flagged with
:data:`FLAG_TRACE` asks the answering side to time its stages
(:class:`repro.telemetry.Trace`) and send them back as one TRACE frame
carrying the *same seq*, emitted immediately **before** the result frame
for that seq — the seq is the span context that attributes worker-side
timings back to the originating request across both hops
(worker→pool and server→client).  ``METRICS``/``METRICS_REPLY`` are the
ops endpoint: a client asks the server for its merged metrics registry
in JSON (format 0) or Prometheus text (format 1).

Byte-stream framing
-------------------

Between pool and worker, frames travel over a ``multiprocessing``
:class:`~multiprocessing.connection.Connection`, which length-prefixes
each ``send_bytes`` on its own.  Over a raw byte stream (TCP), framing is
explicit: every frame is preceded by a little-endian u32 length
(:func:`encode_framed`), and lengths above :data:`MAX_FRAME` are a
protocol error (:func:`framed_length`) — a malicious or corrupt peer
cannot make the other side allocate gigabytes on faith.

One buffer per answer
---------------------

"A node-set answer travels as packed little-endian int32" is decided
here, and every layer between the kernel and the socket hands that
buffer on instead of re-boxing it: a worker encodes
``QueryResult.packed_ids`` (packed straight from the kernel backend's
array), :func:`decode` keeps a ``RESULT_IDS`` payload as
:attr:`Message.packed` (its length checked against ``count``), the pool
wraps those bytes in its ``QueryResult`` and the network front door
passes them to :func:`encode_result_ids` again — which accepts the
packed buffer as readily as a sequence of ints and builds byte-identical
frames from either.  :attr:`Message.ids` builds the list of Python ints
only when it is read, which the clients and the JSON shim do and the
forwarding hops do not.  The layout itself
(:func:`~repro.xmlmodel.idset.pack_ids` /
:func:`~repro.xmlmodel.idset.unpack_ids`) lives beside ``IdSet``, below
both the engine and this module.

``seq`` is the requester's correlation id: replies carry the seq of the
query they answer, so a worker may answer a batch in any order (in
practice it answers in arrival order).  ``flags`` bit 0 (``FLAG_IDS``)
requires an id-array answer: a scalar-producing query then fails with the
same :class:`~repro.errors.XPathEvaluationError` the in-process
``evaluate_many_ids`` raises.

Examples
--------
>>> frame = encode_query(7, "catalogue", "//book[child::title]")
>>> message = decode(frame)
>>> (message.type == MSG_QUERY, message.seq, message.key, message.query)
(True, 7, 'catalogue', '//book[child::title]')
>>> decode(encode_result_ids(7, [2, 3, 11])).ids
[2, 3, 11]
>>> packed = decode(encode_result_ids(7, [2, 3, 11])).packed
>>> encode_result_ids(7, packed) == encode_result_ids(7, [2, 3, 11])
True
>>> decode(encode_result_value(9, 2.0)).value
2.0
>>> decode(encode_error(4, "XPathSyntaxError", "unexpected token")).error
('XPathSyntaxError', 'unexpected token')
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from repro.errors import ReproError
from repro.xmlmodel.idset import pack_ids, unpack_ids

MAGIC = b"RPW1"

MSG_QUERY = 1
MSG_RESULT_IDS = 2
MSG_RESULT_VALUE = 3
MSG_ERROR = 4
MSG_WARM = 5
MSG_READY = 6
MSG_STATS = 7
MSG_STATS_REPLY = 8
MSG_SHUTDOWN = 9
MSG_PING = 10
MSG_PONG = 11
MSG_DRAIN = 12
MSG_DRAINED = 13
MSG_HELLO = 14
MSG_OVERLOADED = 15
MSG_TRACE = 16
MSG_METRICS = 17
MSG_METRICS_REPLY = 18

#: Protocol version a server advertises in its HELLO frame.
PROTOCOL_VERSION = 1

#: METRICS format codes (the u8 body of a METRICS request), by the name
#: a client or a JSON shim line asks for.
METRICS_JSON = 0
METRICS_PROMETHEUS = 1
METRICS_FORMATS = {"json": METRICS_JSON, "prometheus": METRICS_PROMETHEUS}

#: Upper bound on one length-prefixed frame crossing a byte stream
#: (16 MiB ≈ a 4-million-id answer); larger lengths are a protocol error.
MAX_FRAME = 1 << 24

#: QUERY flag bit 0: the caller insists on an id-array answer (the
#: semantics of ``evaluate_many_ids``); scalar results become errors.
FLAG_IDS = 0x01

#: QUERY flag bit 1: the caller wants per-stage timings — the answering
#: side precedes its result frame with a TRACE frame of the same seq.
FLAG_TRACE = 0x02

_HEADER = struct.Struct("<4sB")
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")

_VALUE_FLOAT = ord("F")
_VALUE_BOOL = ord("B")
_VALUE_STRING = ord("S")


class WireError(ReproError):
    """A frame is malformed: bad magic, unknown type, or truncated body."""


@dataclass(frozen=True)
class Message:
    """One decoded frame.  Only the fields of its type are populated."""

    type: int
    seq: int = 0
    flags: int = 0
    key: str = ""
    query: str = ""
    packed: Optional[bytes] = None
    value: object = None
    error: Optional[tuple[str, str]] = None
    keys: tuple[str, ...] = ()
    payload: Optional[dict[str, object]] = None
    hydrated: int = 0
    pid: int = 0
    served: int = 0
    version: int = 0
    inflight: int = 0
    capacity: int = 0
    banner: str = ""
    body: str = ""

    @property
    def ids(self) -> Optional[list[int]]:
        """A RESULT_IDS payload as a list of ints (None for other frames).

        Built from :attr:`packed` on every read: a hop that only forwards
        the answer hands ``packed`` on and never pays for it.
        """
        return None if self.packed is None else unpack_ids(self.packed)

    @property
    def ids_only(self) -> bool:
        """True if a QUERY frame set :data:`FLAG_IDS`."""
        return bool(self.flags & FLAG_IDS)

    @property
    def wants_trace(self) -> bool:
        """True if a QUERY frame set :data:`FLAG_TRACE`."""
        return bool(self.flags & FLAG_TRACE)


# -- encoding ----------------------------------------------------------------


def _frame(msg_type: int, *chunks: bytes) -> bytes:
    return b"".join((_HEADER.pack(MAGIC, msg_type), *chunks))


def encode_query(
    seq: int, key: str, query: str, ids_only: bool = False, trace: bool = False
) -> bytes:
    """Encode one query request frame."""
    key_bytes = key.encode("utf-8")
    query_bytes = query.encode("utf-8")
    flags = (FLAG_IDS if ids_only else 0) | (FLAG_TRACE if trace else 0)
    return _frame(
        MSG_QUERY,
        _U32.pack(seq),
        _U8.pack(flags),
        _U16.pack(len(key_bytes)),
        _U32.pack(len(query_bytes)),
        key_bytes,
        query_bytes,
    )


def encode_result_ids(seq: int, ids: Union[Sequence[int], bytes]) -> bytes:
    """Encode a node-set answer as a sorted int32 id array.

    ``ids`` is a sequence of ints, or the answer already packed as
    little-endian int32 (``QueryResult.packed_ids``, ``Message.packed``),
    which goes into the frame as is.
    """
    packed = ids if isinstance(ids, bytes) else pack_ids(ids)
    count, ragged = divmod(len(packed), 4)
    if ragged:
        raise WireError(
            f"packed id array of {len(packed)} byte(s) is not a whole "
            "number of int32s"
        )
    return _frame(MSG_RESULT_IDS, _U32.pack(seq), _U32.pack(count), packed)


def encode_result_value(seq: int, value: object) -> bytes:
    """Encode a scalar answer (float, bool, or string)."""
    if isinstance(value, bool):  # before float: bool is an int subclass
        return _frame(
            MSG_RESULT_VALUE, _U32.pack(seq), _U8.pack(_VALUE_BOOL),
            _U8.pack(1 if value else 0),
        )
    if isinstance(value, (int, float)):
        return _frame(
            MSG_RESULT_VALUE, _U32.pack(seq), _U8.pack(_VALUE_FLOAT),
            _F64.pack(float(value)),
        )
    if isinstance(value, str):
        data = value.encode("utf-8")
        return _frame(
            MSG_RESULT_VALUE, _U32.pack(seq), _U8.pack(_VALUE_STRING),
            _U32.pack(len(data)), data,
        )
    raise WireError(f"cannot encode a {type(value).__name__} result")


def encode_error(seq: int, type_name: str, message: str) -> bytes:
    """Encode a typed error descriptor for re-raising on the other side."""
    type_bytes = type_name.encode("utf-8")
    message_bytes = message.encode("utf-8")
    return _frame(
        MSG_ERROR,
        _U32.pack(seq),
        _U16.pack(len(type_bytes)),
        _U32.pack(len(message_bytes)),
        type_bytes,
        message_bytes,
    )


def encode_warm(keys: Iterable[str]) -> bytes:
    """Encode the warm-up request: hydrate these store keys before serving."""
    encoded = [key.encode("utf-8") for key in keys]
    chunks = [_U32.pack(len(encoded))]
    for key_bytes in encoded:
        chunks.append(_U16.pack(len(key_bytes)))
        chunks.append(key_bytes)
    return _frame(MSG_WARM, *chunks)


def encode_ready(hydrated: int, pid: int) -> bytes:
    """Encode the warm-up acknowledgement."""
    return _frame(MSG_READY, _U32.pack(hydrated), _U32.pack(pid))


def encode_stats_request() -> bytes:
    """Encode the stats request (empty body)."""
    return _frame(MSG_STATS)


def encode_stats_reply(payload: dict[str, object]) -> bytes:
    """Encode a worker's counters as a JSON object."""
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    return _frame(MSG_STATS_REPLY, _U32.pack(len(data)), data)


def encode_shutdown() -> bytes:
    """Encode the graceful-shutdown request (empty body)."""
    return _frame(MSG_SHUTDOWN)


def encode_ping(seq: int = 0) -> bytes:
    """Encode a liveness probe (the worker echoes ``seq`` in its PONG)."""
    return _frame(MSG_PING, _U32.pack(seq))


def encode_pong(seq: int, pid: int) -> bytes:
    """Encode the liveness acknowledgement."""
    return _frame(MSG_PONG, _U32.pack(seq), _U32.pack(pid))


def encode_drain() -> bytes:
    """Encode the graceful-drain request: answer everything read so far,
    acknowledge with DRAINED, then exit."""
    return _frame(MSG_DRAIN)


def encode_drained(served: int, pid: int) -> bytes:
    """Encode the drain acknowledgement (total requests the worker served)."""
    return _frame(MSG_DRAINED, _U32.pack(served), _U32.pack(pid))


def encode_hello(pid: int, banner: str = "", version: int = PROTOCOL_VERSION) -> bytes:
    """Encode the server greeting a network connection receives on accept."""
    banner_bytes = banner.encode("utf-8")
    return _frame(
        MSG_HELLO,
        _U32.pack(version),
        _U32.pack(pid),
        _U16.pack(len(banner_bytes)),
        banner_bytes,
    )


def encode_overloaded(seq: int, inflight: int, capacity: int) -> bytes:
    """Encode an admission rejection: the request was never queued."""
    return _frame(
        MSG_OVERLOADED, _U32.pack(seq), _U32.pack(inflight), _U32.pack(capacity)
    )


def encode_trace(seq: int, trace: dict[str, object]) -> bytes:
    """Encode one request's span tree (sent just before its result frame)."""
    data = json.dumps(trace, sort_keys=True).encode("utf-8")
    return _frame(MSG_TRACE, _U32.pack(seq), _U32.pack(len(data)), data)


def metrics_format_code(format: object) -> int:
    """Map a metrics format name to its wire code; ``ValueError`` if unknown."""
    if isinstance(format, str) and format in METRICS_FORMATS:
        return METRICS_FORMATS[format]
    raise ValueError(
        f"unknown metrics format {format!r}; "
        f"choose one of {sorted(METRICS_FORMATS)}"
    )


def encode_metrics_request(format: int = METRICS_JSON) -> bytes:
    """Encode a metrics-exposition request (JSON or Prometheus text)."""
    if format not in (METRICS_JSON, METRICS_PROMETHEUS):
        raise WireError(f"unknown metrics format {format!r}")
    return _frame(MSG_METRICS, _U8.pack(format))


def encode_metrics_reply(format: int, body: str) -> bytes:
    """Encode the rendered exposition body of a METRICS request."""
    if format not in (METRICS_JSON, METRICS_PROMETHEUS):
        raise WireError(f"unknown metrics format {format!r}")
    data = body.encode("utf-8")
    return _frame(MSG_METRICS_REPLY, _U8.pack(format), _U32.pack(len(data)), data)


# -- byte-stream framing (the network tier) ----------------------------------


def encode_framed(frame: bytes) -> bytes:
    """Length-prefix one frame for a raw byte stream (u32 little-endian)."""
    if len(frame) > MAX_FRAME:
        raise WireError(
            f"frame of {len(frame)} byte(s) exceeds MAX_FRAME ({MAX_FRAME})"
        )
    return _U32.pack(len(frame)) + frame


def framed_length(header: bytes) -> int:
    """Decode and bounds-check a stream frame's 4-byte length prefix."""
    if len(header) != 4:
        raise WireError(
            f"stream frame header is {len(header)} byte(s), expected 4"
        )
    (length,) = _U32.unpack(header)
    if length > MAX_FRAME:
        raise WireError(
            f"stream frame announces {length} byte(s), above MAX_FRAME "
            f"({MAX_FRAME})"
        )
    return length


# -- decoding ----------------------------------------------------------------


class _Reader:
    """A bounds-checked cursor over one frame's body."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int) -> None:
        self.data = data
        self.pos = pos

    def take(self, size: int) -> bytes:
        end = self.pos + size
        if end > len(self.data):
            raise WireError(
                f"truncated frame: wanted {size} byte(s) at offset {self.pos}, "
                f"frame is {len(self.data)} byte(s)"
            )
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def u8(self) -> int:
        return _U8.unpack(self.take(1))[0]

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def text(self, size: int) -> str:
        try:
            return self.take(size).decode("utf-8")
        except UnicodeDecodeError as error:
            raise WireError(f"undecodable utf-8 in frame: {error}") from error

    def done(self) -> None:
        if self.pos != len(self.data):
            raise WireError(
                f"frame has {len(self.data) - self.pos} trailing byte(s)"
            )


def decode(frame: bytes) -> Message:
    """Decode one frame into a :class:`Message` (raises :class:`WireError`)."""
    if len(frame) < _HEADER.size:
        raise WireError(f"frame of {len(frame)} byte(s) is shorter than a header")
    magic, msg_type = _HEADER.unpack_from(frame)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    reader = _Reader(bytes(frame), _HEADER.size)
    if msg_type == MSG_QUERY:
        seq = reader.u32()
        flags = reader.u8()
        key_len = reader.u16()
        query_len = reader.u32()
        key = reader.text(key_len)
        query = reader.text(query_len)
        reader.done()
        return Message(MSG_QUERY, seq=seq, flags=flags, key=key, query=query)
    if msg_type == MSG_RESULT_IDS:
        seq = reader.u32()
        count = reader.u32()
        packed = reader.take(4 * count)
        reader.done()
        return Message(MSG_RESULT_IDS, seq=seq, packed=packed)
    if msg_type == MSG_RESULT_VALUE:
        seq = reader.u32()
        kind = reader.u8()
        if kind == _VALUE_FLOAT:
            value: object = _F64.unpack(reader.take(8))[0]
        elif kind == _VALUE_BOOL:
            value = bool(reader.u8())
        elif kind == _VALUE_STRING:
            value = reader.text(reader.u32())
        else:
            raise WireError(f"unknown scalar kind {kind!r}")
        reader.done()
        return Message(MSG_RESULT_VALUE, seq=seq, value=value)
    if msg_type == MSG_ERROR:
        seq = reader.u32()
        type_len = reader.u16()
        message_len = reader.u32()
        type_name = reader.text(type_len)
        message = reader.text(message_len)
        reader.done()
        return Message(MSG_ERROR, seq=seq, error=(type_name, message))
    if msg_type == MSG_WARM:
        count = reader.u32()
        keys = tuple(reader.text(reader.u16()) for _ in range(count))
        reader.done()
        return Message(MSG_WARM, keys=keys)
    if msg_type == MSG_READY:
        hydrated = reader.u32()
        pid = reader.u32()
        reader.done()
        return Message(MSG_READY, hydrated=hydrated, pid=pid)
    if msg_type == MSG_STATS:
        reader.done()
        return Message(MSG_STATS)
    if msg_type == MSG_STATS_REPLY:
        size = reader.u32()
        try:
            payload = json.loads(reader.text(size))
        except json.JSONDecodeError as error:
            raise WireError(f"undecodable stats payload: {error}") from error
        reader.done()
        return Message(MSG_STATS_REPLY, payload=payload)
    if msg_type == MSG_SHUTDOWN:
        reader.done()
        return Message(MSG_SHUTDOWN)
    if msg_type == MSG_PING:
        seq = reader.u32()
        reader.done()
        return Message(MSG_PING, seq=seq)
    if msg_type == MSG_PONG:
        seq = reader.u32()
        pid = reader.u32()
        reader.done()
        return Message(MSG_PONG, seq=seq, pid=pid)
    if msg_type == MSG_DRAIN:
        reader.done()
        return Message(MSG_DRAIN)
    if msg_type == MSG_DRAINED:
        served = reader.u32()
        pid = reader.u32()
        reader.done()
        return Message(MSG_DRAINED, served=served, pid=pid)
    if msg_type == MSG_HELLO:
        version = reader.u32()
        pid = reader.u32()
        banner = reader.text(reader.u16())
        reader.done()
        return Message(MSG_HELLO, version=version, pid=pid, banner=banner)
    if msg_type == MSG_OVERLOADED:
        seq = reader.u32()
        inflight = reader.u32()
        capacity = reader.u32()
        reader.done()
        return Message(
            MSG_OVERLOADED, seq=seq, inflight=inflight, capacity=capacity
        )
    if msg_type == MSG_TRACE:
        seq = reader.u32()
        size = reader.u32()
        try:
            payload = json.loads(reader.text(size))
        except json.JSONDecodeError as error:
            raise WireError(f"undecodable trace payload: {error}") from error
        if not isinstance(payload, dict):
            raise WireError("trace payload must be a JSON object")
        reader.done()
        return Message(MSG_TRACE, seq=seq, payload=payload)
    if msg_type == MSG_METRICS:
        format = reader.u8()
        if format not in (METRICS_JSON, METRICS_PROMETHEUS):
            raise WireError(f"unknown metrics format {format!r}")
        reader.done()
        return Message(MSG_METRICS, flags=format)
    if msg_type == MSG_METRICS_REPLY:
        format = reader.u8()
        if format not in (METRICS_JSON, METRICS_PROMETHEUS):
            raise WireError(f"unknown metrics format {format!r}")
        body = reader.text(reader.u32())
        reader.done()
        return Message(MSG_METRICS_REPLY, flags=format, body=body)
    raise WireError(f"unknown message type {msg_type}")
