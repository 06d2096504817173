"""Unit tests for the id-native wire format (framing, round-trips, errors)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import wire


class TestQueryFrames:
    def test_round_trip(self):
        frame = wire.encode_query(42, "catalogue", "//book[child::title]")
        message = wire.decode(frame)
        assert message.type == wire.MSG_QUERY
        assert (message.seq, message.key, message.query) == (
            42, "catalogue", "//book[child::title]"
        )
        assert not message.ids_only

    def test_ids_flag(self):
        message = wire.decode(wire.encode_query(0, "k", "//a", ids_only=True))
        assert message.ids_only
        assert message.flags & wire.FLAG_IDS

    def test_unicode_key_and_query(self):
        frame = wire.encode_query(1, "документы", '//a[@x="émü"]')
        message = wire.decode(frame)
        assert message.key == "документы"
        assert message.query == '//a[@x="émü"]'


class TestResultFrames:
    @pytest.mark.parametrize(
        "ids", [[], [0], [2, 3, 11], list(range(10_000))]
    )
    def test_id_arrays_round_trip(self, ids):
        message = wire.decode(wire.encode_result_ids(7, ids))
        assert message.type == wire.MSG_RESULT_IDS
        assert message.seq == 7
        assert message.ids == ids

    @pytest.mark.parametrize(
        "ids", [[], [0], [2, 3, 11], list(range(10_000))]
    )
    def test_packed_buffer_encodes_to_the_same_frame(self, ids):
        from array import array

        frame = wire.encode_result_ids(7, ids)
        packed = wire.decode(frame).packed
        assert packed == array("i", ids).tobytes()  # hosts we run on are LE
        assert wire.encode_result_ids(7, packed) == frame

    def test_only_result_id_frames_carry_packed_ids(self):
        assert wire.decode(wire.encode_result_value(1, 2.0)).packed is None
        assert wire.decode(wire.encode_result_value(1, 2.0)).ids is None
        assert wire.decode(wire.encode_query(1, "k", "//a")).ids is None

    def test_ragged_packed_buffer_is_rejected(self):
        with pytest.raises(wire.WireError, match="int32"):
            wire.encode_result_ids(1, b"\x01\x00\x00\x00\x02")

    def test_id_array_wire_size_is_four_bytes_per_id(self):
        empty = wire.encode_result_ids(0, [])
        thousand = wire.encode_result_ids(0, list(range(1000)))
        assert len(thousand) - len(empty) == 4 * 1000

    @pytest.mark.parametrize("value", [2.0, -1.5, float("inf"), 0.0])
    def test_float_values(self, value):
        assert wire.decode(wire.encode_result_value(3, value)).value == value

    def test_float_nan(self):
        decoded = wire.decode(wire.encode_result_value(3, float("nan"))).value
        assert decoded != decoded  # NaN round-trips as NaN

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_values_stay_bool(self, value):
        decoded = wire.decode(wire.encode_result_value(1, value)).value
        assert decoded is value

    def test_string_values(self):
        decoded = wire.decode(wire.encode_result_value(1, "héllo ")).value
        assert decoded == "héllo "

    def test_int_scalars_become_floats(self):
        # XPath 1.0 numbers are doubles; the wire keeps that convention.
        decoded = wire.decode(wire.encode_result_value(1, 7)).value
        assert decoded == 7.0 and isinstance(decoded, float)

    def test_unencodable_value_raises(self):
        with pytest.raises(wire.WireError, match="cannot encode"):
            wire.encode_result_value(1, object())


class TestControlFrames:
    def test_error_round_trip(self):
        frame = wire.encode_error(9, "XPathSyntaxError", "unexpected token")
        message = wire.decode(frame)
        assert message.type == wire.MSG_ERROR
        assert message.seq == 9
        assert message.error == ("XPathSyntaxError", "unexpected token")

    def test_warm_and_ready(self):
        message = wire.decode(wire.encode_warm(["a", "b", "c"]))
        assert message.type == wire.MSG_WARM
        assert message.keys == ("a", "b", "c")
        ready = wire.decode(wire.encode_ready(3, 1234))
        assert (ready.hydrated, ready.pid) == (3, 1234)

    def test_warm_empty(self):
        assert wire.decode(wire.encode_warm([])).keys == ()

    def test_stats_round_trip(self):
        assert wire.decode(wire.encode_stats_request()).type == wire.MSG_STATS
        payload = {"worker": 0, "dispatch": {"core": 3}}
        message = wire.decode(wire.encode_stats_reply(payload))
        assert message.payload == payload

    def test_shutdown(self):
        assert wire.decode(wire.encode_shutdown()).type == wire.MSG_SHUTDOWN


class TestTelemetryFrames:
    def test_query_trace_flag(self):
        message = wire.decode(wire.encode_query(3, "k", "//a", trace=True))
        assert message.wants_trace
        assert message.flags & wire.FLAG_TRACE
        assert not wire.decode(wire.encode_query(3, "k", "//a")).wants_trace

    def test_trace_round_trip(self):
        payload = {
            "tier": "worker",
            "spans": [{"name": "worker-eval", "offset": 0.0, "duration": 0.01}],
            "children": [{"tier": "engine", "spans": [], "children": []}],
        }
        message = wire.decode(wire.encode_trace(11, payload))
        assert message.type == wire.MSG_TRACE
        assert message.seq == 11
        assert message.payload == payload

    def test_metrics_request_round_trip(self):
        message = wire.decode(wire.encode_metrics_request(wire.METRICS_JSON))
        assert message.type == wire.MSG_METRICS
        assert message.flags == wire.METRICS_JSON
        prometheus = wire.decode(
            wire.encode_metrics_request(wire.METRICS_PROMETHEUS)
        )
        assert prometheus.flags == wire.METRICS_PROMETHEUS

    def test_metrics_reply_round_trip(self):
        body = '# HELP c_total hélp\n# TYPE c_total counter\nc_total 3\n'
        message = wire.decode(
            wire.encode_metrics_reply(wire.METRICS_PROMETHEUS, body)
        )
        assert message.type == wire.MSG_METRICS_REPLY
        assert message.flags == wire.METRICS_PROMETHEUS
        assert message.body == body


class TestMalformedFrames:
    def test_bad_magic(self):
        with pytest.raises(wire.WireError, match="magic"):
            wire.decode(b"XXXX" + wire.encode_shutdown()[4:])

    def test_short_frame(self):
        with pytest.raises(wire.WireError, match="shorter than a header"):
            wire.decode(b"RPW")

    def test_unknown_type(self):
        with pytest.raises(wire.WireError, match="unknown message type"):
            wire.decode(wire.MAGIC + bytes([250]))

    def test_truncated_body(self):
        frame = wire.encode_query(1, "key", "//a")
        with pytest.raises(wire.WireError, match="truncated"):
            wire.decode(frame[:-2])

    def test_trailing_garbage(self):
        with pytest.raises(wire.WireError, match="trailing"):
            wire.decode(wire.encode_shutdown() + b"\x00")

    def test_truncated_id_array(self):
        frame = wire.encode_result_ids(1, [1, 2, 3])
        with pytest.raises(wire.WireError, match="truncated"):
            wire.decode(frame[:-4])

    def test_id_array_longer_than_its_count(self):
        frame = bytearray(wire.encode_result_ids(1, [1, 2, 3]))
        frame[9:13] = (2).to_bytes(4, "little")  # magic(4) type(1) seq(4) → count
        with pytest.raises(wire.WireError, match="trailing"):
            wire.decode(bytes(frame))

    def test_id_array_shorter_than_its_count(self):
        frame = bytearray(wire.encode_result_ids(1, [1, 2, 3]))
        frame[9:13] = (4).to_bytes(4, "little")
        with pytest.raises(wire.WireError, match="truncated"):
            wire.decode(bytes(frame))

    def test_unknown_scalar_kind(self):
        frame = bytearray(wire.encode_result_value(1, True))
        frame[9] = ord("Z")  # magic(4) + type(1) + seq(4) → kind byte
        with pytest.raises(wire.WireError, match="unknown scalar kind"):
            wire.decode(bytes(frame))


class TestNetworkFrames:
    def test_hello_round_trip(self):
        message = wire.decode(wire.encode_hello(4321, banner="repro-xpath"))
        assert message.type == wire.MSG_HELLO
        assert message.version == wire.PROTOCOL_VERSION
        assert (message.pid, message.banner) == (4321, "repro-xpath")

    def test_hello_custom_version(self):
        assert wire.decode(wire.encode_hello(1, version=7)).version == 7

    def test_overloaded_round_trip(self):
        message = wire.decode(wire.encode_overloaded(9, 128, 128))
        assert message.type == wire.MSG_OVERLOADED
        assert (message.seq, message.inflight, message.capacity) == (9, 128, 128)

    def test_stream_framing_round_trip(self):
        frame = wire.encode_query(1, "k", "//a")
        stream = wire.encode_framed(frame)
        assert wire.framed_length(stream[:4]) == len(frame)
        assert stream[4:] == frame

    def test_stream_framing_rejects_oversized_frames(self):
        with pytest.raises(wire.WireError, match="MAX_FRAME"):
            wire.framed_length((wire.MAX_FRAME + 1).to_bytes(4, "little"))

    def test_encode_framed_rejects_oversized_frames(self):
        class _Huge(bytes):
            def __len__(self):  # avoid materialising 16 MiB in the test
                return wire.MAX_FRAME + 1

        with pytest.raises(wire.WireError, match="MAX_FRAME"):
            wire.encode_framed(_Huge())

    def test_stream_header_must_be_four_bytes(self):
        with pytest.raises(wire.WireError, match="expected 4"):
            wire.framed_length(b"\x01\x00")


# -- hypothesis fuzzing -------------------------------------------------------
#
# The decoder faces bytes from process and network boundaries; the
# property it must uphold is: any input either decodes to a Message or
# raises WireError — never another exception type, never a hang, and
# valid frames never mis-decode (the round-trip property).

_seqs = st.integers(min_value=0, max_value=2**32 - 1)
_texts = st.text(max_size=40)
_int32s = st.integers(min_value=-(2**31), max_value=2**31 - 1)
_scalars = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=60),
)


@st.composite
def valid_frames(draw):
    """One well-formed frame of any message type, fields randomised."""
    kind = draw(st.sampled_from([
        "query", "result_ids", "result_value", "error", "warm", "ready",
        "stats", "stats_reply", "shutdown", "ping", "pong", "drain",
        "drained", "hello", "overloaded", "trace", "metrics",
        "metrics_reply",
    ]))
    if kind == "query":
        return wire.encode_query(
            draw(_seqs), draw(_texts), draw(_texts),
            ids_only=draw(st.booleans()), trace=draw(st.booleans()),
        )
    if kind == "result_ids":
        return wire.encode_result_ids(
            draw(_seqs), draw(st.lists(_int32s, max_size=50))
        )
    if kind == "result_value":
        return wire.encode_result_value(draw(_seqs), draw(_scalars))
    if kind == "error":
        return wire.encode_error(draw(_seqs), draw(_texts), draw(_texts))
    if kind == "warm":
        return wire.encode_warm(draw(st.lists(_texts, max_size=8)))
    if kind == "ready":
        return wire.encode_ready(draw(_seqs), draw(_seqs))
    if kind == "stats":
        return wire.encode_stats_request()
    if kind == "stats_reply":
        return wire.encode_stats_reply(
            draw(st.dictionaries(st.text(max_size=10), _seqs, max_size=5))
        )
    if kind == "shutdown":
        return wire.encode_shutdown()
    if kind == "ping":
        return wire.encode_ping(draw(_seqs))
    if kind == "pong":
        return wire.encode_pong(draw(_seqs), draw(_seqs))
    if kind == "drain":
        return wire.encode_drain()
    if kind == "drained":
        return wire.encode_drained(draw(_seqs), draw(_seqs))
    if kind == "hello":
        return wire.encode_hello(draw(_seqs), banner=draw(_texts))
    if kind == "trace":
        return wire.encode_trace(
            draw(_seqs),
            {"tier": draw(_texts), "spans": [], "children": []},
        )
    if kind == "metrics":
        return wire.encode_metrics_request(
            draw(st.sampled_from([wire.METRICS_JSON, wire.METRICS_PROMETHEUS]))
        )
    if kind == "metrics_reply":
        return wire.encode_metrics_reply(wire.METRICS_JSON, draw(_texts))
    return wire.encode_overloaded(draw(_seqs), draw(_seqs), draw(_seqs))


def _decode_is_total(data: bytes) -> None:
    """decode() either returns a Message or raises WireError — nothing else."""
    try:
        message = wire.decode(data)
    except wire.WireError:
        return
    assert isinstance(message, wire.Message)


class TestDecoderFuzz:
    @given(valid_frames())
    @settings(max_examples=200, deadline=None)
    def test_valid_frames_decode(self, frame):
        message = wire.decode(frame)
        assert isinstance(message, wire.Message)

    @given(
        valid_frames(),
        st.lists(
            st.tuples(st.integers(min_value=0), st.integers(0, 255)),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_byte_mutations_never_crash(self, frame, mutations):
        corrupted = bytearray(frame)
        for offset, value in mutations:
            corrupted[offset % len(corrupted)] = value
        _decode_is_total(bytes(corrupted))

    @given(valid_frames(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncations_raise_wire_errors(self, frame, data):
        cut = data.draw(st.integers(0, len(frame) - 1), label="cut")
        with pytest.raises(wire.WireError):
            wire.decode(frame[:cut])

    @given(valid_frames(), st.binary(min_size=1, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_appended_garbage_raises_wire_errors(self, frame, garbage):
        # Empty-body frames followed by garbage must not silently decode;
        # body-carrying frames must account for every byte (done()).
        with pytest.raises(wire.WireError):
            wire.decode(frame + garbage)

    @given(st.binary(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_never_crash(self, data):
        _decode_is_total(data)

    @given(st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_with_magic_never_crash(self, data):
        _decode_is_total(wire.MAGIC + data)

    @given(st.binary(min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_stream_header_fuzz(self, header):
        try:
            length = wire.framed_length(header)
        except wire.WireError:
            return
        assert 0 <= length <= wire.MAX_FRAME


class TestEncodeDecodeRoundTripFuzz:
    """Valid frames never mis-decode: every field survives the wire."""

    @given(_seqs, _texts, _texts, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_query_round_trip(self, seq, key, query, ids_only):
        message = wire.decode(wire.encode_query(seq, key, query, ids_only))
        assert (message.seq, message.key, message.query, message.ids_only) == (
            seq, key, query, ids_only
        )

    @given(_seqs, st.lists(_int32s, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_result_ids_round_trip(self, seq, ids):
        message = wire.decode(wire.encode_result_ids(seq, ids))
        assert (message.seq, message.ids) == (seq, ids)

    @given(_seqs, st.lists(_int32s, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_packed_and_listed_ids_build_identical_frames(self, seq, ids):
        frame = wire.encode_result_ids(seq, ids)
        message = wire.decode(frame)
        assert len(message.packed) == 4 * len(ids)
        assert wire.encode_result_ids(seq, message.packed) == frame
        assert wire.decode(wire.encode_result_ids(seq, message.packed)).ids == ids

    @given(_seqs, _scalars)
    @settings(max_examples=100, deadline=None)
    def test_result_value_round_trip(self, seq, value):
        message = wire.decode(wire.encode_result_value(seq, value))
        assert message.seq == seq
        if isinstance(value, bool):
            assert message.value is value
        else:
            assert message.value == value

    @given(_seqs, _texts)
    @settings(max_examples=100, deadline=None)
    def test_hello_round_trip(self, pid, banner):
        message = wire.decode(wire.encode_hello(pid, banner=banner))
        assert (message.pid, message.banner) == (pid, banner)

    @given(_seqs, _seqs, _seqs)
    @settings(max_examples=100, deadline=None)
    def test_overloaded_round_trip(self, seq, inflight, capacity):
        message = wire.decode(wire.encode_overloaded(seq, inflight, capacity))
        assert (message.seq, message.inflight, message.capacity) == (
            seq, inflight, capacity
        )
