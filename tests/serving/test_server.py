"""Network front-door tests: handshake, protocols, admission, lifecycle.

The server under test runs exactly as in production — on its pool's event
loop thread, real TCP sockets on loopback, a live worker pool behind it.  Admission
tests stop the pool's worker processes (``frozen_workers``) to freeze the
pool deterministically (no sleeps, no load races); supervision tests
inject worker faults through the environment the same way the pool's own
suite does.
"""

import asyncio
import contextlib
import json
import os
import secrets
import socket
import threading
import time

import pytest

from repro.engine import XPathEngine
from repro.evaluation import evaluate
from repro.serving import (
    ConnectionDrained,
    Overloaded,
    ServingClient,
    ServingError,
    ServingTimeout,
    ShardedPool,
    XPathServer,
    wire,
)
from repro.serving.client import AsyncServingClient, json_roundtrip
from repro.store import CorpusStore, StoreKey, StoreKeyError, shard_of
from repro.xmlmodel import parse_xml

from tests.serving.faultinject import frozen_workers, worker_fault

#: ``//x`` on the "many" document answers this many ids: one 120 KB frame,
#: above the transport's 64 KiB high-water mark.
MANY = 30_000

DOCS = {
    "letters": "<a><b/><b><c/></b><d><b/></d></a>",
    "row": "<r><x/><x/><x/><x/></r>",
    "many": "<m>" + "<x/>" * MANY + "</m>",
}

_PARSED = {key: parse_xml(xml) for key, xml in DOCS.items()}


def _expected_ids(query, key):
    document = _PARSED[key]
    return [document.index.id_of(node) for node in evaluate(query, document)]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    root = tmp_path_factory.mktemp("server-store")
    store = CorpusStore(root)
    for key, xml in DOCS.items():
        store.put(xml, key=key)
    return store


@pytest.fixture(scope="module")
def pool(store):
    with ShardedPool(store, workers=2) as pool:
        yield pool


@pytest.fixture()
def server(pool):
    server = XPathServer(pool, idle_timeout=None)
    with server as address:
        yield server, address
    # __exit__ drained; a second shutdown must be a no-op
    server.shutdown()


def _raw_binary_connection(address):
    """A hand-rolled binary connection: preamble sent, HELLO consumed."""
    sock = socket.create_connection(address, timeout=10.0)
    sock.settimeout(10.0)
    sock.sendall(wire.MAGIC)
    hello = _read_frame(sock)
    assert hello.type == wire.MSG_HELLO
    return sock


def _read_raw_frame(sock):
    """One stream frame's bytes, undecoded (for byte-identity checks)."""
    def exactly(size):
        data = b""
        while len(data) < size:
            chunk = sock.recv(size - len(data))
            assert chunk, "server closed the connection mid-frame"
            data += chunk
        return data

    return exactly(wire.framed_length(exactly(4)))


def _read_frame(sock):
    return wire.decode(_read_raw_frame(sock))


def _framed_query(seq, key, query, **flags):
    return wire.encode_framed(wire.encode_query(seq, key, query, **flags))


def _slow_reader_connection(address):
    """A binary connection whose receive buffer is pinned small, so what the
    client does not read backs up into the server instead of the kernel."""
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(20.0)
    sock.connect(address)
    sock.sendall(wire.MAGIC)
    assert _read_frame(sock).type == wire.MSG_HELLO
    return sock


def _count_tasks(server):
    """Count every Task the server's loop creates from now on.

    Installs a task factory on the loop thread; returns the list the
    factory appends each new task's coroutine name to.
    """
    created = []

    def factory(loop, coroutine, **kwargs):
        created.append(getattr(coroutine, "__qualname__", repr(coroutine)))
        return asyncio.Task(coroutine, loop=loop, **kwargs)

    installed = threading.Event()

    def install():
        server._loop.set_task_factory(factory)
        installed.set()

    server._loop.call_soon_threadsafe(install)
    assert installed.wait(5.0)
    return created


class TestHandshake:
    def test_hello_carries_version_pid_banner(self, server):
        server_obj, (host, port) = server
        with ServingClient(host, port) as client:
            import os

            assert client.server_pid == os.getpid()
            assert client.banner == "repro-xpath"

    def test_bad_preamble_closes_the_connection(self, server):
        _, address = server
        sock = socket.create_connection(address, timeout=5.0)
        sock.settimeout(5.0)
        sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
        assert sock.recv(1) == b""  # no HELLO, just EOF
        sock.close()

    def test_reply_frame_from_client_is_a_protocol_error(self, server):
        _, address = server
        sock = _raw_binary_connection(address)
        sock.sendall(wire.encode_framed(wire.encode_result_ids(0, [1])))
        assert sock.recv(1) == b""
        sock.close()

    def test_oversized_stream_frame_is_rejected(self, server):
        _, address = server
        sock = _raw_binary_connection(address)
        sock.sendall((wire.MAX_FRAME + 1).to_bytes(4, "little"))
        assert sock.recv(1) == b""
        sock.close()


class TestBinaryProtocol:
    def test_node_set_query(self, server):
        _, (host, port) = server
        with ServingClient(host, port) as client:
            result = client.evaluate("//b", "letters")
            assert result.is_node_set
            assert result.ids == _expected_ids("//b", "letters")

    def test_scalar_query(self, server):
        _, (host, port) = server
        with ServingClient(host, port) as client:
            result = client.evaluate("count(//x)", "row")
            assert not result.is_node_set
            assert result.value == 4.0

    def test_mixed_batch_in_order(self, server):
        _, (host, port) = server
        requests = [
            ("//b", "letters"),
            ("count(//x)", "row"),
            ("//b[child::c]", "letters"),
        ] * 20
        with ServingClient(host, port, window=8) as client:
            results = client.evaluate_batch(requests)
        for (query, key), result in zip(requests, results):
            if result.is_node_set:
                assert result.ids == _expected_ids(query, key)
            else:
                assert result.value == 4.0

    def test_worker_errors_come_back_typed(self, server):
        from repro.errors import XPathSyntaxError

        _, (host, port) = server
        with ServingClient(host, port) as client:
            with pytest.raises(XPathSyntaxError):
                client.evaluate("//b[", "letters")

    def test_unknown_key_fails_only_its_slot(self, server):
        _, (host, port) = server
        with ServingClient(host, port) as client:
            results = client.evaluate_batch(
                [("//b", "letters"), ("//b", "missing"), ("count(//x)", "row")],
                return_errors=True,
            )
        assert results[0].ids == _expected_ids("//b", "letters")
        assert isinstance(results[1], StoreKeyError)
        assert results[2].value == 4.0

    def test_ids_mode_error_contract(self, server):
        from repro.errors import XPathEvaluationError

        _, (host, port) = server
        with ServingClient(host, port) as client:
            with pytest.raises(XPathEvaluationError, match="not a node-set"):
                client.evaluate("count(//x)", "row", ids=True)

    def test_ping_answers_without_touching_the_pool(self, server):
        import os

        _, (host, port) = server
        with ServingClient(host, port) as client:
            pid, rtt = client.ping(seq=17)
            assert pid == os.getpid()
            assert rtt < 5.0

    def test_stats_over_the_wire(self, server):
        _, (host, port) = server
        with ServingClient(host, port) as client:
            client.evaluate("//b", "letters")
            stats = client.server_stats()
        assert stats["server"]["served"] >= 1
        assert stats["server"]["max_inflight"] > 0
        assert stats["pool"]["workers"] == 2
        assert stats["pool"]["served"] >= 1

    def test_client_drain_receipt_counts_this_connection(self, server):
        _, (host, port) = server
        client = ServingClient(host, port)
        client.evaluate("//b", "letters")
        client.evaluate("count(//x)", "row")
        assert client.drain() == 2
        with pytest.raises(ServingError, match="closed"):
            client.evaluate("//b", "letters")

    def test_operations_share_one_reply_check(self):
        from repro.errors import XPathSyntaxError
        from repro.serving.client import _expect

        pong = wire.decode(wire.encode_pong(3, 7))
        assert _expect(pong, wire.MSG_PONG, "PING") is pong
        error = wire.decode(wire.encode_error(0, "XPathSyntaxError", "boom"))
        with pytest.raises(XPathSyntaxError, match="boom"):
            _expect(error, wire.MSG_STATS_REPLY, "STATS")
        with pytest.raises(ServingError, match="STATS"):
            _expect(pong, wire.MSG_STATS_REPLY, "STATS")


class TestJsonShim:
    def test_query_and_scalar_lines(self, server):
        _, (host, port) = server
        replies = json_roundtrip(host, port, [
            {"key": "letters", "query": "//b", "seq": 1},
            {"key": "row", "query": "count(//x)", "seq": 2},
        ])
        by_seq = {reply["seq"]: reply for reply in replies}
        assert by_seq[1]["ids"] == _expected_ids("//b", "letters")
        assert by_seq[2]["value"] == 4.0

    def test_error_lines_are_typed(self, server):
        _, (host, port) = server
        (reply,) = json_roundtrip(
            host, port, [{"key": "letters", "query": "//b[", "seq": 9}]
        )
        assert reply["seq"] == 9
        assert reply["error"]["type"] == "XPathSyntaxError"

    def test_ping_and_stats_ops(self, server):
        import os

        _, (host, port) = server
        replies = json_roundtrip(host, port, [{"op": "ping"}, {"op": "stats"}])
        assert replies[0] == {"pong": True, "pid": os.getpid()}
        assert replies[1]["stats"]["pool"]["workers"] == 2

    def test_malformed_json_reports_and_continues(self, server):
        _, (host, port) = server
        replies = json_roundtrip(host, port, [
            "{this is not json",  # '{' selects the shim, then fails to parse
            {"key": "row", "query": "count(//x)", "seq": 2},
        ])
        assert replies[0]["error"]["type"] == "WireError"
        assert replies[1]["value"] == 4.0

    def test_missing_fields_are_request_errors(self, server):
        _, (host, port) = server
        (reply,) = json_roundtrip(host, port, [{"query": "//b"}])
        assert "key" in reply["error"]["message"]


class TestAdmissionControl:
    def test_overload_rejections_are_typed_and_bounded(self, pool):
        """Freeze the workers; every admit beyond the bound must reject.

        Stopped worker processes cannot answer, so admitted requests
        cannot complete: the (N+K)-request flood then deterministically
        yields N admissions and K typed OVERLOADED rejections — nothing
        queues.
        """
        server = XPathServer(pool, max_inflight=4)
        with server as address:
            sock = _raw_binary_connection(address)
            with frozen_workers(pool):
                flood = b"".join(
                    wire.encode_framed(wire.encode_query(seq, "letters", "//b"))
                    for seq in range(12)
                )
                sock.sendall(flood)
                rejected = []
                while len(rejected) < 8:
                    message = _read_frame(sock)
                    assert message.type == wire.MSG_OVERLOADED
                    assert message.capacity == 4
                    assert message.inflight <= 4
                    rejected.append(message.seq)
            # workers resumed: the 4 admitted requests now complete
            answered = [_read_frame(sock) for _ in range(4)]
            assert {m.type for m in answered} == {wire.MSG_RESULT_IDS}
            assert sorted(rejected) + sorted(m.seq for m in answered) == list(
                range(4, 12)
            ) + [0, 1, 2, 3]
            assert server._peak_inflight <= 4
            sock.close()

    def test_sync_client_raises_typed_overloaded(self, pool):
        # max_inflight=0 is maintenance mode: every request rejects, so
        # the client-side typed raise is deterministic.
        server = XPathServer(pool, max_inflight=0)
        with server as (host, port):
            with ServingClient(host, port) as client:
                with pytest.raises(Overloaded) as info:
                    client.evaluate_batch([("//b", "letters")] * 16, ids=True)
                assert info.value.capacity == 0
                # return_errors collects them instead of raising
                results = client.evaluate_batch(
                    [("//b", "letters")] * 4, return_errors=True
                )
                assert all(isinstance(r, Overloaded) for r in results)

    def test_json_shim_reports_overload(self, pool):
        server = XPathServer(pool, max_inflight=1)
        with server as (host, port):
            with frozen_workers(pool):
                sock = socket.create_connection((host, port), timeout=10.0)
                sock.settimeout(10.0)
                lines = b"".join(
                    json.dumps({"key": "letters", "query": "//b", "seq": i}).encode()
                    + b"\n"
                    for i in range(6)
                )
                sock.sendall(lines)
                overloaded = 0
                buffer = b""
                while overloaded < 5:
                    chunk = sock.recv(65536)
                    assert chunk
                    buffer += chunk
                    while b"\n" in buffer:
                        line, _, buffer = buffer.partition(b"\n")
                        reply = json.loads(line)
                        assert reply.get("overloaded") is True
                        assert reply["capacity"] == 1
                        overloaded += 1
            sock.close()

    def test_draining_server_rejects_new_requests(self, pool):
        server = XPathServer(pool)
        with server as address:
            sock = _raw_binary_connection(address)
            server._draining = True  # drain takes effect at admission
            try:
                sock.sendall(
                    wire.encode_framed(wire.encode_query(1, "letters", "//b"))
                )
                assert _read_frame(sock).type == wire.MSG_OVERLOADED
            finally:
                server._draining = False
                sock.close()


class TestLifecycle:
    def test_idle_timeout_closes_quiet_connections(self, pool):
        server = XPathServer(pool, idle_timeout=0.2)
        with server as address:
            sock = _raw_binary_connection(address)
            started = time.monotonic()
            assert sock.recv(1) == b""  # server hangs up on us
            assert 0.05 < time.monotonic() - started < 5.0
            assert int(server._idle_closed_total.value()) == 1
            sock.close()

    def test_idle_timeout_spares_connections_awaiting_responses(self, pool):
        server = XPathServer(pool, idle_timeout=0.15)
        with server as address:
            sock = _raw_binary_connection(address)
            with frozen_workers(pool):  # the response stays owed
                sock.sendall(
                    wire.encode_framed(wire.encode_query(5, "letters", "//b"))
                )
                time.sleep(0.5)  # several idle windows pass while waiting
            message = _read_frame(sock)
            assert (message.type, message.seq) == (wire.MSG_RESULT_IDS, 5)
            sock.close()

    def test_drain_sends_receipts_and_stops_listening(self, pool):
        server = XPathServer(pool)
        host, port = server.start_background()
        client = ServingClient(host, port)
        client.evaluate("//b", "letters")
        server.shutdown(graceful=True)
        # the connected client got a DRAINED receipt with its served count
        message = client._read_message()
        assert message.type == wire.MSG_DRAINED
        assert message.served == 1
        client.close()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1.0)

    def test_shutdown_is_idempotent_and_threadsafe(self, pool):
        server = XPathServer(pool)
        server.start_background()
        failures = []

        def stop():
            try:
                server.shutdown(graceful=True)
            except Exception as error:  # pragma: no cover - the regression
                failures.append(error)

        threads = [threading.Thread(target=stop) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not failures
        assert not pool.closed  # the pool was borrowed, never owned

    def test_server_owns_pool_built_from_store(self, store):
        server = XPathServer(store, workers=2)
        with server as (host, port):
            with ServingClient(host, port) as client:
                assert client.evaluate("//b", "letters").ids == _expected_ids(
                    "//b", "letters"
                )
            owned = server.pool
        assert owned.closed  # drained with the server

    def test_start_background_propagates_bind_errors(self, pool):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        server = XPathServer(pool, port=port)
        try:
            with pytest.raises(OSError):
                server.start_background()
        finally:
            blocker.close()

    def test_a_failed_bind_closes_the_built_pool_and_a_retry_builds_anew(self, store):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        server = XPathServer(store, workers=1, port=blocker.getsockname()[1])
        try:
            with pytest.raises(OSError):
                server.start_background()
        finally:
            blocker.close()
        server.port = 0
        with server as address:
            with ServingClient(*address) as client:
                assert client.evaluate("count(//x)", "row").value == 4.0


class TestSupervisionEdges:
    def test_worker_crash_mid_batch_is_invisible_to_network_clients(
        self, store, tmp_path
    ):
        """Satellite: a worker dies mid-batch; the client sees only answers."""
        requests = [
            ("//b", "letters"),
            ("count(//x)", "row"),
            ("//b[child::c]", "letters"),
        ] * 20
        with worker_fault("exit", "query", n=7, tmp_path=tmp_path):
            with ShardedPool(store, workers=2) as pool:
                server = XPathServer(pool)
                with server as (host, port):
                    with ServingClient(host, port, window=16) as client:
                        results = client.evaluate_batch(requests)
                        stats = client.server_stats()
        assert stats["pool"]["restarts"] >= 1  # the crash really happened
        for (query, key), result in zip(requests, results):
            if result.is_node_set:
                assert result.ids == _expected_ids(query, key)
            else:
                assert result.value == 4.0

    def test_hung_worker_times_out_on_the_loop_and_is_replaced(
        self, store, tmp_path
    ):
        """The request deadline is a loop timer: the client gets a typed
        ServingTimeout, the hung worker is replaced, the next query works."""
        with worker_fault("hang", "query", n=1, tmp_path=tmp_path):
            with ShardedPool(
                store, workers=1, warm=False, request_timeout=0.5
            ) as pool:
                server = XPathServer(pool)
                with server as (host, port):
                    with ServingClient(host, port) as client:
                        started = time.monotonic()
                        (timed_out,) = client.evaluate_batch(
                            [("//b", "letters")], return_errors=True
                        )
                        assert time.monotonic() - started < 5.0
                        assert client.evaluate("count(//x)", "row").value == 4.0
                        stats = client.server_stats()["pool"]
        assert isinstance(timed_out, ServingTimeout), timed_out
        assert "request timed out" in str(timed_out)
        assert (stats["timeouts"], stats["restarts"]) == (1, 1)

    def test_drain_flushes_a_slow_client_before_the_receipt(self, pool):
        """Satellite: drain waits for a client that is slow to read."""
        server = XPathServer(pool, drain_timeout=10.0)
        host, port = server.start_background()
        sock = _raw_binary_connection((host, port))
        sock.sendall(b"".join(
            wire.encode_framed(wire.encode_query(seq, "letters", "//b"))
            for seq in range(10)
        ))
        # Be a slow reader: give the responses time to be owed, then let
        # the drain (started concurrently) race our delayed reads.
        time.sleep(0.2)
        drainer = threading.Thread(
            target=server.shutdown, kwargs={"graceful": True}
        )
        drainer.start()
        messages = []
        while True:
            time.sleep(0.05)  # still slow, one frame at a time
            message = _read_frame(sock)
            messages.append(message)
            if message.type == wire.MSG_DRAINED:
                break
        drainer.join(30.0)
        assert not drainer.is_alive()
        answered = [m for m in messages if m.type == wire.MSG_RESULT_IDS]
        assert sorted(m.seq for m in answered) == list(range(10))
        assert messages[-1].served == 10
        assert sock.recv(1) == b""  # connection closed after the receipt
        sock.close()

    def test_client_marks_unanswered_requests_on_drained(self):
        """A DRAINED receipt mid-batch fails the unanswered tail, typed."""
        from repro.serving.client import _BatchState

        state = _BatchState([("//a", "k")] * 4, ids=False)
        frames = state.frames()
        next(frames)  # one request on the wire, three unsent
        state.absorb(wire.decode(wire.encode_drained(1, 4242)))
        assert state.drained
        assert all(
            isinstance(result, ConnectionDrained) for result in state.results
        )
        with pytest.raises(ConnectionDrained):
            state.finish(return_errors=False)


class TestWritePath:
    """`_settle` → `_send` → `_flush`: the fast path and the backpressure path."""

    def test_an_untraced_request_creates_no_task(self, server):
        server_obj, (host, port) = server
        with ServingClient(host, port) as client:
            client.evaluate("//b", "letters")  # the connection's own task exists now
            created = _count_tasks(server_obj)
            for _ in range(5):
                assert client.evaluate("//b", "letters").ids == _expected_ids(
                    "//b", "letters"
                )
                assert client.evaluate("count(//x)", "row").value == 4.0
                assert len(client.evaluate("//x", "many").ids) == MANY
                with pytest.raises(StoreKeyError):
                    client.evaluate("//b", "missing")
            assert client.evaluate("//b", "letters", trace=True).trace is not None
            client.ping()
        assert created == []

    def test_a_client_that_stops_reading_is_aborted_and_frees_its_slots(self, pool):
        server = XPathServer(pool, write_timeout=0.3)
        with server as address:
            wedged = _slow_reader_connection(address)
            with ServingClient(*address) as bystander:
                seq = 0
                deadline = time.monotonic() + 30.0
                while bystander.server_stats()["server"]["aborted"] == 0:
                    assert time.monotonic() < deadline, "the wedged client was never aborted"
                    try:  # never reads: the answers fill the kernel, then the transport
                        wedged.sendall(b"".join(
                            _framed_query(seq + n, "many", "//x") for n in range(8)
                        ))
                    except OSError:
                        pass  # the server has already hung up on it
                    seq += 8
                    # a second connection is served throughout
                    assert bystander.evaluate("//b", "letters").ids == _expected_ids(
                        "//b", "letters"
                    )
                while bystander.server_stats()["server"]["inflight"]:
                    assert time.monotonic() < deadline, "admission slots still held"
                    time.sleep(0.01)
                stats = bystander.server_stats()["server"]
                assert stats["aborted"] == 1
                assert stats["connections_active"] == 1  # the bystander's own
                assert stats["errors"] == 0 and stats["overloaded"] == 0
                assert bystander.evaluate("count(//x)", "row").value == 4.0
            wedged.close()
        assert not server._flushing

    def test_a_slow_reader_gets_every_frame_in_order_and_intact(self, server):
        """Fast-path and backpressure-path writes interleave on one connection."""
        server_obj, address = server
        cycle = [("many", "//x"), ("letters", "//b"), ("row", "//x")]
        engine = XPathEngine()
        expected = {
            (key, query): engine.evaluate(query, DOCS[key]).ids for key, query in cycle
        }
        sock = _slow_reader_connection(address)
        with ServingClient(*address) as bystander:
            created = _count_tasks(server_obj)
            sent = []
            while not created:  # until a write has not left whole
                assert len(sent) < 900, "the kernel buffered 30 MB of answers"
                for _ in range(9):
                    key, query = cycle[len(sent) % 3]
                    sock.sendall(_framed_query(len(sent), key, query))
                    sent.append((key, query))
                # A STATS round trip queues behind every worker's earlier
                # frames: once it is answered, the wave before it has been
                # settled.
                bystander.server_stats()
            for seq, asked in enumerate(sent):  # now read, late but completely
                assert _read_raw_frame(sock) == wire.encode_result_ids(
                    seq, expected[asked]
                )
            backpressured = len(created)
            # one coroutine per write that did not leave whole (plus, up to
            # Python 3.11, wait_for's own task around its drain)
            assert set(created) <= {"XPathServer._finish_after", "StreamWriter.drain"}
            assert 0 < created.count("XPathServer._finish_after") <= len(sent)
            for seq, asked in enumerate(cycle * 3, start=len(sent)):
                sock.sendall(_framed_query(seq, *asked))
                assert _read_raw_frame(sock) == wire.encode_result_ids(
                    seq, expected[asked]
                )
            assert len(created) == backpressured  # read promptly: the fast path again
        sock.close()

    def test_a_traced_request_gets_its_trace_frame_just_before_its_result(self, server):
        _, address = server
        sock = _raw_binary_connection(address)
        sock.sendall(b"".join(
            _framed_query(seq, "letters", "//b", trace=seq % 2 == 1)
            for seq in range(8)
        ))
        frames = [_read_frame(sock) for _ in range(12)]
        answered = []
        while frames:
            frame = frames.pop(0)
            if frame.type == wire.MSG_TRACE:
                assert frame.seq % 2 == 1 and frame.payload["tier"] == "server"
                names = [span["name"] for span in frame.payload["spans"]]
                assert names == ["admit", "server-dispatch"]
                result = frames.pop(0)  # nothing in between, whatever else is in flight
                assert result.seq == frame.seq
            else:
                result = frame
                assert result.seq % 2 == 0  # an untraced request gets no TRACE frame
            assert result.type == wire.MSG_RESULT_IDS
            assert result.ids == _expected_ids("//b", "letters")
            answered.append(result.seq)
        assert sorted(answered) == list(range(8))
        sock.close()
        (reply,) = json_roundtrip(*address, [{"op": "trace"}])
        assert len(reply["traces"]) == 4
        for trace in reply["traces"]:
            # the ring buffer's copy also has the span of the write itself
            names = [span["name"] for span in trace["spans"]]
            assert names == ["admit", "server-dispatch", "write"]


class TestEncodingFailure:
    """An answer the encoder refuses still gets a reply, and is counted."""

    def test_binary_answer_above_max_frame_becomes_an_error_frame(
        self, server, monkeypatch
    ):
        _, address = server
        sock = _raw_binary_connection(address)
        with monkeypatch.context() as patched:
            # Stands in for an answer of more than 4 194 300 ids.
            patched.setattr(wire, "MAX_FRAME", 256)
            sock.sendall(_framed_query(11, "many", "//x"))
            refused = _read_frame(sock)
            sock.sendall(_framed_query(12, "letters", "//b", trace=True))
            refused_trace = _read_frame(sock)  # its TRACE frame is the one too big
            sock.sendall(_framed_query(13, "letters", "//b"))
            served = _read_frame(sock)
        assert (refused.type, refused.seq) == (wire.MSG_ERROR, 11)
        assert refused.error[0] == "WireError" and "MAX_FRAME" in refused.error[1]
        assert (refused_trace.type, refused_trace.seq) == (wire.MSG_ERROR, 12)
        assert (served.type, served.seq) == (wire.MSG_RESULT_IDS, 13)
        assert served.ids == _expected_ids("//b", "letters")
        sock.sendall(wire.encode_framed(wire.encode_stats_request()))
        stats = _read_frame(sock).payload["server"]
        assert (stats["errors"], stats["served"]) == (2, 1)
        sock.close()

    def test_json_answer_above_max_frame_becomes_an_error_line(
        self, server, monkeypatch
    ):
        _, (host, port) = server
        with monkeypatch.context() as patched:
            patched.setattr(wire, "MAX_FRAME", 256)
            replies = json_roundtrip(host, port, [
                {"key": "many", "query": "//x", "seq": 5},
                {"key": "row", "query": "count(//x)", "seq": 6},
            ])
        assert replies[0]["seq"] == 5
        assert replies[0]["error"]["type"] == "WireError"
        assert "MAX_FRAME" in replies[0]["error"]["message"]
        assert replies[1] == {"seq": 6, "key": "row", "value": 4.0}
        (reply,) = json_roundtrip(host, port, [{"op": "stats"}])
        assert reply["stats"]["server"]["errors"] == 1
        assert reply["stats"]["server"]["served"] == 1


class TestInterruptedBatch:
    """A batch that ends with replies owed must not poison the next one.

    Every batch numbers its requests from ``seq`` 0, so a reply that
    arrives after its batch gave up would be taken for the next batch's
    answer.  Stopped workers stand in for a slow query: the reply is owed
    until they resume.
    """

    def test_sync_client_closes_after_a_timed_out_batch(self, server):
        server_obj, (host, port) = server
        client = ServingClient(host, port, timeout=0.05)
        with frozen_workers(server_obj.pool):
            with pytest.raises(TimeoutError):
                client.evaluate("count(//x)", "many")
        # the late reply (30000.0, seq 0) must not answer this request
        with pytest.raises(ServingError, match="client is closed"):
            client.evaluate("count(//x)", "row")
        client.close()

    def test_async_client_closes_after_a_cancelled_batch(self, server):
        server_obj, (host, port) = server

        async def scenario():
            client = await AsyncServingClient.connect(host, port)
            with frozen_workers(server_obj.pool):
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        client.evaluate("count(//x)", "many"), 0.05
                    )
            with pytest.raises(ServingError, match="client is closed"):
                await client.evaluate("count(//x)", "row")
            await client.aclose()

        asyncio.run(scenario())

    def test_sync_client_closes_after_a_timed_out_operation(self, server):
        """The same rule for one request: a STATS reply owed past the
        timeout must not answer the next PING."""
        server_obj, (host, port) = server
        client = ServingClient(host, port, timeout=0.05)
        with frozen_workers(server_obj.pool):  # STATS waits for the workers
            with pytest.raises(TimeoutError):
                client.server_stats()
        with pytest.raises(ServingError, match="client is closed"):
            client.ping()
        client.close()

    def test_a_completed_batch_leaves_the_client_open(self, server):
        from repro.errors import XPathSyntaxError

        _, (host, port) = server
        with ServingClient(host, port) as client:
            with pytest.raises(XPathSyntaxError):  # raised after the batch drained
                client.evaluate_batch([("//b[", "letters"), ("//b", "letters")])
            assert client.evaluate("count(//x)", "row").value == 4.0


class TestEventLoopDrivesThePool:
    """The server's loop owns the worker pipes: no dispatcher thread, no
    cross-shard waiting, and blocking pool calls from other threads."""

    def test_a_slow_shard_does_not_hold_up_another_shard(self, tmp_path):
        """Head of line: `//b` on an idle shard answers while the other
        shard spends ≥ 300 ms on a query for another connection."""
        store = CorpusStore(tmp_path / "head-of-line")
        slow = store.put("<r>" + "<a><b/><c/></a>" * 500 + "</r>", key="slow").hash
        for n in range(64):  # a small document on the other shard
            fast = store.put(f"<a><b/><n>{n}</n></a>", key="fast").hash
            if shard_of(fast, 2) != shard_of(slow, 2):
                break
        assert shard_of(fast, 2) != shard_of(slow, 2)
        # A text no worker has seen: nothing answers it from a cache.
        slow_query = (
            "count(//*/following::*[position() = last() - "
            f"{3 + secrets.randbelow(1000)}])"
        )
        with ShardedPool(store, workers=2) as pool:
            server = XPathServer(pool)
            with server as address:
                with ServingClient(*address) as client:
                    assert client.evaluate("//b", "fast").ids == [2]
                    assert client.evaluate("count(/*)", "slow").value == 1.0
                    busy = _raw_binary_connection(address)
                    started = time.perf_counter()
                    busy.sendall(_framed_query(1, "slow", slow_query))
                    time.sleep(0.05)  # the slow query is on its worker now
                    asked = time.perf_counter()
                    assert client.evaluate("//b", "fast").ids == [2]
                    waited = time.perf_counter() - asked
                    answer = _read_frame(busy)
                    slow_took = time.perf_counter() - started
                    busy.close()
        assert answer.type == wire.MSG_RESULT_VALUE, answer
        assert slow_took >= 0.3, f"the slow query took only {slow_took:.3f}s"
        assert waited <= 0.05, (
            f"//b waited {waited * 1e3:.0f} ms behind a "
            f"{slow_took * 1e3:.0f} ms query on another shard"
        )

    def test_no_dispatcher_thread_and_no_blocking_call_on_the_loop(self, pool):
        server = XPathServer(pool)
        with server:
            names = {thread.name for thread in threading.enumerate()}
            assert "repro-serve-dispatch" not in names
            outcome = []
            done = threading.Event()

            def on_the_loop():
                try:
                    pool.stats()
                except ServingError as error:
                    outcome.append(error)
                done.set()

            server._loop.call_soon_threadsafe(on_the_loop)
            assert done.wait(5.0)
            assert len(outcome) == 1 and "deadlock" in str(outcome[0])
            # from any other thread the same call is handed to the loop
            assert pool.stats().workers == 2
        assert not pool.closed
        assert pool.evaluate("count(//x)", "row").value == 4.0  # blocking again

    def test_served_engine_under_network_and_thread_load(self, store):
        """A pipelining network client, two threads of evaluate_sharded and
        a thread of engine.stats(), all at once on one served engine."""
        engine = XPathEngine().attach_store(store)
        requests = [
            ("//b", "letters"), ("count(//x)", "row"),
            ("//b[child::c]", "letters"), ("//x", "many"),
        ] * 6

        def payload(result):
            return result.ids if result.is_node_set else result.value

        expected = [payload(engine.evaluate(q, StoreKey(k))) for q, k in requests]
        server = engine.serve_network(workers=2)
        failures, sharded, stats = [], [], []

        def run(call, sink):
            try:
                for _ in range(4):
                    sink.append(call())
            except Exception as error:  # pragma: no cover - the regression
                failures.append(error)

        threads = [
            threading.Thread(target=run, args=(
                lambda: [payload(r) for r in engine.evaluate_sharded(requests)],
                sharded,
            ))
            for _ in range(2)
        ] + [threading.Thread(
            target=run, args=(lambda: engine.stats().serving, stats)
        )]

        async def pipelined():
            async with await AsyncServingClient.connect(
                *server.address, window=16
            ) as client:
                return [
                    [payload(r) for r in await client.evaluate_batch(requests)]
                    for _ in range(4)
                ]

        try:
            for thread in threads:
                thread.start()
            remote = asyncio.run(pipelined())
            for thread in threads:
                thread.join(60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            engine.shutdown_serving()
        assert not failures, failures
        assert remote == [expected] * 4
        assert sharded == [expected] * 8
        assert len(stats) == 4 and all(s.workers == 2 for s in stats)
        assert server._inflight == 0 and not server._connections
        pool = server.pool
        assert pool.closed and engine.serving is None
        assert all(
            not worker.conversation.inflight and not worker.conversation.queue
            for worker in pool._pool
        )


def _repro_threads():
    return {thread for thread in threading.enumerate() if thread.name.startswith("repro-")}


class TestOneLoopThread:
    """Every pool runs exactly one thread, its event loop, and the server
    runs on it: no thread of the server's own, none left after close."""

    def test_a_timed_out_shutdown_stops_the_server_and_spares_the_pool(self, store):
        """A drain that cannot finish (the workers are frozen with a request
        owed) is cut off at ``timeout``: the port closes, the borrowed pool
        still answers afterwards, and closing it leaves no thread behind."""
        before = _repro_threads()
        pool = ShardedPool(store, workers=2)
        try:
            server = XPathServer(pool)
            address = server.start_background()
            sock = _raw_binary_connection(address)
            with frozen_workers(pool):
                sock.sendall(_framed_query(1, "letters", "//b"))
                deadline = time.monotonic() + 10.0
                while server._inflight == 0:  # admitted: the answer is owed
                    assert time.monotonic() < deadline, "never admitted"
                    time.sleep(0.01)
                started = time.monotonic()
                server.shutdown(timeout=1.0)
                took = time.monotonic() - started
                with pytest.raises(ConnectionRefusedError):
                    socket.create_connection(address, timeout=2.0)
            sock.close()
            assert took <= 1.5, f"shutdown(timeout=1.0) took {took:.2f}s"
            assert pool.evaluate("//b", "letters").ids == _expected_ids(
                "//b", "letters"
            )
        finally:
            pool.close()
        assert not _repro_threads() - before

    def test_a_standalone_pool_runs_one_thread(self, store):
        before = set(threading.enumerate())
        pool = ShardedPool(store, workers=2)
        try:
            assert pool.evaluate("count(//x)", "row").value == 4.0
            started = set(threading.enumerate()) - before
            assert [thread.name for thread in started] == ["repro-pool"]
        finally:
            pool.close()
        assert not any(thread.is_alive() for thread in started)

    def test_a_served_engine_runs_the_same_one_thread(self, store):
        before = set(threading.enumerate())
        engine = XPathEngine().attach_store(store)
        server = engine.serve_network(workers=2)
        try:
            with ServingClient(*server.address) as client:
                assert client.evaluate("count(//x)", "row").value == 4.0
            [result] = engine.evaluate_sharded([("count(//x)", "row")])
            assert result.value == 4.0
            started = set(threading.enumerate()) - before
            assert [thread.name for thread in started] == ["repro-pool"]
        finally:
            engine.shutdown_serving()
        assert not any(thread.is_alive() for thread in started)

    def test_close_on_the_pools_own_loop_shuts_down_from_another_thread(self, store):
        """A finalizer may run on the loop: close() there cannot wait for
        the loop, so it hands the shutdown off instead of deadlocking."""
        pool = ShardedPool(store, workers=1, warm=False)
        before = set(threading.enumerate())
        pool._loop.call_soon_threadsafe(pool.close)
        pool._thread.join(10.0)  # the loop stops before its closer is done
        for closer in set(threading.enumerate()) - before:
            closer.join(10.0)
        assert not pool._thread.is_alive()
        assert pool.closed
        assert not pool._pool[0].process.is_alive()

    def test_operator_frames_start_no_thread(self, store):
        """STATS and METRICS are answered on the pool's loop: no executor
        thread appears beside ``repro-pool``, over either protocol."""
        before = set(threading.enumerate())
        pool = ShardedPool(store, workers=2)
        try:
            with XPathServer(pool) as address:
                with ServingClient(*address) as client:
                    assert client.server_stats()["pool"]["workers"] == 2
                    body = client.server_metrics("prometheus")
                    assert "repro_pool_workers 2" in body
                (reply,) = json_roundtrip(*address, [{"op": "stats"}])
                assert reply["stats"]["pool"]["workers"] == 2
                started = set(threading.enumerate()) - before
                assert [thread.name for thread in started] == ["repro-pool"]
        finally:
            pool.close()
        assert not any(thread.is_alive() for thread in started)

    def test_closing_the_pool_closes_a_server_listening_on_its_loop(self, store):
        pool = ShardedPool(store, workers=1)
        server = XPathServer(pool)
        address = server.start_background()
        pool.close()
        started = time.monotonic()
        try:
            sock = socket.create_connection(address, timeout=1.0)
        except ConnectionRefusedError:
            pass
        else:  # accepted by a listener still open: it must hang up, not hang
            with sock:
                sock.settimeout(1.0)
                sock.sendall(wire.MAGIC)
                assert sock.recv(1) == b""
        server.shutdown()
        assert time.monotonic() - started <= 1.0


@contextlib.contextmanager
def _client_over(transport, address):
    """A connected client and the function that turns one of its calls
    into the call's result (the identity for the blocking client)."""
    if transport == "blocking":
        with ServingClient(*address) as client:
            yield client, lambda result: result
        return
    loop = asyncio.new_event_loop()
    try:
        client = loop.run_until_complete(AsyncServingClient.connect(*address))
        try:
            yield client, loop.run_until_complete
        finally:
            loop.run_until_complete(client.aclose())
    finally:
        loop.close()


class TestTransportParity:
    """Both clients run one protocol: every operation answers alike."""

    @pytest.mark.parametrize("transport", ["blocking", "asyncio"])
    def test_every_operation_over_each_transport(self, server, transport):
        from repro.errors import XPathSyntaxError

        _, address = server
        with _client_over(transport, address) as (client, run):
            assert client.server_pid == os.getpid()
            pid, rtt = run(client.ping(seq=9))
            assert pid == os.getpid() and 0 <= rtt < 5.0
            stats = run(client.server_stats())
            assert set(stats) == {"server", "pool"}
            assert set(stats["server"]) == {
                "pid", "served", "errors", "overloaded", "connections_total",
                "connections_active", "inflight", "inflight_peak",
                "max_inflight", "idle_closed", "aborted", "draining",
            }
            assert set(stats["pool"]) == {
                "workers", "served", "restarts", "retries", "timeouts",
                "rejected", "documents", "plan_hits", "plan_misses",
            }
            families = json.loads(run(client.server_metrics("json")))["families"]
            assert "repro_pool_workers" in {family["name"] for family in families}
            text = run(client.server_metrics("prometheus"))
            assert "# TYPE repro_server_requests_total counter" in text
            with pytest.raises(ValueError, match="bogus"):
                run(client.server_metrics("bogus"))
            results = run(client.evaluate_batch(
                [("//b", "letters"), ("//b[", "letters"), ("count(//x)", "row")],
                return_errors=True,
            ))
            assert results[0].ids == _expected_ids("//b", "letters")
            assert isinstance(results[1], XPathSyntaxError)
            assert results[2].value == 4.0
            assert run(client.drain()) == 2
            with pytest.raises(ServingError, match="client is closed"):
                run(client.ping())

    def test_a_window_below_one_is_refused_by_both_clients(self, server):
        _, (host, port) = server
        with pytest.raises(ValueError, match="window"):
            ServingClient(host, port, window=0)

        async def scenario():
            reader, writer = await asyncio.open_connection(host, port)
            try:
                with pytest.raises(ValueError, match="window"):
                    AsyncServingClient(reader, writer, window=0)
            finally:
                writer.close()
                await writer.wait_closed()
            with pytest.raises(ValueError, match="window"):
                await AsyncServingClient.connect(host, port, window=0)

        asyncio.run(scenario())
