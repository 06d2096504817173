"""Supervision tests: worker death, restart, replay, timeouts, drain.

Faults are injected through the environment (see
``tests/serving/faultinject.py``) so they reach fork children, spawn
children and supervisor-restarted workers alike; the SIGKILL acceptance
test additionally kills a live worker from outside, mid-batch, the way
an OOM killer would.
"""

import concurrent.futures
import contextlib
import logging
import os
import signal
import socket
import time

import pytest

from repro.planner import evaluate_many_ids
from repro.serving import (
    ServingClient,
    ServingError,
    ServingTimeout,
    ShardedPool,
    WorkerCrashed,
    XPathServer,
)
from repro.store import CorpusStore, StoreKeyError
from repro.xmlmodel import chain_document, parse_xml, wide_document

from tests.serving.faultinject import worker_fault

DOCS = {
    "letters": "<a><b/><b><c/></b><d><b/></d></a>",
    "row": "<r><x/><x/><x/><x/></r>",
}

START_METHODS = ["fork", "spawn"] if os.name == "posix" else ["spawn"]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    root = tmp_path_factory.mktemp("supervision-store")
    store = CorpusStore(root)
    for key, xml in DOCS.items():
        store.put(xml, key=key)
    store.put(chain_document(80), key="chain")
    store.put(wide_document(80), key="wide")
    return store


_PARSED = {
    key: parse_xml(xml) for key, xml in DOCS.items()
}
_PARSED["chain"] = chain_document(80)
_PARSED["wide"] = wide_document(80)


def _mixed_batch(repeats):
    """A shard-spanning batch plus its in-process expected payloads."""
    from repro.evaluation import evaluate

    requests = [
        ("//b", "letters"),
        ("count(//x)", "row"),
        ("//*[child::*]", "chain"),
        ("//b[child::c]", "letters"),
        ("count(//*)", "wide"),
    ] * repeats
    expected = []
    for query, key in requests:
        document = _PARSED[key]
        local = evaluate(query, document, engine="auto")
        expected.append(
            [document.index.id_of(node) for node in local]
            if isinstance(local, list)
            else local
        )
    return requests, expected


def _payload(results):
    return [r.ids if r.is_node_set else r.value for r in results]


class TestRecovery:
    def test_sigkill_mid_batch_recovers_with_replay(self, store):
        """The acceptance scenario: SIGKILL from outside, mid-batch."""
        requests, expected = _mixed_batch(60)
        with ShardedPool(store, workers=2) as pool:
            victim = pool._pool[0]
            victim_pid = victim.process.pid
            send = pool._send
            killed = []

            # Kill on the victim's first frame of the batch rather than
            # on a timer: a timer races the batch, which on a fast host
            # finishes before any timer fires.  The frame is in flight
            # and the rest of the victim's shard is still queued, so the
            # death is always seen mid-batch.
            def send_then_kill(worker, frame):
                send(worker, frame)
                if worker is victim and not killed:
                    killed.append(victim_pid)
                    os.kill(victim_pid, signal.SIGKILL)

            pool._send = send_then_kill
            try:
                results = pool.evaluate_batch(requests)
            finally:
                del pool._send
            assert killed == [victim_pid]
            assert _payload(results) == expected
            stats = pool.stats()
            assert stats.restarts >= 1
            assert all(w.alive for w in stats.per_worker)
            acks = pool.drain()
            assert all(served is not None for served in acks)

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_crash_on_nth_query_recovers(self, store, tmp_path, start_method):
        """Deterministic in-flight death: restart + replay, both start methods."""
        requests, expected = _mixed_batch(20)
        with worker_fault("exit", "query", n=3, tmp_path=tmp_path):
            with ShardedPool(
                store, workers=2, start_method=start_method
            ) as pool:
                results = pool.evaluate_batch(requests)
                assert _payload(results) == expected
                stats = pool.stats()
                assert stats.restarts == 1
                assert stats.retries >= 1
                assert stats.timeouts == 0

    def test_midframe_death_recovers(self, store, tmp_path):
        """A torn reply frame (EOF mid-read) is a death, not a wire error."""
        requests, expected = _mixed_batch(20)
        with worker_fault("midframe", "query", n=2, tmp_path=tmp_path):
            with ShardedPool(store, workers=2) as pool:
                results = pool.evaluate_batch(requests)
                assert _payload(results) == expected
                assert pool.stats().restarts == 1

    def test_idle_death_is_revived_by_the_next_call(self, store):
        with ShardedPool(store, workers=2) as pool:
            for worker in pool._pool:
                worker.process.kill()
                worker.process.join(5)
            assert pool.evaluate("count(//x)", "row").value == 4.0
            stats = pool.stats()
            assert stats.restarts == 2
            assert all(w.alive for w in stats.per_worker)


class TestExhaustion:
    def test_retry_exhaustion_surfaces_worker_crashed(self, store, tmp_path):
        """Every incarnation dies on its first query: budgets run out."""
        with worker_fault("exit", "query", n=1, once=False, tmp_path=tmp_path):
            with ShardedPool(store, workers=1, warm=False) as pool:
                with pytest.raises(WorkerCrashed) as excinfo:
                    pool.evaluate_batch(
                        [("//b", "letters"), ("count(//x)", "row")]
                    )
                assert excinfo.value.worker == 0
                # sent once + max_retries replays, then the budget is gone
                assert excinfo.value.attempts == 3
                assert "retry budget" in str(excinfo.value)
                stats = pool.stats()
                assert stats.restarts == 3
                assert stats.retries >= 2

    def test_first_failure_by_input_order_is_raised(self, store, tmp_path):
        """Error attribution follows input order, not completion order."""
        with worker_fault("exit", "query", n=1, once=False, tmp_path=tmp_path):
            with ShardedPool(
                store, workers=1, warm=False, max_restarts=0
            ) as pool:
                with pytest.raises(WorkerCrashed) as excinfo:
                    pool.evaluate_batch(
                        [("//b", "letters"), ("count(//x)", "row")]
                    )
                # seq 0 was in flight on the crashed worker; it is the
                # batch's first failure and carries its own attempt count.
                assert excinfo.value.worker == 0
                assert excinfo.value.attempts == 1

    def test_permanently_failed_shard_fails_fast(self, store, tmp_path):
        with worker_fault("exit", "query", n=1, once=False, tmp_path=tmp_path):
            with ShardedPool(
                store, workers=1, warm=False, max_restarts=0
            ) as pool:
                with pytest.raises(WorkerCrashed):
                    pool.evaluate("//b", "letters")
                # No process left to crash: the failed slot answers
                # immediately with a typed error, and stats still work.
                start = time.monotonic()
                with pytest.raises(WorkerCrashed, match="permanently failed"):
                    pool.evaluate("count(//x)", "row")
                assert time.monotonic() - start < 1.0
                stats = pool.stats()
                assert stats.per_worker[0].alive is False
                assert "down" in stats.describe()


class TestTimeouts:
    def test_hung_worker_times_out_and_pool_recovers(self, store, tmp_path):
        with worker_fault("hang", "query", n=1, tmp_path=tmp_path):
            with ShardedPool(
                store, workers=1, warm=False, request_timeout=0.5
            ) as pool:
                start = time.monotonic()
                with pytest.raises(ServingTimeout) as excinfo:
                    pool.evaluate("//b", "letters")
                assert time.monotonic() - start < 5.0
                assert excinfo.value.worker == 0
                # the hung worker was killed and replaced; the pool serves
                assert pool.evaluate("count(//x)", "row").value == 4.0
                stats = pool.stats()
                assert stats.timeouts == 1
                assert stats.restarts == 1


class TestWarmUp:
    def test_warm_up_death_names_the_worker(self, store, tmp_path):
        """Satellite: never a raw EOFError/OSError out of warm_up."""
        with worker_fault("exit", "warm", once=False, tmp_path=tmp_path):
            with pytest.raises(WorkerCrashed, match="worker 0"):
                ShardedPool(store, workers=1, max_restarts=0)

    def test_warm_up_death_recovers_under_budget(self, store, tmp_path):
        with worker_fault("exit", "warm", tmp_path=tmp_path):
            with ShardedPool(store, workers=1) as pool:
                assert pool.evaluate("count(//x)", "row").value == 4.0
                assert pool.stats().restarts == 1


class TestDrainAndClose:
    def test_drain_acknowledges_all_served_requests(self, store):
        requests, expected = _mixed_batch(8)
        with ShardedPool(store, workers=2) as pool:
            results = pool.evaluate_batch(requests)
            assert _payload(results) == expected
            acks = pool.drain()
            assert all(served is not None for served in acks)
            assert sum(acks) == len(requests)
            assert pool.closed

    def test_close_deadline_is_pool_wide(self, store, tmp_path):
        """Satellite: N hung workers cost ~timeout total, not N × 2 × timeout."""
        with worker_fault("hang", "close", once=False, tmp_path=tmp_path):
            pool = ShardedPool(store, workers=2, warm=False)
            pool.evaluate("count(//x)", "row")  # ensure both loops are live
            start = time.monotonic()
            pool.close(timeout=1.0)
            elapsed = time.monotonic() - start
        assert elapsed < 1.9  # the old per-worker joins took ≥ 2 × 1.0s
        assert all(not w.process.is_alive() for w in pool._pool)

    def test_drain_timeout_terminates_stragglers(self, store, tmp_path):
        with worker_fault("hang", "close", once=False, tmp_path=tmp_path):
            pool = ShardedPool(store, workers=1, warm=False)
            pool.evaluate("count(//x)", "row")
            acks = pool.drain(timeout=0.5)
            assert acks == (None,)
            assert not pool._pool[0].process.is_alive()


class TestBatchValidation:
    def test_unknown_key_rejects_whole_batch_before_dispatch(self, store):
        """Satellite: no partial enqueue, and the rejection is counted."""
        with ShardedPool(store, workers=2, warm=False) as pool:
            with pytest.raises(StoreKeyError):
                pool.evaluate_batch(
                    [("//b", "letters"), ("//x", "no-such-key")]
                )
            stats = pool.stats()
            assert stats.rejected == 1
            assert stats.served == 0  # the valid request was never dispatched
            # the connection protocol is still clean
            assert pool.evaluate("count(//x)", "row").value == 4.0


class TestHealth:
    def test_ping_reports_liveness(self, store):
        with ShardedPool(store, workers=2, warm=False) as pool:
            assert pool.ping() == (True, True)
            pool._pool[1].process.kill()
            pool._pool[1].process.join(5)
            assert pool.ping() == (True, False)
            # the probe is read-only: supervision happens on the next call
            assert pool.evaluate("count(//x)", "row").value == 4.0
            assert pool.ping() == (True, True)


class TestDifferentialUnderFaults:
    def test_agrees_with_evaluate_many_ids_under_crashes(self, store, tmp_path):
        """Replay is invisible: crashing pool ≡ in-process id-native batch."""
        queries = ["//b", "//*[child::*]", "//b[child::c]", "//nosuch"]
        document = parse_xml(DOCS["letters"])
        expected = evaluate_many_ids(document, queries)
        requests = [(q, "letters") for q in queries] * 30
        with worker_fault(
            "exit", "query", n=40, once=False, tmp_path=tmp_path
        ):
            with ShardedPool(
                store, workers=2, warm=False, max_restarts=10_000,
                max_retries=10,
            ) as pool:
                results = pool.evaluate_batch(requests, ids=True)
        assert [r.ids for r in results] == expected * 30


@pytest.mark.skipif("fork" not in START_METHODS, reason="needs the fork start method")
class TestForkedWorkersHoldNoServerSockets:
    def test_a_restarted_worker_keeps_no_connection_or_port_open(self, store):
        """A worker forked while a server listens must not inherit its sockets.

        Holding a copy of a client connection keeps an idle-closed
        connection from ever reading EOF; holding the listening socket
        keeps a closed server's port accepting.
        """
        with ShardedPool(store, workers=2, start_method="fork") as pool:
            server = XPathServer(pool, idle_timeout=1.0)
            host, port = server.start_background()
            idle = socket.create_connection((host, port), timeout=10.0)
            idle.sendall(b"RPW1")  # accepted: its descriptor exists now
            idle.settimeout(10.0)
            assert idle.recv(4)  # the HELLO frame's header
            victim = pool._pool[0].process.pid
            os.kill(victim, signal.SIGKILL)
            with ServingClient(host, port) as client:
                assert client.evaluate("count(//x)", "row").value == 4.0
                deadline = time.monotonic() + 10.0
                while client.server_stats()["pool"]["restarts"] < 1:
                    assert time.monotonic() < deadline, "never restarted"
                    time.sleep(0.02)
            assert pool._pool[0].process.pid != victim
            while idle.recv(65536):  # the rest of HELLO, then the idle close
                pass
            idle.close()
            server.shutdown(graceful=True)
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection((host, port), timeout=2.0)


class TestStatsDeadline:
    def test_a_stopped_worker_costs_stats_one_timeout_and_its_row(self, store):
        """STATS exchanges carry ``request_timeout``, as queries do: a
        SIGSTOPped worker answers as a dead row and is replaced."""
        with ShardedPool(store, workers=2, warm=False, request_timeout=1.0) as pool:
            victim = pool._pool[1].process.pid
            os.kill(victim, signal.SIGSTOP)
            waiter = concurrent.futures.ThreadPoolExecutor(1)
            try:  # a bounded wait: without the deadline stats() never returns
                stats = waiter.submit(pool.stats).result(timeout=2.0)
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(victim, signal.SIGCONT)
                waiter.shutdown()
            assert [row.alive for row in stats.per_worker] == [True, False]
            assert stats.timeouts == 1
            assert pool.evaluate("count(//x)", "row").value == 4.0


class TestCloseUnderAConnectedClient:
    def test_closing_the_pool_logs_no_error_and_closes_the_client(self, store, caplog):
        """The served connection is aborted and its handler ends on EOF;
        a cancelled handler is an ERROR from asyncio on Python 3.11."""
        pool = ShardedPool(store, workers=1, warm=False)
        server = XPathServer(pool)
        host, port = server.start_background()
        with ServingClient(host, port) as client:
            assert client.evaluate("count(//x)", "row").value == 4.0
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                pool.close()
            assert not [r for r in caplog.records if r.name == "asyncio"]
            with pytest.raises(ServingError, match="closed the connection"):
                client.ping()
