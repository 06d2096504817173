"""E19 — network serving: concurrent TCP clients vs in-process sharded.

The front door (:class:`repro.serving.XPathServer`, ``docs/serving.md``)
adds stream framing, connection multiplexing, admission control and a
listener on the pool's event loop on top of the worker pool.  This experiment measures
what that ingress costs and proves what it may never change:

* **fidelity** (always asserted, CI included): results fetched over TCP
  by 1/4/8 concurrent clients are byte-identical to the engine's
  in-process ``evaluate_sharded`` over the *same* pool — and both equal
  the ground-truth ``evaluate_many_ids``;
* **admission** (always asserted): when offered load exceeds the
  admission window, the excess is rejected with typed ``OVERLOADED``
  frames while the server's in-flight peak never crosses the bound —
  backpressure is O(1) per rejection, not an unbounded backlog;
* **throughput** (reported; the network tier multiplexes onto the same
  workers, so the interesting number is ingress overhead per request,
  not a speedup).

The engine and the server share one pool (``engine.serve_network``), so
the comparison isolates exactly the wire + event-loop overhead —
worker-side evaluation is byte-for-byte the same work.
"""

import asyncio
import os
import time

import pytest

from benchmarks.conftest import report
from repro.engine import XPathEngine
from repro.planner import evaluate_many_ids
from repro.serving import AsyncServingClient, Overloaded, ShardedPool, XPathServer
from repro.store import CorpusStore
from repro.xmlmodel import chain_document, complete_tree_document, wide_document

_DOCUMENTS = {
    "chain-a": lambda: chain_document(3_000),
    "wide-a": lambda: wide_document(3_000, tag="a"),
    "tree-a": lambda: complete_tree_document(2, 10, tags=("a", "b")),
}

_QUERY_TEMPLATES = (
    "//a[ancestor::a]/descendant::a[not(child::b)]",
    "//a[child::a]/ancestor::a[descendant::a]",
    "//a[not(child::a)]/ancestor::a",
    "/descendant::a[descendant::a and not(child::b)]",
)

CLIENT_COUNTS = (1, 4, 8)
WORKERS = 4
OVERLOAD_MAX_INFLIGHT = 2
OVERLOAD_OFFERED = 64

_STATE = {}


def _state():
    """One store + engine + shared pool + live TCP server for the module."""
    if "engine" not in _STATE:
        import tempfile

        root = tempfile.mkdtemp(prefix="repro-e19-")
        store = CorpusStore(root)
        documents = {key: build() for key, build in _DOCUMENTS.items()}
        for key, document in documents.items():
            store.put(document, key=key)
        engine = XPathEngine().attach_store(store)
        server = engine.serve_network(workers=WORKERS)
        requests = [
            (template, key)
            for key in sorted(documents)
            for template in _QUERY_TEMPLATES
        ] * 3
        expected = []
        for query, key in requests:
            expected.append(evaluate_many_ids(documents[key], [query])[0])
        _STATE.update(
            store=store,
            engine=engine,
            server=server,
            address=server.address,
            requests=requests,
            expected=expected,
        )
    return _STATE


def _run_in_process(state):
    """The baseline: the engine's sharded path on the same pool."""
    return [
        result.ids
        for result in state["engine"].evaluate_sharded(
            state["requests"], ids=True
        )
    ]


def _run_network(state, clients):
    """The same requests, striped over N concurrent TCP connections."""
    requests = state["requests"]
    host, port = state["address"]

    async def main():
        connections = await asyncio.gather(*[
            AsyncServingClient.connect(host, port) for _ in range(clients)
        ])
        try:
            shares = [requests[index::clients] for index in range(clients)]
            batches = await asyncio.gather(*[
                connection.evaluate_batch(share, ids=True)
                for connection, share in zip(connections, shares)
            ])
        finally:
            await asyncio.gather(*[c.aclose() for c in connections])
        results = [None] * len(requests)
        for stripe_index, batch in enumerate(batches):
            for position, result in enumerate(batch):
                results[stripe_index + position * clients] = result.ids
        return results

    return asyncio.run(main())


def _best_time(function, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("clients", CLIENT_COUNTS)
def test_network_throughput_timings(benchmark, clients):
    """pytest-benchmark timings for the TCP path per client count."""
    state = _state()
    _run_network(state, clients)  # warm connections' code paths + pool
    benchmark(_run_network, state, clients)


def test_in_process_sharded_timing(benchmark):
    """The same batch on the same pool without the network in the way."""
    state = _state()
    benchmark(_run_in_process, state)


@pytest.mark.parametrize("clients", CLIENT_COUNTS)
def test_network_results_identical_to_in_process_sharded(clients):
    """Fidelity gate (always asserted): TCP ≡ evaluate_sharded ≡ ground truth."""
    state = _state()
    in_process = _run_in_process(state)
    assert in_process == state["expected"]
    assert _run_network(state, clients) == in_process, clients


def test_overload_is_typed_and_bounded():
    """Admission gate: excess load rejects typed; the in-flight peak holds.

    A dedicated 2-worker pool + server with a tiny admission window
    (``max_inflight=2``) is offered a deep pipelined burst.  Rejections
    must be typed :class:`Overloaded` frames (never queued, never an
    untyped failure), accepted requests must still answer correctly, and
    the server's own peak counter must respect the bound — that peak is
    the entire per-request memory the server may accumulate.
    """
    state = _state()
    with ShardedPool(state["store"], workers=2) as pool:
        server = XPathServer(pool, max_inflight=OVERLOAD_MAX_INFLIGHT)
        with server as (host, port):
            query, key = state["requests"][0]
            expected = state["expected"][0]

            async def flood():
                async with await AsyncServingClient.connect(
                    host, port, window=OVERLOAD_OFFERED
                ) as client:
                    return await client.evaluate_batch(
                        [(query, key)] * OVERLOAD_OFFERED,
                        ids=True,
                        return_errors=True,
                    )

            results = asyncio.run(flood())
            rejected = [r for r in results if isinstance(r, Overloaded)]
            answered = [r for r in results if not isinstance(r, Exception)]
            untyped = [
                r for r in results
                if isinstance(r, Exception) and not isinstance(r, Overloaded)
            ]
            peak = server._peak_inflight
    assert not untyped, untyped
    assert len(rejected) + len(answered) == OVERLOAD_OFFERED
    assert rejected, "offered load never exceeded the admission window"
    assert all(r.capacity == OVERLOAD_MAX_INFLIGHT for r in rejected)
    assert all(r.ids == expected for r in answered)
    assert peak <= OVERLOAD_MAX_INFLIGHT, peak
    _STATE["overload"] = (len(answered), len(rejected), peak)


def test_report_summary():
    """One report block: per-client-count wall clock + overload outcome."""
    state = _state()
    in_process = _best_time(lambda: _run_in_process(state))
    network = {
        clients: _best_time(lambda clients=clients: _run_network(state, clients))
        for clients in CLIENT_COUNTS
    }
    count = len(state["requests"])
    rows = [f"{'in-process':>12}  {in_process * 1e3:8.1f} ms"] + [
        f"{f'tcp-{clients}cli':>12}  {seconds * 1e3:8.1f} ms  "
        f"(+{(seconds - in_process) / count * 1e6:.0f} µs/request ingress)"
        for clients, seconds in sorted(network.items())
    ]
    answered, rejected, peak = _STATE.get("overload", ("?", "?", "?"))
    report(
        f"E19 — network serving ({count} requests, {WORKERS} workers, "
        f"{os.cpu_count()} cores)",
        "\n".join(rows)
        + f"\n  overload: {answered} answered, {rejected} rejected typed, "
        f"in-flight peak {peak} (bound {OVERLOAD_MAX_INFLIGHT})",
    )


@pytest.fixture(scope="module", autouse=True)
def _shutdown():
    yield
    engine = _STATE.get("engine")
    if engine is not None:
        engine.shutdown_serving()
