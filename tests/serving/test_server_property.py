"""Property: sharded-over-TCP ≡ ``evaluate_many_ids``, under concurrency.

The network tier adds stream framing, connection multiplexing, the
admission window and a listener on the pool's event loop — none of
which may change a single answer.  Random documents are snapshotted into
the server's store, then mixed batches (id queries, scalars, and
always-failing requests) are driven through several concurrent TCP
connections at once; every id array must equal the in-process
:func:`~repro.planner.evaluate_many_ids`, every scalar the in-process
engine's value, and every failure must come back as its original typed
exception — request isolation means one batch's errors never poison its
neighbours on the same multiplexed pool.
"""

import asyncio

import pytest
from hypothesis import given, settings

from repro.errors import XPathEvaluationError, XPathSyntaxError
from repro.evaluation import evaluate
from repro.planner import evaluate_many_ids
from repro.serving import AsyncServingClient, ShardedPool, XPathServer
from repro.store import CorpusStore
from repro.xpath.ast import FunctionCall

from tests.properties.strategies import core_xpath_queries, documents

CONNECTIONS = 4
REPEATS = 3  # pipeline depth per connection


@pytest.fixture(scope="module")
def net(tmp_path_factory):
    """One store + pool + TCP server shared by every hypothesis example."""
    store = CorpusStore(tmp_path_factory.mktemp("server-property-store"))
    with ShardedPool(store, workers=2, warm=False) as pool:
        server = XPathServer(pool)
        with server as (host, port):
            yield store, host, port


def _drive(host, port, requests, connections=CONNECTIONS):
    """Evaluate ``requests`` on N concurrent connections; list of batches."""

    async def main():
        clients = await asyncio.gather(*[
            AsyncServingClient.connect(host, port) for _ in range(connections)
        ])
        try:
            return await asyncio.gather(*[
                client.evaluate_batch(requests, return_errors=True)
                for client in clients
            ])
        finally:
            await asyncio.gather(*[client.aclose() for client in clients])

    return asyncio.run(main())


class TestTcpAgreesWithInProcess:
    @given(documents(max_nodes=30), core_xpath_queries(allow_negation=True))
    @settings(max_examples=20, deadline=None)
    def test_mixed_batches_agree_across_concurrent_connections(
        self, net, document, query
    ):
        store, host, port = net
        key = store.put(document).key  # content-hash key, idempotent
        count = FunctionCall("count", (query,))
        expected_ids = evaluate_many_ids(document, [query])[0]
        expected_count = evaluate(count, document, engine="auto")

        requests = [
            (query, key),           # node-set → sorted int32 ids
            (count, key),           # scalar → float64 on the wire
            ("//broken[", key),     # always fails → typed error in its slot
        ] * REPEATS
        for batch in _drive(host, port, requests):
            for index in range(0, len(batch), 3):
                ids_result, count_result, failure = batch[index:index + 3]
                assert ids_result.is_node_set
                assert ids_result.ids == expected_ids
                assert count_result.value == expected_count
                assert isinstance(failure, XPathSyntaxError)

    @given(documents(max_nodes=25), core_xpath_queries(allow_negation=True))
    @settings(max_examples=10, deadline=None)
    def test_ids_mode_error_contract_crosses_the_network(
        self, net, document, query
    ):
        store, host, port = net
        key = store.put(document).key
        count = FunctionCall("count", (query,))
        requests = [(query, key), (count, key)]

        async def main():
            async with await AsyncServingClient.connect(host, port) as client:
                return await client.evaluate_batch(
                    requests, ids=True, return_errors=True
                )

        node_set, scalar_error = asyncio.run(main())
        assert node_set.ids == evaluate_many_ids(document, [query])[0]
        assert isinstance(scalar_error, XPathEvaluationError)
        assert "not a node-set" in str(scalar_error)
