"""Telemetry across the tiers: wall time, spans, exposition, invariance.

Three things are pinned here:

* every :class:`~repro.engine.QueryResult` carries a stamped
  ``wall_time``, traced or not (the regression that motivated it:
  untraced pool results used to report 0.0);
* turning tracing on changes **no** answer, at every tier — in-process
  engine, sharded pool, and the TCP server (the differential test);
* the acceptance shape of a traced TCP query: one trace, at least six
  named spans spanning client → server → pool → worker → engine, also
  retrievable from the server's trace ring buffer via the JSON shim.
"""

import json

import pytest

from repro.engine import XPathEngine
from repro.serving import ShardedPool, XPathServer
from repro.serving.client import ServingClient, json_roundtrip
from repro.store import CorpusStore
from repro.xmlmodel import parse_xml

DOCS = {
    "letters": "<a><b/><b><c/></b><d>text</d></a>",
    "deep": "<r><x><y><z/></y></x><x><y/></x></r>",
}

QUERIES = [
    "//b",
    "//b[child::c]",
    "count(//b)",
    "/descendant::x/child::y",
    "name(/*)",
]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    root = tmp_path_factory.mktemp("telemetry-store")
    store = CorpusStore(root)
    for key, xml in DOCS.items():
        store.put(xml, key=key)
    return store


@pytest.fixture(scope="module")
def pool(store):
    with ShardedPool(store, workers=2) as pool:
        yield pool


@pytest.fixture(scope="module")
def server(pool):
    server = XPathServer(pool, idle_timeout=None)
    with server as address:
        yield server, address


def _key_for(query):
    return "deep" if "x" in query or "/*" in query else "letters"


def _normalise(result):
    return result.ids if result.is_node_set else result.value


class TestWallTimeIsAlwaysStamped:
    def test_engine_results_untraced(self):
        engine = XPathEngine()
        doc = engine.add(DOCS["letters"])
        result = engine.evaluate("//b", doc)
        assert result.trace is None
        assert result.wall_time > 0.0

    def test_engine_batch_results(self):
        engine = XPathEngine()
        doc = engine.add(DOCS["letters"])
        for result in engine.evaluate_batch([("//b", doc), ("count(//b)", doc)]):
            assert result.wall_time > 0.0

    def test_pool_results_untraced(self, pool):
        result = pool.evaluate("//b", "letters")
        assert result.trace is None
        assert result.wall_time > 0.0


class TestTracingChangesNoAnswers:
    def test_engine_differential(self):
        engine = XPathEngine()
        handles = {key: engine.add(xml) for key, xml in DOCS.items()}
        for query in QUERIES:
            doc = handles[_key_for(query)]
            plain = engine.evaluate(query, doc)
            traced = engine.evaluate(query, doc, trace=True)
            assert _normalise(plain) == _normalise(traced), query
            assert traced.trace is not None

    def test_sharded_differential(self, pool):
        for query in QUERIES:
            key = _key_for(query)
            plain = pool.evaluate(query, key)
            traced = pool.evaluate(query, key, trace=True)
            assert _normalise(plain) == _normalise(traced), query
            assert traced.trace is not None

    def test_tcp_differential(self, server):
        _, (host, port) = server
        with ServingClient(host, port) as client:
            for query in QUERIES:
                key = _key_for(query)
                plain = client.evaluate(query, key)
                traced = client.evaluate(query, key, trace=True)
                assert _normalise(plain) == _normalise(traced), query
                assert traced.trace is not None

    def test_all_three_tiers_agree(self, pool, server):
        engine = XPathEngine()
        handles = {key: engine.add(xml) for key, xml in DOCS.items()}
        _, (host, port) = server
        with ServingClient(host, port) as client:
            for query in QUERIES:
                key = _key_for(query)
                local = engine.evaluate(query, handles[key], trace=True)
                sharded = pool.evaluate(query, key, trace=True)
                remote = client.evaluate(query, key, trace=True)
                assert _normalise(local) == _normalise(sharded), query
                assert _normalise(local) == _normalise(remote), query


class TestTracedTcpQueryAcceptance:
    def test_trace_spans_cover_every_tier(self, server):
        _, (host, port) = server
        with ServingClient(host, port) as client:
            result = client.evaluate("//b[child::c]", "letters", trace=True)
        names = [name for name, _ in result.trace.named_spans()]
        assert len(names) >= 6, names
        tiers = {name.split(".", 1)[0] for name in names}
        assert {"client", "server", "pool", "worker", "engine"} <= tiers
        assert "client.request" in names
        assert "pool.dispatch" in names
        assert "worker.worker-eval" in names

    def test_trace_ring_buffer_via_json_shim(self, server):
        _, (host, port) = server
        with ServingClient(host, port) as client:
            client.evaluate("//b", "letters", trace=True)
        (reply,) = json_roundtrip(host, port, [{"op": "trace"}])
        assert reply["traces"], "ring buffer is empty after a traced query"
        tiers = {trace["tier"] for trace in reply["traces"]}
        assert "server" in tiers

    def test_json_shim_traced_query_carries_the_tree(self, server):
        _, (host, port) = server
        (reply,) = json_roundtrip(
            host, port,
            [{"query": "//b", "key": "letters", "trace": True}],
        )
        assert "error" not in reply and reply["ids"]
        names = []

        def walk(tree):
            for span in tree["spans"]:
                names.append(f"{tree['tier']}.{span['name']}")
            for child in tree.get("children", []):
                walk(child)

        walk(reply["trace"])
        assert len(names) >= 5, names


class TestMetricsExposition:
    def test_prometheus_carries_every_tier(self, server):
        server_obj, (host, port) = server
        with ServingClient(host, port) as client:
            client.evaluate("//b", "letters")
            body = client.server_metrics("prometheus")
        assert "repro_server_requests_total" in body
        assert "repro_pool_requests_total" in body
        # engine-level counters surface through the merged worker stats
        assert "repro_pool_worker_plan_cache_total" in body
        for line in body.splitlines():
            if line.startswith("#") or not line:
                continue
            name_part, _, value_part = line.rpartition(" ")
            assert name_part, line
            float(value_part)

    def test_json_shim_metrics_op(self, server):
        _, (host, port) = server
        (reply,) = json_roundtrip(host, port, [{"op": "metrics"}])
        names = {family["name"] for family in reply["metrics"]["families"]}
        assert "repro_server_requests_total" in names
        assert "repro_pool_requests_total" in names

    def test_json_shim_metrics_op_prometheus_format(self, server):
        _, (host, port) = server
        (reply,) = json_roundtrip(
            host, port, [{"op": "metrics", "format": "prometheus"}]
        )
        assert "# TYPE repro_server_requests_total counter" in reply["metrics"]

    def test_unknown_format_is_refused_on_both_sides_of_the_wire(self, server):
        import asyncio

        from repro.serving import AsyncServingClient

        _, (host, port) = server
        with ServingClient(host, port) as client:
            with pytest.raises(ValueError, match="bogus"):
                client.server_metrics("bogus")
            client.ping()  # nothing was sent: the conversation is intact

        async def refused():
            async with await AsyncServingClient.connect(host, port) as client:
                with pytest.raises(ValueError, match="bogus"):
                    await client.server_metrics("bogus")
                return await client.server_metrics("prometheus")

        assert "repro_server_requests_total" in asyncio.run(refused())
        bad, good = json_roundtrip(
            host, port,
            [{"op": "metrics", "format": "bogus"}, {"op": "metrics", "format": "json"}],
        )
        assert bad["error"]["type"] == "WireError" and "bogus" in bad["error"]["message"]
        assert good["metrics"]["families"]

    def test_stats_view_matches_registry(self, server):
        server_obj, (host, port) = server
        with ServingClient(host, port) as client:
            before = client.server_stats()["server"]["served"]
            client.evaluate("//b", "letters")
            after = client.server_stats()["server"]["served"]
        assert after == before + 1


class TestEngineSlowLog:
    def test_threshold_zero_records_every_query(self):
        engine = XPathEngine(slow_query_threshold=0.0)
        doc = engine.add(DOCS["letters"])
        engine.evaluate("//b", doc)
        entries = engine.slow_log.entries()
        assert entries and entries[-1]["query"] == "//b"
        assert entries[-1]["wall_time"] > 0.0

    def test_default_threshold_skips_fast_queries(self):
        engine = XPathEngine()
        doc = engine.add(DOCS["letters"])
        engine.evaluate("//b", doc)
        assert len(engine.slow_log) == 0
