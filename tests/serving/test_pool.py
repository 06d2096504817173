"""Lifecycle, routing, batching and failure tests for :class:`ShardedPool`."""

import pytest

from repro.errors import XPathEvaluationError, XPathSyntaxError
from repro.serving import ServingError, ShardedPool
from repro.store import CorpusStore, StoreKeyError, shard_of
from repro.xmlmodel import chain_document, parse_xml, wide_document

DOCS = {
    "books": "<catalogue><book><title>PODS</title></book><book/></catalogue>",
    "letters": "<a><b/><b><c/></b><d><b/></d></a>",
    "row": "<r><x/><x/><x/><x/></r>",
}


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    root = tmp_path_factory.mktemp("serving-store")
    store = CorpusStore(root)
    for key, xml in DOCS.items():
        store.put(xml, key=key)
    store.put(chain_document(60), key="chain")
    store.put(wide_document(60), key="wide")
    return store


@pytest.fixture(scope="module")
def pool(store):
    with ShardedPool(store, workers=2) as pool:
        yield pool


class TestEvaluation:
    def test_node_set_ids_and_lazy_nodes(self, pool):
        result = pool.evaluate("//b[child::c]", "letters")
        assert result.engine == "sharded"
        assert result.ids == [3]
        assert [node.tag for node in result.nodes] == ["b"]

    def test_ids_only_callers_never_hydrate_in_the_parent(self, store):
        with ShardedPool(store, workers=2) as pool:
            result = pool.evaluate("//b", "letters", ids=True)
            assert result.ids == [2, 3, 6]
            # the worker evaluated; the parent deferred its own snapshot
            # load behind a lazy document...
            [lazy] = pool._documents.values()
            assert not lazy.hydrated
            # ...which resolves exactly when nodes are materialised
            assert [node.tag for node in result.nodes] == ["b", "b", "b"]
            assert lazy.hydrated

    def test_scalar(self, pool):
        assert pool.evaluate("count(//x)", "row").value == 4.0

    def test_string_and_boolean_scalars(self, pool):
        assert pool.evaluate("name(/*)", "row").value == "r"
        assert pool.evaluate("count(//x) > 2", "row").value is True

    def test_results_match_in_process(self, pool, store):
        from repro.evaluation import evaluate

        for key, xml in DOCS.items():
            document = parse_xml(xml)
            for query in ("//b", "//*[child::*]", "count(//*)"):
                sharded = pool.evaluate(query, key)
                local = evaluate(query, document, engine="auto")
                if sharded.is_node_set:
                    assert sharded.ids == [
                        document.index.id_of(node) for node in local
                    ], (key, query)
                else:
                    assert sharded.value == local, (key, query)

    def test_empty_result(self, pool):
        assert pool.evaluate("//nosuch", "row").ids == []

    def test_batch_preserves_input_order(self, pool):
        requests = [
            ("//b", "letters"),
            ("count(//x)", "row"),
            ("//book", "books"),
            ("//b[child::c]", "letters"),
            ("count(//book)", "books"),
        ] * 8  # larger than one window round per worker
        results = pool.evaluate_batch(requests)
        payload = [r.ids if r.is_node_set else r.value for r in results]
        assert payload == [[2, 3, 6], 4.0, [2, 5], [3], 2.0] * 8

    def test_batch_accepts_parsed_queries(self, pool):
        from repro.xpath import parse

        result = pool.evaluate_batch([(parse("//b"), "letters")])[0]
        assert result.ids == [2, 3, 6]

    def test_ids_mode_rejects_scalars(self, pool):
        with pytest.raises(XPathEvaluationError, match="not a node-set"):
            pool.evaluate("count(//x)", "row", ids=True)

    def test_empty_batch(self, pool):
        assert pool.evaluate_batch([]) == []

    def test_bad_request_shape(self, pool):
        with pytest.raises(TypeError, match="query, key"):
            pool.evaluate_batch(["//b"])


class TestErrorPropagation:
    def test_unknown_key(self, pool):
        with pytest.raises(StoreKeyError, match="no document"):
            pool.evaluate("//b", "missing")

    def test_syntax_error_rebuilt_with_type(self, pool):
        with pytest.raises(XPathSyntaxError):
            pool.evaluate("//b[", "letters")

    def test_worker_survives_errors(self, pool):
        with pytest.raises(XPathSyntaxError):
            pool.evaluate("//(", "letters")
        assert pool.evaluate("count(//x)", "row").value == 4.0

    def test_batch_with_failures_raises_first_by_input_order(self, pool):
        with pytest.raises(XPathEvaluationError):
            pool.evaluate_batch(
                [("//b", "letters"), ("count(//x)", "row"), ("//b", "letters")],
                ids=True,
            )
        # the pipes are clean afterwards: the next batch works
        assert pool.evaluate("//b", "letters").ids == [2, 3, 6]


class TestRoutingAndWarmup:
    def test_routing_is_deterministic_by_content_hash(self, pool, store):
        for entry in store.list():
            assert pool.shard_for(entry.key) == shard_of(entry.hash, pool.workers)

    def test_shard_layout_partitions_the_manifest(self, store):
        layout = store.shard_layout(3)
        keys = sorted(entry.key for shard in layout for entry in shard)
        assert keys == store.keys()
        for index, shard in enumerate(layout):
            for entry in shard:
                assert shard_of(entry.hash, 3) == index

    def test_warm_pool_hydrated_every_key_before_first_query(self, store):
        with ShardedPool(store, workers=2) as pool:
            stats = pool.stats()
            assert stats.served == 0
            assert stats.documents == len(store)
            assert stats.store_loads == len(store)

    def test_cold_pool_hydrates_on_demand(self, store):
        with ShardedPool(store, workers=2, warm=False) as pool:
            assert pool.stats().documents == 0
            assert pool.evaluate("count(//x)", "row").value == 4.0
            assert pool.stats().documents == 1

    def test_stats_merge_accounts_for_every_request(self, store):
        with ShardedPool(store, workers=3) as pool:
            requests = [("//b", "letters"), ("//book", "books"), ("//x", "row")] * 4
            pool.evaluate_batch(requests)
            stats = pool.stats()
            assert stats.workers == 3
            assert stats.served == len(requests)
            assert sum(w.served for w in stats.per_worker) == len(requests)
            assert sum(stats.dispatch.values()) == len(requests)
            assert "worker process(es)" in stats.describe()

    @pytest.mark.parametrize(
        "query,ids", [("count(//b)", False), ("//b", False), ("//b", True)]
    )
    def test_one_plan_lookup_per_request(self, store, query, ids):
        with ShardedPool(store, workers=1) as pool:
            for _ in range(10):
                pool.evaluate(query, "letters", ids=ids)
            stats = pool.stats()
            assert (stats.plan_hits, stats.plan_misses) == (9, 1)


class TestLifecycle:
    def test_close_is_idempotent_and_workers_exit(self, store):
        pool = ShardedPool(store, workers=2, warm=False)
        processes = [worker.process for worker in pool._pool]
        pool.close()
        pool.close()
        assert pool.closed
        assert all(not process.is_alive() for process in processes)
        assert all(process.exitcode == 0 for process in processes)

    def test_closed_pool_refuses_work(self, store):
        pool = ShardedPool(store, workers=1, warm=False)
        pool.close()
        with pytest.raises(ServingError, match="closed"):
            pool.evaluate("//b", "letters")
        with pytest.raises(ServingError, match="closed"):
            pool.stats()

    def test_dead_worker_recovers_transparently(self, store):
        # Supervision: a killed worker restarts and the query still answers.
        with ShardedPool(store, workers=1, warm=False) as pool:
            pool._pool[0].process.kill()
            pool._pool[0].process.join(5)
            result = pool.evaluate("count(//x)", "row")
            assert result.value == 4.0
            assert pool.stats().restarts == 1

    def test_dead_worker_without_restart_budget_raises(self, store):
        from repro.serving import WorkerCrashed

        with ShardedPool(store, workers=1, warm=False, max_restarts=0) as pool:
            pool._pool[0].process.kill()
            pool._pool[0].process.join(5)
            with pytest.raises(WorkerCrashed, match="worker 0"):
                pool.evaluate("//b", "letters")

    def test_spawn_start_method(self, store):
        # spawn children start a fresh interpreter: this covers the
        # PYTHONPATH hand-off that makes a source checkout importable.
        with ShardedPool(
            store, workers=1, warm=False, start_method="spawn"
        ) as pool:
            assert pool.start_method == "spawn"
            assert pool.evaluate("count(//x)", "row").value == 4.0

    def test_worker_count_validated(self, store):
        with pytest.raises(ValueError, match="workers"):
            ShardedPool(store, workers=0)

    def test_store_accepts_a_path(self, store):
        with ShardedPool(store.root, workers=1, warm=False) as pool:
            assert pool.evaluate("count(//x)", "row").value == 4.0

    def test_concurrent_drain_and_close_are_idempotent(self, store):
        """Regression: drain()/close() racing from two threads must not
        shut the workers down twice or deadlock.

        This is exactly the network front door's exposure: a signal
        handler calls close() while the serving thread calls drain().
        Before the lifecycle lock, both threads could pass the closed
        check and run _shutdown concurrently on the same pipes.
        """
        import threading

        for _ in range(3):  # a few rounds to give the race a chance
            pool = ShardedPool(store, workers=2, warm=False)
            barrier = threading.Barrier(4)
            outcomes = []

            def race(method):
                barrier.wait()
                try:
                    method()
                    outcomes.append("ok")
                except ServingError:
                    outcomes.append("closed")  # lost the race: acceptable
                except BaseException as error:  # the regression would land here
                    outcomes.append(error)

            threads = [
                threading.Thread(target=race, args=(method,))
                for method in (pool.drain, pool.close, pool.drain, pool.close)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            assert not any(thread.is_alive() for thread in threads)
            assert pool.closed
            assert all(outcome in ("ok", "closed") for outcome in outcomes), outcomes
            # exactly one thread ran the shutdown; close() after the fact
            # observes a closed pool silently, drain() raises typed
            assert outcomes.count("ok") >= 1
            pool.close()  # still idempotent afterwards

    def test_ping_racing_drain_stays_typed(self, store):
        """Regression: ping() must snapshot the roster atomically with the
        open check (under the lifecycle lock).

        Before the fix, ping() read ``self._pool`` after its open check
        without holding ``_lifecycle_lock``: a drain() landing in between
        closed the pipes mid-probe and the probe surfaced raw ``OSError``
        from the dead pipe instead of the typed taxonomy.  The contract
        is: every ping() call either returns a per-worker bool tuple or
        raises ``ServingError`` — nothing untyped, no deadlock.
        """
        import threading

        for _ in range(3):
            pool = ShardedPool(store, workers=2, warm=False)
            barrier = threading.Barrier(2)
            outcomes = []

            def probe():
                barrier.wait()
                for _ in range(20):
                    try:
                        health = pool.ping(timeout=1.0)
                    except ServingError:
                        outcomes.append("closed")
                        return  # the pool stays closed; nothing more to see
                    except BaseException as error:  # the regression lands here
                        outcomes.append(error)
                        return
                    assert all(isinstance(h, bool) for h in health)
                    outcomes.append("pinged")

            prober = threading.Thread(target=probe)
            prober.start()
            barrier.wait()
            try:
                pool.drain(timeout=5.0)
            except ServingError:
                pass  # prober cannot trigger this, but stay lenient
            prober.join(30.0)
            assert not prober.is_alive()
            assert outcomes, "prober recorded nothing"
            assert all(
                outcome in ("pinged", "closed") for outcome in outcomes
            ), outcomes
            with pytest.raises(ServingError, match="closed"):
                pool.ping()
            pool.close()


class TestEngineIntegration:
    def test_serve_requires_a_store(self):
        from repro.engine import XPathEngine

        with pytest.raises(RuntimeError, match="attach_store"):
            XPathEngine().serve()

    def test_evaluate_sharded_matches_in_process(self, store):
        from repro.engine import XPathEngine
        from repro.store import StoreKey

        engine = XPathEngine().attach_store(store)
        try:
            requests = [
                ("//b[child::c]", "letters"),
                ("count(//book)", "books"),
                ("//x", "row"),
            ]
            sharded = engine.evaluate_sharded(requests, workers=2)
            for (query, key), result in zip(requests, sharded):
                local = engine.evaluate(query, StoreKey(key))
                if result.is_node_set:
                    assert result.ids == local.ids
                else:
                    assert result.value == local.value
        finally:
            engine.shutdown_serving()

    def test_serve_caches_pool_and_recreates_on_new_worker_count(self, store):
        from repro.engine import XPathEngine

        engine = XPathEngine().attach_store(store)
        try:
            pool = engine.serve(workers=2, warm=False)
            assert engine.serve(workers=2) is pool
            bigger = engine.serve(workers=3, warm=False)
            assert pool.closed and not bigger.closed
            assert engine.serving is bigger
        finally:
            engine.shutdown_serving()
        assert engine.serving is None

    def test_engine_stats_merge_worker_counters(self, store):
        from repro.engine import XPathEngine

        engine = XPathEngine().attach_store(store)
        try:
            engine.serve(workers=2, warm=False)
            engine.evaluate_sharded([("//b", "letters")], ids=True)
            stats = engine.stats()
            assert stats.serving is not None
            assert stats.serving.served == 1
            assert "serving" in stats.describe()
        finally:
            engine.shutdown_serving()
        assert XPathEngine().attach_store(store).stats().serving is None
