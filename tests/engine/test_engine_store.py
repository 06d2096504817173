"""Engine ↔ corpus-store integration: hydration, stats, StoreKey routing."""

import gc
import threading

import pytest

from repro.engine import XPathEngine
from repro.store import CorpusStore, StoreKey, StoreKeyError

XML_ONE = "<a><b/><b><c/></b></a>"
XML_TWO = "<x><y/><y/><y/></x>"


@pytest.fixture
def store(tmp_path):
    store = CorpusStore(tmp_path / "corpus")
    store.put(XML_ONE, key="one")
    store.put(XML_TWO, key="two")
    return store


@pytest.fixture
def engine(store):
    return XPathEngine().attach_store(store)


class TestAttachAndHydrate:
    def test_add_from_store_serves_queries(self, engine):
        handle = engine.add_from_store("one")
        result = engine.evaluate("//b[child::c]", handle)
        assert result.ids == [3]
        assert result.engine == "core"
        assert handle.document.has_index  # hydrated ready-to-serve

    def test_no_store_attached_is_an_error(self):
        with pytest.raises(RuntimeError, match="attach_store"):
            XPathEngine().add_from_store("one")

    def test_explicit_store_argument_overrides(self, store):
        engine = XPathEngine()
        handle = engine.add_from_store("two", store=store)
        assert engine.evaluate("count(//y)", handle).value == 3.0

    def test_unknown_key_raises_and_counts_a_miss(self, engine):
        with pytest.raises(StoreKeyError):
            engine.add_from_store("ghost")
        stats = engine.stats().store
        assert stats.misses == 1 and stats.hits == 0

    def test_warm_requests_share_one_hydration(self, engine):
        first = engine.add_from_store("one")
        second = engine.add_from_store("one")
        assert second.document is first.document
        stats = engine.stats().store
        assert stats.hits == 2 and stats.loads == 1

    def test_two_keys_with_identical_content_share_one_document(self, store):
        store.put(XML_ONE, key="alias")
        engine = XPathEngine().attach_store(store)
        assert (
            engine.add_from_store("one").document
            is engine.add_from_store("alias").document
        )
        assert engine.stats().store.loads == 1

    def test_evicted_but_alive_hydration_is_reregistered_not_reloaded(self, store):
        engine = XPathEngine(max_documents=1).attach_store(store)
        kept = engine.add_from_store("one").document  # strong ref survives eviction
        engine.add_from_store("two")  # evicts "one" from the registry
        handle = engine.add_from_store("one")
        assert handle.document is kept  # identity preserved, no reload
        assert engine.stats().store.loads == 2  # "one" once, "two" once

    def test_eviction_then_rehydration_loads_again(self, store):
        engine = XPathEngine(max_documents=1).attach_store(store)
        engine.add_from_store("one")
        engine.add_from_store("two")  # evicts "one"
        gc.collect()  # drop the weakly-tracked evicted document
        handle = engine.add_from_store("one")
        assert engine.evaluate("//b", handle).ids == [2, 3]
        assert engine.stats().store.loads >= 2

    def test_mmap_hydration(self, store):
        engine = XPathEngine().attach_store(store, mmap=True)
        handle = engine.add_from_store("one")
        assert engine.evaluate("//b", handle).ids == [2, 3]

    def test_cold_stampede_registers_one_document(self, store):
        # Racing hydrations may duplicate the load work, but exactly one
        # document object wins and every caller registers that one.
        engine = XPathEngine().attach_store(store)
        seen = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            seen.append(engine.add_from_store("one").document)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(document) for document in seen}) == 1
        assert engine.stats().documents.size == 1
        assert engine.stats().store.loads >= 1

    def test_explicit_mmap_override_is_honoured_on_warm_keys(self, engine):
        eager = engine.add_from_store("one")
        lazy = engine.add_from_store("one", mmap=True)
        # Different residencies are different hydrations, never silently
        # substituted for one another.
        assert lazy.document is not eager.document
        assert isinstance(lazy.document.index.parent, memoryview)
        assert not isinstance(eager.document.index.parent, memoryview)
        assert engine.add_from_store("one").document is eager.document
        assert engine.add_from_store("one", mmap=True).document is lazy.document
        assert engine.stats().store.loads == 2


class TestStoreKeyRouting:
    def test_evaluate_accepts_store_keys(self, engine):
        assert engine.evaluate("//y", StoreKey("two")).ids == [2, 3, 4]

    def test_plain_strings_still_parse_as_xml(self, engine):
        assert engine.evaluate("//b", XML_ONE).ids == [2, 3]

    def test_batch_accepts_store_keys(self, engine):
        batch = engine.evaluate_batch(
            [("//b", StoreKey("one")), ("//y", StoreKey("two"))]
        )
        assert [result.ids for result in batch] == [[2, 3], [2, 3, 4]]

    def test_stats_describe_includes_store_line(self, engine):
        engine.evaluate("//b", StoreKey("one"))
        description = engine.stats().describe()
        assert "store" in description
        assert "snapshot load(s)" in description

    def test_store_stats_absent_without_a_store(self):
        assert XPathEngine().stats().store is None


class TestStoreHydratedBatch:
    """``evaluate_batch`` over ``StoreKey`` documents is the store-hydrated batch."""

    def test_ids_and_values(self, engine):
        key = StoreKey("one")
        results = engine.evaluate_batch(
            [("//b", key), ("//b[child::c]", key)], ids=True
        )
        assert [result.ids for result in results] == [[2, 3], [3]]
        [count] = engine.evaluate_batch([("count(//b)", key)])
        assert count.value == 2.0
        # one snapshot load serves the whole batch and the one after it
        assert engine.stats().store.loads == 1
