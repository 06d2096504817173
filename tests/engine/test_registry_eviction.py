"""Regression tests: LRU eviction racing evaluations and registrations.

Evicting a document only drops the registry's reference: a caller that
still holds the evicted handle keeps evaluating on it (the engine
re-registers the document), and concurrent adds and evaluations under a
tiny LRU bound stay correct.
"""

import gc
import threading
import weakref

from repro.engine import XPathEngine
from repro.evaluation.api import make_evaluator
from repro.planner import plan as plan_module
from repro.xmlmodel import parse_xml

XML = "<r><a><b/></a><a/></r>"


class TestEvictDuringCheckout:
    def test_evicted_handle_still_evaluates(self):
        engine = XPathEngine(max_documents=1)
        first = engine.add(XML)
        engine.add("<other/>")
        assert engine.evaluate("//a", first).ids == [2, 4]


class TestEvictionDropsOnlyTheReference:
    def test_reregistered_document_gets_a_fresh_handle(self):
        engine = XPathEngine(max_documents=1)
        document = parse_xml(XML)
        handle = engine.add(document)
        engine.evaluate("//a[child::b]", handle)
        core = handle.evaluators["core"]
        engine.add("<other/>")  # evicts `handle`
        fresh = engine.add(document)
        assert fresh is not handle
        assert fresh.evaluators == {}
        assert engine.evaluate("//a[child::b]", fresh).ids == [2]
        assert sorted(fresh.evaluators) == ["core"]
        assert fresh.evaluators["core"] is not core
        assert handle.evaluators == {"core": core}  # the old ticket's own

    def test_eviction_during_an_evaluation_lets_it_finish(self, monkeypatch):
        engine = XPathEngine(max_documents=1)
        document = parse_xml(XML)
        handle = engine.add(document)

        def evict_then_build(*args):
            engine.add("<other/>")  # evicts `handle` while its lock is held
            return make_evaluator(*args)

        monkeypatch.setattr(plan_module, "make_evaluator", evict_then_build)
        assert engine.evaluate("//a[child::b]", handle).ids == [2]
        assert document not in engine.documents
        assert sorted(handle.evaluators) == ["core"]
        assert not handle._handle_lock.locked()

    def test_clear_keeps_held_handles_working(self):
        engine = XPathEngine()
        handle = engine.add(XML)
        assert handle.evaluate("//a").ids == [2, 4]
        engine.documents.clear()
        assert len(engine.documents) == 0
        assert handle.evaluate("//a").ids == [2, 4]
        assert handle.document in engine.documents
        assert engine.stats().documents.adds == 1

    def test_evicted_handle_takes_its_evaluators_with_it(self):
        engine = XPathEngine(max_documents=1)
        handle = engine.add(XML)
        engine.evaluate("//a[child::b]", handle)
        core_ref = weakref.ref(handle.evaluators["core"])
        gc.collect()
        gc.disable()
        try:
            engine.add("<other/>")
            assert core_ref() is not None  # the caller still holds the handle
            del handle
            assert core_ref() is None
        finally:
            gc.enable()


class TestConcurrentAddStress:
    def test_concurrent_adds_and_evaluations_with_tiny_lru(self):
        engine = XPathEngine(max_documents=2)
        documents = [parse_xml(f"<r n='{i}'><a><b/></a></r>") for i in range(8)]
        errors = []
        barrier = threading.Barrier(6)

        def worker(worker_id):
            try:
                barrier.wait()
                for round_number in range(25):
                    document = documents[(worker_id + round_number) % len(documents)]
                    result = engine.evaluate("//a[child::b]", document)
                    assert result.ids == [2], result.ids
            except Exception as error:  # pragma: no cover - failure capture
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = engine.stats().documents
        assert stats.size <= 2
        assert stats.evictions > 0
        # Every *live* handle holds at most one evaluator per engine kind.
        for handle in list(engine.documents._handles.values()):
            assert set(handle.evaluators) <= {"core"}

    def test_concurrent_add_of_same_fresh_document_registers_once(self):
        engine = XPathEngine(max_documents=8)
        document = parse_xml(XML)
        handles = []
        barrier = threading.Barrier(8)

        def adder():
            barrier.wait()
            handles.append(engine.add(document))

        threads = [threading.Thread(target=adder) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(handle) for handle in handles}) == 1
        assert engine.stats().documents.size == 1
