"""What a dropped engine frees, and when: by reference count, not by the collector.

An engine owns its registry, the registry its handles, and neither holds
the engine strongly, so there is no cycle: the last reference to an
engine going away frees its hydrated documents (and their mmaps and
index state) there and then.  Every test runs with the cycle collector
off — a weak reference that dies anyway died by refcount.
"""

import gc
import weakref

import pytest

from repro import CorpusStore, StoreKey, XPathEngine
from repro.xmlmodel import parse_xml

XML = "<a><b/><b><c/></b></a>"


@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_a_dropped_engine_frees_itself_and_its_hydrated_documents(tmp_path, no_collector):
    store = CorpusStore(tmp_path / "corpus")
    store.put(XML, key="k")
    engine = XPathEngine().attach_store(store, mmap=True)
    assert engine.evaluate("//b[child::c]", StoreKey("k")).ids == [3]
    assert engine.evaluate("count(//b)", StoreKey("k")).value == 2.0  # a cvt evaluator pooled too
    document = engine.add(StoreKey("k")).document
    engine_ref, document_ref = weakref.ref(engine), weakref.ref(document)
    del engine, document
    assert engine_ref() is None
    assert document_ref() is None


def test_a_registry_eviction_frees_its_document(no_collector):
    engine = XPathEngine(max_documents=1)
    document = parse_xml(XML)
    assert engine.evaluate("//b", document).ids == [2, 3]
    document_ref = weakref.ref(document)
    del document
    assert document_ref() is not None  # the registry holds it
    engine.add("<other/>")
    assert document_ref() is None


def test_a_handle_outliving_its_engine_says_so(no_collector):
    engine = XPathEngine()
    handle = engine.add(XML)
    assert handle.evaluate("//b").ids == [2, 3]
    assert engine.add(handle) is handle
    del engine
    with pytest.raises(RuntimeError, match="handle is not attached to an engine"):
        handle.evaluate("//b")
    assert handle.document.size == 5  # the ticket still holds its document
