"""Concurrency tests: one shared engine hammered from many threads.

The contract (docs/engine.md, "Threads and processes") promises that any
thread may call any method of one :class:`~repro.engine.XPathEngine` and
observe exactly the results serial evaluation would produce.  These
tests stress that promise with ``threading.Thread`` workers.
"""

import sys
import threading
import time

from repro.engine import XPathEngine
from repro.errors import XPathEvaluationError
from repro.evaluation.api import make_evaluator
from repro.planner import plan as plan_module

THREADS = 8
ROUNDS = 25

XMLS = [
    "<r><a><b/></a><a/><c>5</c></r>",
    "<r><a/><a><b/><b><c/></b></a></r>",
    "<library><shelf><book/><book/></shelf><shelf/></library>",
]

QUERIES = [
    "//a[child::b]",
    "//a[not(child::b)]",
    "count(//a)",
    "/descendant::*[not(child::*)]",
    "//b/ancestor::a",
    "string(//c)",
]


def test_shared_engine_stress_matches_serial():
    """≥8 threads × mixed queries/documents ≡ serial evaluation."""
    engine = XPathEngine()
    docs = [engine.add(xml) for xml in XMLS]
    serial = {
        (d, q): engine.evaluate(QUERIES[q], docs[d]).value
        for d in range(len(docs))
        for q in range(len(QUERIES))
    }
    results: dict[int, list] = {}
    errors: list[BaseException] = []

    def worker(seed: int) -> None:
        mine = []
        try:
            for i in range(ROUNDS * len(QUERIES)):
                d = (seed + i) % len(docs)
                q = (seed * 3 + i) % len(QUERIES)
                mine.append((d, q, engine.evaluate(QUERIES[q], docs[d]).value))
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)
        results[seed] = mine

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    assert len(results) == THREADS
    for seed, mine in results.items():
        assert len(mine) == ROUNDS * len(QUERIES)
        for d, q, value in mine:
            assert value == serial[(d, q)], (seed, d, q)


def test_threads_on_one_document_share_one_evaluator_per_kind(monkeypatch):
    """8 threads × mixed queries on one document ≡ serial, one evaluator per kind."""
    engine = XPathEngine()
    handle = engine.add(XMLS[1])
    serial = {
        query: XPathEngine().evaluate(query, handle.document).value for query in QUERIES
    }
    built: list[str] = []

    def counting_make_evaluator(document, kind, *args):
        built.append(kind)
        time.sleep(0.01)  # a wide window for a second thread to build its own
        return make_evaluator(document, kind, *args)

    monkeypatch.setattr(plan_module, "make_evaluator", counting_make_evaluator)
    answers: list[tuple[str, object]] = []
    barrier = threading.Barrier(THREADS)

    def worker(seed: int) -> None:
        barrier.wait(timeout=10)
        for i in range(ROUNDS):
            query = QUERIES[(seed + i) % len(QUERIES)]
            answers.append((query, handle.evaluate(query).value))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)

    assert not any(thread.is_alive() for thread in threads)
    assert len(answers) == THREADS * ROUNDS
    assert all(value == serial[query] for query, value in answers)
    assert sorted(handle.evaluators) == sorted(built) == ["core", "cvt"]
    assert engine.stats().queries == THREADS * ROUNDS


def _evaluate_in_thread(handle, query):
    answers: list = []
    thread = threading.Thread(target=lambda: answers.append(handle.evaluate(query).value))
    thread.start()
    return thread, answers


def test_requests_on_one_document_wait_for_its_handle_lock():
    engine = XPathEngine()
    handle = engine.add(XMLS[0])
    with handle._handle_lock:
        thread, answers = _evaluate_in_thread(handle, "count(//a)")
        thread.join(timeout=0.2)
        assert thread.is_alive() and answers == []
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert answers == [2.0]


def test_requests_on_other_documents_do_not_wait():
    engine = XPathEngine()
    held, other = engine.add(XMLS[0]), engine.add(XMLS[2])
    with held._handle_lock:
        thread, answers = _evaluate_in_thread(other, "count(//book)")
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert answers == [2.0]


def test_errors_reach_every_thread_and_release_the_lock():
    engine = XPathEngine()
    handle = engine.add(XMLS[0])
    caught: list[BaseException] = []
    barrier = threading.Barrier(THREADS)

    def worker() -> None:
        barrier.wait(timeout=10)
        try:
            handle.evaluate("//a[$missing]")
        except BaseException as error:
            caught.append(error)

    threads = [threading.Thread(target=worker) for _ in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)

    assert not any(thread.is_alive() for thread in threads)
    assert len(caught) == THREADS
    assert all(isinstance(error, XPathEvaluationError) for error in caught)
    assert not handle._handle_lock.locked()
    assert handle.evaluate("count(//a)").value == 2.0


def test_xml_text_documents_resolve_once_per_batch():
    engine = XPathEngine()
    requests = [("//a", XMLS[0]), ("//a[child::b]", XMLS[0])] * 4
    results = engine.evaluate_batch(requests)
    assert [len(r.nodes) for r in results[:2]] == [2, 1]
    # One parse + one registration for the repeated text, not eight.
    assert engine.stats().documents.size == 1
    assert engine.stats().documents.adds == 1
