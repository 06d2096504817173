"""E17 — cross-process sharded serving vs. the best single-process path.

The workload is the one the GIL punishes hardest: many *distinct*
documents, each asked *distinct* CPU-heavy Core XPath queries, so a
single process is hard-bounded at one core of pure-Python evaluation.  The sharded tier
(:class:`repro.serving.ShardedPool`, ``docs/serving.md``) escapes that
bound: documents are sharded across worker processes warmed from mmap'd
store snapshots, and requests/results cross as id-native wire frames.

Measured paths, all over the same corpus store:

* ``batch``       — ``XPathEngine.evaluate_batch`` (serial, one
  evaluator per document and engine kind; the in-process baseline);
* ``many``        — ``evaluate_many_ids`` per document (the legacy batch
  path);
* ``sharded-N``   — ``ShardedPool.evaluate_batch(ids=True)`` at 1/2/4
  worker processes.

Acceptance gates:

* **fidelity** (always asserted, CI included): sharded results are
  byte-identical to every single-process path, at every worker count;
* **throughput** (asserted when the host can express it: ≥4 CPU cores
  and strict mode — ``BENCH_SPEEDUP_STRICT=1``, the default off-CI):
  ≥2× the *best* single-process path at 4 workers.  Expected range on
  a ≥4-core host: ~2.5–3.5× (near-linear scaling minus wire + routing
  overhead of ~0.1 ms/request).
"""

import os
import time

import pytest

from benchmarks.conftest import report
from repro.engine import XPathEngine
from repro.planner import evaluate_many_ids
from repro.serving import ShardedPool
from repro.store import CorpusStore, StoreKey
from repro.xmlmodel import chain_document, complete_tree_document, wide_document

#: The corpus: distinct shapes so shards do genuinely different work.
_DOCUMENTS = {
    "chain-a": lambda: chain_document(8_000),
    "chain-b": lambda: chain_document(7_000),
    "wide-a": lambda: wide_document(8_000, tag="a"),
    "wide-b": lambda: wide_document(7_000, tag="a"),
    "tree-a": lambda: complete_tree_document(2, 12, tags=("a", "b")),
    "tree-b": lambda: complete_tree_document(3, 8, tags=("a", "b")),
}

#: Distinct heavy queries per document (formatted with a per-key salt so
#: no two requests in the batch are ever identical).
_QUERY_TEMPLATES = (
    "//a[ancestor::a]/descendant::a[not(child::b)]/ancestor::a[descendant::a]",
    "//a[child::a]/child::a[child::a]/ancestor::a[descendant::a]",
    "//a[not(child::a)]/ancestor::a[descendant::a]",
    "/descendant::a[descendant::a and not(child::b)]/descendant::a",
    "//a[following-sibling::a or preceding-sibling::a]/descendant::a",
)

WORKER_COUNTS = (1, 2, 4)
SPEEDUP_FLOOR = 2.0
MIN_CORES_FOR_FLOOR = 4

_STATE = {}


def _state(tmp_path_factory=None):
    """One store + registered engine + warm pools for the whole module."""
    if "store" not in _STATE:
        import tempfile

        root = tempfile.mkdtemp(prefix="repro-e17-")
        store = CorpusStore(root)
        documents = {key: build() for key, build in _DOCUMENTS.items()}
        for key, document in documents.items():
            store.put(document, key=key)
        engine = XPathEngine().attach_store(store)
        requests = [
            (template, key)
            for key in sorted(documents)
            for template in _QUERY_TEMPLATES
        ]
        # Warm the in-process baseline exactly like the pools are warmed.
        engine.evaluate_batch(
            [(query, StoreKey(key)) for query, key in requests], ids=True
        )
        _STATE["store"] = store
        _STATE["engine"] = engine
        _STATE["documents"] = documents
        _STATE["requests"] = requests
        _STATE["pools"] = {}
    return _STATE


def _pool(workers: int) -> ShardedPool:
    state = _state()
    pool = state["pools"].get(workers)
    if pool is None or pool.closed:
        pool = ShardedPool(state["store"], workers=workers)
        state["pools"][workers] = pool
    return pool


def _engine_requests(state):
    return [(query, StoreKey(key)) for query, key in state["requests"]]


def _run_batch(state):
    return [
        result.ids
        for result in state["engine"].evaluate_batch(
            _engine_requests(state), ids=True
        )
    ]


def _run_many(state):
    out = []
    for key in sorted(state["documents"]):
        out.extend(
            evaluate_many_ids(state["documents"][key], _QUERY_TEMPLATES)
        )
    return out


def _run_sharded(state, workers):
    return [
        result.ids
        for result in _pool(workers).evaluate_batch(state["requests"], ids=True)
    ]


def _best_time(function, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_sharded_throughput_timings(benchmark, workers):
    """pytest-benchmark timings for the sharded batch per worker count."""
    state = _state()
    _run_sharded(state, workers)  # warm the pool before timing
    benchmark(_run_sharded, state, workers)


def test_single_process_batch_timing(benchmark):
    """The in-process baseline the sharded tier must beat."""
    state = _state()
    benchmark(_run_batch, state)


def test_sharded_results_identical_to_every_single_process_path():
    """Fidelity gate (always asserted): same ids everywhere, every count."""
    state = _state()
    batch = _run_batch(state)
    assert batch == _run_many(state)
    for workers in WORKER_COUNTS:
        assert _run_sharded(state, workers) == batch, workers


def test_sharded_speedup_floor_vs_best_single_process_path():
    """Throughput gate: ≥2× at 4 workers over the best in-process path."""
    state = _state()
    singles = {
        "batch": _best_time(lambda: _run_batch(state)),
        "many": _best_time(lambda: _run_many(state)),
    }
    sharded = {
        workers: _best_time(lambda workers=workers: _run_sharded(state, workers))
        for workers in WORKER_COUNTS
    }
    best_name = min(singles, key=singles.get)
    best_single = singles[best_name]
    speedup = best_single / sharded[4] if sharded[4] else float("inf")
    rows = [
        f"{name:>12}  {seconds * 1e3:8.1f} ms"
        for name, seconds in sorted(singles.items())
    ] + [
        f"{f'sharded-{workers}':>12}  {seconds * 1e3:8.1f} ms"
        for workers, seconds in sorted(sharded.items())
    ]
    requests = len(state["requests"])
    report(
        f"E17 — sharded serving vs single process ({requests} distinct "
        f"requests over {len(_DOCUMENTS)} documents, {os.cpu_count()} cores)",
        "\n".join(rows)
        + f"\n  best single process: {best_name}"
        + f"\n  sharded-4 speedup  : {speedup:5.2f}x (floor {SPEEDUP_FLOOR}x, "
        f"gated: needs >= {MIN_CORES_FOR_FLOOR} cores + strict mode)",
    )
    # Identity is asserted unconditionally above; the wall-clock floor
    # needs hardware that can express it (a 4-worker pool cannot beat one
    # core on a 1-core host) and a quiet machine (strict mode).
    strict = os.environ.get(
        "BENCH_SPEEDUP_STRICT", "0" if os.environ.get("CI") else "1"
    )
    if strict.lower() in ("", "0", "false", "no"):
        return
    if (os.cpu_count() or 1) < MIN_CORES_FOR_FLOOR:
        pytest.skip(
            f"host has {os.cpu_count()} core(s); the {SPEEDUP_FLOOR}x floor "
            f"needs at least {MIN_CORES_FOR_FLOOR}"
        )
    assert speedup >= SPEEDUP_FLOOR, (singles, sharded)


def test_worker_shares_account_for_every_request():
    """Routing sanity: the 4-worker pool's merged stats cover the batch."""
    state = _state()
    pool = _pool(4)
    before = pool.stats().served
    _run_sharded(state, 4)
    stats = pool.stats()
    assert stats.served - before == len(state["requests"])
    assert sum(w.served for w in stats.per_worker) == stats.served
    # every worker with a shard assignment actually served something
    layout = state["store"].shard_layout(4)
    for worker_stats in stats.per_worker:
        if layout[worker_stats.worker]:
            assert worker_stats.served > 0


@pytest.fixture(scope="module", autouse=True)
def _close_pools():
    yield
    for pool in _STATE.get("pools", {}).values():
        pool.close()
