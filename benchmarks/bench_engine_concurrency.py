"""E15 — concurrent serving throughput of ``XPathEngine.evaluate_concurrent``.

The serving shape this measures is the plan cache's own motivating
workload (hot queries repeated over and over) pushed through the
concurrent front end: a small set of expensive queries against a
10k-node document, duplicated many times, evaluated on a shared
:class:`~repro.engine.XPathEngine` at 1 / 4 / 8 workers.

Where the speedup comes from — and does not come from: the evaluators
are pure Python, so under the GIL eight threads get no extra CPU.  What
scales is the engine's **single-flight request coalescing**: identical
requests in flight at the same moment share one evaluation, so on a hot
workload eight workers retire several requests per evaluation while one
worker can never coalesce anything (its in-flight window always holds a
single request).  The engine also drops the interpreter's thread-switch
interval for the duration of a concurrent batch so finished evaluations
reach their waiting followers quickly (see
``repro.engine.engine.CONCURRENT_SWITCH_INTERVAL``).

Acceptance floor (asserted on the chain-10k batch workload): ≥2×
throughput at 8 workers over 1 worker, no regression vs
:func:`~repro.planner.evaluate_many`, and results byte-identical to
serial evaluation at every worker count.
"""

import os
import time

import pytest

from benchmarks.conftest import report
from repro.engine import XPathEngine
from repro.planner import evaluate_many
from repro.xmlmodel import chain_document, wide_document

#: Hot queries per document shape: few distinct, individually expensive —
#: the shape request coalescing exists for.  Each is duplicated COPIES
#: times (interleaved) to form the serving workload.
_WORKLOADS = {
    "chain-10k": (
        lambda: chain_document(10_000),
        (
            "//a[ancestor::a]/descendant::a[not(child::b)]/ancestor::a[descendant::a]",
            "//a[child::a]/child::a[child::a]/child::a[child::a]"
            "/ancestor::a[descendant::a]/descendant::a[ancestor::a]",
            "//a[not(child::a)]/ancestor::a[descendant::a]",
        ),
    ),
    "wide-10k": (
        lambda: wide_document(10_000, tag="a"),
        (
            "//a[not(child::a)][preceding-sibling::a]",
            "//a[preceding-sibling::a and following-sibling::a]",
            "//a[following-sibling::a[following-sibling::a]]",
        ),
    ),
}

COPIES = 40
WORKER_COUNTS = (1, 4, 8)

#: Acceptance floors, asserted on the chain-10k batch workload.
SPEEDUP_FLOOR = 2.0          # 8 workers vs 1 worker
MANY_REGRESSION_CEILING = 1.10  # concurrent-8 time vs evaluate_many time

_STATE = {}


def _shape_state(shape):
    """One engine + registered document + warm plans per shape."""
    if shape not in _STATE:
        build, queries = _WORKLOADS[shape]
        engine = XPathEngine()
        handle = engine.add(build())
        engine.evaluate_batch([(query, handle) for query in queries])
        requests = [(query, handle) for query in queries] * COPIES
        _STATE[shape] = (engine, handle, queries, requests)
    return _STATE[shape]


def _best_time(function, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("shape", sorted(_WORKLOADS))
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_concurrent_throughput_timings(benchmark, shape, workers):
    """pytest-benchmark timings for the serving workload per worker count."""
    engine, _, _, requests = _shape_state(shape)
    benchmark(engine.evaluate_concurrent, requests, max_workers=workers)


@pytest.mark.parametrize("shape", sorted(_WORKLOADS))
def test_concurrent_results_identical_to_serial(shape):
    """Every worker count returns exactly the serial results, in order."""
    engine, handle, _, requests = _shape_state(shape)
    serial = [result.value for result in engine.evaluate_batch(requests)]
    # A private engine (own plan cache and counters), the document never
    # registered: the batch answer must not depend on the shared engine.
    private, evaluators = XPathEngine(), {}
    detached = [
        private.evaluate_detached(
            query, handle.document, evaluators=evaluators
        ).value
        for query, _ in requests
    ]
    assert serial == detached
    for workers in WORKER_COUNTS:
        concurrent = engine.evaluate_concurrent(requests, max_workers=workers)
        assert [result.value for result in concurrent] == serial, (shape, workers)


def test_concurrent_speedup_floor_vs_one_worker_and_evaluate_many():
    """Acceptance floor: ≥2× at 8 workers, no regression vs evaluate_many."""
    rows = []
    measured = {}
    for shape in sorted(_WORKLOADS):
        engine, handle, _, requests = _shape_state(shape)
        queries = [query for query, _ in requests]
        times = {
            workers: _best_time(
                lambda workers=workers: engine.evaluate_concurrent(
                    requests, max_workers=workers
                )
            )
            for workers in WORKER_COUNTS
        }
        many = _best_time(lambda: evaluate_many(handle.document, queries))
        coalesced = engine.stats().coalesced
        speedup = times[1] / times[8] if times[8] else float("inf")
        measured[shape] = (times, many, speedup)
        rows.append(
            f"{shape:>10}  "
            + "  ".join(f"{times[w] * 1e3:8.1f} ms" for w in WORKER_COUNTS)
            + f"  {many * 1e3:8.1f} ms  {speedup:5.2f}x  {coalesced:6d}"
        )
    header = (
        f"{'document':>10}  "
        + "  ".join(f"{f'{w} worker':>11}" for w in WORKER_COUNTS)
        + f"  {'eval_many':>11}  {'8w/1w':>6}  {'coal.':>6}"
    )
    report(
        f"E15 — concurrent serving throughput ({COPIES}×3 hot queries, "
        "shared XPathEngine)",
        "\n".join([header] + rows),
    )
    # Wall-clock ratios on shared CI runners are too noisy for a hard gate;
    # the identical-results assertions always run (see above), the floors
    # only off-CI (or when forced via BENCH_SPEEDUP_STRICT=1).
    strict = os.environ.get(
        "BENCH_SPEEDUP_STRICT", "0" if os.environ.get("CI") else "1"
    )
    if strict.lower() not in ("", "0", "false", "no"):
        times, many, speedup = measured["chain-10k"]
        assert speedup >= SPEEDUP_FLOOR, measured
        assert times[8] <= many * MANY_REGRESSION_CEILING, measured


def test_coalescing_is_the_mechanism():
    """The speedup is accounted for by coalesced requests, not magic."""
    build, queries = _WORKLOADS["chain-10k"]
    engine = XPathEngine()
    handle = engine.add(build())
    requests = [(query, handle) for query in queries] * COPIES
    engine.evaluate_concurrent(requests, max_workers=8)
    stats = engine.stats()
    evaluated = stats.queries - stats.coalesced
    assert stats.queries == len(requests)
    # Serial evaluation would have run every request; the concurrent batch
    # must have actually shared work for any speedup to be real.
    assert evaluated < len(requests)
