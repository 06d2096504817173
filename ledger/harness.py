"""One run: set up, warm up, time R rounds of N operations, check, report.

The noise controls live here.  The whole process tree is pinned to one
CPU before any engine, pool or server exists; load is one caller with one
request in flight; the next request is sent only after the previous
answer has been checked off the clock; rounds have fixed operation
counts; and the run reports each metric's best round
(:mod:`ledger.estimator`).  Python's garbage collector stays enabled:
its pauses are the program's behaviour.
"""

from __future__ import annotations

import gc
import os
import platform
import subprocess
import sys
import tempfile
from time import perf_counter
from typing import Optional

from repro.xmlmodel.kernels import active_backend

from ledger import estimator, procs
from ledger.layers import Ladder
from ledger.spans import Spans
from ledger.workloads import WORKLOADS, Workload

#: Timed seconds the issue's R and N were sized for; ``--seconds`` scales R.
FULL_SECONDS = 35
MIN_ROUNDS = 8
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Untraced rounds a traced run times before its one traced round.
TRACED_RUN_ROUNDS = 4
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

UNITS = {"setup_s": "s", "qps": "1/s", "p50_ms": "ms", "p95_ms": "ms", "peak_rss_mb": "MB"}


def rounds_for(workload: type[Workload], seconds: float) -> int:
    """R for a run of ``seconds``: the issue's R scaled down, never below 8."""
    scaled = round(workload.full_rounds * seconds / FULL_SECONDS)
    return max(MIN_ROUNDS, min(workload.full_rounds, scaled))


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(procs.REPO_ROOT, ".git")):
        return "unknown"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=procs.REPO_ROOT, capture_output=True, text=True, check=False,
    )
    return done.stdout.strip() or "unknown"


def metadata(pinned: bool, affinity: list[int]) -> dict:
    """What a result has to carry to be compared with another."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "pinned": pinned,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": active_backend().name,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


class Tally:
    """Operations attempted and failed, over the timed section and the checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def run_round(
    workload: Workload,
    round_index: int,
    tally: Tally,
    spans: Optional[Spans] = None,
    first_position: int = 0,
) -> list[float]:
    """One round: ``workload.ops`` operations, each timed, each checked after."""
    workload.begin_round(round_index)
    latencies = []
    for position in range(first_position, workload.ops):
        index = workload.request_index(round_index, position)
        ok = True
        answer = None
        start = perf_counter()
        try:
            if spans is None:
                answer = workload.op(index)
            else:
                answer = spans.call(
                    "op",
                    index,
                    workload.op,
                    index,
                    lambda name, fn, *a, **k: spans.call(name, index, fn, *a, **k),
                )
        except Exception as error:  # a failed operation is counted, not fatal
            ok = False
            print(f"operation {index} raised {type(error).__name__}: {error}", file=sys.stderr)
        latencies.append(perf_counter() - start)
        # Off the clock: the next request goes out only after this check.
        ok = ok and workload.check(index, answer)
        tally.add(1, 0 if ok else 1)
    return latencies


def set_up(
    workload_class: type[Workload], seed: int, scale: float, tally: Tally, setups: int
):
    """Set up ``setups`` times, keep the last; returns ``(workload, median seconds)``.

    A set-up is everything before the first timed operation: corpus and
    query generation, ``CorpusStore.put``, engine or server start-up and
    worker warm-up, and one untimed warm-up round of N/2 operations — the
    second half of a round, so it leaves the caches where every round does.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    times = []
    workload = None
    for _ in range(setups):
        if workload is not None:
            workload.close()
        start = perf_counter()
        workload = workload_class(
            seed, scale, tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
        )
        try:
            workload.setup()
            warm = Tally()
            run_round(workload, -1, warm, first_position=workload.ops // 2)
        except BaseException:
            workload.close()
            raise
        times.append(perf_counter() - start)
    tally.add(warm.attempted, warm.failed)
    return workload, sorted(times)[len(times) // 2]


def measure(workload_name: str, seed: int, seconds: float, scale: float = 1.0) -> dict:
    """The end-to-end run, benchmark spans off."""
    pinned, affinity = procs.pin_to_one_cpu()
    workload_class = WORKLOADS[workload_name]
    rounds = rounds_for(workload_class, seconds)
    tally = Tally()
    workload, setup_s = set_up(workload_class, seed, scale, tally, SETUPS)
    try:
        table = [
            estimator.summarise_round(run_round(workload, r, tally))
            for r in range(rounds)
        ]
        peak_rss_mb = procs.peak_rss_mb()
        tally.add(*workload.verify())
    finally:
        workload.close()
    values = {"setup_s": setup_s, **estimator.best_round(table), "peak_rss_mb": peak_rss_mb}
    metrics = {name: (values[name], unit) for name, unit in UNITS.items()}
    return _result(workload, False, tally, metrics, table, metadata(pinned, affinity))


def _result(
    workload: Workload, traced: bool, tally: Tally, metrics: dict, table: list, meta: dict
) -> dict:
    """The result record: what ``--out`` keeps and ``compare.py`` reads."""
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "scale": workload.scale,
        "R": len(table),
        "N": workload.ops,
        "traced": traced,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
        "rounds": [vars(row) for row in table],
        "metadata": meta,
    }


class _GcWatch:
    """Counts collections and their pause time through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.gen2_pauses = 0
        self.pause_s = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
        else:
            self.pause_s += perf_counter() - self._started
            self.gen2_pauses += info["generation"] == 2

    def __enter__(self) -> "_GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self)


def trace(workload_name: str, seed: int, scale: float = 1.0) -> dict:
    """The traced run: a few untraced rounds, one round with spans, the ladder."""
    pinned, affinity = procs.pin_to_one_cpu()
    tally = Tally()
    workload, _ = set_up(WORKLOADS[workload_name], seed, scale, tally, setups=1)
    spans = Spans()
    try:
        untraced = [run_round(workload, r, tally) for r in range(TRACED_RUN_ROUNDS)]
        with _GcWatch() as collections:
            traced = run_round(workload, TRACED_RUN_ROUNDS, tally, spans)
        tally.add(*workload.verify())
        ladder = Ladder(workload, spans)
        ladder.run(workload.client)
        tally.add(ladder.attempted, ladder.failed)
        # The ladder replays a sample of the requests; compare it with the
        # untraced latencies of exactly those requests.
        sample = set(ladder.indices)
        sampled = [
            latency
            for r, latencies in enumerate(untraced)
            for position, latency in enumerate(latencies)
            if workload.request_index(r, position) in sample
        ]
    finally:
        workload.close()
        spans.write(os.path.join(OUT_DIR, f"{workload_name}.spans.jsonl"))
    table = [estimator.summarise_round(latencies) for latencies in untraced]
    untraced_ms = sum(row.mean_ms for row in table) / len(table)
    sampled_ms = sum(sampled) / len(sampled) * 1e3
    metrics = dict(ladder.metrics)
    metrics["bench.span_overhead_ratio"] = (
        estimator.summarise_round(traced).mean_ms / untraced_ms, "ratio")
    attributed_ms = ladder.attributed_ms + collections.pause_s / len(traced) * 1e3
    metrics["bench.unattributed_ratio"] = (
        (sampled_ms - attributed_ms) / sampled_ms, "ratio")
    metrics["bench.round_spread"] = (estimator.round_spread(table), "ratio")
    metrics["bench.gc_gen2_pauses"] = (collections.gen2_pauses, "count")
    metrics["bench.gc_pause_s"] = (collections.pause_s, "s")
    return _result(
        workload, True, tally, dict(sorted(metrics.items())), table,
        metadata(pinned, affinity),
    )
