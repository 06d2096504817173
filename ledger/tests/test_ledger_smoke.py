"""Smoke tests of the ledger (``python -m pytest ledger/tests -q``; not tier-1).

Every workload runs at 1/50 scale: a few seconds in all, enough to check
the shape of the results, the exact-repeat counters, the correctness
gate and the estimator — not the numbers.
"""

from __future__ import annotations

import json
import re

import pytest

from ledger import cli, corpus, estimator, harness, queries
from ledger.workloads import WORKLOADS

SCALE = 0.02
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Metrics that must repeat exactly for a fixed seed.
EXACT = re.compile(
    r"_per_query$|^serving\.wire\.result_bytes_per_query$"
    r"|^store\.snapshot_bytes_per_xml_byte$|^evaluation\.dispatch\."
)

with open(harness.procs.REPO_ROOT + "/BENCHMARK.json", encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


@pytest.fixture(autouse=True)
def _keep_affinity():
    """A run pins the process to one CPU; give the test runner its CPUs back."""
    import os

    saved = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    yield
    if saved is not None:
        os.sched_setaffinity(0, saved)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics(workload):
    result = harness.measure(workload, seed=7, seconds=20, scale=SCALE)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["failed"] == 0 and result["attempted"] >= result["R"] * result["N"]
    assert result["R"] == harness.MIN_ROUNDS
    assert result["metadata"]["pinned"] is True
    assert {"nproc", "affinity", "python", "numpy", "kernel_backend",
            "platform", "git_commit"} <= set(result["metadata"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_per_layer_metrics_and_exact_counters(workload):
    first = harness.trace(workload, seed=7, scale=SCALE)
    second = harness.trace(workload, seed=7, scale=SCALE)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {n: m["unit"] for n, m in first["metrics"].items()} == declared
    assert all(NAME.match(name) for name in declared)
    assert first["failed"] == 0 and second["failed"] == 0
    exact = [name for name in declared if EXACT.search(name)]
    assert len(exact) >= 8
    for name in exact:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["evaluation.dispatch.naive"]["value"] == 0


def test_same_seed_same_inputs_other_seed_other_inputs():
    def inputs(seed):
        documents = [
            corpus.auction_document("a", seed, 20),
            corpus.config_document("c", seed, 32),
            corpus.wide_document("w", seed, 48),
            corpus.deep_document("d", seed, 248),
        ]
        stream = queries.core_requests(documents, (64, 64, 64, 64), seed)
        return [d.xml for d in documents], [(r.query, r.key, r.expected) for r in stream]

    assert inputs(1) == inputs(1)
    xml_one, stream_one = inputs(1)
    xml_two, stream_two = inputs(2)
    assert all(a != b for a, b in zip(xml_one, xml_two))
    assert stream_one != stream_two
    assert all(len(x) == len(y) for x, y in zip(xml_one[2:], xml_two[2:]))


def test_planted_wrong_expectation_fails_the_run(monkeypatch, capsys):
    real = queries.hot_requests

    def planted(documents):
        requests = real(documents)
        wrong = requests[0]
        requests[0] = queries.Request(wrong.query, wrong.key, wrong.expected + 1)
        return requests

    monkeypatch.setattr(queries, "hot_requests", planted)
    code = cli.main(
        ["run", "--workload", "serve_tcp", "--seed", "7", "--scale", str(SCALE)]
    )
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert last["failed"] > 0 and last["correct"] is False


def test_estimator_picks_each_metrics_best_round():
    # Eight rounds; the best qps, p50 and p95 sit in three different rounds.
    rounds = [
        estimator.RoundSummary(
            qps=100 + i, p50_ms=10 + (i + 3) % 8, p95_ms=20 + (i + 5) % 8, mean_ms=11 + i
        )
        for i in range(8)
    ]
    best = estimator.best_round(rounds)
    assert best == {"qps": 107, "p50_ms": 10, "p95_ms": 20}
    assert estimator.round_spread(rounds) == pytest.approx(3.5 / 103.5)
    one = estimator.summarise_round([0.001 * (i + 1) for i in range(100)])
    assert one.p50_ms == pytest.approx(50.0) and one.p95_ms == pytest.approx(95.0)
    assert one.qps == pytest.approx(100 / 5.05)


def test_last_stdout_line_is_the_contract(capsys):
    code = cli.main(
        ["run", "--workload", "embedded_xpath", "--seed", "3", "--scale", str(SCALE)]
    )
    out = capsys.readouterr().out.strip().splitlines()
    last = json.loads(out[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert any(line.startswith("qps") and line.endswith("1/s") for line in out)
