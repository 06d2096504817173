"""``python ledger/compare.py A.jsonl B.jsonl`` — apply the bounds to two result sets.

Each file holds the results ``python -m ledger run --out FILE`` appended,
one JSON object per line.  For every (workload, end-to-end metric) pair
the verdict is

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread of either side (distance between
  its quartiles over its median) is wider than the bound, so a difference
  of that size could not be told from noise;
* ``ok``         — otherwise.

The bounds are the ones ``BENCHMARK.json`` fixes.  Exit code 0 only when
every pair is ``ok``.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from statistics import median, quantiles

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)
#: Results are comparable only when these agree.
SAME = ("scale", "R", "N")
SAME_METADATA = ("pinned", "nproc", "python", "numpy", "kernel_backend")


def load(path: str) -> dict[str, list[dict]]:
    """Untraced results by workload."""
    by_workload: dict[str, list[dict]] = defaultdict(list)
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                result = json.loads(line)
                if not result["traced"]:
                    by_workload[result["workload"]].append(result)
    return by_workload


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def verdict(before: list[float], after: list[float], better: str, bound: float) -> str:
    base, new = median(before), median(after)
    worse = (new - base) / base if better == "lower" else (base - new) / base
    if worse > bound:
        return "regressed"
    if max(spread(before), spread(after)) > bound:
        return "unresolved"
    return "ok"


def _settings(results: list[dict]) -> set:
    return {
        tuple(r[k] for k in SAME) + tuple(r["metadata"][k] for k in SAME_METADATA)
        for r in results
    }


def report(before_path: str, after_path: str) -> int:
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        bounds = json.load(handle)["end_to_end"]
    before, after = load(before_path), load(after_path)
    bad = 0
    print(f"{'workload':<20}{'metric':<14}{'A median':>12}{'B median':>12}"
          f"{'change':>9}{'spread A':>10}{'spread B':>10}{'bound':>7}  verdict")
    for workload in sorted(set(before) & set(after)):
        if len(_settings(before[workload] + after[workload])) != 1:
            print(f"{workload:<20}not comparable: the runs differ in "
                  f"{', '.join(SAME + SAME_METADATA)}")
            bad += 1
            continue
        for metric in bounds:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in before[workload]]
            b = [r["metrics"][name]["value"] for r in after[workload]]
            outcome = verdict(a, b, metric["better"], metric["bound"])
            bad += outcome != "ok"
            print(
                f"{workload:<20}{name:<14}{median(a):>12.4g}{median(b):>12.4g}"
                f"{(median(b) - median(a)) / median(a):>+9.1%}"
                f"{spread(a):>10.1%}{spread(b):>10.1%}{metric['bound']:>7.0%}  {outcome}"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(report(sys.argv[1], sys.argv[2]))
