"""Shared helpers for the benchmark harness.

Every benchmark module corresponds to one experiment id from DESIGN.md's
per-experiment index and does two things:

* it registers ``pytest-benchmark`` timings for the operations the paper
  reasons about (so ``pytest benchmarks/ --benchmark-only`` regenerates the
  numbers), and
* it prints the paper-shaped series/table it reproduces through
  :func:`report`, which writes to the terminal even under pytest's output
  capture at the end of the run (use ``-s`` to see the tables inline).

The committed performance record is the ledger (``python3 -m ledger
run``, ``BENCH_ledger.jsonl``), not these timings.
"""

import sys

import pytest

_REPORTS: list[str] = []


def report(title: str, body: str) -> None:
    """Queue a formatted experiment report for printing at the end of the session."""
    _REPORTS.append(f"\n=== {title} ===\n{body}")


@pytest.fixture(scope="session", autouse=True)
def _print_reports_at_session_end():
    yield
    if _REPORTS:
        sys.stdout.write("\n".join(_REPORTS) + "\n")
