"""The perf ledger: the repository's benchmark.

Four single-CPU closed-loop workloads, a best-of-rounds estimator, and an
outside-in per-layer ladder.  See ``ledger/README.md``.
"""
