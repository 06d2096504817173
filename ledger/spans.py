"""Benchmark-side spans: recorded around calls into the program's layers.

The traced run does not read the program's own ``trace=True`` spans, so
a later change to those cannot move a per-layer number.  A span is
``(name, start, end, parent, request_id)``; rows stay in memory and are
written out once, when the run ends.  A layer's self time is its span
minus the part its child spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable


class Spans:
    """An in-memory span table with a parent stack."""

    def __init__(self) -> None:
        self.rows: list[tuple[str, float, float, int, int]] = []
        self._open: list[int] = []

    def call(self, name: str, request_id: int, fn: Callable[..., Any], *args, **kwargs):
        """Run ``fn`` inside a span; the span is recorded even if it raises."""
        parent = self._open[-1] if self._open else -1
        index = len(self.rows)
        self.rows.append((name, 0.0, 0.0, parent, request_id))
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.rows[index] = (name, start, end, parent, request_id)

    def self_times(self) -> dict[str, list[float]]:
        """Span name -> self time (seconds) of each of its spans."""
        covered = [0.0] * len(self.rows)
        for _, start, end, parent, _ in self.rows:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _, _), children in zip(self.rows, covered):
            out[name].append(end - start - children)
        return out

    def write(self, path: str) -> None:
        """Write one JSON object per span."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request_id) in enumerate(self.rows):
                handle.write(
                    json.dumps(
                        {
                            "span": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request_id": request_id,
                        }
                    )
                    + "\n"
                )
