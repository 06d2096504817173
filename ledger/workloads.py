"""The four workloads: closed loop, one caller, one request in flight.

Each workload generates its inputs from the seed, hands the program only
XML text, query text and store keys, and checks every answer off the
clock.  ``op`` is the timed operation; everything else in a workload runs
outside the timed section.

========================  =====================================================
``embedded_core``         in-process Core XPath, plan cache overflowed: parser,
                          classifier, planner and the linear-time kernels are
                          most of an operation
``embedded_xpath``        in-process full XPath on context-value tables: a
                          different evaluator generation, no id kernels
``serve_tcp``             the shipped deployment (``repro serve --listen``) on a
                          hot set: evaluation is a small share, the hops are not
``ingest_cold_start``     the write side: ``put`` a never-seen document, then
                          the first query on an engine that must hydrate it
========================  =====================================================
"""

from __future__ import annotations

import os
import shutil
import zlib
from array import array
from typing import Any, Callable, Optional, Sequence

from repro import CorpusStore, StoreKey, XPathEngine
from repro.serving import ServingClient
from repro.store import shard_of

from ledger import corpus, queries
from ledger.procs import ServeProcess
from ledger.queries import Request

Call = Callable[..., Any]


def direct(_name: str, fn: Callable[..., Any], *args, **kwargs):
    """The untraced ``call``: no span, just the call."""
    return fn(*args, **kwargs)


def observe(answer, scalar: bool) -> tuple:
    """Reduce an answer to ``(cardinality or value, checksum of the ids)``."""
    if scalar:
        return (answer.value, 0)
    ids = answer.ids
    return (len(ids), zlib.crc32(array("i", ids).tobytes()))


class Workload:
    """Shared bookkeeping: requests, per-answer checks, a scratch directory."""

    name = ""
    #: The issue's R and N: rounds at full length, operations per round.
    full_rounds = 12
    ops_per_round = 0
    #: A live connection to a server over ``self.store``, where the workload has one.
    client: Optional[ServingClient] = None

    def __init__(self, seed: int, scale: float, workdir: str) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.ops = max(8, round(self.ops_per_round * scale))
        self.requests: list[Request] = []
        self._seen: dict[int, tuple] = {}

    def scaled(self, size: int, floor: int) -> int:
        return max(floor, round(size * self.scale))

    # -- lifecycle (all off the clock) -----------------------------------------

    def setup(self) -> None:
        """Generate inputs, store them, start the engine or server."""
        raise NotImplementedError

    def begin_round(self, round_index: int) -> None:
        """Per-round preparation."""

    def close(self) -> None:
        """Stop what :meth:`setup` started and remove its files."""
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- the operation -----------------------------------------------------------

    def request_index(self, round_index: int, position: int) -> int:
        """Which request the ``position``-th operation of a round sends.

        Every round replays the same cyclic slice, so rounds differ only
        by what the machine did to them.
        """
        return position % len(self.requests)

    def op(self, index: int, call: Call = direct):
        """The timed operation for request ``index``; returns its answer."""
        raise NotImplementedError

    def check(self, index: int, answer) -> bool:
        """Off the clock: the facts' expectation, and the same answer as before."""
        request = self.requests[index]
        observed = observe(answer, request.scalar)
        if request.expected is not None and observed[0] != request.expected:
            return False
        return self._seen.setdefault(index, observed) == observed

    def verify(self) -> tuple[int, int]:
        """After the timed section: cross-check against another entry point.

        Returns ``(comparisons attempted, comparisons failed)``.
        """
        raise NotImplementedError

    # -- what the layer ladder needs ---------------------------------------------

    #: Requests the ladder replays through every rung.
    ladder_size = 192

    def ladder_indices(self) -> list[int]:
        """Indices of the requests the ladder replays (``self.store`` holds their keys)."""
        return list(range(min(self.ladder_size, len(self.requests))))

    def ladder_documents(self) -> list[corpus.GeneratedDocument]:
        """The documents the parser, index and store rungs re-ingest."""
        return self.documents

    def auction_document(self) -> corpus.GeneratedDocument:
        """An auction-shaped document held by ``self.store``."""
        return next(d for d in self.documents if d.kind == "auction")

    def plan_cache_counts(self) -> tuple[int, int]:
        """``(hits, misses)`` of the plan cache the timed operations went through."""
        plans = self.engine.stats().plans
        return plans.hits, plans.misses


#: The four document shapes: generator, full size, smallest size worth generating.
_SHAPES = {
    "auction": (corpus.auction_document, 730, 8),
    "config": (corpus.config_document, 850, 16),
    "wide": (corpus.wide_document, 8000, 24),
    "deep": (corpus.deep_document, 8000, 124),
}


def _shaped(kind: str, seed: int, scale: float, suffix: str = "") -> corpus.GeneratedDocument:
    """The ``kind`` document at ``scale`` of its full size, stored as ``kind + suffix``."""
    generate, full, floor = _SHAPES[kind]
    return generate(kind + suffix, seed, max(floor, round(full * scale)))


def _mismatches(requests: Sequence[Request], left: XPathEngine, right_engine: str) -> int:
    """Requests whose planner answer differs from ``right_engine``'s or the facts."""
    failed = 0
    for request in requests:
        document = StoreKey(request.key)
        planned = left.evaluate(request.query, document)
        other = left.evaluate(request.query, document, engine=right_engine)
        if request.scalar:
            same = planned.value == other.value == request.expected
        else:
            same = planned.ids == other.ids and len(planned.ids) == request.expected
        failed += not same
    return failed


class _Embedded(Workload):
    """In-process ``XPathEngine.evaluate(text, StoreKey(k))`` then the payload."""

    #: The oracle :meth:`verify` compares the planner's answer with.
    oracle = ""
    verify_sample = 0

    def setup(self) -> None:
        self.documents, self.requests = self.inputs()
        self.store = CorpusStore(os.path.join(self.workdir, "store"))
        for document in self.documents:
            self.store.put(document.xml, document.key)
        self.engine = XPathEngine().attach_store(self.store)
        #: What :meth:`verify` asks the oracle; keys must be in ``self.store``.
        self.oracle_requests = self.requests

    def inputs(self) -> tuple[list[corpus.GeneratedDocument], list[Request]]:
        raise NotImplementedError

    def op(self, index: int, call: Call = direct):
        request = self.requests[index]
        result = call(
            "op.engine.evaluate", self.engine.evaluate, request.query, StoreKey(request.key)
        )
        # Node materialisation is part of what an embedded caller pays.
        call("op.engine.materialise", getattr, result, "value")
        return result

    def verify(self) -> tuple[int, int]:
        # A second engine, so the oracle's runs stay out of the dispatch counts.
        checker = XPathEngine().attach_store(self.store)
        sample = self.oracle_requests[: self.verify_sample]
        failed = _mismatches(sample, checker, self.oracle)
        naive = self.engine.stats().dispatch.get("naive", 0)
        return len(sample) + 1, failed + (naive > 0)


class EmbeddedCore(_Embedded):
    name = "embedded_core"
    full_rounds, ops_per_round = 12, 4000
    oracle, verify_sample = "cvt", 48
    #: 1536 distinct texts: three times the default 512-entry plan cache.
    quotas = (512, 384, 320, 320)

    def inputs(self):
        documents = [_shaped(kind, self.seed, self.scale) for kind in _SHAPES]
        return documents, queries.core_requests(documents, self.quotas, self.seed)

    def setup(self) -> None:
        super().setup()
        # The oracle walks per node, so Core ≡ cvt is checked on small copies.
        small = [_shaped(kind, self.seed, self.scale / 16, "-small") for kind in _SHAPES]
        for document in small:
            self.store.put(document.xml, document.key)
        self.oracle_requests = queries.core_requests(small, self.quotas, self.seed)


class EmbeddedXPath(_Embedded):
    name = "embedded_xpath"
    full_rounds, ops_per_round = 12, 300
    oracle, verify_sample = "naive", 24
    #: One request on the small document for every two on the medium one,
    #: in that fixed pattern, so every slice of the stream has the same mix.
    quotas = (512, 1024)

    def inputs(self):
        documents = [
            corpus.auction_document("small", self.seed, self.scaled(90, 8)),
            corpus.auction_document("medium", self.seed, self.scaled(130, 12)),
        ]
        return documents, queries.xpath_requests(documents, self.quotas, self.seed)

    def request_index(self, round_index: int, position: int) -> int:
        # The stream runs on across rounds: a round is shorter than the plan
        # cache, and restarting it would turn every later round into hits.
        return (round_index * self.ops + position) % len(self.requests)


#: Keys tried for the `deep` document until it lands on the other shard.
_SHARD_RETRIES = 16


class ServeTcp(Workload):
    name = "serve_tcp"
    full_rounds, ops_per_round = 12, 3000
    workers = 2
    server: Optional[ServeProcess] = None

    def setup(self) -> None:
        self.store = CorpusStore(os.path.join(self.workdir, "store"))
        self.documents = [
            _shaped(kind, self.seed, self.scale) for kind in ("auction", "config", "wide")
        ]
        shards = {
            shard_of(self.store.put(d.xml, d.key).hash, self.workers)
            for d in self.documents
        }
        # Which shard a document lands on follows its content hash; redraw the
        # cheapest document until both workers serve part of the hot set.
        for attempt in range(_SHARD_RETRIES):
            deep = _shaped("deep", self.seed + attempt * 7919, self.scale)
            entry = self.store.put(deep.xml, deep.key)
            if len(shards | {shard_of(entry.hash, self.workers)}) > 1:
                break
        self.documents.append(deep)
        self.requests = queries.hot_requests(self.documents)
        self.server = ServeProcess(
            self.store.root, os.path.join(self.workdir, "serve.log"), self.workers
        )
        self.client = ServingClient(self.server.host, self.server.port)

    def op(self, index: int, call: Call = direct):
        request = self.requests[index]
        return call(
            "op.client.evaluate",
            self.client.evaluate,
            request.query,
            request.key,
            ids=not request.scalar,
        )

    def verify(self) -> tuple[int, int]:
        engine = XPathEngine().attach_store(self.store)
        failed = 0
        for index, request in enumerate(self.requests):
            local = engine.evaluate(
                request.query, StoreKey(request.key), ids=not request.scalar
            )
            failed += self._seen.get(index) != observe(local, request.scalar)
        server = self.client.server_stats()["server"]
        failed += server["errors"] + server["overloaded"] > 0
        failed += engine.stats().dispatch.get("naive", 0) > 0
        return len(self.requests) + 2, failed

    def plan_cache_counts(self) -> tuple[int, int]:
        pool = self.client.server_stats()["pool"]
        return pool["plan_hits"], pool["plan_misses"]

    def close(self) -> None:
        try:
            if self.client is not None:
                self.client.close()
        finally:
            if self.server is not None:
                self.server.stop()
            super().close()


class IngestColdStart(Workload):
    name = "ingest_cold_start"
    full_rounds, ops_per_round = 10, 240
    verify_sample = 24

    def setup(self) -> None:
        self.documents = corpus.ingest_documents(self.seed, self.ops, self.scale)
        self.requests = queries.ingest_requests(self.documents)
        self._round_dir: Optional[str] = None
        self.begin_round(-1)

    def begin_round(self, round_index: int) -> None:
        # A fresh store and a fresh engine: the manifest and the 64-document
        # registry LRU go through the same growth and evictions every round.
        if self._round_dir is not None:
            shutil.rmtree(self._round_dir, ignore_errors=True)
        self._round_dir = os.path.join(self.workdir, f"round{round_index}")
        self.store = CorpusStore(self._round_dir)
        self.engine = XPathEngine().attach_store(self.store, mmap=True)

    def op(self, index: int, call: Call = direct):
        document, request = self.documents[index], self.requests[index]
        call("op.store.put", self.store.put, document.xml, document.key)
        return call(
            "op.engine.evaluate",
            self.engine.evaluate,
            request.query,
            StoreKey(document.key),
            ids=True,
        )

    def verify(self) -> tuple[int, int]:
        # The same text parsed in memory must give what the hydrated snapshot gave.
        engine = XPathEngine()
        failed = 0
        sample = range(min(self.verify_sample, len(self.requests)))
        for index in sample:
            direct_answer = engine.evaluate(
                self.requests[index].query, self.documents[index].xml, ids=True
            )
            failed += self._seen.get(index) != observe(direct_answer, False)
        naive = self.engine.stats().dispatch.get("naive", 0)
        return len(sample) + 1, failed + (naive > 0)

    # Collection pauses are a fifth of this workload's time and land on few
    # operations, so the ladder replays the whole round, not a sample of it.
    ladder_size = ops_per_round


WORKLOADS = {
    cls.name: cls for cls in (EmbeddedCore, EmbeddedXPath, ServeTcp, IngestColdStart)
}
