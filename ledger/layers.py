"""The per-layer ladder of the traced run, measured from outside the program.

Every number here comes from timing a call into one layer's public
functions from this file, inside a :class:`ledger.spans.Spans` span; the
program's own ``trace=True`` spans are not read.  Layer = module name.
Times are means over the workload's own request list, so they add; counts
repeat exactly for a fixed seed.

The ladder goes outside-in over one request list: ``engine.evaluate`` →
in-process ``ShardedPool.evaluate_batch`` → TCP.  Each rung's self time
is the difference of the rungs' totals, so for ``serve_tcp`` the rungs
sum to the wall time by construction.  The answers of the three rungs
must be identical; a mismatch is a failed operation.
"""

from __future__ import annotations

import gc
import os
from statistics import fmean
from time import perf_counter
from typing import Optional, Sequence

from repro import (
    CorpusStore,
    IdSet,
    ShardedPool,
    StoreKey,
    XPathEngine,
    classify,
    dump_snapshot,
    load_snapshot,
    parse,
    parse_xml,
    plan_query,
)
from repro.serving import ServingClient, wire

from ledger.procs import ServeProcess
from ledger.queries import Request, fragment_probes
from ledger.spans import Spans
from ledger.workloads import Workload, observe

AXES = ("child", "parent", "descendant", "ancestor", "following-sibling", "following")
#: Documents whose kernels are timed (an ingest run names hundreds of keys).
KERNEL_DOCUMENTS = 4
PING_COUNT = 50
PIPELINE_WINDOW = 16
PIPELINE_OPS = 960


class Ladder:
    """Runs the probes for one workload and collects ``name -> (value, unit)``."""

    def __init__(self, workload: Workload, spans: Spans) -> None:
        self.workload = workload
        self.spans = spans
        self.indices = workload.ladder_indices()
        self.requests = [workload.requests[i] for i in self.indices]
        self.store: CorpusStore = workload.store
        self.engine = XPathEngine().attach_store(self.store)
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        #: Sum of the layer self times on one operation's blocking path, in ms
        #: (collection pauses excluded: the harness adds the traced round's).
        self.attributed_ms = 0.0
        self._ingested = (0, 0.0, 0.0, 0.0)  # documents, knodes, XML bytes, snapshot bytes
        self._batch16_ms = 0.0

    # -- helpers -------------------------------------------------------------------

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def _evaluate(self, entry, request: Request):
        """One request through ``engine.evaluate``-shaped ``entry``."""
        return entry(request.query, request.key, ids=not request.scalar)

    def _engine_entry(self, query: str, key: str, ids: bool, **kwargs):
        return self.engine.evaluate(query, StoreKey(key), ids=ids, **kwargs)

    def _same_answers(self, answers: Sequence[tuple], reference: Sequence[tuple]) -> None:
        self.attempted += len(answers)
        self.failed += sum(a != b for a, b in zip(answers, reference))

    # -- xpath, fragments, planner ---------------------------------------------------

    def front_end(self) -> list:
        call = self.spans.call
        plans = []
        for rid, request in enumerate(self.requests):
            expr = call("xpath.parse", rid, parse, request.query)
            call("fragments.classify", rid, classify, expr)
            plans.append(call("planner.plan_query", rid, plan_query, request.query))
        return plans

    # -- evaluation ------------------------------------------------------------------

    def evaluation(self, requests: Sequence[Request], plans: Sequence, first_rid: int) -> None:
        """Cold ``QueryPlan.run_ids`` (core) or ``run`` (cvt) with our own evaluators."""
        pooled: dict[str, dict] = {}
        requests_by_engine = {"core": 0, "cvt": 0}

        def work_units(evaluators: dict) -> dict[str, int]:
            core, cvt = evaluators.get("core"), evaluators.get("cvt")
            return {
                "core": core.axis_applications if core is not None else 0,
                "cvt": cvt.table_entries() if cvt is not None else 0,
            }

        done = {"core": 0, "cvt": 0}
        for rid, (request, plan) in enumerate(zip(requests, plans), first_rid):
            # The first add of a key hydrates its snapshot; later ones are hits.
            add = "engine.hydrate" if request.key not in pooled else "engine.add_warm"
            document = self.spans.call(
                add, rid, self.engine.add, StoreKey(request.key)
            ).document
            evaluators = pooled.setdefault(request.key, {})
            before = work_units(evaluators)
            run = plan.run_ids if plan.engine == "core" else plan.run
            self.spans.call(
                f"evaluation.{plan.engine}", rid, run, document, evaluators=evaluators
            )
            requests_by_engine[plan.engine] += 1
            done[plan.engine] += work_units(evaluators)[plan.engine] - before[plan.engine]
        for engine, name in (
            ("core", "evaluation.axis_applications_per_query"),
            ("cvt", "evaluation.cvt_table_entries_per_query"),
        ):
            if requests_by_engine[engine]:
                self.put(name, done[engine] / requests_by_engine[engine], "count")

    # -- engine ----------------------------------------------------------------------

    def engine_rung(self) -> list[tuple]:
        """Hot ``engine.evaluate`` against a direct warm ``run_ids``: the façade's cost.

        One pass per thing measured, so every pass meets the same caches.
        """
        call = self.spans.call
        for request in self.requests:  # fill the plan cache and the condition sets
            self._evaluate(self._engine_entry, request)
        results = [
            call("ladder.engine", rid, self._evaluate, self._engine_entry, request)
            for rid, request in enumerate(self.requests)
        ]
        warm: dict[str, dict] = {}
        for rid, (request, result) in enumerate(zip(self.requests, results)):
            plan = self.engine.get_plan(request.query)
            run = plan.run if request.scalar else plan.run_ids
            evaluators = warm.setdefault(request.key, {})
            run(result.document, evaluators=evaluators)
            call("ladder.run_warm", rid, run, result.document, evaluators=evaluators)
        for rid, (request, result) in enumerate(zip(self.requests, results)):
            if result.engine == "core" and not request.scalar:
                call("engine.materialise_ids", rid, getattr, result, "nodes")
        for rid, request in enumerate(self.requests):
            call("ladder.engine_traced", rid, self._engine_entry,
                 request.query, request.key, not request.scalar, trace=True)
        sizes = [len(r.ids) for q, r in zip(self.requests, results) if not q.scalar]
        self.put("engine.result_ids_per_query", fmean(sizes), "count")
        return [observe(r, q.scalar) for q, r in zip(self.requests, results)]

    # -- xmlmodel.kernels ------------------------------------------------------------

    def kernels(self) -> None:
        call = self.spans.call
        keys = list(dict.fromkeys(request.key for request in self.requests))
        for key in keys[:KERNEL_DOCUMENTS]:
            index = self.engine.add(StoreKey(key)).document.index
            universe = index.size
            elements = index.test_idset("*")
            tags = sorted(index.ids_by_tag)
            partitions = [index.test_idset(tag) for tag in tags]
            for tag, partition in zip(tags, partitions):
                for axis in AXES:
                    call(f"kernels.axis.{axis}", -1, index.axis_idset, axis, partition)
                call("kernels.filter", -1, index.filter_idset, elements, "child", tag)
            by_size = sorted(partitions, key=len)
            pairs = (
                ("kernels.algebra_sparse", by_size[0], by_size[len(by_size) // 2]),
                ("kernels.algebra_dense", elements,
                 IdSet.from_range(universe // 4, universe, universe)),
            )
            for name, left, right in pairs:
                # Fresh wrappers: an IdSet caches its other materialisation.
                fresh = lambda s: IdSet.from_sorted(s.ids, universe)
                call(name, -1, lambda a, b: a & b, fresh(left), fresh(right))
                call(name, -1, lambda a, b: a | b, fresh(left), fresh(right))
                call(name, -1, lambda a, b: a - b, fresh(left), fresh(right))
                call(name, -1, lambda a: a.complement(), fresh(left))

    # -- xmlmodel.parser, xmlmodel.index, store ---------------------------------------

    def ingest(self) -> None:
        call = self.spans.call
        scratch = CorpusStore(os.path.join(self.workload.workdir, "ladder-store"))
        documents = self.workload.ladder_documents()
        knodes = xml_bytes = snapshot_bytes = 0.0
        for n, generated in enumerate(documents):
            document = call("xmlmodel.parser.parse_xml", n, parse_xml, generated.xml)
            call("xmlmodel.index.build", n, getattr, document, "index")
            blob = call("store.dump_snapshot", n, dump_snapshot, document)
            call("store.load_snapshot", n, load_snapshot, blob)
            call("store.load_snapshot_lazy", n, load_snapshot, blob, lazy=True)
            call("store.put", n, scratch.put, generated.xml, generated.key)
            call("store.get", n, scratch.get, generated.key, mmap=True)
            knodes += len(document.nodes) / 1000
            xml_bytes += len(generated.xml.encode("utf-8"))
            snapshot_bytes += len(blob)
        self._ingested = (len(documents), knodes, xml_bytes, snapshot_bytes)

    # -- serving.wire ----------------------------------------------------------------

    def wire(self) -> None:
        call = self.spans.call
        sizes = []
        for rid, request in enumerate(self.requests):
            result = self._evaluate(self._engine_entry, request)
            frame = call("wire.encode_query", rid, wire.encode_query,
                         rid, request.key, request.query, ids_only=not request.scalar)
            call("wire.decode", rid, wire.decode, frame)
            if request.scalar:
                reply = call("wire.encode_result", rid, wire.encode_result_value,
                             rid, result.value)
            else:
                reply = call("wire.encode_result", rid, wire.encode_result_ids,
                             rid, result.ids)
            call("wire.decode", rid, wire.decode, reply)
            sizes.append(len(reply))
        self.put("serving.wire.result_bytes_per_query", fmean(sizes), "B")

    # -- serving.pool ----------------------------------------------------------------

    def pool_rung(self, reference: Sequence[tuple]) -> None:
        call = self.spans.call
        started = perf_counter()
        with ShardedPool(self.store, workers=2) as pool:
            self.put("serving.pool.warm_s", perf_counter() - started, "s")
            entry = lambda query, key, ids: pool.evaluate_batch([(query, key)], ids=ids)[0]
            for request in self.requests:
                self._evaluate(entry, request)
            answers = [
                observe(call("ladder.pool", rid, self._evaluate, entry, request), request.scalar)
                for rid, request in enumerate(self.requests)
            ]
            self._same_answers(answers, reference)
            pairs = [(request.query, request.key) for request in self.requests]
            batch_started = perf_counter()
            for offset in range(0, len(pairs), PIPELINE_WINDOW):
                call("ladder.pool_batch16", -1, pool.evaluate_batch,
                     pairs[offset : offset + PIPELINE_WINDOW])
            self._batch16_ms = (perf_counter() - batch_started) / len(pairs) * 1e3
            stats = pool.stats()
        self.put("serving.pool.restarts", stats.restarts, "count")

    # -- serving.server --------------------------------------------------------------

    def tcp_rung(self, client: ServingClient, reference: Sequence[tuple]) -> None:
        call = self.spans.call
        for request in self.requests:
            self._evaluate(client.evaluate, request)
        answers = [
            observe(call("ladder.tcp", rid, self._evaluate, client.evaluate, request),
                    request.scalar)
            for rid, request in enumerate(self.requests)
        ]
        self._same_answers(answers, reference)
        for _ in range(PING_COUNT):
            call("ladder.ping", -1, client.ping)
        # Diagnostic only: pipelining measured 9 % apart on identical code.
        pairs = [(request.query, request.key) for request in self.requests]
        pairs = (pairs * (PIPELINE_OPS // len(pairs) + 1))[:PIPELINE_OPS]
        saved, client.window = client.window, PIPELINE_WINDOW
        try:
            started = perf_counter()
            client.evaluate_batch(pairs)
            elapsed = perf_counter() - started
        finally:
            client.window = saved
        self.put("serving.server.pipelined_qps", len(pairs) / elapsed, "1/s")
        self.put("serving.server.overloaded",
                 client.server_stats()["server"]["overloaded"], "count")

    # -- putting it together -----------------------------------------------------------

    def run(self, client: Optional[ServingClient]) -> None:
        """Run every probe with the collector off.

        Collection pauses land on whichever call happens to allocate the
        threshold-crossing object, so inside a probe they would be charged
        to an arbitrary layer.  The traced round measures them on their own
        (``bench.gc_pause_s``) and the harness adds them to the blocking path.
        """
        gc.collect()
        gc.disable()
        try:
            self._run(client)
        finally:
            gc.enable()

    def _run(self, client: Optional[ServingClient]) -> None:
        plans = self.front_end()
        self.evaluation(self.requests, plans, 0)
        # Every traced run reports both evaluators: a list that never reaches
        # one of them borrows a few fixed probes on its own auction document.
        engines = {plan.engine for plan in plans}
        probes = [
            probe
            for probe in fragment_probes(self.workload.auction_document())
            if plan_query(probe.query).engine not in engines
        ]
        self.evaluation(probes, [plan_query(p.query) for p in probes], len(self.requests))
        reference = self.engine_rung()
        for rid, probe in enumerate(probes, len(self.requests)):
            result = self._evaluate(self._engine_entry, probe)
            self.attempted += 1
            self.failed += observe(result, probe.scalar)[0] != probe.expected
            if result.engine == "core":
                self.spans.call("engine.materialise_ids", rid, getattr, result, "nodes")
        self.kernels()
        gc.collect()
        self.ingest()
        gc.collect()
        self.wire()
        self.pool_rung(reference)
        if client is not None:
            self.tcp_rung(client, reference)
        else:
            server = ServeProcess(
                self.store.root, os.path.join(self.workload.workdir, "ladder-serve.log")
            )
            try:
                with ServingClient(server.host, server.port) as own:
                    self.tcp_rung(own, reference)
            finally:
                server.stop()
        self._derive(plans)

    def _derive(self, plans: Sequence) -> None:
        times = self.spans.self_times()
        put = self.put

        def ms(name: str) -> float:
            return fmean(times[name]) * 1e3 if name in times else 0.0

        def us(name: str) -> float:
            return ms(name) * 1e3

        parse_ms, classify_ms = ms("xpath.parse"), ms("fragments.classify")
        plan_self_ms = ms("planner.plan_query") - parse_ms - classify_ms
        put("xpath.parse_ms", parse_ms, "ms")
        put("xpath.chars_per_query", fmean(len(r.query) for r in self.requests), "count")
        put("fragments.classify_ms", classify_ms, "ms")
        put("planner.plan_self_ms", plan_self_ms, "ms")
        hits, misses = self.workload.plan_cache_counts()
        put("planner.cache_hit_ratio", hits / max(1, hits + misses), "ratio")

        put("evaluation.core_eval_ms", ms("evaluation.core"), "ms")
        put("evaluation.cvt_eval_ms", ms("evaluation.cvt"), "ms")
        dispatch = self.engine.stats().dispatch
        for engine in ("core", "cvt", "naive"):
            put(f"evaluation.dispatch.{engine}", dispatch.get(engine, 0), "count")
        self.attempted += 1
        self.failed += dispatch.get("naive", 0) > 0

        for axis in AXES:
            put(f"xmlmodel.kernels.axis_us.{axis}", us(f"kernels.axis.{axis}"), "us")
        put("xmlmodel.kernels.algebra_sparse_us", us("kernels.algebra_sparse"), "us")
        put("xmlmodel.kernels.algebra_dense_us", us("kernels.algebra_dense"), "us")
        put("xmlmodel.kernels.filter_us", us("kernels.filter"), "us")

        engine_ms = ms("ladder.engine")
        overhead_ms = engine_ms - ms("ladder.run_warm")
        materialise_ms = ms("engine.materialise_ids")
        put("engine.overhead_ms", overhead_ms, "ms")
        put("engine.hydrate_ms", ms("engine.hydrate"), "ms")
        put("engine.materialise_ms", materialise_ms, "ms")

        count, knodes, xml_bytes, snapshot_bytes = self._ingested
        per_knode = lambda name: sum(times[name]) * 1e3 / knodes
        put("xmlmodel.parser.parse_ms_per_knode", per_knode("xmlmodel.parser.parse_xml"), "ms")
        put("xmlmodel.parser.mb_per_s",
            xml_bytes / 1e6 / sum(times["xmlmodel.parser.parse_xml"]), "MB/s")
        put("xmlmodel.index.build_ms_per_knode", per_knode("xmlmodel.index.build"), "ms")
        put("store.dump_ms_per_knode", per_knode("store.dump_snapshot"), "ms")
        put("store.load_ms_per_knode", per_knode("store.load_snapshot"), "ms")
        put("store.load_lazy_ms_per_knode", per_knode("store.load_snapshot_lazy"), "ms")
        put("store.put_self_ms",
            ms("store.put") - ms("xmlmodel.parser.parse_xml")
            - ms("xmlmodel.index.build") - ms("store.dump_snapshot"), "ms")
        put("store.get_ms", ms("store.get"), "ms")
        put("store.snapshot_bytes_per_xml_byte", snapshot_bytes / xml_bytes, "ratio")

        put("serving.wire.encode_query_us", us("wire.encode_query"), "us")
        put("serving.wire.encode_result_us", us("wire.encode_result"), "us")
        put("serving.wire.decode_us", us("wire.decode"), "us")

        pool_ms, tcp_ms = ms("ladder.pool"), ms("ladder.tcp")
        put("serving.pool.hop_ms", pool_ms - engine_ms, "ms")
        put("serving.pool.batch16_hop_ms", self._batch16_ms - engine_ms, "ms")
        put("serving.server.hop_ms", tcp_ms - pool_ms, "ms")
        put("serving.server.ping_rtt_ms", ms("ladder.ping"), "ms")

        put("telemetry.traced_query_overhead_ratio",
            ms("ladder.engine_traced") / engine_ms, "ratio")

        # What one operation of this workload blocks on, layer by layer.
        # Probes only ever fill in an engine the own list never reaches, so the
        # spans of the engines it does reach are all its own.
        own_eval_ms = fmean(
            t for engine in {plan.engine for plan in plans}
            for t in times[f"evaluation.{engine}"]
        ) * 1e3
        front_end_ms = parse_ms + classify_ms + plan_self_ms
        if self.workload.name == "serve_tcp":
            self.attributed_ms = tcp_ms
        elif self.workload.name == "ingest_cold_start":
            # put (parse + index + dump + manifest), hydrate, plan hit, cold eval
            self.attributed_ms = (
                ms("store.put") + ms("engine.hydrate") + own_eval_ms + overhead_ms
            )
        else:
            # Only id-native (core) answers are materialised after evaluation.
            materialised = sum(plan.engine == "core" for plan in plans) / len(plans)
            self.attributed_ms = (
                front_end_ms + own_eval_ms + overhead_ms + materialise_ms * materialised
            )
