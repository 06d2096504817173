"""repro — a reproduction of "The Complexity of XPath Query Evaluation" (PODS 2003).

The package provides a complete XPath 1.0 engine built from scratch (XML
data model, parser, four evaluators with different complexity profiles),
the fragment classifiers of the paper (Core XPath, positive Core XPath,
PF, WF, pWF, pXPath), the complexity reductions behind its hardness
results, and a benchmark harness regenerating every figure/claim.

Quickstart::

    from repro import XPathEngine

    engine = XPathEngine()
    doc = engine.add("<a><b/><b><c/></b></a>")
    result = engine.evaluate("/descendant::b[child::c]", doc)
    nodes, ids = result.nodes, result.ids

See README.md for the overview, docs/engine.md for the session façade
(lifecycle, thread-safety, migration from the free functions),
docs/architecture.md for the data flow (parser → index → planner →
evaluators) and the id-set representation, docs/complexity.md for the
theorem-to-module map, docs/telemetry.md for metrics and per-query
tracing, and docs/benchmarks.md for running the experiment harness.
"""

from repro.engine import (
    DocHandle,
    EngineStats,
    QueryRequest,
    QueryResult,
    XPathEngine,
    default_engine,
)
from repro.evaluation import (
    Context,
    ContextValueTableEvaluator,
    CoreXPathEvaluator,
    NaiveEvaluator,
    SingletonSuccessChecker,
    evaluate,
    evaluate_nodes,
    make_evaluator,
    query_selects,
)
from repro.fragments import Classification, classify
from repro.planner import (
    PlanCache,
    QueryPlan,
    evaluate_many,
    evaluate_many_ids,
    get_plan,
    plan_query,
)
from repro.serving import (
    ServingError,
    ServingStats,
    ServingTimeout,
    ShardedPool,
    WorkerCrashed,
)
from repro.store import (
    CorpusStore,
    StoreKey,
    dump_snapshot,
    load_snapshot,
    snapshot_hash,
)
from repro.telemetry import (
    MetricsRegistry,
    SlowQueryLog,
    Trace,
    render_json,
    render_prometheus,
)
from repro.xmlmodel import (
    Document,
    DocumentBuilder,
    DocumentIndex,
    IdSet,
    build_tree,
    parse_xml,
    serialize,
)
from repro.xpath import parse, unparse

__version__ = "1.5.0"

__all__ = [
    "Classification",
    "Context",
    "ContextValueTableEvaluator",
    "CoreXPathEvaluator",
    "CorpusStore",
    "DocHandle",
    "Document",
    "DocumentBuilder",
    "DocumentIndex",
    "EngineStats",
    "IdSet",
    "MetricsRegistry",
    "NaiveEvaluator",
    "PlanCache",
    "QueryPlan",
    "QueryRequest",
    "QueryResult",
    "ServingError",
    "ServingStats",
    "ServingTimeout",
    "ShardedPool",
    "SingletonSuccessChecker",
    "SlowQueryLog",
    "StoreKey",
    "Trace",
    "WorkerCrashed",
    "XPathEngine",
    "build_tree",
    "classify",
    "default_engine",
    "dump_snapshot",
    "evaluate",
    "evaluate_many",
    "evaluate_many_ids",
    "evaluate_nodes",
    "get_plan",
    "load_snapshot",
    "make_evaluator",
    "parse",
    "parse_xml",
    "plan_query",
    "query_selects",
    "render_json",
    "render_prometheus",
    "serialize",
    "snapshot_hash",
    "unparse",
    "__version__",
]
