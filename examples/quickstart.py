"""Quickstart: the ``XPathEngine`` session façade, engines, and planning.

Run with ``python examples/quickstart.py``.  The engine is the one
stateful entry point: it registers documents (index forced once), plans
queries through its own LRU cache, keeps one evaluator per document and
engine kind, and answers with ``QueryResult`` objects carrying the
payload plus metadata (engine chosen, fragment, cache hit, wall time).
The final section shows a batch and the engine's counters.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import XPathEngine, evaluate_nodes, parse_xml  # noqa: E402

LIBRARY_XML = """
<library city="Vienna">
  <shelf topic="databases">
    <book year="2003"><title>The Complexity of XPath Query Evaluation</title></book>
    <book year="2002"><title>Efficient Algorithms for Processing XPath Queries</title></book>
  </shelf>
  <shelf topic="logic">
    <book year="1994"><title>Computational Complexity</title></book>
  </shelf>
</library>
"""


def main() -> None:
    engine = XPathEngine()
    doc = engine.add(LIBRARY_XML)
    print(f"Registered document with {doc.size} nodes\n")

    queries = [
        "/descendant::book[child::title]",
        "//shelf[not(child::book[attribute::year = '1994'])]",
        "count(//book)",
        "/child::library/child::shelf[position() = last()]/child::book",
    ]
    for query in queries:
        result = engine.evaluate(query, doc)
        if result.is_node_set:
            rendered = [node.name() or node.node_type.value for node in result.nodes]
        else:
            rendered = result.value
        print(f"query     : {query}")
        print(f"fragment  : {result.classification.most_specific} "
              f"({result.classification.combined_complexity} combined complexity)")
        print(f"engine    : {result.engine} "
              f"({'plan cache hit' if result.cache_hit else 'compiled'}, "
              f"{result.wall_time * 1e3:.2f} ms)")
        print(f"result    : {rendered}\n")

    # The same node-set query evaluated by each engine that accepts it —
    # both through the engine façade and the legacy free function.
    core_query = "/descendant::book[child::title]"
    document = parse_xml(LIBRARY_XML)
    for kind in ("cvt", "naive", "core", "singleton"):
        nodes = evaluate_nodes(core_query, document, engine=kind)
        years = [node.get_attribute("year") for node in nodes]
        print(f"{kind:<10} engine selects books from years {years}")

    # A batch shares the registry, the plan cache and the document's
    # evaluators (one per engine kind), and answers exactly as one
    # evaluate() per request would.
    requests = [(query, doc) for query in queries] * 8
    batch = engine.evaluate_batch(requests)
    identical = all(
        result.value == engine.evaluate(query, target).value
        for result, (query, target) in zip(batch, requests)
    )
    print(f"\nbatch of {len(requests)}: identical to one request at a time: {identical}")

    print("\nengine counters after the session:")
    for line in engine.stats().describe().splitlines():
        print(f"  {line}")


if __name__ == "__main__":
    main()
