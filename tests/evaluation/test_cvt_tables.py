"""Lifetime of the context-value tables and what ``table_entries()`` counts.

A table lives as long as its expression object (in an engine: as long as
the plan cache keeps the plan), keyed by ``id(expr)`` with a weak
reference that removes the entry when the expression dies.  The count of
tabulated tuples only grows, so it stays readable after the tables are
gone.
"""

import gc
import weakref

import pytest

from repro.engine import XPathEngine
from repro.evaluation import ContextValueTableEvaluator
from repro.xmlmodel import parse_xml
from repro.xpath.parser import parse

from tests.evaluation.test_cvt_setwise import CountingCvt

AS = 10
DOCUMENT = parse_xml("<r>" + "".join(f"<a n='{n}'><b>{n}</b></a>" for n in range(AS)) + "</r>")


def generic(i):
    """A distinct text whose predicate has no column: ``name()`` recurses per candidate."""
    return f"/r/a[name() = 'n{i}' or name() = 'a']"


#: Tables a :func:`generic` text owns: path, ``or``, two comparisons, two
#: ``name()`` and two literals.
TABLES_PER_TEXT = 8


def test_evicted_plans_leave_no_tables_behind():
    plan_cache_size = 16
    engine = XPathEngine(plan_cache_size=plan_cache_size)
    evaluators: dict = {}
    texts = 5000
    for i in range(texts):
        result = engine.evaluate_detached(generic(i), DOCUMENT, evaluators=evaluators)
        assert len(result.ids) == AS
    evaluator = evaluators["cvt"]
    # Exactly the plans still in the plan cache keep their tables: an evicted
    # plan's tables die with it, by reference count, not at the next run of
    # the cycle collector.
    assert evaluator.table_count() == len(evaluator._tables) == TABLES_PER_TEXT * plan_cache_size
    # The path, then seven sub-expressions per candidate.
    assert evaluator.table_entries() == texts * (1 + 7 * AS)


def test_hot_plans_keep_their_tables():
    engine = XPathEngine(plan_cache_size=16)
    evaluators = {"cvt": CountingCvt(DOCUMENT)}
    for query, scalar in ((generic(0), False), ("count(/descendant::b[. > 4])", True)):
        first = engine.evaluate_detached(query, DOCUMENT, evaluators=evaluators)
        evaluator = evaluators["cvt"]
        tables = dict(evaluator._tables)
        entries, frames = evaluator.table_entries(), evaluator.frames
        again = engine.evaluate_detached(query, DOCUMENT, evaluators=evaluators)
        assert again.cache_hit and again.value == first.value
        assert first.value == 5.0 if scalar else len(first.ids) == AS
        # One frame: the query's own table answers at the root context.
        assert evaluator.frames == frames + 1
        assert evaluator.table_entries() == entries
        assert evaluator._tables == tables


def test_a_recycled_id_never_returns_a_stale_table():
    evaluator = ContextValueTableEvaluator(DOCUMENT)
    seen: set[int] = set()
    recycled = 0
    for round_index in range(400):
        # Structurally different every round, so a stale table would be wrong.
        wanted = round_index % AS
        text = f"/r/a[name() = 'a' and number(b) = {wanted}]"
        expr = parse(text)
        tabulated = {id(node) for node in expr.walk()}
        recycled += bool(tabulated & seen)
        assert [n.get_attribute("n") for n in evaluator.evaluate_nodes(expr)] == [str(wanted)]
        seen |= tabulated
        del expr
        # The evaluator holds the expression it evaluated last, nothing older.
        assert 0 < evaluator.table_count() <= len(tabulated)
    if not recycled:  # pragma: no cover - CPython reuses freed blocks at once
        pytest.skip("the allocator never handed out a repeated id()")


def test_table_entries_outlive_the_tables():
    evaluator = ContextValueTableEvaluator(DOCUMENT)
    assert (evaluator.table_entries(), evaluator.table_count()) == (0, 0)
    evaluator.evaluate(generic(1))
    after_generic = evaluator.table_entries()
    assert after_generic == 1 + 7 * AS and evaluator.table_count() == TABLES_PER_TEXT
    # A column counts its domain: the comparison over the ten candidates.
    evaluator.evaluate("/r/a[b > 3]")
    assert evaluator.table_entries() == after_generic + 1 + AS
    assert evaluator.table_count() == 1  # the first query's tables died with its AST
    evaluator.evaluate("/r")
    assert evaluator.table_entries() == after_generic + 1 + AS + 1


def test_a_dropped_evaluator_is_freed_by_reference_counting():
    gc.collect()
    gc.disable()
    try:
        document = parse_xml("<r><a><b>1</b></a><a/></r>")
        evaluator = ContextValueTableEvaluator(document)
        plan_expr = parse("//a[name() = 'a'][b = 1][position() = last()]")
        assert len(evaluator.evaluate_nodes(plan_expr)) == 1
        reference = weakref.ref(evaluator)
        del evaluator
        assert reference() is None
        assert plan_expr is not None  # the expression outlives its tables' owner
    finally:
        gc.enable()
