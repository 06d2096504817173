"""Differential property: a column predicate ≡ the per-node oracle, by value.

``cvt`` evaluates a position-free predicate of its column grammar once for
the whole candidate set: ``and`` / ``or`` / ``not`` as set algebra, a path
applied forward from all candidates and pulled back through the inverse
axes, string-values read from the columns, counts grouped by owner.  The
predicates generated here are that grammar — plus nested positional
predicates, which must send a value test back to the generic recursion —
wrapped so that the column is the only, a leading or a trailing predicate
of its step.  The expected side is :class:`NaiveEvaluator`, which walks one
context node at a time on node objects and shares none of this.

Unknown functions and wrong arities are leaves of the grammar too: both
evaluators must raise the same error class, and only if a candidate reaches
the call (``naive`` evaluates exactly what XPath's short-circuit reaches).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.evaluation import ContextValueTableEvaluator, NaiveEvaluator
from repro.xmlmodel import auction_document
from repro.xmlmodel.axes import CORE_XPATH_AXES
from repro.xmlmodel.kernels import available_backends, use_backend

from tests.evaluation.test_cvt_setwise import DOC

AUCTION = auction_document(sellers=4, items_per_seller=4, seed=3)

#: document, its tags, its attribute names, literals worth comparing with.
VOCABULARIES = {
    # Mixed content: an `a`'s string-value spans five text nodes.
    "sections": (DOC, ("a", "b", "c", "d"), ("id", "n", "k"), ("x", "a3", "3", "")),
    "auction": (
        AUCTION,
        ("open_auction", "bidder", "increase", "initial", "item", "person", "name"),
        ("id", "region", "person"),
        ("europe", "Seller 2", "item number 7", "auction1"),
    ),
}

AXES = sorted(CORE_XPATH_AXES)
OPERATORS = ("=", "!=", "<", "<=", ">", ">=")
NUMBERS = ("0", "1", "3", "7.5", "40", "-1")
POSITIONAL = ("[2]", "[last()]", "[position() mod 2 = 1]")
#: Calls that raise :class:`XPathTypeError` if evaluation reaches them; under
#: ``and`` / ``or`` the predicate they sit in is still position-free and boolean.
ILL_FORMED = ("nosuch()", "count()", "not(., .)", "true() and nosuch()", "false() or count()")


def predicates(tags, attributes, literals):
    """Strategy for predicate texts of the column grammar over one vocabulary."""
    node_tests = st.sampled_from(tags + ("*", "node()", "text()"))
    constants = st.sampled_from(NUMBERS + tuple(f"'{text}'" for text in literals))
    quoted = st.sampled_from(tuple(f"'{text}'" for text in literals))

    def paths(nested):
        step = st.builds(
            "{}::{}{}".format,
            st.sampled_from(AXES),
            node_tests,
            st.one_of(st.just(""), nested.map("[{}]".format), st.sampled_from(POSITIONAL)),
        )
        attribute = st.sampled_from(
            ("",) + tuple(f"/attribute::{name}" for name in attributes + ("*", "node()"))
        )
        return st.builds(
            lambda steps, last: "/".join(steps) + last if steps else (last[1:] or "."),
            st.lists(step, min_size=0, max_size=2),
            attribute,
        )

    def chains(nested):
        """Child/self chains: what counts and first targets are grouped by owner for."""
        step = st.builds(
            "{}::{}{}".format,
            st.sampled_from(("child", "child", "self")),
            node_tests,
            st.one_of(st.just(""), nested.map("[{}]".format), st.sampled_from(POSITIONAL)),
        )
        return st.lists(step, min_size=1, max_size=2).map("/".join)

    def strings(nested):
        named = st.sampled_from(attributes).map("attribute::{}".format)
        return st.one_of(
            chains(nested),
            named,
            st.builds("{}/{}".format, chains(nested), named),
            chains(nested).map("string({})".format),
        )

    def extend(nested):
        counts = chains(nested).map("count({})".format)
        return st.one_of(
            st.builds("{} and {}".format, nested, nested),
            st.builds("{} or {}".format, nested, nested),
            nested.map("not({})".format),
            nested.map("boolean({})".format),
            paths(nested),
            st.builds("{} {} {}".format, paths(nested), st.sampled_from(OPERATORS), constants),
            st.builds("{} {} {}".format, constants, st.sampled_from(OPERATORS), paths(nested)),
            st.builds("{} {} {}".format, counts, st.sampled_from(OPERATORS), st.sampled_from(NUMBERS)),
            st.builds("{} + {} > {}".format, counts, counts, st.sampled_from(NUMBERS)),
            st.builds("starts-with({}, {})".format, strings(nested), quoted),
            st.builds("contains({}, {})".format, strings(nested), quoted),
            st.builds(
                "string-length({}) {} {}".format,
                strings(nested), st.sampled_from(OPERATORS), st.sampled_from(NUMBERS),
            ),
        )

    leaves = st.one_of(
        node_tests.map("child::{}".format),
        st.sampled_from(attributes).map("attribute::{}".format),
        st.sampled_from(("true()", "false()") + ILL_FORMED),
    )
    return st.recursive(leaves, extend, max_leaves=5)


def queries(vocabulary):
    _, tags, attributes, literals = VOCABULARIES[vocabulary]
    selected = st.sampled_from(tags + ("*",))
    predicate = predicates(tags, attributes, literals)
    offsets = st.integers(min_value=0, max_value=3)
    return st.one_of(
        st.builds("//{}[{}]".format, selected, predicate),
        st.builds("//{}[{}][position() + {} = last()]".format, selected, predicate, offsets),
        st.builds("//{}[position() = last()][{}]".format, selected, predicate),
        st.builds("count(//{}[{}])".format, selected, predicate),
    )


#: Built once: constructing the strategy costs more than drawing from it.
QUERIES = {vocabulary: queries(vocabulary) for vocabulary in VOCABULARIES}


def outcome(evaluator_class, document, query):
    """The value of ``query``, or the class of the error evaluating it raises."""
    try:
        return evaluator_class(document).evaluate(query)
    except ReproError as error:
        return type(error)


@pytest.mark.parametrize("vocabulary", sorted(VOCABULARIES))
@given(st.data())
@settings(max_examples=300, deadline=None)
def test_column_predicates_equal_naive(vocabulary, data):
    document = VOCABULARIES[vocabulary][0]
    query = data.draw(QUERIES[vocabulary])
    expected = outcome(NaiveEvaluator, document, query)
    for backend in available_backends():
        with use_backend(backend):
            assert outcome(ContextValueTableEvaluator, document, query) == expected, backend
