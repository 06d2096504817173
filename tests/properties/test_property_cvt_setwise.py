"""Differential property: set-at-a-time cvt ≡ naive, by value.

Random documents with ``//`` frontiers of dozens of nodes, and random
two-step queries whose predicates cover the evaluator's cases: none,
position-free booleans (with and without a column),
``position()``/``last()``, and position-free values that are (or may be)
numbers and therefore select by proximity position.  The expected side is
:class:`NaiveEvaluator`, which walks one context node at a time and never
touches an id set; both kernel backends are driven in-process.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.evaluation import ContextValueTableEvaluator, NaiveEvaluator
from repro.xmlmodel.axes import CORE_XPATH_AXES
from repro.xmlmodel.generators import random_document
from repro.xmlmodel.kernels import available_backends, use_backend

from tests.properties.strategies import TAGS

NODE_TESTS = TAGS + ("*", "node()", "text()")

PREDICATES = (
    "",
    "[child::b]",
    "[not(@id) or self::a]",
    "[. = ../*]",
    "[2]",
    "[last()]",
    "[position() = last()]",
    "[position() mod 2 = 1]",
    "[count(child::*)]",
    "[string-length(.) - 6]",
    "[$v]",
    "[child::*][1]",
    "[1][self::a or self::b]",
    "[@id][position() = last()]",
)

VARIABLES = {"v": 2.0}


@st.composite
def large_documents(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    budget = draw(st.integers(min_value=48, max_value=80))
    document = random_document(budget, seed=seed, tags=TAGS)
    assume(len(document.nodes) >= 32)
    return document


def steps():
    return st.builds(
        "{}::{}{}".format,
        st.sampled_from(sorted(CORE_XPATH_AXES) + ["attribute"]),
        st.sampled_from(NODE_TESTS),
        st.sampled_from(PREDICATES),
    )


def queries():
    paths = st.builds("//{}/{}".format, steps(), steps())
    return st.one_of(
        paths,
        st.builds("({} | //@id)/{}".format, paths, steps()),
        st.builds("count({})".format, paths),
        st.builds("string({})".format, paths),
    )


@given(large_documents(), queries())
@settings(max_examples=120, deadline=None)
def test_cvt_equals_naive_on_large_frontiers(document, query):
    expected = NaiveEvaluator(document, VARIABLES).evaluate(query)
    for backend in available_backends():
        with use_backend(backend):
            value = ContextValueTableEvaluator(document, VARIABLES).evaluate(query)
        assert value == expected, backend
