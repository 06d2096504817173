"""Unit tests for the run-time core function library (via full query evaluation)."""

import math

import pytest

from repro.evaluation import ContextValueTableEvaluator
from repro.xmlmodel.parser import parse_xml

DOC = """
<catalog xml:lang="en">
  <book id="b1" price="10"><title>  Alpha   Book </title></book>
  <book id="b2" price="25"><title>Beta</title></book>
  <book id="b3" price="7"><title>Gamma</title></book>
  <note xml:lang="de-AT"><p>Anmerkung</p></note>
</catalog>
"""


@pytest.fixture
def evaluator():
    return ContextValueTableEvaluator(parse_xml(DOC))


def ev(evaluator, query):
    return evaluator.evaluate(query)


class TestNodeSetFunctions:
    def test_count(self, evaluator):
        assert ev(evaluator, "count(//book)") == 3.0
        assert ev(evaluator, "count(//missing)") == 0.0

    def test_position_and_last(self, evaluator):
        assert [n.get_attribute("id") for n in evaluator.evaluate_nodes("//book[position() = last()]")] == ["b3"]
        assert [n.get_attribute("id") for n in evaluator.evaluate_nodes("//book[position() = 2]")] == ["b2"]

    def test_numeric_predicate_abbreviation(self, evaluator):
        assert [n.get_attribute("id") for n in evaluator.evaluate_nodes("//book[2]")] == ["b2"]

    def test_id_function(self, evaluator):
        assert [n.get_attribute("id") for n in evaluator.evaluate_nodes("id('b2')")] == ["b2"]
        assert [n.get_attribute("id") for n in evaluator.evaluate_nodes("id('b3 b1')")] == ["b1", "b3"]

    def test_name_and_local_name(self, evaluator):
        assert ev(evaluator, "name(//book)") == "book"
        assert ev(evaluator, "local-name(//book)") == "book"
        assert ev(evaluator, "name(//missing)") == ""

    def test_sum(self, evaluator):
        assert ev(evaluator, "sum(//book/attribute::price)") == 42.0
        assert ev(evaluator, "sum(//missing)") == 0.0


class TestStringFunctions:
    def test_string_of_context_and_argument(self, evaluator):
        assert ev(evaluator, "string(//book[1]/title)") == "  Alpha   Book "
        assert ev(evaluator, "string(12.0)") == "12"

    def test_concat(self, evaluator):
        assert ev(evaluator, "concat('a', 'b', 'c', 'd')") == "abcd"

    def test_starts_with_and_contains(self, evaluator):
        assert ev(evaluator, "starts-with('hello', 'he')") is True
        assert ev(evaluator, "starts-with('hello', 'lo')") is False
        assert ev(evaluator, "contains('hello', 'ell')") is True
        assert ev(evaluator, "contains('hello', 'xyz')") is False

    def test_substring_before_after(self, evaluator):
        assert ev(evaluator, "substring-before('1999/04/01', '/')") == "1999"
        assert ev(evaluator, "substring-after('1999/04/01', '/')") == "04/01"
        assert ev(evaluator, "substring-before('abc', 'z')") == ""

    def test_substring_spec_examples(self, evaluator):
        # The W3C recommendation's own corner cases.
        assert ev(evaluator, "substring('12345', 2, 3)") == "234"
        assert ev(evaluator, "substring('12345', 2)") == "2345"
        assert ev(evaluator, "substring('12345', 1.5, 2.6)") == "234"
        assert ev(evaluator, "substring('12345', 0, 3)") == "12"
        assert ev(evaluator, "substring('12345', 0 div 0, 3)") == ""
        assert ev(evaluator, "substring('12345', -42, 1 div 0)") == "12345"

    def test_string_length(self, evaluator):
        assert ev(evaluator, "string-length('abc')") == 3.0
        assert ev(evaluator, "string-length(//book[2]/title)") == 4.0

    def test_normalize_space(self, evaluator):
        assert ev(evaluator, "normalize-space('  a   b  ')") == "a b"
        assert ev(evaluator, "normalize-space(//book[1]/title)") == "Alpha Book"

    def test_translate(self, evaluator):
        assert ev(evaluator, "translate('bar', 'abc', 'ABC')") == "BAr"
        assert ev(evaluator, "translate('--aaa--', 'abc-', 'ABC')") == "AAA"


class TestBooleanFunctions:
    def test_boolean_not_true_false(self, evaluator):
        assert ev(evaluator, "boolean(//book)") is True
        assert ev(evaluator, "boolean(//missing)") is False
        assert ev(evaluator, "not(//missing)") is True
        assert ev(evaluator, "true()") is True
        assert ev(evaluator, "false()") is False

    def test_lang(self, evaluator):
        assert ev(evaluator, "boolean(//title[lang('en')])") is True
        assert ev(evaluator, "boolean(//p[lang('de')])") is True
        assert ev(evaluator, "boolean(//p[lang('fr')])") is False


class TestNumberFunctions:
    def test_number_conversion(self, evaluator):
        assert ev(evaluator, "number('12.5')") == 12.5
        assert math.isnan(ev(evaluator, "number('abc')"))
        assert ev(evaluator, "number(//book[1]/attribute::price)") == 10.0

    def test_floor_ceiling_round(self, evaluator):
        assert ev(evaluator, "floor(2.7)") == 2.0
        assert ev(evaluator, "ceiling(2.1)") == 3.0
        assert ev(evaluator, "round(2.5)") == 3.0
        assert ev(evaluator, "round(-2.5)") == -2.0

    @pytest.mark.parametrize("engine", ["auto", "cvt", "naive"])
    def test_round_returns_a_number(self, engine):
        """XPath 1.0 §4.4: round() is a number, and [-0.5, -0) rounds to -0."""
        from repro.evaluation import evaluate

        document = parse_xml("<r><a>0.7</a><a>1.2</a><a>1.5</a><a>3</a></r>")
        assert evaluate("string(round(1.5))", document, engine=engine) == "2"
        ones = evaluate("//a[round(.) = 1]", document, engine=engine)
        assert [node.string_value() for node in ones] == ["0.7", "1.2"]
        negative_zero = evaluate("round(-0.5)", document, engine=engine)
        assert negative_zero == 0.0 and math.copysign(1.0, negative_zero) == -1.0
        assert evaluate("1 div round(-0.5)", document, engine=engine) == -math.inf

    def test_arithmetic_on_attributes(self, evaluator):
        assert ev(evaluator, "//book[attribute::price > 8 and attribute::price < 20]/attribute::id = 'b1'") is True
