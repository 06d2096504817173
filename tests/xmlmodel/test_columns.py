"""Unit tests for the column form of a document and the one derivation of it."""

import pytest

from repro.xmlmodel import DocumentBuilder, parse_xml
from repro.xmlmodel.columns import (
    KIND_COMMENT,
    KIND_ELEMENT,
    KIND_PI,
    KIND_ROOT,
    KIND_TEXT,
    Columns,
    derive_columns,
)

XML = '<a x="1" y="a"><b>a</b><!--note--><b><c/></b><?pi data?></a>'

KINDS = [KIND_ROOT, KIND_ELEMENT, KIND_ELEMENT, KIND_TEXT, KIND_COMMENT,
         KIND_ELEMENT, KIND_ELEMENT, KIND_PI]
STRINGS = ["a", "x", "1", "y", "b", "note", "c", "pi", "data"]


def facts():
    """What a pre-order scan of ``XML`` records, written out by hand.

    #  0 root
    #  1   a x="1" y="a"
    #  2     b
    #  3       "a"          (text equal to a tag: one string, two uses)
    #  4     <!--note-->
    #  5     b
    #  6       c
    #  7     <?pi data?>
    """
    return dict(
        kinds=bytearray(KINDS),
        parent=[-1, 0, 1, 2, 1, 1, 5, 1],
        subtree_end=[7, 7, 3, 3, 4, 6, 6, 7],
        names=[-1, 0, 4, -1, -1, 4, 6, 7],
        texts=[-1, -1, -1, 0, 5, -1, -1, 8],
        attr_offsets=[0, 0, 2, 2, 2, 2, 2, 2, 2],
        attr_names=[1, 3],
        attr_values=[2, 0],
        strings=list(STRINGS),
    )


def slots(columns):
    return {name: getattr(columns, name) for name in Columns.__slots__}


def built_by_hand():
    builder = DocumentBuilder()
    builder.start_element("a", {"x": "1", "y": "a"})
    builder.start_element("b")
    builder.text("a")
    builder.end_element()
    builder.comment("note")
    builder.start_element("b")
    builder.add_element("c")
    builder.end_element()
    builder.processing_instruction("pi", "data")
    builder.end_element()
    return builder.finish()


class TestDeriveColumns:
    def test_structure_links(self):
        columns = derive_columns(**facts())
        assert columns.first_child == [1, 2, 3, -1, -1, 6, -1, -1]
        assert columns.next_sibling == [-1, -1, 4, -1, 5, 7, -1, -1]
        assert columns.prev_sibling == [-1, -1, -1, -1, 2, 4, -1, 5]
        assert columns.post == [7, 6, 1, 0, 2, 4, 3, 5]

    def test_partitions(self):
        columns = derive_columns(**facts())
        assert columns.element_ids == [1, 2, 5, 6]
        assert columns.ids_by_tag == {"a": [1], "b": [2, 5], "c": [6]}
        assert columns.ids_by_kind == {
            KIND_ROOT: [0], KIND_TEXT: [3], KIND_COMMENT: [4], KIND_PI: [7],
        }

    def test_the_facts_are_adopted_as_they_are(self):
        given = facts()
        columns = derive_columns(**given)
        for name, value in given.items():
            assert getattr(columns, name) is value

    def test_a_lone_root(self):
        columns = derive_columns(
            kinds=bytearray([KIND_ROOT]), parent=[-1], subtree_end=[0], names=[-1],
            texts=[-1], attr_offsets=[0, 0], attr_names=[], attr_values=[], strings=[],
        )
        assert (columns.first_child, columns.next_sibling, columns.prev_sibling) == ([-1], [-1], [-1])
        assert columns.post == [0] and columns.element_ids == [] and columns.ids_by_tag == {}
        assert columns.ids_by_kind == {KIND_ROOT: [0], KIND_TEXT: [], KIND_COMMENT: [], KIND_PI: []}

    def test_a_chain_and_a_fan(self):
        depth = 50
        chain = parse_xml("<a>" * depth + "</a>" * depth).columns
        assert chain.post == [depth] + list(range(depth - 1, -1, -1))
        assert chain.first_child == list(range(1, depth + 1)) + [-1]
        assert set(chain.next_sibling) == set(chain.prev_sibling) == {-1}
        fan = parse_xml("<a>" + "<b/>" * depth + "</a>").columns
        assert fan.next_sibling[2:] == list(range(3, depth + 2)) + [-1]
        assert fan.prev_sibling[2:] == [-1] + list(range(2, depth + 1))
        assert fan.post == [depth + 1, depth] + list(range(depth))


class TestTheTwoProducers:
    """The XML scanner and ``Document._freeze`` record the same facts."""

    def test_the_scanner_records_the_hand_written_facts(self):
        assert slots(parse_xml(XML).columns) == slots(derive_columns(**facts()))

    def test_the_freeze_walk_records_them_too(self):
        assert slots(built_by_hand().columns) == slots(derive_columns(**facts()))

    @pytest.mark.parametrize(
        "text",
        [
            "<a/>",
            "<a>t<b x='1'>u</b>v<!--c--><?p d?><b/></a>",
            "<!--before--><a><b><c><d/></c></b><b/></a><?after?>",
            "<r>" + "<i n='1'><j>x</j></i>" * 20 + "</r>",
        ],
    )
    def test_freezing_the_parsed_tree_gives_the_parsed_columns(self, text):
        from repro.xmlmodel import Document

        parsed = parse_xml(text)
        root = parse_xml(text).root  # a second parse: freezing re-parents the nodes
        assert slots(Document(root).columns) == slots(parsed.columns)
