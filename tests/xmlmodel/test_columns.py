"""Unit tests for the column form of a document and its builder."""

import pytest

from repro.xmlmodel.columns import (
    KIND_COMMENT,
    KIND_ELEMENT,
    KIND_PI,
    KIND_ROOT,
    KIND_TEXT,
    ColumnBuilder,
)


def build():
    #  0 root
    #  1   a x="1" y="a"
    #  2     b
    #  3       "a"          (text equal to a tag: one string, two uses)
    #  4     <!--note-->
    #  5     b
    #  6       c
    #  7     <?pi data?>
    builder = ColumnBuilder()
    builder.open(KIND_ELEMENT, "a", None, [("x", "1"), ("y", "a")])
    builder.open(KIND_ELEMENT, "b")
    builder.open(KIND_TEXT, None, "a")
    builder.close()
    builder.close()
    builder.open(KIND_COMMENT, None, "note")
    builder.close()
    builder.open(KIND_ELEMENT, "b")
    builder.open(KIND_ELEMENT, "c")
    builder.close()
    builder.close()
    builder.open(KIND_PI, "pi", "data")
    builder.close()
    builder.close()
    return builder.finish()


class TestColumnBuilder:
    def test_structure_links(self):
        columns = build()
        assert bytes(columns.kinds) == bytes(
            [KIND_ROOT, KIND_ELEMENT, KIND_ELEMENT, KIND_TEXT, KIND_COMMENT,
             KIND_ELEMENT, KIND_ELEMENT, KIND_PI]
        )
        assert columns.parent == [-1, 0, 1, 2, 1, 1, 5, 1]
        assert columns.subtree_end == [7, 7, 3, 3, 4, 6, 6, 7]
        assert columns.first_child == [1, 2, 3, -1, -1, 6, -1, -1]
        assert columns.next_sibling == [-1, -1, 4, -1, 5, 7, -1, -1]
        assert columns.prev_sibling == [-1, -1, -1, -1, 2, 4, -1, 5]
        assert columns.post == [7, 6, 1, 0, 2, 4, 3, 5]

    def test_strings_are_interned_in_first_use_order(self):
        columns = build()
        assert columns.strings == ["a", "x", "1", "y", "b", "note", "c", "pi", "data"]
        assert columns.names == [-1, 0, 4, -1, -1, 4, 6, 7]
        assert columns.texts == [-1, -1, -1, 0, 5, -1, -1, 8]
        assert columns.attr_offsets == [0, 0, 2, 2, 2, 2, 2, 2, 2]
        assert (columns.attr_names, columns.attr_values) == ([1, 3], [2, 0])

    def test_partitions(self):
        columns = build()
        assert columns.element_ids == [1, 2, 5, 6]
        assert columns.ids_by_tag == {"a": [1], "b": [2, 5], "c": [6]}
        assert columns.ids_by_kind == {
            KIND_ROOT: [0], KIND_TEXT: [3], KIND_COMMENT: [4], KIND_PI: [7],
        }

    def test_finish_with_open_nodes_raises(self):
        builder = ColumnBuilder()
        builder.open(KIND_ELEMENT, "a")
        with pytest.raises(ValueError, match="1 node"):
            builder.finish()
