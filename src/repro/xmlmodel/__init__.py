"""The XML data-model substrate: nodes, documents, parsing, axes, generators."""

from repro.xmlmodel.axes import (
    AXIS_NAMES,
    CORE_XPATH_AXES,
    apply_axis_to_set,
    axis_nodes,
    axis_step,
    inverse_axis,
    is_reverse_axis,
    node_test_matches,
    principal_node_type,
)
from repro.xmlmodel.columns import Columns, derive_columns
from repro.xmlmodel.document import Document, DocumentBuilder, build_tree
from repro.xmlmodel.idset import IdSet
from repro.xmlmodel.index import DocumentIndex
from repro.xmlmodel.generators import (
    auction_document,
    caterpillar_document,
    chain_document,
    complete_tree_document,
    labelled_list_document,
    random_document,
    wide_document,
)
from repro.xmlmodel.nodes import (
    AttributeNode,
    CommentNode,
    ElementNode,
    NodeType,
    ProcessingInstructionNode,
    RootNode,
    TextNode,
    XMLNode,
    sort_document_order,
)
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serialize import serialize

__all__ = [
    "AXIS_NAMES",
    "CORE_XPATH_AXES",
    "AttributeNode",
    "Columns",
    "CommentNode",
    "Document",
    "DocumentBuilder",
    "DocumentIndex",
    "ElementNode",
    "IdSet",
    "NodeType",
    "ProcessingInstructionNode",
    "RootNode",
    "TextNode",
    "XMLNode",
    "apply_axis_to_set",
    "auction_document",
    "axis_nodes",
    "axis_step",
    "build_tree",
    "caterpillar_document",
    "chain_document",
    "complete_tree_document",
    "derive_columns",
    "inverse_axis",
    "is_reverse_axis",
    "labelled_list_document",
    "node_test_matches",
    "parse_xml",
    "principal_node_type",
    "random_document",
    "serialize",
    "sort_document_order",
    "wide_document",
]
