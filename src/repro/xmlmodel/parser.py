"""A from-scratch XML parser producing :class:`repro.xmlmodel.document.Document`.

The parser supports the subset of XML needed for realistic query workloads:
elements, attributes (single or double quoted), character data, comments,
CDATA sections, processing instructions, an optional XML declaration and a
DOCTYPE declaration (which is skipped), plus the five predefined entities
and decimal / hexadecimal character references.  Namespace declarations are
treated as ordinary attributes and prefixes are kept as part of names,
which is all the paper's constructions require.

The implementation is a token scanner rather than a wrapper around
:mod:`xml.etree` so that the whole evaluation pipeline — from bytes to
query answers — is built by this repository; ElementTree is only used in
the test-suite as an independent cross-check.  One compiled regular
expression, :data:`_TOKEN`, partitions the text: every character belongs
to exactly one token — a run of character data, one whole piece of markup
(start tag with its attributes, end tag, comment, CDATA section,
processing instruction), or a lone ``<`` that begins nothing well-formed —
and the tokens are consumed as a stream, each looked at once.  The loop
records what a pre-order scan knows for free and
:func:`~repro.xmlmodel.columns.derive_columns` does the rest: parsing
constructs no node objects, and nesting depth is bounded by memory, not
by the interpreter stack.
"""

from __future__ import annotations

import re

from repro.errors import XMLParseError
from repro.xmlmodel.columns import (
    KIND_COMMENT,
    KIND_ELEMENT,
    KIND_PI,
    KIND_ROOT,
    KIND_TEXT,
    derive_columns,
)
from repro.xmlmodel.document import Document

_NAME = r"[A-Za-z_:][-A-Za-z0-9_:.·]*"
_WS = r"[ \t\r\n]*"
_ATTRIBUTE = re.compile(rf"{_WS}({_NAME}){_WS}={_WS}(?:\"([^\"]*)\"|'([^']*)')")
_ATTRIBUTES = rf"(?:{_WS}{_NAME}{_WS}={_WS}(?:\"[^\"]*\"|'[^']*'))*"

#: One token.  Character data comes first and a lone ``<`` last, so the
#: alternatives between them are only ever tried at a ``<`` and whatever
#: they all refuse still arrives as a token, with a position.  The
#: groups are numbered below; ``lastindex`` — the last group of whichever
#: alternative matched, ``None`` for the lone ``<`` — tells them apart.
#: The lookahead after the tag name keeps the engine from backtracking
#: into it and reading ``<ax="1">`` as ``<a x="1">``.
_TOKEN = re.compile(
    rf"([^<]+)"
    rf"|<(?:({_NAME})(?![-A-Za-z0-9_:.·])({_ATTRIBUTES}){_WS}(/?)>"
    rf"|/({_NAME}){_WS}>"
    rf"|!--(.*?)-->"
    rf"|!\[CDATA\[(.*?)\]\]>"
    rf"|\?({_NAME})(.*?)\?>)"
    rf"|<",
    re.DOTALL,
)
(_DATA, _TAG, _ATTRIBUTE_TEXT, _SELF_CLOSING, _END_TAG,
 _COMMENT, _CDATA, _TARGET, _PI_BODY) = range(1, 10)
_REFERENCE = re.compile(r"&([^;]*)(;?)")
_ANGLE_BRACKET = re.compile(r"[<>]")
_NAME_AT = re.compile(_NAME)
_WS_AT = re.compile(_WS)

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}


def _decode_references(text: str, position: int) -> str:
    """Expand entity and character references in ``text`` (which starts at ``position``)."""

    def expand(match: "re.Match[str]") -> str:
        entity, terminator = match.groups()
        where = position + match.start()
        if not terminator:
            raise XMLParseError("unterminated entity reference", where)
        if entity.startswith("#"):
            try:
                if entity[1:2] in ("x", "X"):
                    code = int(entity[2:], 16)
                else:
                    code = int(entity[1:])
                if 0xD800 <= code <= 0xDFFF:
                    raise ValueError("surrogate code point")
                return chr(code)
            except (ValueError, OverflowError):
                raise XMLParseError(
                    f"invalid character reference &{entity};", where
                ) from None
        try:
            return _PREDEFINED_ENTITIES[entity]
        except KeyError:
            raise XMLParseError(f"unknown entity &{entity};", where) from None

    return _REFERENCE.sub(expand, text)


def _attributes(source: str, position: int) -> list[tuple[str, str]]:
    """The ``(name, value)`` pairs of a start tag's attribute text, in order.

    The careful walk — positions kept for the error messages — that
    :func:`parse_xml` takes only for attribute text with a reference or
    a repeated name in it.
    """
    attributes = []
    for match in _ATTRIBUTE.finditer(source):
        name, double_quoted, single_quoted = match.groups()
        value = single_quoted if double_quoted is None else double_quoted
        if any(name == seen for seen, _ in attributes):
            raise XMLParseError(
                f"duplicate attribute {name!r}", position + match.start(1)
            )
        if "&" in value:
            value = _decode_references(value, position + match.end() - len(value) - 1)
        attributes.append((name, value))
    return attributes


def parse_xml(text: str, keep_whitespace_text: bool = False) -> Document:
    """Parse an XML string into a :class:`Document`.

    Parameters
    ----------
    text:
        The XML document as a string.
    keep_whitespace_text:
        When False (the default), text nodes consisting solely of whitespace
        are dropped.  This keeps synthetic benchmark documents small and
        matches how the paper counts document size.

    The scanner fills the document's columns directly; node objects are
    built later, if and when something asks for one:

    >>> document = parse_xml('<a x="1"><b>hi</b><!--note--></a>')
    >>> document.size, document.root_tag, document.has_nodes
    (6, 'a', False)
    >>> [type(node).__name__ for node in document.nodes]
    ['RootNode', 'ElementNode', 'ElementNode', 'TextNode', 'CommentNode']
    >>> document.has_nodes
    True
    """
    # One entry per node, in document order; the root is node 0.
    kinds = bytearray((KIND_ROOT,))
    parent = [-1]
    subtree_end = [0]
    names = [-1]
    texts = [-1]
    attr_offsets = [0, 0]
    attr_names: list[int] = []
    attr_values: list[int] = []
    #: string → id, ids in first-use order (a node's name, then its
    #: attribute name/value pairs, then its text): the string table is
    #: this dict's keys.
    string_ids: dict[str, int] = {}
    add_kind, add_parent, add_end = kinds.append, parent.append, subtree_end.append
    add_name, add_text, add_offset = names.append, texts.append, attr_offsets.append
    add_attr_name, add_attr_value = attr_names.append, attr_values.append
    intern = string_ids.setdefault
    attributes_of = _ATTRIBUTE.findall
    length = len(text)
    open_nodes: list[int] = []  # ids of the open elements below `current`
    current = 0  # the innermost open node; the root while no element is open
    count = 1
    seen_document_element = False

    position = 0
    while position < length:
        for token in _TOKEN.finditer(text, position):
            which = token.lastindex
            if which == _SELF_CLOSING:  # a start tag; the group may be empty
                tag, attribute_text, self_closing = token.group(
                    _TAG, _ATTRIBUTE_TEXT, _SELF_CLOSING
                )
                if not current:
                    if seen_document_element:
                        raise XMLParseError("multiple document elements", token.start())
                    seen_document_element = True
                add_kind(KIND_ELEMENT)
                add_parent(current)
                add_end(count)
                add_name(intern(tag, len(string_ids)))
                add_text(-1)
                if attribute_text:
                    pairs = attributes_of(attribute_text)
                    if "&" in attribute_text or (
                        len(pairs) > 1 and len({pair[0] for pair in pairs}) < len(pairs)
                    ):
                        pairs = _attributes(attribute_text, token.start(_ATTRIBUTE_TEXT))
                        for name, value in pairs:
                            add_attr_name(intern(name, len(string_ids)))
                            add_attr_value(intern(value, len(string_ids)))
                    else:
                        for name, double_quoted, single_quoted in pairs:
                            add_attr_name(intern(name, len(string_ids)))
                            add_attr_value(
                                intern(double_quoted or single_quoted, len(string_ids))
                            )
                add_offset(len(attr_names))
                if not self_closing:
                    open_nodes.append(current)
                    current = count
                count += 1
            elif which == _END_TAG:
                tag = token.group(_END_TAG)
                if not current or string_ids.get(tag) != names[current]:
                    open_tag = list(string_ids)[names[current]] if current else None
                    raise XMLParseError(
                        f"mismatched end tag </{tag}>; open element is <{open_tag}>",
                        token.start(),
                    )
                subtree_end[current] = count - 1
                current = open_nodes.pop()
            elif which == _DATA:
                data = token.group()
                if not current:
                    if not data.isspace():
                        raise XMLParseError(
                            "character data outside document element", token.start()
                        )
                    continue
                if "&" in data:
                    data = _decode_references(data, token.start())
                if not keep_whitespace_text and data.isspace():
                    continue
                add_kind(KIND_TEXT)
                add_parent(current)
                add_end(count)
                add_name(-1)
                add_text(intern(data, len(string_ids)))
                add_offset(len(attr_names))
                count += 1
            elif which is None:  # a lone "<": a DOCTYPE to skip, or malformed markup
                position = _skip_doctype(text, token.start())
                break
            else:
                if which == _COMMENT:
                    kind, name, data = KIND_COMMENT, -1, token.group(_COMMENT)
                elif which == _CDATA:
                    if not current:
                        raise XMLParseError(
                            "character data outside document element", token.start()
                        )
                    kind, name, data = KIND_TEXT, -1, token.group(_CDATA)
                else:
                    target, body = token.group(_TARGET, _PI_BODY)
                    if target.lower() == "xml":  # the XML declaration is not a node
                        continue
                    kind, name, data = KIND_PI, intern(target, len(string_ids)), body.strip()
                add_kind(kind)
                add_parent(current)
                add_end(count)
                add_name(name)
                add_text(intern(data, len(string_ids)))
                add_offset(len(attr_names))
                count += 1
        else:
            break

    if current:
        raise XMLParseError("unexpected end of input: unclosed element", length)
    if not seen_document_element:
        raise XMLParseError("document has no document element", length)
    subtree_end[0] = count - 1
    return Document.from_columns(
        derive_columns(
            kinds=kinds,
            parent=parent,
            subtree_end=subtree_end,
            names=names,
            texts=texts,
            attr_offsets=attr_offsets,
            attr_names=attr_names,
            attr_values=attr_values,
            strings=list(string_ids),
        )
    )


def _skip_doctype(text: str, position: int) -> int:
    """Return the position after the DOCTYPE declaration at ``position``.

    Reached for every ``<`` that begins none of :data:`_TOKEN`'s markup, so
    anything that is not a DOCTYPE is malformed markup and raises.
    """
    if not text.startswith("<!DOCTYPE", position):
        raise _malformed(text, position)
    depth = 1
    for bracket in _ANGLE_BRACKET.finditer(text, position + len("<!DOCTYPE")):
        depth += 1 if bracket.group() == "<" else -1
        if depth == 0:
            return bracket.end()
    raise XMLParseError("unterminated DOCTYPE", len(text))


def _malformed(text: str, position: int) -> XMLParseError:
    """Say what is wrong with the markup at ``position`` that :data:`_TOKEN` refused."""
    for opener, terminator in (("<!--", "-->"), ("<![CDATA[", "]]>")):
        if text.startswith(opener, position):
            return XMLParseError(
                f"unterminated construct, missing {terminator!r}", position
            )
    cursor = position + (2 if text.startswith(("<?", "</"), position) else 1)
    name = _NAME_AT.match(text, cursor)
    if name is None:
        return XMLParseError("expected a name", cursor)
    if text.startswith("<?", position):
        return XMLParseError("unterminated construct, missing '?>'", position)
    if text.startswith("</", position):
        return XMLParseError("expected '>'", _WS_AT.match(text, name.end()).end())
    # A start tag: walk its attributes to the first thing that is not one.
    cursor = name.end()
    while True:
        attribute = _ATTRIBUTE.match(text, cursor)
        if attribute is None:
            break
        cursor = attribute.end()
    cursor = _WS_AT.match(text, cursor).end()
    name = _NAME_AT.match(text, cursor)
    if name is None:
        return XMLParseError("expected a name", cursor)
    cursor = _WS_AT.match(text, name.end()).end()
    if not text.startswith("=", cursor):
        return XMLParseError("expected '='", cursor)
    cursor = _WS_AT.match(text, cursor + 1).end()
    if text[cursor : cursor + 1] not in ("'", '"'):
        return XMLParseError("attribute value must be quoted", cursor)
    return XMLParseError(
        f"unterminated construct, missing {text[cursor]!r}", cursor
    )
