"""A from-scratch XML parser producing :class:`repro.xmlmodel.document.Document`.

The parser supports the subset of XML needed for realistic query workloads:
elements, attributes (single or double quoted), character data, comments,
CDATA sections, processing instructions, an optional XML declaration and a
DOCTYPE declaration (which is skipped), plus the five predefined entities
and decimal / hexadecimal character references.  Namespace declarations are
treated as ordinary attributes and prefixes are kept as part of names,
which is all the paper's constructions require.

The implementation is a token-at-a-time scanner rather than a wrapper
around :mod:`xml.etree` so that the whole evaluation pipeline — from bytes
to query answers — is built by this repository; ElementTree is only used in
the test-suite as an independent cross-check.  One compiled regular
expression recognises a whole piece of markup (start tag with its
attributes, end tag, comment, CDATA section, processing instruction),
``str.find`` delimits character data, and every token goes straight into a
:class:`~repro.xmlmodel.columns.ColumnBuilder`: parsing constructs no node
objects, and nesting depth is bounded by memory, not by the interpreter
stack.
"""

from __future__ import annotations

import re

from repro.errors import XMLParseError
from repro.xmlmodel.columns import (
    KIND_COMMENT,
    KIND_ELEMENT,
    KIND_PI,
    KIND_TEXT,
    ColumnBuilder,
)
from repro.xmlmodel.document import Document

_NAME = r"[A-Za-z_:][-A-Za-z0-9_:.·]*"
_WS = r"[ \t\r\n]*"
_ATTRIBUTE = re.compile(rf"{_WS}({_NAME}){_WS}={_WS}(?:\"([^\"]*)\"|'([^']*)')")
_ATTRIBUTES = rf"(?:{_WS}{_NAME}{_WS}={_WS}(?:\"[^\"]*\"|'[^']*'))*"

#: One piece of markup, anchored at its ``<``.  The alternatives' groups
#: are numbered below, and ``lastindex`` — the last group of whichever
#: alternative matched — tells them apart.  The lookahead after the tag
#: name keeps the engine from backtracking into it and reading
#: ``<ax="1">`` as ``<a x="1">``.
_MARKUP = re.compile(
    rf"<(?:({_NAME})(?![-A-Za-z0-9_:.·])({_ATTRIBUTES}){_WS}(/?)>"
    rf"|/({_NAME}){_WS}>"
    rf"|!--(.*?)-->"
    rf"|!\[CDATA\[(.*?)\]\]>"
    rf"|\?({_NAME})(.*?)\?>)",
    re.DOTALL,
)
(_TAG, _ATTRIBUTE_TEXT, _SELF_CLOSING, _END_TAG,
 _COMMENT, _CDATA, _TARGET, _PI_BODY) = range(1, 9)
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
    """The ``(name, value)`` pairs of a start tag's attribute text, in order."""
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
    builder = ColumnBuilder()
    open_node, close_node = builder.open, builder.close
    markup_at = _MARKUP.match
    find = text.find
    length = len(text)
    open_tags: list[str] = []
    seen_document_element = False

    position = 0
    while position < length:
        if text[position] != "<":
            end = find("<", position)
            if end < 0:
                end = length
            data = text[position:end]
            if not open_tags:
                if not data.isspace():
                    raise XMLParseError(
                        "character data outside document element", position
                    )
            else:
                if "&" in data:
                    data = _decode_references(data, position)
                if data and (keep_whitespace_text or not data.isspace()):
                    open_node(KIND_TEXT, None, data)
                    close_node()
            position = end
            continue

        markup = markup_at(text, position)
        if markup is None:
            position = _skip_doctype(text, position)
            continue
        token = markup.lastindex
        if token == _SELF_CLOSING:  # a start tag; the group may be empty
            tag, attribute_text, self_closing = markup.group(
                _TAG, _ATTRIBUTE_TEXT, _SELF_CLOSING
            )
            if not open_tags:
                if seen_document_element:
                    raise XMLParseError("multiple document elements", position)
                seen_document_element = True
            if attribute_text:
                open_node(
                    KIND_ELEMENT, tag, None,
                    _attributes(attribute_text, markup.start(_ATTRIBUTE_TEXT)),
                )
            else:
                open_node(KIND_ELEMENT, tag)
            if self_closing:
                close_node()
            else:
                open_tags.append(tag)
        elif token == _END_TAG:
            tag = markup.group(_END_TAG)
            if not open_tags or open_tags[-1] != tag:
                current = open_tags[-1] if open_tags else None
                raise XMLParseError(
                    f"mismatched end tag </{tag}>; open element is <{current}>",
                    position,
                )
            open_tags.pop()
            close_node()
        elif token == _COMMENT:
            open_node(KIND_COMMENT, None, markup.group(_COMMENT))
            close_node()
        elif token == _CDATA:
            if not open_tags:
                raise XMLParseError(
                    "character data outside document element", position
                )
            open_node(KIND_TEXT, None, markup.group(_CDATA))
            close_node()
        else:
            target, body = markup.group(_TARGET, _PI_BODY)
            if target.lower() != "xml":  # the XML declaration is not a node
                open_node(KIND_PI, target, body.strip())
                close_node()
        position = markup.end()

    if open_tags:
        raise XMLParseError("unexpected end of input: unclosed element", length)
    if not seen_document_element:
        raise XMLParseError("document has no document element", length)
    return Document.from_columns(builder.finish())


def _skip_doctype(text: str, position: int) -> int:
    """Return the position after the DOCTYPE declaration at ``position``.

    Reached for every ``<`` that :data:`_MARKUP` does not recognise, so
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
    """Say what is wrong with the markup at ``position`` that :data:`_MARKUP` refused."""
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
