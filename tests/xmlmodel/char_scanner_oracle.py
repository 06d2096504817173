"""The character-at-a-time XML scanner: the parser differential's oracle.

This is the scanner ``repro.xmlmodel.parser`` shipped until PR 16, kept
verbatim (it reads one character at a time and builds
:class:`~repro.xmlmodel.nodes.XMLNode` objects through
:class:`~repro.xmlmodel.document.DocumentBuilder`), so it shares no
tokenizer code with the production scanner.  Paired with
``tests/store/reference_dump.py`` — which derives a snapshot from those
node objects by walking them, not from the document's columns — it gives
``tests/properties/test_property_parser.py`` an end-to-end second
opinion on text → snapshot bytes; :mod:`xml.etree.ElementTree` is the
third, fully independent one on the subset it models.
"""

from __future__ import annotations

import re

from repro.errors import XMLParseError
from repro.xmlmodel.document import Document, DocumentBuilder

_NAME_START = re.compile(r"[A-Za-z_:]")
_NAME_CHARS = re.compile(r"[-A-Za-z0-9_:.·]")
_WHITESPACE = " \t\r\n"

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}


class _Scanner:
    """Character-level scanner with position tracking for error messages."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.length = len(text)

    def eof(self) -> bool:
        return self.pos >= self.length

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < self.length else ""

    def advance(self, count: int = 1) -> str:
        chunk = self.text[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def startswith(self, prefix: str) -> bool:
        return self.text.startswith(prefix, self.pos)

    def skip_whitespace(self) -> None:
        while self.pos < self.length and self.text[self.pos] in _WHITESPACE:
            self.pos += 1

    def expect(self, literal: str) -> None:
        if not self.startswith(literal):
            raise XMLParseError(f"expected {literal!r}", self.pos)
        self.pos += len(literal)

    def read_until(self, terminator: str) -> str:
        end = self.text.find(terminator, self.pos)
        if end < 0:
            raise XMLParseError(f"unterminated construct, missing {terminator!r}", self.pos)
        chunk = self.text[self.pos : end]
        self.pos = end + len(terminator)
        return chunk

    def read_name(self) -> str:
        if self.eof() or not _NAME_START.match(self.peek()):
            raise XMLParseError("expected a name", self.pos)
        start = self.pos
        self.pos += 1
        while self.pos < self.length and _NAME_CHARS.match(self.text[self.pos]):
            self.pos += 1
        return self.text[start : self.pos]


def _decode_references(text: str, position: int) -> str:
    """Expand entity and character references in ``text``."""
    if "&" not in text:
        return text
    out: list[str] = []
    index = 0
    while index < len(text):
        char = text[index]
        if char != "&":
            out.append(char)
            index += 1
            continue
        end = text.find(";", index)
        if end < 0:
            raise XMLParseError("unterminated entity reference", position + index)
        entity = text[index + 1 : end]
        if entity.startswith("#x") or entity.startswith("#X"):
            out.append(chr(int(entity[2:], 16)))
        elif entity.startswith("#"):
            out.append(chr(int(entity[1:])))
        elif entity in _PREDEFINED_ENTITIES:
            out.append(_PREDEFINED_ENTITIES[entity])
        else:
            raise XMLParseError(f"unknown entity &{entity};", position + index)
        index = end + 1
    return "".join(out)


def parse_xml_oracle(text: str, keep_whitespace_text: bool = False) -> Document:
    """Parse an XML string into a :class:`Document` (node tree first).

    Parameters
    ----------
    text:
        The XML document as a string.
    keep_whitespace_text:
        When False (the default), text nodes consisting solely of whitespace
        are dropped.  This keeps synthetic benchmark documents small and
        matches how the paper counts document size.
    """
    scanner = _Scanner(text)
    builder = DocumentBuilder()
    depth = 0
    seen_document_element = False

    scanner.skip_whitespace()
    while not scanner.eof():
        if scanner.startswith("<?"):
            _parse_processing_instruction(scanner, builder)
        elif scanner.startswith("<!--"):
            _parse_comment(scanner, builder)
        elif scanner.startswith("<!DOCTYPE"):
            _skip_doctype(scanner)
        elif scanner.startswith("<![CDATA["):
            if depth == 0:
                raise XMLParseError("character data outside document element", scanner.pos)
            scanner.expect("<![CDATA[")
            builder.text(scanner.read_until("]]>"))
        elif scanner.startswith("</"):
            _parse_end_tag(scanner, builder)
            depth -= 1
            if depth == 0:
                scanner.skip_whitespace()
        elif scanner.startswith("<"):
            if depth == 0 and seen_document_element:
                raise XMLParseError("multiple document elements", scanner.pos)
            self_closing = _parse_start_tag(scanner, builder)
            if depth == 0:
                seen_document_element = True
            if not self_closing:
                depth += 1
        else:
            start = scanner.pos
            raw = _read_character_data(scanner)
            if depth == 0:
                if raw.strip():
                    raise XMLParseError("character data outside document element", start)
                continue
            data = _decode_references(raw, start)
            if data.strip() or (keep_whitespace_text and data):
                builder.text(data)

    if depth != 0:
        raise XMLParseError("unexpected end of input: unclosed element", scanner.pos)
    if not seen_document_element:
        raise XMLParseError("document has no document element", scanner.pos)
    return builder.finish()


def _read_character_data(scanner: _Scanner) -> str:
    end = scanner.text.find("<", scanner.pos)
    if end < 0:
        end = scanner.length
    chunk = scanner.text[scanner.pos : end]
    scanner.pos = end
    return chunk


def _parse_processing_instruction(scanner: _Scanner, builder: DocumentBuilder) -> None:
    scanner.expect("<?")
    target = scanner.read_name()
    body = scanner.read_until("?>").strip()
    if target.lower() == "xml":
        return  # XML declaration: ignore
    builder.processing_instruction(target, body)


def _parse_comment(scanner: _Scanner, builder: DocumentBuilder) -> None:
    scanner.expect("<!--")
    builder.comment(scanner.read_until("-->"))


def _skip_doctype(scanner: _Scanner) -> None:
    scanner.expect("<!DOCTYPE")
    depth = 1
    while depth > 0:
        if scanner.eof():
            raise XMLParseError("unterminated DOCTYPE", scanner.pos)
        char = scanner.advance()
        if char == "<":
            depth += 1
        elif char == ">":
            depth -= 1


def _parse_start_tag(scanner: _Scanner, builder: DocumentBuilder) -> bool:
    """Parse a start tag; return True if it was self-closing."""
    scanner.expect("<")
    tag = scanner.read_name()
    attributes: dict[str, str] = {}
    while True:
        scanner.skip_whitespace()
        if scanner.startswith("/>"):
            scanner.expect("/>")
            builder.start_element(tag, attributes)
            builder.end_element()
            return True
        if scanner.startswith(">"):
            scanner.expect(">")
            builder.start_element(tag, attributes)
            return False
        attr_name = scanner.read_name()
        scanner.skip_whitespace()
        scanner.expect("=")
        scanner.skip_whitespace()
        quote = scanner.peek()
        if quote not in ("'", '"'):
            raise XMLParseError("attribute value must be quoted", scanner.pos)
        scanner.advance()
        value_start = scanner.pos
        value = scanner.read_until(quote)
        if attr_name in attributes:
            raise XMLParseError(f"duplicate attribute {attr_name!r}", value_start)
        attributes[attr_name] = _decode_references(value, value_start)


def _parse_end_tag(scanner: _Scanner, builder: DocumentBuilder) -> None:
    scanner.expect("</")
    tag = scanner.read_name()
    scanner.skip_whitespace()
    scanner.expect(">")
    current = builder.current
    current_tag = getattr(current, "tag", None)
    if current_tag != tag:
        raise XMLParseError(
            f"mismatched end tag </{tag}>; open element is <{current_tag}>", scanner.pos
        )
    builder.end_element()
