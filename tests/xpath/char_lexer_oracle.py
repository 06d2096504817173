"""The character-at-a-time XPath scanner: the lexer differential's oracle.

This is the tokeniser ``repro.xpath.lexer`` shipped before its one-regex
rewrite, kept verbatim: it walks the expression one character at a time, probes the
symbol table with ``startswith`` and consults the previous token for the
two disambiguation rules of XPath 1.0 section 3.7.  The production lexer
is one master regular expression matched at a cursor, so the two share no
scanning code; ``tests/properties/test_property_lexer.py`` requires the
same ``(kind, value, position)`` stream and, for rejected text, the same
:class:`~repro.errors.XPathSyntaxError` message and offset.  Test
support only — never imported by ``src/``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import XPathSyntaxError


@dataclass(frozen=True)
class Token:
    """A single XPath token.

    Attributes
    ----------
    kind:
        One of the ``KIND_*`` constants below.
    value:
        The token text (with quotes stripped for literals).
    position:
        Character offset of the token in the input expression.
    """

    kind: str
    value: str
    position: int


KIND_NAME = "name"  # NCName / QName (node test, axis, function, operator name)
KIND_NUMBER = "number"
KIND_LITERAL = "literal"
KIND_VARIABLE = "variable"
KIND_SYMBOL = "symbol"
KIND_OPERATOR = "operator"  # resolved operator-name or symbolic operator
KIND_EOF = "eof"

#: Symbols, longest first so that the scanner is greedy.
_SYMBOLS = (
    "..",
    "//",
    "::",
    "!=",
    "<=",
    ">=",
    "(",
    ")",
    "[",
    "]",
    ".",
    "@",
    ",",
    "/",
    "|",
    "+",
    "-",
    "=",
    "<",
    ">",
    "*",
    "$",
)

#: NCNames that act as binary operators when in operator position.
OPERATOR_NAMES = frozenset({"and", "or", "div", "mod"})

_NUMBER_RE = re.compile(r"(\d+(\.\d*)?)|(\.\d+)")
_NAME_RE = re.compile(r"[A-Za-z_][-A-Za-z0-9_.]*(:[A-Za-z_][-A-Za-z0-9_.]*)?")
_WHITESPACE = " \t\r\n"

#: Symbol-token values after which ``*`` and the operator names must NOT be
#: read as operators (XPath 1.0, section 3.7).  A ``*`` name-test token and
#: closing brackets are intentionally absent: after them an operator is
#: expected.
_NON_OPERATOR_PRECEDERS = {
    "@",
    "::",
    "(",
    "[",
    ",",
    "/",
    "//",
    "|",
    "+",
    "-",
    "=",
    "!=",
    "<",
    "<=",
    ">",
    ">=",
    "$",
}


def tokenize(expression: str) -> list[Token]:
    """Tokenise ``expression`` and return the token list (terminated by an EOF token)."""
    tokens: list[Token] = []
    position = 0
    length = len(expression)

    def previous_token() -> Token | None:
        return tokens[-1] if tokens else None

    while position < length:
        char = expression[position]
        if char in _WHITESPACE:
            position += 1
            continue

        if char in ("'", '"'):
            end = expression.find(char, position + 1)
            if end < 0:
                raise XPathSyntaxError("unterminated string literal", position)
            tokens.append(Token(KIND_LITERAL, expression[position + 1 : end], position))
            position = end + 1
            continue

        number_match = _NUMBER_RE.match(expression, position)
        if number_match and (char.isdigit() or (char == "." and number_match.group(3))):
            tokens.append(Token(KIND_NUMBER, number_match.group(0), position))
            position = number_match.end()
            continue

        if char == "$":
            name_match = _NAME_RE.match(expression, position + 1)
            if not name_match:
                raise XPathSyntaxError("expected variable name after '$'", position)
            tokens.append(Token(KIND_VARIABLE, name_match.group(0), position))
            position = name_match.end()
            continue

        symbol = _match_symbol(expression, position)
        if symbol is not None:
            prev = previous_token()
            if symbol == "*" and _in_operator_position(prev):
                tokens.append(Token(KIND_OPERATOR, "*", position))
            else:
                tokens.append(Token(KIND_SYMBOL, symbol, position))
            position += len(symbol)
            continue

        name_match = _NAME_RE.match(expression, position)
        if name_match:
            name = name_match.group(0)
            prev = previous_token()
            if name in OPERATOR_NAMES and _in_operator_position(prev):
                tokens.append(Token(KIND_OPERATOR, name, position))
            else:
                tokens.append(Token(KIND_NAME, name, position))
            position = name_match.end()
            continue

        raise XPathSyntaxError(f"unexpected character {char!r}", position)

    tokens.append(Token(KIND_EOF, "", length))
    return tokens


def _match_symbol(expression: str, position: int) -> str | None:
    for symbol in _SYMBOLS:
        if expression.startswith(symbol, position):
            return symbol
    return None


def _in_operator_position(prev: Token | None) -> bool:
    """Return True if the next ``*`` / name must be interpreted as an operator."""
    if prev is None:
        return False
    if prev.kind in (KIND_NUMBER, KIND_LITERAL, KIND_VARIABLE):
        return True
    if prev.kind == KIND_OPERATOR:
        return False
    if prev.kind == KIND_NAME:
        return True
    # symbol tokens
    return prev.value not in _NON_OPERATOR_PRECEDERS
