"""Tokeniser for XPath 1.0 expressions.

The lexer follows the W3C XPath 1.0 lexical structure, including the two
disambiguation rules of section 3.7 of the recommendation:

* ``*`` is the multiplication operator (rather than a wildcard name test)
  when the preceding token implies that an operator is expected;
* an NCName is an operator name (``and``, ``or``, ``div``, ``mod``) in the
  same situation, a function name when followed by ``(``, and an axis name
  when followed by ``::``.

The expression is read once: one compiled master pattern — leading
whitespace, then a number, a name, a symbol, a ``$variable`` or a quoted
literal — is matched at a cursor, and "an operator is expected here" is
one boolean carried from token to token.  Where the pattern stops
matching, the character it stopped at words the error.  The
character-at-a-time scanner this replaced lives on as the oracle of
``tests/properties/test_property_lexer.py``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import XPathSyntaxError


@dataclass(slots=True, unsafe_hash=True)
class Token:
    """A single XPath token.

    A plain slotted record (not frozen: a frozen dataclass pays an
    ``object.__setattr__`` per field, three per token of every query).

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

#: NCNames that act as binary operators when in operator position.
OPERATOR_NAMES = frozenset({"and", "or", "div", "mod"})

_NAME = r"[A-Za-z_][-A-Za-z0-9_.]*(?::[A-Za-z_][-A-Za-z0-9_.]*)?"

#: One token, after any whitespace.  Alternatives are tried in order: a
#: number before the symbols so ``.5`` is not read as ``.``, two-character
#: symbols before their one-character prefixes.  Exactly one group
#: participates in a match and names the token's shape.
_TOKEN_RE = re.compile(
    rf"""[ \t\r\n]*(?:
        (?P<number>\d+(?:\.\d*)?|\.\d+)
      | (?P<name>{_NAME})
      | (?P<symbol>\.\.|//|::|!=|<=|>=|[()\[\].@,/|+\-=<>*])
      | \$(?P<variable>{_NAME})
      | "(?P<double>[^"]*)" | '(?P<single>[^']*)'
    )""",
    re.VERBOSE,
)
_WHITESPACE_RE = re.compile(r"[ \t\r\n]*")

#: Matched group → (token kind, characters before the group that belong to
#: the token: the ``$`` of a variable, the opening quote of a literal).
_SHAPES = {
    "number": (KIND_NUMBER, 0),
    "name": (KIND_NAME, 0),
    "symbol": (KIND_SYMBOL, 0),
    "variable": (KIND_VARIABLE, 1),
    "double": (KIND_LITERAL, 1),
    "single": (KIND_LITERAL, 1),
}

#: Symbols after which an operand has just ended, so that a following ``*``
#: or operator name IS an operator (XPath 1.0, section 3.7): the closing
#: brackets, the abbreviated steps and a ``*`` name test.  Every other
#: symbol — and every operator — is followed by an operand.
_OPERAND_ENDING_SYMBOLS = frozenset({")", "]", ".", "..", "*"})


def tokenize(expression: str) -> list[Token]:
    """Tokenise ``expression`` and return the token list (terminated by an EOF token)."""
    tokens: list[Token] = []
    append = tokens.append
    match_token = _TOKEN_RE.match
    position = 0
    # True when the previous token ended an operand: the next ``*`` or
    # and/or/div/mod is then an operator, not a name test.
    operator_expected = False
    while True:
        match = match_token(expression, position)
        if match is None:
            break
        group = match.lastgroup
        kind, lead = _SHAPES[group]
        value = match.group(group)
        if kind == KIND_SYMBOL:
            if operator_expected and value == "*":
                kind = KIND_OPERATOR
                operator_expected = False
            else:
                operator_expected = value in _OPERAND_ENDING_SYMBOLS
        elif operator_expected and kind == KIND_NAME and value in OPERATOR_NAMES:
            kind = KIND_OPERATOR
            operator_expected = False
        else:
            operator_expected = True
        append(Token(kind, value, match.start(group) - lead))
        position = match.end()

    # Nothing matched here: the end of the text, or the character to blame.
    stopped = _WHITESPACE_RE.match(expression, position).end()
    if stopped < len(expression):
        char = expression[stopped]
        if char in "'\"":
            raise XPathSyntaxError("unterminated string literal", stopped)
        if char == "$":
            raise XPathSyntaxError("expected variable name after '$'", stopped)
        raise XPathSyntaxError(f"unexpected character {char!r}", stopped)
    append(Token(KIND_EOF, "", len(expression)))
    return tokens
