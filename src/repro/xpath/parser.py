"""Precedence-climbing parser for XPath 1.0.

The parser follows the grammar of the W3C recommendation; abbreviated
syntax (``//``, ``.``, ``..``, ``@``, implicit ``child::`` axes) is expanded
during parsing so that the AST only ever contains fully spelled-out steps,
exactly as the paper's grammar (Definition 2.5) assumes.

The six binary levels (``or`` … ``*``/``div``/``mod``) are one table,
:data:`BINARY_OPERATORS`, climbed by one loop with a stack of operators
awaiting their right operand (Pratt, "Top down operator precedence",
1973): an operand costs one table probe, not a descent through every
level, and chains come out left-associative.  An operand is ``-``* then
path expressions joined by ``|``; a path expression is dispatched on its
first token.  Location paths keep the recommendation's productions
[1]–[4] (as pyang's parser does), so ``.[a]`` is refused.  The
recursive-descent parser this replaced is the oracle of
``tests/properties/test_property_parser_oracle.py``.

The parser recurses once per nesting level, so an expression that nests
parentheses, predicates, function arguments and unary minuses more than
:data:`MAX_NESTING_DEPTH` deep is refused with
:class:`~repro.errors.XPathSyntaxError` at the token that goes one level
too far, instead of exhausting the interpreter stack.
"""

from __future__ import annotations

from repro.errors import XPathSyntaxError
from repro.xpath.ast import (
    NAME_WILDCARD,
    NODE_TYPE_NODE,
    BinaryOp,
    FilterExpr,
    FunctionCall,
    Literal,
    LocationPath,
    Negate,
    NodeTest,
    Number,
    PathExpr,
    Step,
    VariableReference,
    XPathExpr,
)
from repro.xpath.lexer import (
    KIND_EOF,
    KIND_LITERAL,
    KIND_NAME,
    KIND_NUMBER,
    KIND_OPERATOR,
    KIND_SYMBOL,
    KIND_VARIABLE,
    Token,
    tokenize,
)

#: Axis names of XPath 1.0 accepted by the parser (namespace axis excluded).
AXIS_NAMES = frozenset({
    "self", "child", "parent", "descendant", "descendant-or-self", "ancestor",
    "ancestor-or-self", "following", "following-sibling", "preceding",
    "preceding-sibling", "attribute",
})

#: Node-type test names.
NODE_TYPE_NAMES = frozenset({"node", "text", "comment", "processing-instruction"})

#: Binary operator → (token kind, precedence); a higher precedence binds
#: tighter.  ``|`` is not here: it joins path expressions inside an
#: operand, below unary minus (``-a | b`` is ``-(a | b)``).
BINARY_OPERATORS = {
    "or": (KIND_OPERATOR, 1),
    "and": (KIND_OPERATOR, 2),
    "=": (KIND_SYMBOL, 3), "!=": (KIND_SYMBOL, 3),
    "<": (KIND_SYMBOL, 4), "<=": (KIND_SYMBOL, 4), ">": (KIND_SYMBOL, 4), ">=": (KIND_SYMBOL, 4),
    "+": (KIND_SYMBOL, 5), "-": (KIND_SYMBOL, 5),
    "*": (KIND_OPERATOR, 6), "div": (KIND_OPERATOR, 6), "mod": (KIND_OPERATOR, 6),
}

#: Deepest nesting of parentheses, predicates, function arguments and
#: unary minuses the parser accepts.  A level costs at most 6 interpreter
#: frames here, so the limit is reached well inside CPython's default
#: recursion limit of 1000 even when ``parse`` is called from a deep stack;
#: hand-written and generated queries in this repository nest ≤ 10 deep.
MAX_NESTING_DEPTH = 32

_DESCENDANT_OR_SELF_STEP = Step("descendant-or-self", NODE_TYPE_NODE, ())
#: The abbreviated steps ``.`` and ``..`` (XPath 1.0 production [12]).
_ABBREVIATED_STEPS = {
    ".": Step("self", NODE_TYPE_NODE, ()),
    "..": Step("parent", NODE_TYPE_NODE, ()),
}
#: Symbols that can begin a step (besides a name).
_STEP_SYMBOLS = frozenset({".", "..", "@", "*"})


def parse(expression: str) -> XPathExpr:
    """Parse an XPath 1.0 expression string into an AST."""
    parser = _Parser(tokenize(expression))
    expr = parser.expression()
    token = parser.tokens[parser.index]
    if token.kind != KIND_EOF:
        raise XPathSyntaxError(f"unexpected trailing token {token.value!r}", token.position)
    return expr


def parse_location_path(expression: str) -> LocationPath:
    """Parse ``expression`` and require the result to be a location path."""
    expr = parse(expression)
    if not isinstance(expr, LocationPath):
        raise XPathSyntaxError(
            f"expected a location path, got {type(expr).__name__}: {expression!r}"
        )
    return expr


def _expected(what: str, token: Token) -> XPathSyntaxError:
    return XPathSyntaxError(f"expected {what}, found {token.value!r}", token.position)


class _Parser:
    """One parse: the token list, the cursor into it and the open nesting depth.

    The cursor only moves past a token once that token has been matched,
    and the EOF token ends every list, so ``tokens[index + 1]`` exists
    whenever ``tokens[index]`` is not EOF.  A syntax error abandons the
    parser, so nothing restores :attr:`depth` on the way out.
    """

    __slots__ = ("tokens", "index", "depth")

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.index = 0
        self.depth = 0

    def expect(self, symbol: str) -> None:
        token = self.tokens[self.index]
        if token.value != symbol or token.kind != KIND_SYMBOL:
            raise _expected(repr(symbol), token)
        self.index += 1

    def nested(self, negated: bool = False) -> XPathExpr:
        """One nesting level down: a predicate, group or argument, or ``-``'s operand."""
        if self.depth == MAX_NESTING_DEPTH:
            raise XPathSyntaxError(
                f"expression nests deeper than {MAX_NESTING_DEPTH} levels",
                self.tokens[self.index].position,
            )
        self.depth += 1
        expr = Negate(self.operand()) if negated else self.expression()
        self.depth -= 1
        return expr

    # -- expressions ---------------------------------------------------------------

    def expression(self) -> XPathExpr:
        """Expr: operands joined by :data:`BINARY_OPERATORS`, climbed by precedence."""
        tokens = self.tokens
        left = self.operand()
        # (precedence, operator, left operand) awaiting their right operand,
        # precedences strictly increasing up the stack; anything that is no
        # binary operator has precedence 0 and closes every chain.
        pending: list[tuple[int, str, XPathExpr]] = []
        while True:
            token = tokens[self.index]
            operator = BINARY_OPERATORS.get(token.value)
            precedence = operator[1] if operator and operator[0] == token.kind else 0
            while pending and pending[-1][0] >= precedence:
                _, op, first = pending.pop()
                left = BinaryOp(op, first, left)
            if not precedence:
                return left
            pending.append((precedence, token.value, left))
            self.index += 1
            left = self.operand()

    def operand(self) -> XPathExpr:
        """UnaryExpr: ``-`` UnaryExpr, or path expressions joined by ``|``."""
        tokens = self.tokens
        token = tokens[self.index]
        if token.value == "-" and token.kind == KIND_SYMBOL:
            self.index += 1
            return self.nested(negated=True)
        expr = self.path()
        token = tokens[self.index]
        while token.value == "|" and token.kind == KIND_SYMBOL:
            self.index += 1
            expr = BinaryOp("|", expr, self.path())
            token = tokens[self.index]
        return expr

    def path(self) -> XPathExpr:
        """PathExpr: a location path, or a filter expression with an optional tail."""
        tokens = self.tokens
        index = self.index
        token = tokens[index]
        kind, value = token.kind, token.value
        if kind == KIND_NAME:
            following = tokens[index + 1]
            if following.value != "(" or following.kind != KIND_SYMBOL or value in NODE_TYPE_NAMES:
                return LocationPath(False, self.steps([]))
            self.index = index + 2
            primary: XPathExpr = self.call(value)
        elif kind == KIND_SYMBOL and value in ("/", "//"):
            self.index = index + 1
            if value == "//":
                return LocationPath(True, self.steps([_DESCENDANT_OR_SELF_STEP]))
            following = tokens[index + 1]
            if following.kind == KIND_NAME or (
                following.kind == KIND_SYMBOL and following.value in _STEP_SYMBOLS
            ):
                return LocationPath(True, self.steps([]))
            return LocationPath(True, ())
        elif kind == KIND_SYMBOL and value == "(":
            self.index = index + 1
            primary = self.nested()
            self.expect(")")
        elif kind == KIND_NUMBER:
            self.index = index + 1
            primary = Number(float(value))
        elif kind == KIND_LITERAL:
            self.index = index + 1
            primary = Literal(value)
        elif kind == KIND_VARIABLE:
            self.index = index + 1
            primary = VariableReference(value)
        else:  # a step's symbol, or else the step's node test words the error
            return LocationPath(False, self.steps([]))
        token = tokens[self.index]
        if token.value == "[" and token.kind == KIND_SYMBOL:
            primary = FilterExpr(primary, self.predicates())
            token = tokens[self.index]
        if token.kind == KIND_SYMBOL and token.value in ("/", "//"):
            self.index += 1
            steps = [_DESCENDANT_OR_SELF_STEP] if token.value == "//" else []
            return PathExpr(primary, LocationPath(False, self.steps(steps)))
        return primary

    def call(self, name: str) -> FunctionCall:
        """FunctionCall's arguments, the cursor just past its ``(``."""
        tokens = self.tokens
        token = tokens[self.index]
        args: list[XPathExpr] = []
        if token.value != ")" or token.kind != KIND_SYMBOL:
            args.append(self.nested())
            token = tokens[self.index]
            while token.value == "," and token.kind == KIND_SYMBOL:
                self.index += 1
                args.append(self.nested())
                token = tokens[self.index]
        self.expect(")")
        return FunctionCall(name, tuple(args))

    def predicates(self) -> tuple[XPathExpr, ...]:
        """Predicate+: ``[`` Expr ``]`` from the ``[`` at the cursor on."""
        tokens = self.tokens
        predicates = []
        while True:
            self.index += 1
            predicates.append(self.nested())
            self.expect("]")
            token = tokens[self.index]
            if token.value != "[" or token.kind != KIND_SYMBOL:
                return tuple(predicates)

    # -- location paths --------------------------------------------------------------

    def steps(self, steps: list[Step]) -> tuple[Step, ...]:
        """RelativeLocationPath: Step (``/`` Step | ``//`` Step)*, after ``steps``."""
        tokens = self.tokens
        index = self.index
        while True:
            token = tokens[index]
            kind, value = token.kind, token.value
            if kind == KIND_SYMBOL and value in _ABBREVIATED_STEPS:
                steps.append(_ABBREVIATED_STEPS[value])  # takes no predicates
                index += 1
            else:
                axis = "child"
                if kind == KIND_NAME and value in AXIS_NAMES:
                    following = tokens[index + 1]
                    if following.value == "::" and following.kind == KIND_SYMBOL:
                        axis = value
                        index += 2
                elif value == "@" and kind == KIND_SYMBOL:
                    axis = "attribute"
                    index += 1
                token = tokens[index]  # the NodeTest
                if token.kind == KIND_NAME:
                    index += 1
                    following = tokens[index]
                    if token.value in NODE_TYPE_NAMES and (
                        following.value == "(" and following.kind == KIND_SYMBOL
                    ):
                        self.index = index + 1
                        test = self.node_type_test(token.value)
                        index = self.index
                    else:
                        test = NodeTest("name", token.value)
                elif token.value == "*" and token.kind == KIND_SYMBOL:
                    test = NAME_WILDCARD
                    index += 1
                else:
                    raise _expected("a node test", token)
                token = tokens[index]
                if token.value == "[" and token.kind == KIND_SYMBOL:
                    self.index = index
                    steps.append(Step(axis, test, self.predicates()))
                    index = self.index
                else:
                    steps.append(Step(axis, test, ()))
            token = tokens[index]
            if token.kind != KIND_SYMBOL or token.value not in ("/", "//"):
                self.index = index
                return tuple(steps)
            if token.value == "//":
                steps.append(_DESCENDANT_OR_SELF_STEP)
            index += 1

    def node_type_test(self, name: str) -> NodeTest:
        """NodeType ``(`` Literal? ``)``, the cursor just past the ``(``."""
        token = self.tokens[self.index]
        argument = ""
        if token.kind == KIND_LITERAL:
            argument = f"'{token.value}'"
            self.index += 1
        self.expect(")")
        if argument and name != "processing-instruction":
            raise XPathSyntaxError(
                f"node test {name}() does not take an argument",
                self.tokens[self.index].position,
            )
        return NodeTest("type", f"{name}({argument})")
