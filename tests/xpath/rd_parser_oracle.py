"""The recursive-descent XPath parser: the parser differential's oracle.

This is the parser ``repro.xpath.parser`` shipped before its
precedence-climbing rewrite, kept verbatim: one method per grammar
production, ten levels (``parse_or_expr`` … ``parse_union_expr``) run for
every operand, and every token is inspected through ``current`` /
``accept_symbol``.  The production parser climbs one binary-operator
table with an explicit stack, so the two share no expression-parsing
code; ``tests/properties/test_property_parser_oracle.py`` requires the
same AST and, for rejected text, the same
:class:`~repro.errors.XPathSyntaxError` message and offset.  Both read
the production ``tokenize``.  Test support only — never imported by
``src/``.

The original module docstring follows.

Recursive-descent parser for XPath 1.0.

The parser follows the grammar of the W3C recommendation; abbreviated
syntax (``//``, ``.``, ``..``, ``@``, implicit ``child::`` axes) is expanded
during parsing so that the AST only ever contains fully spelled-out steps.
This keeps the evaluators and the fragment classifiers free of
abbreviation-handling logic, exactly as the paper's grammar
(Definition 2.5) assumes.

The parser (like every consumer of the AST it builds) recurses once per
nesting level, so nesting is bounded: an expression that nests
parentheses, predicates, function arguments and unary minuses more than
:data:`MAX_NESTING_DEPTH` deep is refused with
:class:`~repro.errors.XPathSyntaxError` at the token that goes one level
too far, instead of exhausting the interpreter stack.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import XPathSyntaxError
from repro.xpath.ast import (
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
AXIS_NAMES = frozenset(
    {
        "self",
        "child",
        "parent",
        "descendant",
        "descendant-or-self",
        "ancestor",
        "ancestor-or-self",
        "following",
        "following-sibling",
        "preceding",
        "preceding-sibling",
        "attribute",
    }
)

#: Node-type test names.
NODE_TYPE_NAMES = frozenset({"node", "text", "comment", "processing-instruction"})

#: Deepest nesting of parentheses, predicates, function arguments and
#: unary minuses the parser accepts.  A level costs at most 14 interpreter
#: frames here, so the limit is reached well inside CPython's default
#: recursion limit of 1000 even when ``parse`` is called from a deep stack;
#: hand-written and generated queries in this repository nest ≤ 10 deep.
MAX_NESTING_DEPTH = 32

_DESCENDANT_OR_SELF_STEP = Step("descendant-or-self", NodeTest("type", "node()"), ())


def parse(expression: str) -> XPathExpr:
    """Parse an XPath 1.0 expression string into an AST."""
    return _Parser(expression).parse()


def parse_location_path(expression: str) -> LocationPath:
    """Parse ``expression`` and require the result to be a location path."""
    expr = parse(expression)
    if not isinstance(expr, LocationPath):
        raise XPathSyntaxError(
            f"expected a location path, got {type(expr).__name__}: {expression!r}"
        )
    return expr


class _Parser:
    """Token-stream cursor with one method per grammar production."""

    def __init__(self, expression: str) -> None:
        self.expression = expression
        self.tokens = tokenize(expression)
        self.index = 0
        self.depth = 0

    # -- token helpers -------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def peek(self, offset: int = 1) -> Token:
        index = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.kind != KIND_EOF:
            self.index += 1
        return token

    def accept_symbol(self, *values: str) -> Token | None:
        if self.current.kind == KIND_SYMBOL and self.current.value in values:
            return self.advance()
        return None

    def accept_operator(self, *values: str) -> Token | None:
        if self.current.kind == KIND_OPERATOR and self.current.value in values:
            return self.advance()
        return None

    def expect_symbol(self, value: str) -> Token:
        token = self.accept_symbol(value)
        if token is None:
            raise XPathSyntaxError(
                f"expected {value!r}, found {self.current.value!r}", self.current.position
            )
        return token

    def error(self, message: str) -> XPathSyntaxError:
        return XPathSyntaxError(message, self.current.position)

    def nested(self, production: Callable[[], XPathExpr]) -> XPathExpr:
        """Run ``production`` one nesting level down (see :data:`MAX_NESTING_DEPTH`)."""
        if self.depth == MAX_NESTING_DEPTH:
            raise self.error(
                f"expression nests deeper than {MAX_NESTING_DEPTH} levels"
            )
        self.depth += 1
        try:
            return production()
        finally:
            self.depth -= 1

    # -- entry point -----------------------------------------------------------

    def parse(self) -> XPathExpr:
        expr = self.parse_or_expr()
        if self.current.kind != KIND_EOF:
            raise self.error(f"unexpected trailing token {self.current.value!r}")
        return expr

    # -- expression grammar ------------------------------------------------------

    def parse_or_expr(self) -> XPathExpr:
        expr = self.parse_and_expr()
        while self.accept_operator("or"):
            expr = BinaryOp("or", expr, self.parse_and_expr())
        return expr

    def parse_and_expr(self) -> XPathExpr:
        expr = self.parse_equality_expr()
        while self.accept_operator("and"):
            expr = BinaryOp("and", expr, self.parse_equality_expr())
        return expr

    def parse_equality_expr(self) -> XPathExpr:
        expr = self.parse_relational_expr()
        while True:
            token = self.accept_symbol("=", "!=")
            if token is None:
                return expr
            expr = BinaryOp(token.value, expr, self.parse_relational_expr())

    def parse_relational_expr(self) -> XPathExpr:
        expr = self.parse_additive_expr()
        while True:
            token = self.accept_symbol("<", "<=", ">", ">=")
            if token is None:
                return expr
            expr = BinaryOp(token.value, expr, self.parse_additive_expr())

    def parse_additive_expr(self) -> XPathExpr:
        expr = self.parse_multiplicative_expr()
        while True:
            token = self.accept_symbol("+", "-")
            if token is None:
                return expr
            expr = BinaryOp(token.value, expr, self.parse_multiplicative_expr())

    def parse_multiplicative_expr(self) -> XPathExpr:
        expr = self.parse_unary_expr()
        while True:
            token = self.accept_operator("*", "div", "mod")
            if token is None:
                return expr
            expr = BinaryOp(token.value, expr, self.parse_unary_expr())

    def parse_unary_expr(self) -> XPathExpr:
        if self.accept_symbol("-"):
            return Negate(self.nested(self.parse_unary_expr))
        return self.parse_union_expr()

    def parse_union_expr(self) -> XPathExpr:
        expr = self.parse_path_expr()
        while self.accept_symbol("|"):
            expr = BinaryOp("|", expr, self.parse_path_expr())
        return expr

    # -- paths ------------------------------------------------------------------

    def parse_path_expr(self) -> XPathExpr:
        if self._starts_filter_expr():
            filter_expr = self.parse_filter_expr()
            separator = self.accept_symbol("/", "//")
            if separator is None:
                return filter_expr
            steps: list[Step] = []
            if separator.value == "//":
                steps.append(_DESCENDANT_OR_SELF_STEP)
            steps.extend(self._parse_relative_steps())
            return PathExpr(filter_expr, LocationPath(False, tuple(steps)))
        return self.parse_location_path()

    def _starts_filter_expr(self) -> bool:
        token = self.current
        if token.kind in (KIND_VARIABLE, KIND_LITERAL, KIND_NUMBER):
            return True
        if token.kind == KIND_SYMBOL and token.value == "(":
            return True
        if token.kind == KIND_NAME and self.peek().kind == KIND_SYMBOL and self.peek().value == "(":
            return token.value not in NODE_TYPE_NAMES
        return False

    def parse_filter_expr(self) -> XPathExpr:
        expr = self.parse_primary_expr()
        predicates: list[XPathExpr] = []
        while self.accept_symbol("["):
            predicates.append(self.nested(self.parse_or_expr))
            self.expect_symbol("]")
        if predicates:
            return FilterExpr(expr, tuple(predicates))
        return expr

    def parse_primary_expr(self) -> XPathExpr:
        token = self.current
        if token.kind == KIND_VARIABLE:
            self.advance()
            return VariableReference(token.value)
        if token.kind == KIND_LITERAL:
            self.advance()
            return Literal(token.value)
        if token.kind == KIND_NUMBER:
            self.advance()
            return Number(float(token.value))
        if token.kind == KIND_SYMBOL and token.value == "(":
            self.advance()
            expr = self.nested(self.parse_or_expr)
            self.expect_symbol(")")
            return expr
        if token.kind == KIND_NAME:
            return self.parse_function_call()
        raise self.error(f"unexpected token {token.value!r}")

    def parse_function_call(self) -> FunctionCall:
        name_token = self.advance()
        self.expect_symbol("(")
        args: list[XPathExpr] = []
        if not (self.current.kind == KIND_SYMBOL and self.current.value == ")"):
            args.append(self.nested(self.parse_or_expr))
            while self.accept_symbol(","):
                args.append(self.nested(self.parse_or_expr))
        self.expect_symbol(")")
        return FunctionCall(name_token.value, tuple(args))

    def parse_location_path(self) -> LocationPath:
        if self.accept_symbol("//"):
            steps = [_DESCENDANT_OR_SELF_STEP]
            steps.extend(self._parse_relative_steps())
            return LocationPath(True, tuple(steps))
        if self.accept_symbol("/"):
            if self._starts_step():
                return LocationPath(True, tuple(self._parse_relative_steps()))
            return LocationPath(True, ())
        return LocationPath(False, tuple(self._parse_relative_steps()))

    def _parse_relative_steps(self) -> list[Step]:
        steps = [self.parse_step()]
        while True:
            separator = self.accept_symbol("/", "//")
            if separator is None:
                return steps
            if separator.value == "//":
                steps.append(_DESCENDANT_OR_SELF_STEP)
            steps.append(self.parse_step())

    def _starts_step(self) -> bool:
        token = self.current
        if token.kind == KIND_NAME:
            return True
        if token.kind == KIND_SYMBOL and token.value in (".", "..", "@", "*"):
            return True
        return False

    def parse_step(self) -> Step:
        if self.accept_symbol("."):
            return Step("self", NodeTest("type", "node()"), ())
        if self.accept_symbol(".."):
            return Step("parent", NodeTest("type", "node()"), ())

        axis = "child"
        if self.accept_symbol("@"):
            axis = "attribute"
        elif (
            self.current.kind == KIND_NAME
            and self.current.value in AXIS_NAMES
            and self.peek().kind == KIND_SYMBOL
            and self.peek().value == "::"
        ):
            axis = self.advance().value
            self.advance()  # '::'

        node_test = self.parse_node_test()
        predicates: list[XPathExpr] = []
        while self.accept_symbol("["):
            predicates.append(self.nested(self.parse_or_expr))
            self.expect_symbol("]")
        return Step(axis, node_test, tuple(predicates))

    def parse_node_test(self) -> NodeTest:
        token = self.current
        if token.kind == KIND_SYMBOL and token.value == "*":
            self.advance()
            return NodeTest("name", "*")
        if token.kind != KIND_NAME:
            raise self.error(f"expected a node test, found {token.value!r}")
        name = self.advance().value
        if name in NODE_TYPE_NAMES and self.current.kind == KIND_SYMBOL and self.current.value == "(":
            self.advance()
            argument = ""
            if self.current.kind == KIND_LITERAL:
                argument = f"'{self.advance().value}'"
            self.expect_symbol(")")
            if argument and name != "processing-instruction":
                raise self.error(f"node test {name}() does not take an argument")
            return NodeTest("type", f"{name}({argument})")
        return NodeTest("name", name)
