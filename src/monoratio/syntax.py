"""The expression language's syntax: AST nodes and a recursive-descent
parser.

Grammar (single variable ``x``, ``^`` right-associative):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := unary ("^" factor)?
    unary  := "-" unary | atom
    atom   := number | "x" | ident "(" expr ("," expr)? ")" | "(" expr ")"

Numbers are decimal literals with an optional exponent.  ``expr``
evaluates the trees.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Union

UNARY_FUNCTIONS = ("neg", "sin", "cos", "exp", "log", "sqrt", "abs", "atan", "tanh")
BINARY_FUNCTIONS = ("min", "max")


class ParseError(ValueError):
    """Syntax or name error, carrying the byte offset where it happened."""

    def __init__(self, offset: int, message: str, expected: str | None = None):
        self.offset = offset
        self.expected = expected
        hint = f", expected {expected}" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    """The single variable x."""


@dataclass(frozen=True)
class Unary:
    op: str  # one of UNARY_FUNCTIONS
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Call2:
    op: str  # min or max
    lhs: "Expr"
    rhs: "Expr"


Expr = Union[Const, Var, Unary, Binary, Call2]


# ---------------------------------------------------------------------------
# Tokenizer / parser

class _Token(NamedTuple):
    kind: str  # "num", "ident", one of "+-*/^(),", or "end"
    text: str
    pos: int


_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_PUNCT = "+-*/^(),"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        raise ParseError(i, f"unexpected character {ch!r}")
    tokens.append(_Token("end", "", n))
    return tokens


_ATOM_HINT = "a number, 'x', a function call, '-', or '('"

# The deepest expression parse accepts: the height of its tree, each
# parenthesised group counting as one more level.  The loop compiler
# recurses once per level and the parser five times per parenthesis, so
# both stay well inside Python's default limit of 1000 frames, inside the
# pipeline's probes too.
MAX_DEPTH = 100


# Recursive descent: every parse_* returns (node, height).  Each recursion
# opens a level first and closes it when its node is made, so an expression
# nested past MAX_DEPTH stops at the token where it passes, before the
# recursion goes deeper.
class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.open = 0  # levels that will sit above the node being parsed

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.pos, f"unexpected token {tok.text!r}", expected=repr(kind))
        return self.take()

    def level(self, tok: _Token, *heights: int, opens: int = 0) -> int:
        """The height of a node at tok over subtrees of these heights."""
        self.open += opens  # 1 opens a level above the operands to come, -1 closes it
        height = 1 + max(heights, default=0)
        if self.open + height > MAX_DEPTH:
            raise ParseError(tok.pos, f"expression nested deeper than {MAX_DEPTH} levels")
        return height

    def parse_expr(self) -> tuple[Expr, int]:
        node, height = self.parse_term()
        while self.peek().kind in ("+", "-"):
            tok, (rhs, rhs_height) = self.take(), self.parse_term()
            node, height = Binary(tok.kind, node, rhs), self.level(tok, height, rhs_height)
        return node, height

    def parse_term(self) -> tuple[Expr, int]:
        node, height = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            tok, (rhs, rhs_height) = self.take(), self.parse_factor()
            node, height = Binary(tok.kind, node, rhs), self.level(tok, height, rhs_height)
        return node, height

    def parse_factor(self) -> tuple[Expr, int]:
        base, height = self.parse_unary()
        if self.peek().kind == "^":
            self.level(tok := self.take(), opens=1)
            exponent, exponent_height = self.parse_factor()  # right-assoc
            return Binary("^", base, exponent), self.level(tok, height, exponent_height, opens=-1)
        return base, height

    def parse_unary(self) -> tuple[Expr, int]:
        if self.peek().kind == "-":
            self.level(tok := self.take(), opens=1)
            arg, height = self.parse_unary()
            return Unary("neg", arg), self.level(tok, height, opens=-1)
        return self.parse_atom()

    def parse_atom(self) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            return Const(float(tok.text)), 1
        if tok.kind == "(":
            self.level(self.take(), opens=1)
            node, height = self.parse_expr()
            self.expect(")")
            return node, self.level(tok, height, opens=-1)
        if tok.kind == "ident":
            self.take()
            if tok.text == "x":
                return Var(), 1
            if tok.text in UNARY_FUNCTIONS:
                self.level(self.expect("("), opens=1)
                arg, height = self.parse_expr()
                self.expect(")")
                return Unary(tok.text, arg), self.level(tok, height, opens=-1)
            if tok.text in BINARY_FUNCTIONS:
                self.level(self.expect("("), opens=1)
                lhs, lhs_height = self.parse_expr()
                self.expect(",")
                rhs, rhs_height = self.parse_expr()
                self.expect(")")
                return Call2(tok.text, lhs, rhs), self.level(tok, lhs_height, rhs_height, opens=-1)
            raise ParseError(tok.pos, f"unknown identifier {tok.text!r}")
        raise ParseError(tok.pos, f"unexpected token {tok.text!r}", expected=_ATOM_HINT)


def parse(text: str) -> Expr:
    """Parse ``text`` into an AST, or raise ParseError with an offset."""
    if not text.strip():
        raise ParseError(0, "empty expression", expected=_ATOM_HINT)
    parser = _Parser(_tokenize(text))
    node, _ = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(tail.pos, f"unexpected token {tail.text!r}", expected="end of input")
    return node
