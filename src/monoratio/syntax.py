"""The expression language's syntax: AST nodes, a recursive-descent
parser and a pretty printer.

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


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

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

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            node = Binary(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.take().kind
            node = Binary(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        base = self.parse_unary()
        if self.peek().kind == "^":
            self.take()
            return Binary("^", base, self.parse_factor())  # right-assoc
        return base

    def parse_unary(self) -> Expr:
        if self.peek().kind == "-":
            self.take()
            return Unary("neg", self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            return Const(float(tok.text))
        if tok.kind == "(":
            self.take()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            self.take()
            if tok.text == "x":
                return Var()
            if tok.text in UNARY_FUNCTIONS:
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                return Unary(tok.text, arg)
            if tok.text in BINARY_FUNCTIONS:
                self.expect("(")
                lhs = self.parse_expr()
                self.expect(",")
                rhs = self.parse_expr()
                self.expect(")")
                return Call2(tok.text, lhs, rhs)
            raise ParseError(tok.pos, f"unknown identifier {tok.text!r}")
        raise ParseError(tok.pos, f"unexpected token {tok.text!r}", expected=_ATOM_HINT)


def parse(text: str) -> Expr:
    """Parse ``text`` into an AST, or raise ParseError with an offset."""
    if not text.strip():
        raise ParseError(0, "empty expression", expected=_ATOM_HINT)
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(tail.pos, f"unexpected token {tail.text!r}", expected="end of input")
    return node


# ---------------------------------------------------------------------------
# Pretty printer
#
# Binding strength mirrors the grammar so parse(format_expr(t)) == t for
# any parser-produced tree.  (The parser never emits negative Const nodes,
# so constants print unsigned.)

_ADD, _MUL, _POW, _UNARY, _ATOM = 1, 2, 3, 4, 5


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _fmt(node: Expr, need: int) -> str:
    if isinstance(node, Const):
        return _fmt_num(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Call2):
        return f"{node.op}({_fmt(node.lhs, _ADD)}, {_fmt(node.rhs, _ADD)})"
    if isinstance(node, Unary):
        if node.op == "neg":
            s, lvl = "-" + _fmt(node.arg, _UNARY), _UNARY
        else:
            return f"{node.op}({_fmt(node.arg, _ADD)})"
    else:  # Binary
        op = node.op
        if op in "+-":
            s, lvl = f"{_fmt(node.lhs, _ADD)} {op} {_fmt(node.rhs, _MUL)}", _ADD
        elif op in "*/":
            s, lvl = f"{_fmt(node.lhs, _MUL)}{op}{_fmt(node.rhs, _POW)}", _MUL
        else:  # ^  (left side must be a unary, right side a factor)
            s, lvl = f"{_fmt(node.lhs, _UNARY)}^{_fmt(node.rhs, _POW)}", _POW
    return f"({s})" if lvl < need else s


def format_expr(node: Expr) -> str:
    """Render an AST back to source text."""
    return _fmt(node, _ADD)
