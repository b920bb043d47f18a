"""Small math expression language: recursive-descent parser plus
forward-mode dual-number evaluation.

Grammar (single variable ``x``, ``^`` right-associative):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := unary ("^" factor)?
    unary  := "-" unary | atom
    atom   := number | "x" | ident "(" expr ("," expr)? ")" | "(" expr ")"

Numbers are decimal literals with an optional exponent.  Derivatives are
propagated through dual numbers; nothing is rewritten symbolically.
"""

from __future__ import annotations

import math
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


class DomainFault(ArithmeticError):
    """Evaluation left the function's domain at a specific point."""

    def __init__(self, x: float, reason: str):
        self.x = x
        self.reason = reason
        super().__init__(f"{reason} at x = {x!r}")


class _Fault(Exception):
    """Internal domain error; eval_dual attaches the offending x."""

    def __init__(self, reason: str):
        self.reason = reason


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


# ---------------------------------------------------------------------------
# Dual numbers

@dataclass(frozen=True)
class Dual:
    """First-order dual number (value, derivative)."""

    value: float
    deriv: float

    @staticmethod
    def _coerce(other) -> "Dual":
        if isinstance(other, Dual):
            return other
        return Dual(float(other), 0.0)

    def __add__(self, other):
        o = Dual._coerce(other)
        return Dual(self.value + o.value, self.deriv + o.deriv)

    __radd__ = __add__

    def __sub__(self, other):
        o = Dual._coerce(other)
        return Dual(self.value - o.value, self.deriv - o.deriv)

    def __rsub__(self, other):
        o = Dual._coerce(other)
        return Dual(o.value - self.value, o.deriv - self.deriv)

    def __mul__(self, other):
        o = Dual._coerce(other)
        return Dual(self.value * o.value, self.deriv * o.value + self.value * o.deriv)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Dual._coerce(other)
        if o.value == 0.0:
            raise ZeroDivisionError("division by zero")
        inv = 1.0 / o.value
        return Dual(self.value * inv, (self.deriv * o.value - self.value * o.deriv) * inv * inv)

    def __rtruediv__(self, other):
        return Dual._coerce(other).__truediv__(self)

    def __neg__(self):
        return Dual(-self.value, -self.deriv)


def _u_sin(u: Dual) -> Dual:
    return Dual(math.sin(u.value), math.cos(u.value) * u.deriv)


def _u_cos(u: Dual) -> Dual:
    return Dual(math.cos(u.value), -math.sin(u.value) * u.deriv)


def _u_exp(u: Dual) -> Dual:
    try:
        v = math.exp(u.value)
    except OverflowError:
        raise _Fault("exp overflow") from None
    return Dual(v, v * u.deriv)


def _u_log(u: Dual) -> Dual:
    if u.value <= 0.0:
        raise _Fault("log of non-positive argument")
    return Dual(math.log(u.value), u.deriv / u.value)


def _u_sqrt(u: Dual) -> Dual:
    if u.value < 0.0:
        raise _Fault("sqrt of negative argument")
    if u.value == 0.0:
        if u.deriv == 0.0:
            return Dual(0.0, 0.0)
        raise _Fault("sqrt derivative singular at zero")
    v = math.sqrt(u.value)
    return Dual(v, u.deriv / (2.0 * v))


def _u_abs(u: Dual) -> Dual:
    # abs'(0) := 0 by convention
    s = 1.0 if u.value > 0.0 else (-1.0 if u.value < 0.0 else 0.0)
    return Dual(abs(u.value), s * u.deriv)


def _u_atan(u: Dual) -> Dual:
    return Dual(math.atan(u.value), u.deriv / (1.0 + u.value * u.value))


def _u_tanh(u: Dual) -> Dual:
    t = math.tanh(u.value)
    return Dual(t, (1.0 - t * t) * u.deriv)


_UNARY_IMPL = {
    "neg": Dual.__neg__, "sin": _u_sin, "cos": _u_cos, "exp": _u_exp,
    "log": _u_log, "sqrt": _u_sqrt, "abs": _u_abs, "atan": _u_atan,
    "tanh": _u_tanh,
}


def _d_pow(a: Dual, b: Dual) -> Dual:
    if b.deriv == 0.0:
        # constant exponent: also covers negative bases with integer powers
        c = b.value
        if a.value == 0.0:
            if c < 0.0:
                raise _Fault("zero raised to a negative power")
            if c == 0.0:
                return Dual(1.0, 0.0)
            if c == 1.0:
                return Dual(0.0, a.deriv)
            if c < 1.0:
                if a.deriv == 0.0:
                    return Dual(0.0, 0.0)
                raise _Fault("power derivative singular at zero base")
            return Dual(0.0, 0.0)
        if a.value < 0.0:
            if c != round(c):
                raise _Fault("negative base with non-integer exponent")
            n = int(round(c))
            try:
                v = a.value ** n
            except OverflowError:
                raise _Fault("pow overflow") from None
            return Dual(v, n * a.value ** (n - 1) * a.deriv)
        try:
            v = a.value ** c
            d = c * a.value ** (c - 1.0) * a.deriv
        except OverflowError:
            raise _Fault("pow overflow") from None
        return Dual(v, d)
    if a.value <= 0.0:
        raise _Fault("non-positive base with non-constant exponent")
    try:
        v = a.value ** b.value
    except OverflowError:
        raise _Fault("pow overflow") from None
    return Dual(v, v * (b.deriv * math.log(a.value) + b.value * a.deriv / a.value))


def _eval(node: Expr, xd: Dual) -> Dual:
    if isinstance(node, Const):
        return Dual(node.value, 0.0)
    if isinstance(node, Var):
        return xd
    if isinstance(node, Unary):
        return _UNARY_IMPL[node.op](_eval(node.arg, xd))
    if isinstance(node, Binary):
        a = _eval(node.lhs, xd)
        b = _eval(node.rhs, xd)
        op = node.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a / b
        return _d_pow(a, b)
    # Call2: ties take the left argument's derivative
    a = _eval(node.lhs, xd)
    b = _eval(node.rhs, xd)
    if node.op == "min":
        return a if a.value <= b.value else b
    return a if a.value >= b.value else b


def eval_dual(ast: Expr, x: float) -> Dual:
    """Evaluate (h(x), h'(x)) by dual-number propagation.

    Raises DomainFault for points outside the expression's domain (log of
    a non-positive value, division by zero, 0 to a negative power, ...).
    Overflow that Python floats absorb silently surfaces as an infinite
    value instead.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    try:
        return _eval(ast, Dual(float(x), 1.0))
    except _Fault as err:
        raise DomainFault(x, err.reason) from None
    except ZeroDivisionError:
        raise DomainFault(x, "division by zero") from None
    except (OverflowError, ValueError) as err:
        raise DomainFault(x, str(err) or type(err).__name__) from None


class ExprFn:
    """Adapter turning a parsed AST into a differentiable-function callable."""

    __slots__ = ("ast", "label")

    def __init__(self, ast: Expr, label: str | None = None):
        self.ast = ast
        self.label = label if label is not None else format_expr(ast)

    def __call__(self, x: float) -> tuple[float, float]:
        d = eval_dual(self.ast, x)
        return d.value, d.deriv

    def __repr__(self) -> str:
        return f"ExprFn({self.label!r})"


def expr_fn(text: str) -> ExprFn:
    """Parse source text straight to a callable (value, derivative) pair."""
    return ExprFn(parse(text), label=text.strip())
