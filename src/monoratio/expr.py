"""Forward-mode evaluation of parsed expressions (``syntax``) on
(value, derivative) float pairs; nothing is rewritten symbolically.  Each
ExprFn turns its AST into one straight-line loop over a column of points
(source transformation), compiled once per shape and pattern of repeated
subtrees; a scalar call is a column of one.  A point outside the domain
raises DomainFault at the first such x.  A pair of ExprFns also compiles
one loop over both trees, which gives sample_table all five of its columns.
"""

from __future__ import annotations

import functools
import math
import struct
from typing import Callable, Sequence

# the syntax names stay importable from here
from .syntax import (Binary, Call2, Const, Expr, ParseError, Unary, Var,  # noqa: F401
                     parse)


class DomainFault(ArithmeticError):
    """Evaluation left the function's domain at a specific point."""

    def __init__(self, x: float, reason: str):
        self.x = x
        self.reason = reason
        super().__init__(f"{reason} at x = {x!r}")


class _Fault(ArithmeticError):
    """Internal domain error; ExprFn attaches the offending x."""

    def __init__(self, reason: str):
        self.reason = reason


# ---------------------------------------------------------------------------
# Forward-mode evaluation on (value, derivative) float pairs


def _d_pow(a: float, da: float, b: float, db: float) -> tuple[float, float]:
    if db == 0.0:
        # constant exponent: also covers negative bases with integer powers
        if a == 0.0:
            if b < 0.0:
                raise _Fault("zero raised to a negative power")
            if b == 0.0:
                return 1.0, 0.0
            if b == 1.0:
                return 0.0, da
            if b < 1.0:
                if da == 0.0:
                    return 0.0, 0.0
                raise _Fault("power derivative singular at zero base")
            return 0.0, 0.0
        if a < 0.0:
            # round raises for an infinite or NaN b, which is no integer either
            if not math.isfinite(b) or b != round(b):
                raise _Fault("negative base with non-integer exponent")
            b = int(round(b))  # at b = -0.0 a float would flip a zero slope's sign
    elif a <= 0.0:
        raise _Fault("non-positive base with non-constant exponent")
    try:
        v = a ** b
        d = b * a ** (b - 1) * da if db == 0.0 else v * (db * math.log(a) + b * da / a)
    except OverflowError:
        raise _Fault("pow overflow") from None
    return v, d


# ---------------------------------------------------------------------------
# The one evaluator: the AST compiled to a straight-line loop
#
# An ExprFn turns its AST into Python source once, at construction: a loop
# over the points whose body computes each node's value and derivative from
# its operands', children first and left to right.  Each non-constant
# subtree has a value number, its (node type, op) and its operands'
# numbers, a literal's its bits; a subtree already computed in the loop is
# read by name, not computed again.  The (node type, op) pairs only select
# the fixed templates below, and the constants enter through a tuple
# argument, so no text of the AST reaches the source: the source depends on
# the tree's shape and on which of its subtrees repeat, and trees alike in
# both share the loop compiled from it.
#
# The loop appends each point's floats to lists the caller passes in, and
# its body raises where the point leaves the domain: a _Fault with its
# reason (log, sqrt, ^), ZeroDivisionError (/), a bare OverflowError (exp
# alone) or math's ValueError (sin or cos of an infinity).  ExprFn maps that
# to one DomainFault at the x after the last value appended: the first
# faulting x.  A skipped repeat is a subtree that already ran clear at that
# x, so the first fault and its reason stay those of the full tree.
#
# A pair's loop (ExprFn.table_with) numbers g's tree, then f's, into one
# dag, so a subtree of g that f reads is computed once per point.  Any
# fault there hands the pair back to sample_table's column reads.

# (node type, op) -> the statements of its value, then of its derivative,
# over the operands' values {a} {b}, their derivatives {da} {db} and the
# node's own names {v} {d}
_SOURCE = {
    (Unary, "neg"): "{v} = -{a}\n{d} = -{da}",
    (Unary, "sin"): "{v} = sin({a})\n{d} = cos({a}) * {da}",
    (Unary, "cos"): "{v} = cos({a})\n{d} = -sin({a}) * {da}",
    (Unary, "exp"): "{v} = exp({a})\n{d} = {v} * {da}",
    (Unary, "log"): 'if {a} <= 0.0: raise _Fault("log of non-positive argument")\n'
                    "{v} = log({a})\n{d} = {da} / {a}",
    # at a zero argument the fault depends on the slope; sqrt(-0.0) is +0.0
    (Unary, "sqrt"): """if {a} < 0.0: raise _Fault("sqrt of negative argument")
if {a} == 0.0:
    if {da} != 0.0: raise _Fault("sqrt derivative singular at zero")
    {v} = {d} = 0.0
else:
    {v} = sqrt({a})
    {d} = {da} / (2.0 * {v})""",
    # abs'(0) := 0 by convention
    (Unary, "abs"): "{v} = abs({a})\n"
                    "{d} = (1.0 if {a} > 0.0 else (-1.0 if {a} < 0.0 else 0.0)) * {da}",
    (Unary, "atan"): "{v} = atan({a})\n{d} = {da} / (1.0 + {a} * {a})",
    (Unary, "tanh"): "{v} = tanh({a})\n{d} = (1.0 - {v} * {v}) * {da}",
    (Binary, "+"): "{v} = {a} + {b}\n{d} = {da} + {db}",
    (Binary, "-"): "{v} = {a} - {b}\n{d} = {da} - {db}",
    (Binary, "*"): "{v} = {a} * {b}\n{d} = {da} * {b} + {a} * {db}",
    (Binary, "/"): "i{v} = 1.0 / {b}\n{v} = {a} * i{v}\n"
                   "{d} = ({da} * {b} - {a} * {db}) * i{v} * i{v}",
    # ties take the left argument's derivative
    (Call2, "min"): "{v} = {a} if {a} <= {b} else {b}\n{d} = {da} if {a} <= {b} else {db}",
    (Call2, "max"): "{v} = {a} if {a} >= {b} else {b}\n{d} = {da} if {a} >= {b} else {db}",
    (Binary, "^"): "{v}, {d} = _d_pow({a}, {da}, {b}, {db})",
}

# a ^ c for a constant c: _d_pow's formula and its overflow fault where its
# constant-exponent case computes a ** c and c * a ** (c - 1.0) * da, else
# _d_pow itself
_POW_CONST = """if {a} {cmp} 0.0:
    try:
        {v} = {a} ** {b}
        {d} = {b} * {a} ** ({b} - 1.0) * {da}
    except OverflowError:
        raise _Fault("pow overflow")
else:
    {v}, {d} = _d_pow({a}, {da}, {b}, 0.0)"""

_LOOP_GLOBALS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log,
                 "sqrt": math.sqrt, "atan": math.atan, "tanh": math.tanh, "_d_pow": _d_pow,
                 "_Fault": _Fault}


def _pow_fast_cmp(c) -> str:
    """The bases a for which _d_pow's constant-exponent case takes the
    formula: a > 0.0, or a != 0.0 when c is integral and not -0.0 (its
    negative-base branch raises a to int(round(c)), which float ** int
    computes as float ** float)."""
    integral = math.isfinite(c) and c == round(c) and (c != 0.0 or math.copysign(1.0, c) > 0.0)
    return "!=" if integral else ">"


def _number(node: Expr, numbers: dict, dag: list, consts: list) -> tuple:
    """Value-number node and return its key (a literal's: its bits) and the
    names of its value and derivative.  A subtree met first is appended to
    dag, children first, with its operands' names; a repeat gives back the
    constant slots its leaves took."""
    if isinstance(node, Var):
        return "x", ("x", "1.0")
    # a literal and a negated one (the parser reads -0.03 as neg(0.03)) take
    # a value and a derivative slot: the floats their templates compute
    const = node.arg if isinstance(node, Unary) and node.op == "neg" else node
    if isinstance(const, Const):
        consts += (const.value, 0.0) if const is node else (-const.value, -0.0)
        key = (const is node, type(const.value), struct.pack("<d", const.value))
        return key, (f"c{len(consts) - 2}", f"c{len(consts) - 1}")
    op = (type(node), getattr(node, "op", None))
    if op not in _SOURCE:
        raise ValueError(f"unknown expression node {node!r}")
    start = len(consts)
    keys, operands = zip(*(_number(arg, numbers, dag, consts) for arg in
                           ((node.arg,) if isinstance(node, Unary) else (node.lhs, node.rhs))))
    n = numbers.setdefault((op, *keys), len(numbers))
    if n == len(dag):
        dag.append((node, operands))
    else:
        del consts[start:]
    return n, (f"v{n}", f"d{n}")


def _statements(node: Expr, operands: tuple, n: int) -> list[str]:
    """The statements that compute node, number n, from its operands'
    names: its value, then its derivative."""
    (a, da), (b, db) = (*operands, ("", ""))[:2]
    names = {"a": a, "da": da, "b": b, "db": db, "v": f"v{n}", "d": f"d{n}"}
    if isinstance(node, Binary) and node.op == "^" and isinstance(node.rhs, Const):
        source, names["cmp"] = _POW_CONST, _pow_fast_cmp(node.rhs.value)
    else:
        source = _SOURCE[type(node), node.op]
    return source.format(**names).split("\n")


# what a loop appends per point: one tree's value and derivative, or a
# pair's five sample_table columns by that function's own expressions,
# f, g, r = f/g, rho = f'/g' and rho-tilde = (f'g - fg')/|g'|
_COLUMN = ("{v}", "{d}")
_PAIR = ("{fv}", "{gv}", "{fv} / {gv}", "{fd} / {gd}", "({fd} * {gv} - {fv} * {gd}) / abs({gd})")


def _loop_source(ast: Expr, g: Expr | None = None) -> tuple[str, tuple]:
    """The source of the loop over ast, column(xs, consts, *outs), and the
    constants tuple it reads.  At each x the loop appends _COLUMN's floats
    to the lists outs; with g, _PAIR's, over g's tree numbered first, so a
    subtree f = ast shares with it is computed once per point, and over xs
    that hold floats already, as an analysis Grid does."""
    dag, consts, numbers, names = [], [], {}, {}
    for root, tree in ((("", ast),) if g is None else (("g", g), ("f", ast))):
        _, (names[f"{root}v"], names[f"{root}d"]) = _number(tree, numbers, dag, consts)
    outputs = _COLUMN if g is None else _PAIR
    return "\n".join([
        "def column(xs, consts, *outs):",
        f"    ({''.join(f'c{k}, ' for k in range(len(consts)))}) = consts",
        f"    ({''.join(f'o{k}, ' for k in range(len(outputs)))}) = [out.append for out in outs]",
        f"    for x in {'map(float, xs)' if g is None else 'xs'}:",
        *(f"        {line}" for n, (node, operands) in enumerate(dag)
          for line in _statements(node, operands, n)),
        *(f"        o{k}({output.format(**names)})" for k, output in enumerate(outputs))]
    ) + "\n", tuple(consts)


# the shapes whose loops stay compiled, about 3 KB each with their source
_SHAPES = 128


@functools.lru_cache(maxsize=_SHAPES)
def _shape_loop(source: str) -> Callable:
    """The column loop of source: pure, so every tree of its shape shares it."""
    namespace = dict(_LOOP_GLOBALS)
    exec(compile(source, "<monoratio.expr loop>", "exec"), namespace)
    # popped, so that no cycle through the loop's globals outlives it
    return namespace.pop("column")


class ExprFn:
    """Adapter turning a parsed AST into a differentiable-function callable.
    Construction compiles the column loop, so an unknown op raises there."""

    __slots__ = ("ast", "label", "_consts", "_column")

    def __init__(self, ast: Expr, label: str = "expr"):
        source, self._consts = _loop_source(ast)
        self._column = _shape_loop(source)
        self.ast = ast
        self.label = label

    def __call__(self, x: float) -> tuple[float, float]:
        (value,), (deriv,) = self.column((x,))
        return value, deriv

    def column(self, xs: Sequence[float]) -> tuple[list[float], list[float]]:
        """(values, derivatives) at every x, the floats of one call per x,
        or the error of the first faulting x, as one call there raises it:
        a DomainFault after the last value, or a ValueError at an x that is
        not finite."""
        stop = len(xs)
        # inline, not ratio.first_non_finite: that call slows each scalar call (a probe) about 7%
        # a finite sum clears every x in one C-level pass
        if not math.isfinite(sum(xs)):
            stop = next((i for i, x in enumerate(xs) if not math.isfinite(x)), stop)
        values: list[float] = []
        derivs: list[float] = []
        try:
            self._column(xs if stop == len(xs) else xs[:stop], self._consts, values, derivs)
        except _Fault as err:
            reason = err.reason
        except ZeroDivisionError:
            reason = "division by zero"
        except OverflowError:  # only exp raises a bare one
            reason = "exp overflow"
        except ValueError as err:  # math's domain error
            reason = str(err)
        else:
            if stop < len(xs):
                raise ValueError(f"x must be finite, got {xs[stop]!r}")
            return values, derivs
        raise DomainFault(xs[len(values)], reason)

    def table_with(self, g, xs: Sequence[float]) -> tuple[list[float], ...] | None:
        """The columns f, g, r, rho and rho-tilde over xs, this ExprFn being
        f, from one loop over the pair, with the floats of sample_table's
        own path; None where g is not an ExprFn, a point faults or r, rho
        or rho-tilde is not finite, for that path to raise its error."""
        if not isinstance(g, ExprFn):
            return None
        source, consts = _loop_source(self.ast, g.ast)
        table = tuple([] for _ in _PAIR)
        try:
            _shape_loop(source)(xs, consts, *table)
        except (ArithmeticError, ValueError):  # the faults column maps
            return None
        # finite ratios leave g, g' and f finite; an overflowing sum falls back too
        return table if math.isfinite(sum(map(sum, table[2:]))) else None

    def __repr__(self) -> str:
        return f"ExprFn({self.label!r})"


def expr_fn(text: str) -> ExprFn:
    """Parse source text straight to a callable (value, derivative) pair."""
    return ExprFn(parse(text), label=text.strip())
