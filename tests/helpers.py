"""Shared test machinery: random expression trees, the central
finite-difference oracle for derivative checks, and the vertical and
horizontal reflections of functions, pairs, intervals and patterns."""

import dataclasses
import math
import random

from monoratio.expr import Binary, Call2, Const, DomainFault, Unary, Var
from monoratio.intervals import Interval
from monoratio.patterns import PatternKind

UNARY_OPS = ("neg", "sin", "cos", "exp", "log", "sqrt", "abs", "atan", "tanh")


def random_ast(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.6:
            return Var()
        return Const(round(rng.uniform(0.0, 3.0), 4))
    roll = rng.random()
    if roll < 0.45:
        op = rng.choice("+-*/^")
        if op == "^" and rng.random() < 0.75:
            # mostly small constant exponents so magnitudes stay sane
            return Binary("^", random_ast(rng, depth - 1), Const(float(rng.randint(0, 3))))
        return Binary(op, random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if roll < 0.85:
        return Unary(rng.choice(UNARY_OPS), random_ast(rng, depth - 1))
    return Call2(rng.choice(("min", "max")), random_ast(rng, depth - 1),
                 random_ast(rng, depth - 1))


def central_fd(fn, x: float, h: float) -> float:
    """The central difference of fn, an ExprFn built once per AST."""
    lo = fn(x - h)[0]
    hi = fn(x + h)[0]
    return (hi - lo) / (2.0 * h)


def pick_usable_point(fn, rng: random.Random, tries: int = 12):
    """Draw an x where the expression (fn, an ExprFn built once per AST)
    and its FD probes are in-domain, finite and of moderate magnitude (the
    FD oracle itself breaks down near domain edges and on huge values)."""
    for _ in range(tries):
        x = rng.uniform(-3.0, 3.0)
        h = 1e-6 * (1.0 + abs(x))
        margin = 1e-3 * (1.0 + abs(x))
        try:
            duals = [fn(t) for t in (x, x - h, x + h, x - margin, x + margin)]
        except DomainFault:
            continue
        if not all(map(math.isfinite, (v for dual in duals for v in dual))):
            continue
        if any(abs(v) > 1e4 for v, _ in duals) or abs(duals[0][1]) > 1e4:
            continue
        return x, h
    return None


def negated(fn):
    """x -> -f(x), for vertical reflection.  It has fn's column and values
    fast paths, if any, and forwards to them."""

    def wrapped(x):
        v, d = fn(x)
        return -v, -d

    wrapped.label = f"-({getattr(fn, 'label', 'f')})"
    if hasattr(fn, "column"):
        def column(xs):
            values, derivs = fn.column(xs)
            return [-v for v in values], [-d for d in derivs]

        wrapped.column = column
    if hasattr(fn, "values"):
        wrapped.values = lambda xs: [-v for v in fn.values(xs)]
    return wrapped


def mirrored(fn):
    """x -> f(-x), for horizontal reflection (chain rule flips the slope).
    Its fast paths forward to fn's on the negated xs, in xs order, so a
    fault names the first faulting x as a call there does."""

    def wrapped(x):
        v, d = fn(-x)
        return v, -d

    wrapped.label = f"({getattr(fn, 'label', 'f')})|x->-x"
    if hasattr(fn, "column"):
        def column(xs):
            values, derivs = fn.column([-x for x in xs])
            return values, [-d for d in derivs]

        wrapped.column = column
    if hasattr(fn, "values"):
        wrapped.values = lambda xs: fn.values([-x for x in xs])
    return wrapped


def mirrored_interval(interval: Interval) -> Interval:
    """The image of interval under x -> -x."""
    return Interval(-interval.hi, -interval.lo, interval.hi_closed, interval.lo_closed)


def reflect(pair, axis: str):
    """Reflect a pair vertically (f -> -f) or horizontally (x -> -x, window
    mirrored, flipping the signs of g' and g*g').  Both keep g valid, so g
    is not validated again."""
    if axis == "vertical":
        return dataclasses.replace(pair, f=negated(pair.f))
    if axis == "horizontal":
        return dataclasses.replace(pair, f=mirrored(pair.f), g=mirrored(pair.g),
                                   window=mirrored_interval(pair.window),
                                   sign_gprime=-pair.sign_gprime, sign_gg=-pair.sign_gg)
    raise ValueError(f"axis must be 'vertical' or 'horizontal', got {axis!r}")


_VERTICAL_MIRROR = {
    PatternKind.INCREASING: PatternKind.DECREASING,
    PatternKind.DECREASING: PatternKind.INCREASING,
    PatternKind.DOWN_UP: PatternKind.UP_DOWN,
    PatternKind.UP_DOWN: PatternKind.DOWN_UP,
    PatternKind.CONSTANT: PatternKind.CONSTANT,
}


def mirror_vertical(kind: PatternKind) -> PatternKind:
    """The kind of a pattern's vertical reflection; it also maps a
    predicted r family to the other family."""
    return _VERTICAL_MIRROR[kind]
