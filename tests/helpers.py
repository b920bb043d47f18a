"""Shared test machinery: random expression trees and the central
finite-difference oracle for derivative checks."""

import math
import random

from monoratio.expr import Binary, Call2, Const, DomainFault, Dual, Unary, Var

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
            duals = [Dual(*fn(t))
                     for t in (x, x - h, x + h, x - margin, x + margin)]
        except DomainFault:
            continue
        if any(not (math.isfinite(d.value) and math.isfinite(d.deriv)) for d in duals):
            continue
        if any(abs(d.value) > 1e4 for d in duals) or abs(duals[0].deriv) > 1e4:
            continue
        return x, h
    return None
