"""Shared test machinery: random expression trees and a pretty printer
for them, the central finite-difference oracle for derivative checks, the
samples' linear interpolant as a detector probe, the vertical and
horizontal reflections of functions, pairs, intervals and patterns, the
second reading of rho-tilde's sign runs that the level-0 set once made,
kept as a reference for the one that detect_pattern makes, the
leaf-at-a-time adaptive Simpson the constructor's build once ran, kept as
the reference its table must match, and the sign-identity check that
probes every kept sample, kept as the reference for the grid-first one."""

import dataclasses
import math
import random
from bisect import bisect_right
from itertools import compress, repeat
from operator import add, lt, mul, sub, truediv

from monoratio.construct import _MAX_DEPTH, QuadratureError
from monoratio.expr import Binary, Call2, Const, DomainFault, Unary, Var
from monoratio.intervals import Interval
from monoratio.patterns import PatternKind, _column, _run_interval, _runs
from monoratio.ratio import refine_sign_change, values

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


# Binding strength mirrors the grammar so parse(format_expr(t)) == t for
# any parser-produced tree.  (The parser never emits negative Const nodes,
# so constants print unsigned.)
_ADD, _MUL, _POW, _UNARY = 1, 2, 3, 4


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _fmt(node, need: int) -> str:
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


def format_expr(node) -> str:
    """Render an AST back to source text."""
    return _fmt(node, _ADD)


def interpolant(px, pv):
    """The piecewise-linear interpolant of (px, pv), extended linearly
    past the end samples: a detector probe for bare sample columns.  A
    boundary found on it is only good to within one grid cell."""
    last = len(px) - 2

    def value(t: float) -> float:
        i = min(max(bisect_right(px, t) - 1, 0), last)
        j = i + 1 if t >= px[i + 1] else i  # the anchor: exact at every sample
        return pv[j] + (pv[i + 1] - pv[i]) * (t - px[j]) / (px[i + 1] - px[i])

    return value


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


class NonInterval(Exception):
    """The sub-band set of rho-tilde has several separated components,
    which a monotone rho cannot produce."""


def reference_level0_set(xs, rho_tilde, band, probe, window):
    """The level-0 set as it was read before detect_pattern's switch took
    its place: a second pass over rho-tilde's sign runs at the band.

    The set where |rho-tilde| <= band, as one interval whose ends are
    bisected on probe (rho-tilde as a function) with the looser xtol
    1e-9 * (1 + window length); None when rho-tilde keeps one sign clear of
    the band.  A plain sign crossing with no in-band sample yields a
    length-0 interval.  Components more than 2 grid steps apart, or an
    even number of crossings merged into one, raise NonInterval.
    """
    column = _column(xs, rho_tilde, band)
    rho_tilde = column.vs
    xtol = 1e-9 * (1.0 + window.length)

    runs = _runs(column.signs(band))
    band_runs = [(i0, i1) for s, i0, i1 in runs if s == 0]
    # index ranges of the in-band runs and of the direct sign
    # crossings between out-of-band neighbours, in order
    features = []
    prev = 0
    for s, i0, i1 in runs:
        if s == 0:
            features.append((i0, i1))
        elif prev:
            features.append((i0 - 1, i0))
        prev = s

    merged = []
    for i0, i1 in features:
        if merged and i0 - merged[-1][1] <= 2:
            merged[-1][1] = i1
        else:
            merged.append([i0, i1])
    if not merged:
        return None
    if len(merged) > 1:
        spots = ", ".join(f"{xs[a]:.6g}..{xs[b]:.6g}" for a, b in merged)
        raise NonInterval(
            f"level-0 set of rho-tilde splits into {len(merged)} components "
            f"({spots}); rho is not monotone here")

    if not band_runs:
        # bare crossing: refine on rho-tilde itself
        i0, i1 = merged[0]
        if (rho_tilde[i0] > 0.0) == (rho_tilde[i1] > 0.0):
            raise NonInterval(
                f"rho-tilde changes sign an even number of times within "
                f"{xs[i0]:.6g}..{xs[i1]:.6g}; rho is not monotone here")
        root = refine_sign_change(probe, (xs[i0], xs[i1]), xtol)
        return Interval(root, root)

    def band_probe(t):
        return abs(probe(t)) - band

    return _run_interval(xs, band_runs[0][0], band_runs[-1][1], band_probe, band_probe,
                         window.lo, window.hi, xtol)


def simpson_leaves(fn, nodes, tol):
    """The panels adaptive Simpson accepts on each [nodes[i], nodes[i + 1]]
    (nodes ascending), left to right, by one fn call per sample and one
    leaf at a time, as (x0, h, f0, f1, f2, f3, f4, value): fn sampled at
    x0 + k*h/4 and the accepted, Richardson-corrected integral.

    Every node interval starts at tolerance tol, which halves with each
    split; a panel's error estimate is |S_fine - S_coarse|/15.  Adjacent
    intervals share their end sample, and empty ones yield nothing.
    Raises QuadratureError if a panel's estimate is still above tolerance
    at the constructor's depth bound.
    """
    def panel(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        fl, fr = fn(0.5 * (a + m)), fn(0.5 * (m + b))
        h12 = (b - a) / 12.0
        left, right = h12 * (fa + 4.0 * fl + fm), h12 * (fm + 4.0 * fr + fb)
        est = (left + right - whole) / 15.0
        if abs(est) <= tol:
            yield a, b - a, fa, fl, fm, fr, fb, left + right + est
        elif depth >= _MAX_DEPTH:
            raise QuadratureError(a, b, abs(est))
        else:
            yield from panel(a, m, fa, fl, fm, left, 0.5 * tol, depth + 1)
            yield from panel(m, b, fm, fr, fb, right, 0.5 * tol, depth + 1)

    fb = fn(nodes[0])
    for a, b in zip(nodes, nodes[1:]):
        fa, fb = fb, fn(b)
        if a != b:
            fm = fn(0.5 * (a + b))
            yield from panel(a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol, 0)


def sign_identity_stencil(pair, grid, signs, fd_step):
    """(ok, violations) of sign(r') = sign(rho-tilde) with r' probed at
    every kept sample (signs nonzero) by a central finite difference of
    step fd_step, r read from values, one column a side.  A zero or NaN
    quotient is a violation against either sign."""

    def r_column(shift):
        shifted = list(map(shift, xs, repeat(fd_step)))
        return list(map(truediv, values(pair.f, shifted), values(pair.g, shifted)))

    xs = list(compress(grid, signs))
    r_hi, r_lo = r_column(add), r_column(sub)
    fd = map(truediv, map(sub, r_hi, r_lo), repeat(2.0 * fd_step))
    kept = list(compress(signs, signs))
    violations = len(kept) - sum(map(lt, repeat(0.0), map(mul, fd, kept)))
    return violations == 0, violations
