"""Build a ratio with a prescribed maximal interval of constancy.

Given g (with g, g' nonzero), a monotone continuous rho, a point z inside
the chosen constancy interval of rho, and K = rho(z), the function

    f(x) = K*g(z) + integral from z to x of rho(u) dg(u)

has f'/g' = rho, and the only maximal constancy interval of f/g is the
chosen one.  Since g is differentiable the Stieltjes integral reduces to
an ordinary integral of rho*g'.  The build runs adaptive Simpson on a
node grid split a priori at the staircase breakpoints and keeps every
accepted panel as a leaf of a table: cumulative integral plus the
integrated quartic through the leaf's five samples.  It works in blocks
of node intervals: one column of rho's values and g's derivatives holds
the five samples of every interval in the block, and the acceptance test,
the coefficients and the running integral are column passes; only an
interval whose first estimate fails is refined, one point at a time.  A
query then looks up its leaf and evaluates a polynomial, with no
integrand calls.
"""

from __future__ import annotations

import bisect
import math
import random
from array import array
from dataclasses import dataclass
from itertools import accumulate, count
from operator import mul, neg, sub
from typing import Callable, Sequence

from .expr import COLUMN_BLOCK
from .intervals import Interval
from .ratio import (DifferentiableFn, FunctionPair, ValidationError,
                    check_g_assumptions, columns, make_pair, values)


class QuadratureError(ArithmeticError):
    """A panel's error estimate never got below tolerance."""

    def __init__(self, a: float, b: float, estimate: float):
        self.a, self.b, self.estimate = a, b, estimate
        super().__init__(
            f"quadrature did not converge on [{a:g}, {b:g}] "
            f"(error estimate {estimate:.3g})")


class StaircaseError(ValueError):
    """Invalid staircase specification."""


def _simpson_leaves(fn: Callable[[float], float], nodes: Sequence[float],
                    tol: float, max_depth: int):
    """Yield the panels adaptive Simpson accepts on each [nodes[i],
    nodes[i + 1]] (nodes ascending), left to right, as
    (x0, h, f0, f1, f2, f3, f4, value): fn sampled at x0 + k*h/4 and the
    accepted, Richardson-corrected integral.

    Every node interval starts at tolerance tol, which halves with each
    split; a panel's error estimate is |S_fine - S_coarse|/15.  Adjacent
    intervals share their end sample, and empty ones yield nothing.  The
    subdivision runs on an explicit stack: a self-referencing closure
    would be a reference cycle that keeps every caller's table alive
    until a full garbage collection.

    Raises QuadratureError if a panel's estimate is still above tolerance
    at max_depth.
    """
    fb = fn(nodes[0])
    for a, b in zip(nodes, nodes[1:]):
        fa, fb = fb, fn(b)
        if a == b:
            continue
        fm = fn(0.5 * (a + b))
        stack = [(a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol, 0)]
        while stack:
            x0, x2, f0, f1, f2, whole, panel_tol, depth = stack.pop()
            x1 = 0.5 * (x0 + x2)
            flm, frm = fn(0.5 * (x0 + x1)), fn(0.5 * (x1 + x2))
            h12 = (x2 - x0) / 12.0
            left = h12 * (f0 + 4.0 * flm + f1)
            right = h12 * (f1 + 4.0 * frm + f2)
            est = (left + right - whole) / 15.0
            if abs(est) <= panel_tol:
                yield x0, x2 - x0, f0, flm, f1, frm, f2, left + right + est
                continue
            if depth >= max_depth:
                raise QuadratureError(x0, x2, abs(est))
            half = 0.5 * panel_tol
            stack.append((x1, x2, f1, frm, f2, right, half, depth + 1))
            stack.append((x0, x1, f0, flm, f1, left, half, depth + 1))


def _block_leaves(rho: DifferentiableFn, g: DifferentiableFn,
                  ends: list[float], tol: float) -> list[list[float]]:
    """The leaves _simpson_leaves(integrand, ends, tol, 40) yields, as the
    columns [x0, h, f0, f1, f2, f3, f4], where integrand(u) is
    rho(u)[0] * g(u)[1].

    One column of rho's values and g's derivatives holds the five samples
    of every interval [ends[j], ends[j + 1]], in ascending x, and the first
    acceptance test runs on all intervals at once, with _simpson_leaves's
    floats.  An interval that fails it, or is empty, goes alone to
    _simpson_leaves, which samples it again one point at a time and
    refines or skips it; the intervals go in ascending order, so the first
    QuadratureError is the one of the leaf-at-a-time build.  If the column
    faults, every interval of the block goes that way, so the error raised
    is the one the leaf-at-a-time build raises first.
    """
    mids = [0.5 * (a + b) for a, b in zip(ends, ends[1:])]
    xs = [0.0] * (4 * len(mids) + 1)
    xs[0::4], xs[2::4] = ends, mids
    xs[1::4] = [0.5 * (a + m) for a, m in zip(ends, mids)]
    xs[3::4] = [0.5 * (m + b) for m, b in zip(mids, ends[1:])]
    try:
        fs = list(map(mul, values(rho, xs), columns(g, xs)[1]))
    except (ArithmeticError, ValueError):
        fs = [math.nan] * len(xs)  # every estimate NaN: every interval fails
    hs = list(map(sub, ends[1:], ends))
    f0, f1, f2, f3, f4 = fs[0:-1:4], fs[1::4], fs[2::4], fs[3::4], fs[4::4]
    ests = [(h / 12.0 * (a + 4.0 * b + c) + h / 12.0 * (c + 4.0 * d + e)
             - h / 6.0 * (a + 4.0 * c + e)) / 15.0
            for h, a, b, c, d, e in zip(hs, f0, f1, f2, f3, f4)]

    def integrand(u: float) -> float:
        return rho(u)[0] * g(u)[1]

    redone = []  # (j, interval j's leaves as columns), j ascending
    for j, h, est in zip(count(), hs, ests):
        if not (h and abs(est) <= tol):
            refined = (leaf[:7] for leaf in _simpson_leaves(integrand, ends[j:j + 2], tol, 40))
            redone.append((j, list(zip(*refined)) or [()] * 7))
    leaves = [ends[:-1], hs, f0, f1, f2, f3, f4]
    for j, parts in reversed(redone):
        for column, part in zip(leaves, parts):
            column[j:j + 1] = part
    return leaves


def _quartic_rows(hs: list[float], f0: list[float], f1: list[float], f2: list[float],
                  f3: list[float], f4: list[float], cum: float) -> tuple[list[float], float]:
    """The table rows (cumulative integral, 1/h, c1 ... c5) of the leaves
    with widths hs and samples f0 ... f4, and the cumulative integral after
    the last, from cum before the first."""
    # h * (integral from 0 to t of the quartic through (k/4, f_k))
    # = c1 t + ... + c5 t^5, from the forward differences d1 ... d4
    # of the samples; at t = 1 it is Boole's rule, the accepted value
    p1, p2, p3, p4 = (list(map(sub, f1, f0)), list(map(sub, f2, f1)),
                      list(map(sub, f3, f2)), list(map(sub, f4, f3)))
    q1, q2, q3 = list(map(sub, p2, p1)), list(map(sub, p3, p2)), list(map(sub, p4, p3))
    r1 = list(map(sub, q2, q1))
    d1, d2, d3, d4 = p1, q1, r1, list(map(sub, map(sub, q3, q2), r1))
    c1 = list(map(mul, hs, f0))
    c2 = [h * (2.0 * a - b + 2.0 / 3.0 * c - 0.5 * d)
          for h, a, b, c, d in zip(hs, d1, d2, d3, d4)]
    c3 = [h * (8.0 / 3.0 * (b - c) + 22.0 / 9.0 * d) for h, b, c, d in zip(hs, d2, d3, d4)]
    c4 = [h * (8.0 / 3.0 * c - 4.0 * d) for h, c, d in zip(hs, d3, d4)]
    c5 = [h * (32.0 / 15.0 * d) for h, d in zip(hs, d4)]
    cums = list(accumulate(
        [a + (b + (c + (d + e))) for a, b, c, d, e in zip(c1, c2, c3, c4, c5)], initial=cum))
    cum = cums.pop()
    rows = [0.0] * (7 * len(hs))
    rows[0::7], rows[1::7] = cums, [1.0 / h for h in hs]
    rows[2::7], rows[3::7], rows[4::7], rows[5::7], rows[6::7] = c1, c2, c3, c4, c5
    return rows, cum


# ---------------------------------------------------------------------------
# Staircase rho

@dataclass(frozen=True)
class StaircaseSpec:
    """A continuous piecewise-linear monotone function: strict slopes
    separated by flats (the prescribed constancy intervals).

    slopes has one entry more than flats (before, between, after); all
    slope magnitudes must be positive.  direction "down" mirrors the whole
    profile.  The first flat carries anchor_value; with no flats the
    profile passes through (0, anchor_value).
    """

    flats: tuple[tuple[float, float], ...] = ()
    slopes: tuple[float, ...] = (1.0,)
    direction: str = "up"
    anchor_value: float = 0.0

    def __post_init__(self):
        if self.direction not in ("up", "down"):
            raise StaircaseError(f"direction must be 'up' or 'down', got {self.direction!r}")
        if len(self.slopes) != len(self.flats) + 1:
            raise StaircaseError(
                f"need {len(self.flats) + 1} slopes for {len(self.flats)} flats, "
                f"got {len(self.slopes)}")
        if any(s <= 0.0 for s in self.slopes):
            raise StaircaseError("slopes must be positive")
        prev_hi = -math.inf
        for lo, hi in self.flats:
            if hi <= lo:
                raise StaircaseError(f"flat ({lo}, {hi}) has non-positive length")
            if lo < prev_hi:
                raise StaircaseError("flats overlap or are out of order")
            prev_hi = hi

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(x for flat in self.flats for x in flat)

    def to_json_dict(self) -> dict:
        return {
            "flats": [list(f) for f in self.flats],
            "slopes": list(self.slopes),
            "direction": self.direction,
            "anchor_value": self.anchor_value,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "StaircaseSpec":
        """The spec a parsed JSON object describes; StaircaseError if it is
        malformed (wrong shapes or types) or invalid."""
        try:
            fields = dict(
                flats=tuple((float(lo), float(hi)) for lo, hi in data.get("flats", [])),
                slopes=tuple(float(s) for s in data.get("slopes", [1.0])),
                direction=data.get("direction", "up"),
                anchor_value=float(data.get("anchor_value", 0.0)),
            )
        except (AttributeError, TypeError, ValueError) as err:
            raise StaircaseError(f"malformed staircase spec: {err}") from None
        return cls(**fields)


class StaircaseFn:
    """Evaluable staircase: constant exactly on each flat, linear between.

    At a breakpoint the reported derivative is the right-hand slope; rho
    only ever appears inside integrals and value comparisons, so the
    one-sided convention never leaks into results.  The pipeline reads a
    staircase through values alone, so it has no column method: columns()
    calls it once per x, which gives the same floats.
    """

    __slots__ = ("spec", "breakpoints", "_values", "_slopes", "label")

    def __init__(self, spec: StaircaseSpec):
        self.spec = spec
        sign = 1.0 if spec.direction == "up" else -1.0
        nodes = list(spec.breakpoints)
        # segment i spans [nodes[i-1], nodes[i]); slope per segment, value at nodes
        slopes: list[float] = []
        for i, s in enumerate(spec.slopes):
            slopes.append(sign * s)
            if i < len(spec.flats):
                slopes.append(0.0)
        # values at nodes, anchored on the first flat
        values = [0.0] * len(nodes)
        if nodes:
            values[0] = spec.anchor_value  # left edge of first flat
            for i in range(1, len(nodes)):
                seg_slope = slopes[i]  # segment between nodes[i-1] and nodes[i]
                values[i] = values[i - 1] + seg_slope * (nodes[i] - nodes[i - 1])
        self.breakpoints = tuple(nodes)
        self._values = values
        self._slopes = slopes
        self.label = f"staircase({len(spec.flats)} flats, {spec.direction})"

    def __call__(self, x: float) -> tuple[float, float]:
        nodes = self.breakpoints
        if not nodes:
            s = self._slopes[0]
            return self.spec.anchor_value + s * x, s
        i = bisect.bisect_right(nodes, x)  # segment index; right-hand rule at nodes
        s = self._slopes[i]
        if i == 0:
            return self._values[0] + s * (x - nodes[0]), s
        if s == 0.0:  # inside a flat: exactly the stored constant
            return self._values[i - 1], 0.0
        return self._values[i - 1] + s * (x - nodes[i - 1]), s

    def values(self, xs: Sequence[float]) -> list[float]:
        """The value at every x, the float of one call per x.  The segment
        index moves along ascending xs; it is bisected again only where xs
        step back or are NaN."""
        nodes, slopes, last = self.breakpoints, self._slopes, len(self.breakpoints)
        if not nodes:
            s, a = slopes[0], self.spec.anchor_value
            return [a + s * x for x in xs]
        out = []
        i, prev, nxt = 0, math.nan, -math.inf
        for x in xs:
            if not prev <= x < nxt:
                if prev <= x:
                    while i < last and nodes[i] <= x:
                        i += 1
                else:
                    i = bisect.bisect_right(nodes, x)
                # the scalar call's three branches, fixed for segment i
                s = slopes[i]
                k = max(i - 1, 0)
                base, x0 = self._values[k], nodes[k]
                nxt = nodes[i] if i < last else math.inf
            prev = x
            out.append(base if s == 0.0 else base + s * (x - x0))
        return out

    def __repr__(self) -> str:
        return f"StaircaseFn({self.label})"


def make_staircase_rho(spec: StaircaseSpec) -> StaircaseFn:
    """Build the piecewise-linear monotone rho described by spec."""
    return StaircaseFn(spec)


# ---------------------------------------------------------------------------
# The constructor

# panels of the uniform node grid the constructor starts from
_PANELS = 1024
# node intervals per build block: about COLUMN_BLOCK integrand samples
_BLOCK_PANELS = COLUMN_BLOCK // 4


class ConstructedFn:
    """f built as K*g(z) + cumulative integral of rho*g' from z.

    The build runs adaptive Simpson over a uniform node grid joined with
    rho's breakpoints, so no panel straddles a known kink, and keeps every
    accepted sub-panel as a leaf: its start, its inverse width, the
    cumulative integral up to it and the five coefficients of the
    integrated quartic through its five samples.  It takes the node
    intervals _BLOCK_PANELS at a time: _block_leaves reads rho and g as
    columns over a block's samples and refines only the intervals whose
    first estimate fails, and _quartic_rows turns the leaves into table
    rows by column passes.  The table is, float for float, the one a build
    of one integrand call per sample and one leaf at a time makes, and so
    is the error: a block whose column faults is sampled again one point
    at a time, so a fault of rho or g, or a QuadratureError before it,
    is raised as that build raises it.

    A query bisects for its leaf and evaluates one degree-5 polynomial; it
    calls neither rho nor g for the value.  A column of queries moves its
    leaf index along ascending xs and bisects again only where xs step
    back.  At each leaf end the polynomial equals the accepted Simpson
    value, so f is continuous across leaves.  Outside the window the first
    and last leaves' polynomials are extended, so f is only meaningful on
    the window.  The derivative is rho(x)*g'(x) by construction, not by
    differentiating the quadrature.
    """

    def __init__(self, g: DifferentiableFn, rho: DifferentiableFn, z: float,
                 K: float, window: Interval, quad_tol: float = 1e-10):
        self.g = g
        self.rho = rho
        self.z = z
        self.K = K
        self.window = window
        self.quad_tol = quad_tol

        lo, hi, step = window.lo, window.hi, window.length / _PANELS
        nodes = [lo + i * step for i in range(_PANELS)]
        nodes += [x for x in getattr(rho, "breakpoints", ()) if lo < x < hi]
        nodes.sort()
        nodes.append(hi)
        starts = array("d")
        table = array("d")  # per leaf: cumulative integral, 1/h, c1 ... c5
        cum = 0.0
        for k in range(0, len(nodes) - 1, _BLOCK_PANELS):
            x0s, hs, *samples = _block_leaves(rho, g, nodes[k:k + _BLOCK_PANELS + 1],
                                              quad_tol)
            rows, cum = _quartic_rows(hs, *samples, cum)
            starts.fromlist(x0s)
            table.fromlist(rows)
        self._starts = starts
        self._table = table
        self._base = K * g(z)[0]
        self._Fz = self._antideriv(z, self._leaf(z))
        self.label = f"stieltjes({getattr(rho, 'label', 'rho')}, {getattr(g, 'label', 'g')})"

    def _leaf(self, x: float) -> int:
        """Index of the last leaf starting at or before x (0 left of all)."""
        return max(bisect.bisect_right(self._starts, x) - 1, 0)

    def _antideriv(self, x: float, i: int) -> float:
        """The cumulative integral at x by leaf i's polynomial."""
        c = self._table
        k = 7 * i
        t = (x - self._starts[i]) * c[k + 1]
        return c[k] + t * (c[k + 2] + t * (c[k + 3] + t * (c[k + 4] + t * (
            c[k + 5] + t * c[k + 6]))))

    def __call__(self, x: float) -> tuple[float, float]:
        rv, _ = self.rho(x)
        _, gd = self.g(x)
        return self._base + self._antideriv(x, self._leaf(x)) - self._Fz, rv * gd

    def values(self, xs: Sequence[float]) -> list[float]:
        """The value at every x, the float of one call per x."""
        starts, table, last = self._starts, self._table, len(self._starts) - 1
        base, fz = self._base, self._Fz
        out = []
        i, lo, nxt = 0, math.nan, -math.inf
        for x in xs:
            if not lo <= x < nxt:  # left leaf i: reload its start and coefficients
                if lo <= x:
                    while i < last and starts[i + 1] <= x:
                        i += 1
                else:  # stepped back (or NaN): bisect again
                    i = self._leaf(x)
                lo, nxt = starts[i], starts[i + 1] if i < last else math.inf
                c0, inv_h, c1, c2, c3, c4, c5 = table[7 * i:7 * i + 7]
            t = (x - lo) * inv_h
            out.append(base + (c0 + t * (c1 + t * (c2 + t * (c3 + t * (
                c4 + t * c5))))) - fz)
        return out

    def column(self, xs: Sequence[float]) -> tuple[list[float], list[float]]:
        """(values, derivatives) at every x, the floats of one call per x."""
        return self.values(xs), list(map(mul, values(self.rho, xs), columns(self.g, xs)[1]))

    def __repr__(self) -> str:
        return f"ConstructedFn({self.label})"


def _check_rho_monotone(rho: DifferentiableFn, window: Interval, n: int = 128) -> None:
    """Raise ValidationError at the first of n samples where rho's sampled
    direction reverses; steps within 1e-12 relative count as flat."""
    step = window.length / (n - 1)
    xs = [window.lo + i * step for i in range(n)]
    vs = values(rho, xs)
    tol = 1e-12 * (1.0 + max(map(abs, vs)))
    direction = 0
    for i in range(n - 1):
        delta = vs[i + 1] - vs[i]
        step_dir = 1 if delta > tol else -1 if delta < -tol else 0
        if step_dir and step_dir == -direction:
            raise ValidationError(xs[i], "rho is not monotone on the window")
        direction = step_dir or direction


def construct_f(g: DifferentiableFn, rho: DifferentiableFn, z: float, K: float,
                window: Interval, quad_tol: float = 1e-10) -> ConstructedFn:
    """Construct f with f'/g' = rho and f(z) = K*g(z).

    For the ratio f/g to be constant on a chosen flat of rho, K must equal
    rho's value there (i.e. K = rho(z) with z inside the flat); any other K
    still satisfies f'/g' = rho but leaves f/g without constancy intervals.
    """
    if not window.contains(z):
        raise ValueError(f"z = {z:g} is outside the window {window}")
    check_g_assumptions(g, window, 256)
    _check_rho_monotone(rho, window)
    return ConstructedFn(g, rho, z, K, window, quad_tol)


# ---------------------------------------------------------------------------
# g-template catalog (all four sign combinations of g' and g*g')

def _exp_pos(x: float) -> tuple[float, float]:
    e = math.exp(x)
    return e, e


def _exp_neg(x: float) -> tuple[float, float]:
    e = math.exp(x)
    return -e, -e


def _dexp_pos(x: float) -> tuple[float, float]:
    e = math.exp(-x)
    return e, -e


def _dexp_neg(x: float) -> tuple[float, float]:
    e = math.exp(-x)
    return -e, e


def _affine_pos(x: float) -> tuple[float, float]:
    return x + 3.0, 1.0


def _affine_neg(x: float) -> tuple[float, float]:
    return -x - 3.0, -1.0


def _recip_pos(x: float) -> tuple[float, float]:
    v = 1.0 / (x + 4.0)
    return v, -v * v


def _recip_neg(x: float) -> tuple[float, float]:
    v = 1.0 / (x + 4.0)
    return -v, v * v


def _exp_pos_column(xs: Sequence[float]) -> tuple[list[float], list[float]]:
    e = list(map(math.exp, xs))
    return e, e.copy()


def _exp_neg_column(xs: Sequence[float]) -> tuple[list[float], list[float]]:
    v = [-e for e in map(math.exp, xs)]
    return v, v.copy()


def _dexp_pos_column(xs: Sequence[float]) -> tuple[list[float], list[float]]:
    e = list(map(math.exp, map(neg, xs)))
    return e, [-v for v in e]


def _dexp_neg_column(xs: Sequence[float]) -> tuple[list[float], list[float]]:
    e = list(map(math.exp, map(neg, xs)))
    return [-v for v in e], e


def _recip_pos_column(xs: Sequence[float]) -> tuple[list[float], list[float]]:
    v = [1.0 / (x + 4.0) for x in xs]
    return v, [-w * w for w in v]


def _recip_neg_column(xs: Sequence[float]) -> tuple[list[float], list[float]]:
    v = [1.0 / (x + 4.0) for x in xs]
    return [-w for w in v], [w * w for w in v]


# each column gives the floats of its scalar form, operation for operation
for _fn, _name, _column in (
        (_exp_pos, "exp(x)", _exp_pos_column), (_exp_neg, "-exp(x)", _exp_neg_column),
        (_dexp_pos, "exp(-x)", _dexp_pos_column), (_dexp_neg, "-exp(-x)", _dexp_neg_column),
        (_affine_pos, "x + 3", lambda xs: ([x + 3.0 for x in xs], [1.0] * len(xs))),
        (_affine_neg, "-x - 3", lambda xs: ([-x - 3.0 for x in xs], [-1.0] * len(xs))),
        (_recip_pos, "1/(x + 4)", _recip_pos_column),
        (_recip_neg, "-1/(x + 4)", _recip_neg_column)):
    _fn.label, _fn.column = _name, _column

# keyed by the sign of g*g'; each list spans both signs of g'
G_TEMPLATES = {
    1: (_exp_pos, _exp_neg, _affine_pos, _affine_neg),
    -1: (_dexp_pos, _dexp_neg, _recip_pos, _recip_neg),
}

# stratification order: one table row per residue of the seed mod 4
_ROWS = ((True, 1), (False, 1), (True, -1), (False, -1))  # (rho rises?, sign gg')


@dataclass(frozen=True)
class GeneratorConfig:
    windows: tuple[tuple[float, float], ...] = (
        (-2.0, 2.0), (-1.8, 2.2), (-2.4, 1.6), (-1.5, 2.5))
    n_flats: tuple[int, int] = (0, 3)
    flat_len: tuple[float, float] = (0.3, 0.7)
    min_gap: float = 0.25
    edge_margin_frac: float = 0.12
    slope_range: tuple[float, float] = (0.8, 2.5)
    anchor_range: tuple[float, float] = (-1.5, 1.5)
    grid_n: int = 2048
    quad_tol: float = 1e-10


def _draw_flats(rng: random.Random, window: Interval,
                config: GeneratorConfig, n_flats: int) -> tuple[tuple[float, float], ...]:
    margin = config.edge_margin_frac * window.length
    usable_lo = window.lo + margin
    usable_len = window.length - 2.0 * margin
    while n_flats > 0:
        lengths = [rng.uniform(*config.flat_len) for _ in range(n_flats)]
        free = usable_len - sum(lengths) - config.min_gap * (n_flats - 1)
        if free >= 0.0:
            cuts = sorted(rng.uniform(0.0, free) for _ in range(n_flats))
            flats = []
            consumed = 0.0
            for i, length in enumerate(lengths):
                start = usable_lo + cuts[i] + consumed
                flats.append((start, start + length))
                consumed += length + config.min_gap
            return tuple(flats)
        n_flats -= 1
    return ()


def random_pair(seed: int, config: GeneratorConfig | None = None
                ) -> tuple[FunctionPair, StaircaseSpec, Interval]:
    """Deterministically generate a (pair, staircase spec, chosen interval)
    triple from a seed.

    The seed's residue mod 4 picks the rule-table row (rho direction and
    sign of g*g'), so any contiguous sweep of >= 4 seeds covers all rows.
    The constructed pair uses z at the chosen flat's midpoint and
    K = rho(z), so the chosen flat is exactly the prescribed constancy
    interval of f/g; with zero flats the choice degenerates to the point z.
    """
    config = config or GeneratorConfig()
    rng = random.Random(seed)
    rho_up, sign_gg = _ROWS[seed % 4]

    g = rng.choice(G_TEMPLATES[sign_gg])
    window = Interval(*rng.choice(config.windows))
    n_flats = rng.randint(*config.n_flats)
    flats = _draw_flats(rng, window, config, n_flats)
    slopes = tuple(rng.uniform(*config.slope_range) for _ in range(len(flats) + 1))
    spec = StaircaseSpec(flats=flats, slopes=slopes,
                         direction="up" if rho_up else "down",
                         anchor_value=rng.uniform(*config.anchor_range))
    rho = make_staircase_rho(spec)

    if flats:
        chosen = Interval(*flats[rng.randrange(len(flats))])
        z = chosen.midpoint
    else:
        span = window.length
        z = rng.uniform(window.lo + 0.3 * span, window.hi - 0.3 * span)
        chosen = Interval(z, z)
    K = rho(z)[0]

    f = construct_f(g, rho, z, K, window, config.quad_tol)
    pair = make_pair(f, g, window, config.grid_n)
    return pair, spec, chosen
