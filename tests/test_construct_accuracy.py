"""Accuracy of the constructed f against two independent references.

* mpmath's ``quad`` at 30 digits, split at every kink of rho, gives
  K*g(z) + integral from z to x of rho*g' to far below the constructor's
  tolerance.
* A test-local copy of the per-query algorithm the leaf table replaced
  (cumulative checkpoints on the uniform node grid plus a fresh adaptive
  Simpson pass over the partial panel, split at rho's breakpoints) pins
  the new values to the old ones.
"""

import bisect
import math
import random

import pytest
from mpmath import mp

import monoratio as mr
from monoratio.construct import (G_TEMPLATES, StaircaseSpec, construct_f,
                                 make_staircase_rho, random_pair)

WINDOW = mr.Interval(-2.0, 2.0)

# value and derivative of each template g, in mpmath arithmetic
MP_G = {
    "exp(x)": (lambda u: mp.exp(u), lambda u: mp.exp(u)),
    "-exp(x)": (lambda u: -mp.exp(u), lambda u: -mp.exp(u)),
    "exp(-x)": (lambda u: mp.exp(-u), lambda u: -mp.exp(-u)),
    "-exp(-x)": (lambda u: -mp.exp(-u), lambda u: mp.exp(-u)),
    "x + 3": (lambda u: u + 3, lambda u: mp.mpf(1)),
    "-x - 3": (lambda u: -u - 3, lambda u: mp.mpf(-1)),
    "1/(x + 4)": (lambda u: 1 / (u + 4), lambda u: -1 / (u + 4) ** 2),
    "-1/(x + 4)": (lambda u: -1 / (u + 4), lambda u: 1 / (u + 4) ** 2),
}


def _staircase_mp(spec: StaircaseSpec):
    """rho from the spec's breakpoints and slopes, in mpmath arithmetic."""
    sign = 1 if spec.direction == "up" else -1
    nodes = [mp.mpf(x) for x in spec.breakpoints]
    slopes = []
    for i, s in enumerate(spec.slopes):
        slopes.append(sign * mp.mpf(s))
        if i < len(spec.flats):
            slopes.append(mp.mpf(0))
    values = [mp.mpf(spec.anchor_value)]
    for i in range(1, len(nodes)):
        values.append(values[-1] + slopes[i] * (nodes[i] - nodes[i - 1]))

    def rho(u):
        i = bisect.bisect_right(nodes, u)
        if i == 0:
            return values[0] + slopes[0] * (u - nodes[0])
        return values[i - 1] + slopes[i] * (u - nodes[i - 1])
    return rho


def _reference(rho_mp, dg_mp, g_mp, z, K, kinks, xs):
    """K*g(z) + integral from z to x of rho*g', for every x in xs."""
    with mp.workdps(30):
        def integral(a, b):
            lo, hi = min(a, b), max(a, b)
            cuts = [lo] + [k for k in kinks if lo < k < hi] + [hi]
            total = mp.quad(lambda u: rho_mp(u) * dg_mp(u), cuts)
            return total if b >= a else -total

        base = mp.mpf(K) * g_mp(mp.mpf(z))
        return [float(base + integral(mp.mpf(z), mp.mpf(x))) for x in xs]


def _query_points(f, kinks, rng):
    xs = [rng.uniform(WINDOW.lo, WINDOW.hi) for _ in range(12)]
    for k in kinks:
        xs += [k - 1e-9, k, k + 1e-9]
    for s in rng.sample(list(f._starts[1:]), 4):  # leaf boundaries
        xs += [math.nextafter(s, -math.inf), s, math.nextafter(s, math.inf)]
    return [x for x in xs if WINDOW.lo <= x <= WINDOW.hi]


def _assert_matches(f, xs, refs):
    for x, ref in zip(xs, refs):
        assert abs(f(x)[0] - ref) <= 1e-11 * (1.0 + abs(ref)), (x, f(x)[0], ref)


@pytest.mark.parametrize("g", G_TEMPLATES[1] + G_TEMPLATES[-1],
                         ids=lambda g: g.label)
def test_staircase_rho_matches_mpmath(g):
    spec = StaircaseSpec(flats=((-1.3, -0.7), (0.35, 1.05)), slopes=(1.4, 0.6, 2.1),
                         direction="down" if g.label.startswith("-") else "up",
                         anchor_value=0.4)
    rho = make_staircase_rho(spec)
    z = 0.7
    K = rho(z)[0]
    f = construct_f(g, rho, z, K, WINDOW)
    kinks = list(spec.breakpoints)
    xs = _query_points(f, kinks, random.Random(g.label))
    g_mp, dg_mp = MP_G[g.label]
    _assert_matches(f, xs, _reference(_staircase_mp(spec), dg_mp, g_mp, z, K, kinks, xs))


@pytest.mark.parametrize("rho_text,rho_mp,kinks", [
    ("max(x - 0.3, 0)", lambda u: max(u - mp.mpf(0.3), 0), [0.3]),  # kink rho does not announce
    ("atan(x)", mp.atan, []),
])
def test_expression_rho_matches_mpmath(rho_text, rho_mp, kinks):
    g = mr.expr_fn("exp(x)")
    rho = mr.expr_fn(rho_text)
    f = construct_f(g, rho, 0.0, 0.0, WINDOW)
    xs = _query_points(f, kinks, random.Random(rho_text))
    _assert_matches(f, xs, _reference(rho_mp, mp.exp, mp.exp, 0.0, 0.0, kinks, xs))


# --- the per-query algorithm the leaf table replaced ------------------------

def _simpson(fn, a, b, tol):
    def step(x0, x2, f0, f1, f2, whole, tol, depth):
        x1 = 0.5 * (x0 + x2)
        flm, frm = fn(0.5 * (x0 + x1)), fn(0.5 * (x1 + x2))
        h6 = (x2 - x0) / 12.0
        left = h6 * (f0 + 4.0 * flm + f1)
        right = h6 * (f1 + 4.0 * frm + f2)
        est = (left + right - whole) / 15.0
        if abs(est) <= tol:
            return left + right + est
        if depth >= 40:
            raise ArithmeticError("no convergence")
        return (step(x0, x1, f0, flm, f1, left, 0.5 * tol, depth + 1)
                + step(x1, x2, f1, frm, f2, right, 0.5 * tol, depth + 1))

    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
    return step(a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol, 0)


def _split_simpson(fn, a, b, breaks, tol):
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b, sign = b, a, -1.0
    cuts = [a, *breaks[bisect.bisect_right(breaks, a):bisect.bisect_left(breaks, b)], b]
    pieces = len(cuts) - 1
    return sign * sum(_simpson(fn, cuts[i], cuts[i + 1], tol / pieces)
                      for i in range(pieces))


class PerQuerySimpson:
    """The constructed f with a fresh partial-panel quadrature per query."""

    def __init__(self, f):
        self.fn = lambda u: f.rho(u)[0] * f.g(u)[1]
        self.breaks = tuple(sorted(getattr(f.rho, "breakpoints", ())))
        self.tol = f.quad_tol
        self.lo, self.step = f.window.lo, f.window.length / 1024
        self.xs = [self.lo + i * self.step for i in range(1025)]
        self.cum = [0.0]
        for i in range(1024):
            self.cum.append(self.cum[-1] + _split_simpson(
                self.fn, self.xs[i], self.xs[i + 1], self.breaks, self.tol))
        self.base = f.K * f.g(f.z)[0]
        self.Fz = self.antideriv(f.z)

    def antideriv(self, x):
        k = min(max(int((x - self.lo) / self.step), 0), 1023)
        return self.cum[k] + _split_simpson(self.fn, self.xs[k], x, self.breaks, self.tol)

    def __call__(self, x):
        return self.base + self.antideriv(x) - self.Fz


def test_leaf_table_matches_per_query_simpson():
    worst = 0.0
    for seed in range(40):
        pair, _, _ = random_pair(seed)
        ref = PerQuerySimpson(pair.f)
        rng = random.Random(seed)
        for _ in range(200):
            x = rng.uniform(pair.window.lo, pair.window.hi)
            want = ref(x)
            worst = max(worst, abs(pair.f(x)[0] - want) / (1.0 + abs(want)))
    assert worst <= 1e-14
