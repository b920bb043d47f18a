"""The benchmark's three workloads: seeded inputs, the timed case body, and
an oracle grounded in the paper for every case.

Each workload is a class built from the run seed.  ``case_input(i)`` makes
the i-th input deterministically from (workload, seed, i); ``run_case``
is the timed unit of user work; ``check`` decides from the case's output
alone whether the program answered correctly.  The untimed warm-up runs
the cases of seed ``WARMUP_SEED`` from index ``WARMUP_BASE`` on, whatever
the run seed: set-up time then does not depend on the seed, and warm-up
never pre-runs a timed case.

The program is called through module attributes (``rules.check_pair``,
``construct.construct_f`` ...), never through names bound at import, so
the tracer and the planted-defect tests can substitute them.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass

from monoratio import construct, expr, ratio, rules
from monoratio.intervals import Interval

WARMUP_SEED = 0
WARMUP_BASE = 90_000

# campaign: the r-m.i.c. must sit on the chosen flat within this, in x
MIC_TOL = 1e-3
# construct_build: relative tolerance of the constructor identities; the
# quadrature runs at 1e-10 absolute per panel and lands near 1e-14
CONSTRUCT_TOL = 1e-9


def _rng(workload: str, seed: int, i: int) -> random.Random:
    # string seeds hash through sha512, so inputs repeat across processes
    return random.Random(f"{workload}/{seed}/{i}")


# ---------------------------------------------------------------------------
# campaign: random_pair + check_pair over consecutive generator seeds

class Campaign:
    """The per-case body of ``monoratio verify``: the program's own seeded
    generator builds a staircase-rho pair, and check_pair analyses it."""

    name = "campaign"
    trace_cases = 16

    def __init__(self, seed: int):
        self.seed = seed

    def case_input(self, i: int) -> int:
        return self.seed * 100_000 + i

    def run_case(self, case_seed: int):
        pair, _spec, chosen = construct.random_pair(case_seed)
        return chosen, rules.check_pair(pair)

    @staticmethod
    def check(case_seed: int, out) -> bool:
        # Every table row holds, and the only m.i.c. of r is the chosen
        # flat of rho (none when the chosen "flat" is the point z).
        chosen, report = out
        if not report.all_ok:
            return False
        mics = list(report.mics_r)
        if chosen.degenerate:
            return not mics
        return (len(mics) == 1 and abs(mics[0].lo - chosen.lo) <= MIC_TOL
                and abs(mics[0].hi - chosen.hi) <= MIC_TOL)


# ---------------------------------------------------------------------------
# expr_analyze: parse -> ExprFn -> make_pair -> check_pair on f = h(g) + c g + d

# admissible g: source text, its value in plain Python, analysis window
G_EXPRS = (
    ("exp(x)", math.exp, (-2.0, 2.0)),
    ("exp(-x)", lambda x: math.exp(-x), (-2.0, 2.0)),
    ("-exp(x)", lambda x: -math.exp(x), (-2.0, 2.0)),
    ("x + 3", lambda x: x + 3.0, (-2.0, 2.0)),
    ("1/(x + 4)", lambda x: 1.0 / (x + 4.0), (-2.0, 2.0)),
    ("x", lambda x: x, (0.5, 3.0)),
    ("x^2", lambda x: x * x, (0.5, 3.0)),
    ("log(x)", math.log, (1.5, 5.0)),
)

# one block of eight cases: six positive h shapes, two negative controls,
# so a quarter of the cases are negatives and every run has the same mix
KINDS = ("square", "cube", "wave", "exp", "log", "clamp_hi", "cubic_bump",
         "clamp_lo")
NEGATIVE_KINDS = ("wave", "cubic_bump")

RANGE_GRID = 2048  # dense grid on which the generator tests h' on g's range


def _num(v: float) -> str:
    v = round(v, 6)
    return f"({v!r})" if v < 0.0 else repr(v)


def _draw_h(kind: str, rng: random.Random, a: float, b: float):
    """(text of h with the placeholder U, h' as a Python function) for a
    shape whose h' is monotone on [a, b] (positives) or not (negatives).
    g's range [a, b] is one-signed, since g never vanishes."""
    alpha = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
    span = b - a
    if kind == "square":
        return f"{_num(alpha)}*(U)^2", lambda u: 2.0 * alpha * u
    if kind == "cube":
        return f"{_num(alpha)}*(U)^3", lambda u: 3.0 * alpha * u * u
    if kind == "exp":
        beta = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0) / max(abs(a), abs(b))
        return (f"{_num(alpha)}*exp({_num(beta)}*(U))",
                lambda u: alpha * beta * math.exp(beta * u))
    if kind == "log":
        s = 1.0 - a  # U + s runs over [1, 1 + span]
        return (f"{_num(alpha)}*log(U + {_num(s)})",
                lambda u: alpha / (u + s))
    if kind in ("clamp_hi", "clamp_lo"):
        k = a + rng.uniform(0.3, 0.7) * span
        if kind == "clamp_hi":
            return (f"{_num(alpha)}*max(U - {_num(k)}, 0)^2",
                    lambda u: 2.0 * alpha * max(u - k, 0.0))
        return (f"{_num(alpha)}*max({_num(k)} - (U), 0)^2",
                lambda u: -2.0 * alpha * max(k - u, 0.0))
    if kind == "wave":
        omega = rng.uniform(1.6, 3.0) * math.pi / span
        phi = rng.uniform(0.0, 2.0 * math.pi)
        return (f"{_num(alpha)}*sin({_num(omega)}*(U) + {_num(phi)})",
                lambda u: alpha * omega * math.cos(omega * u + phi))
    if kind == "cubic_bump":
        m = a + rng.uniform(0.3, 0.7) * span
        return (f"{_num(alpha)}*(U - {_num(m)})^3",
                lambda u: 3.0 * alpha * (u - m) ** 2)
    raise ValueError(f"unknown h kind {kind!r}")


def _rise_fall(values: list[float]) -> tuple[float, float]:
    rise = fall = 0.0
    for v0, v1 in zip(values, values[1:]):
        if v1 > v0:
            rise += v1 - v0
        else:
            fall += v0 - v1
    return rise, fall


@dataclass(frozen=True)
class ExprCase:
    f_text: str
    g_text: str
    window: tuple[float, float]
    kind: str
    positive: bool


class ExprAnalyze:
    """Expression pairs through the parser and dual-number evaluator.

    rho = h'(g) + c is monotone exactly when h' is monotone on g's range,
    so the generator labels each pair from h' alone, and tests the label on
    a dense grid of g's actual range before handing the pair out.
    """

    name = "expr_analyze"
    trace_cases = 16

    def __init__(self, seed: int):
        self.seed = seed

    def case_input(self, i: int) -> ExprCase:
        kind = KINDS[i % len(KINDS)]
        g_text, g_value, window = G_EXPRS[(i + i // len(KINDS)) % len(G_EXPRS)]
        positive = kind not in NEGATIVE_KINDS
        rng = _rng(self.name, self.seed, i)
        lo, hi = window
        us = [g_value(lo + (hi - lo) * j / (RANGE_GRID - 1)) for j in range(RANGE_GRID)]
        a, b = min(us), max(us)
        for _ in range(100):
            h_text, h_prime = _draw_h(kind, rng, a, b)
            rise, fall = _rise_fall([h_prime(u) for u in us])
            if positive and min(rise, fall) <= 1e-12 * (rise + fall):
                break
            # a negative must fall and rise by a tenth of its travel at least
            if not positive and min(rise, fall) >= 0.1 * max(rise, fall):
                break
        else:
            raise RuntimeError(f"no {kind} shape found for g = {g_text}")
        c = rng.uniform(-1.0, 1.0)
        u = f"({g_text})"
        f_text = f"{h_text.replace('U', u)} + {_num(c)}*{u}"
        if not kind.startswith("clamp"):
            # clamps keep f = c g on rho's flat, so r has an m.i.c. there
            f_text += f" + {_num(rng.uniform(-1.0, 1.0))}"
        return ExprCase(f_text, g_text, window, kind, positive)

    def run_case(self, case: ExprCase):
        f = expr.ExprFn(expr.parse(case.f_text), label=case.f_text)
        g = expr.ExprFn(expr.parse(case.g_text), label=case.g_text)
        pair = ratio.make_pair(f, g, Interval(*case.window))
        return rules.check_pair(pair)

    @staticmethod
    def check(case: ExprCase, report) -> bool:
        # monotone rho: every rule holds; non-monotone rho: not all hold
        return report.all_ok == case.positive


# ---------------------------------------------------------------------------
# construct_build: construct_f on staircase specs, a few queries, no analysis

# template g, both signs of g' and of g*g', and their antiderivatives
# (the oracle's closed form for f, by integration by parts)
G_TEMPLATES = construct.G_TEMPLATES[1] + construct.G_TEMPLATES[-1]
G_PRIMITIVES = {
    construct._exp_pos: math.exp,
    construct._exp_neg: lambda x: -math.exp(x),
    construct._dexp_pos: lambda x: -math.exp(-x),
    construct._dexp_neg: lambda x: math.exp(-x),
    construct._affine_pos: lambda x: 0.5 * x * x + 3.0 * x,
    construct._affine_neg: lambda x: -0.5 * x * x - 3.0 * x,
    construct._recip_pos: lambda x: math.log(x + 4.0),
    construct._recip_neg: lambda x: -math.log(x + 4.0),
}
CONFIG = construct.GeneratorConfig()  # the program's own generator ranges
N_QUERIES = 64
N_FLAT_QUERIES = 16


class Staircase:
    """Reference value of a continuous piecewise-linear rho, from the spec
    alone (independent of the program's StaircaseFn)."""

    def __init__(self, flats, slopes, up: bool, anchor: float):
        sign = 1.0 if up else -1.0
        self.nodes = [x for flat in flats for x in flat]
        self.seg_slopes = []  # segment j spans [nodes[j-1], nodes[j])
        for j, s in enumerate(slopes):
            self.seg_slopes.append(sign * s)
            if j < len(flats):
                self.seg_slopes.append(0.0)
        self.values = [anchor]
        for j in range(1, len(self.nodes)):
            self.values.append(self.values[-1] + self.seg_slopes[j]
                               * (self.nodes[j] - self.nodes[j - 1]))
        self.anchor = anchor

    def __call__(self, x: float) -> float:
        if not self.nodes:
            return self.anchor + self.seg_slopes[0] * x
        j = bisect.bisect_right(self.nodes, x)
        if j == 0:
            return self.values[0] + self.seg_slopes[0] * (x - self.nodes[0])
        return self.values[j - 1] + self.seg_slopes[j] * (x - self.nodes[j - 1])

    def integral_dg(self, g, primitive, a: float, b: float) -> float:
        """The Stieltjes integral of rho dg from a to b, in closed form: by
        parts it is [rho g] from a to b minus the integral of rho' g, where
        rho' is constant on each segment and g has the antiderivative
        ``primitive``."""
        if b < a:
            return -self.integral_dg(g, primitive, b, a)
        edges = [a] + [x for x in self.nodes if a < x < b] + [b]
        inner = 0.0
        for u, v in zip(edges, edges[1:]):
            slope = self.seg_slopes[bisect.bisect_right(self.nodes, 0.5 * (u + v))]
            inner += slope * (primitive(v) - primitive(u))
        return self(b) * g(b)[0] - self(a) * g(a)[0] - inner


@dataclass(frozen=True)
class BuildCase:
    spec: object  # monoratio.construct.StaircaseSpec
    g: object
    window: tuple[float, float]
    chosen: tuple[float, float]  # chosen flat; lo == hi is the point z
    z: float
    K: float
    reference: Staircase
    queries: tuple[float, ...]


class ConstructBuild:
    """Constructor build cost: write the cumulative table, read it little."""

    name = "construct_build"
    trace_cases = 64

    def __init__(self, seed: int):
        self.seed = seed

    def case_input(self, i: int) -> BuildCase:
        # every template g meets every flat count within 32 cases
        rng = _rng(self.name, self.seed, i)
        block = i // len(G_TEMPLATES)
        g = G_TEMPLATES[i % len(G_TEMPLATES)]
        lo, hi = CONFIG.windows[block % len(CONFIG.windows)]
        span = hi - lo
        flats = construct._draw_flats(rng, Interval(lo, hi), CONFIG, (i + block) % 4)
        slopes = [rng.uniform(*CONFIG.slope_range) for _ in range(len(flats) + 1)]
        up = rng.random() < 0.5
        anchor = rng.uniform(*CONFIG.anchor_range)
        spec = construct.StaircaseSpec(flats=flats, slopes=tuple(slopes),
                                       direction="up" if up else "down",
                                       anchor_value=anchor)
        reference = Staircase(flats, slopes, up, anchor)
        if flats:
            chosen = flats[rng.randrange(len(flats))]
            z = 0.5 * (chosen[0] + chosen[1])
            inside = [rng.uniform(*chosen) for _ in range(N_FLAT_QUERIES)]
        else:
            z = rng.uniform(lo + 0.3 * span, hi - 0.3 * span)
            chosen, inside = (z, z), []
        outside = [rng.uniform(lo, hi) for _ in range(N_QUERIES - 1 - len(inside))]
        return BuildCase(spec, g, (lo, hi), chosen, z, reference(z), reference,
                         tuple([z] + inside + outside))

    def run_case(self, case: BuildCase):
        rho = construct.make_staircase_rho(case.spec)
        f = construct.construct_f(case.g, rho, case.z, case.K, Interval(*case.window))
        return [f(x) for x in case.queries]

    @staticmethod
    def check(case: BuildCase, values) -> bool:
        # f = K g(z) + the integral of rho dg from z at every query (so
        # f(z) = K g(z)); f'/g' = rho everywhere; r = K on the chosen flat
        primitive = G_PRIMITIVES[case.g]
        base = case.K * case.g(case.z)[0]
        for x, (fv, fd) in zip(case.queries, values):
            gv, gd = case.g(x)
            f_ref = base + case.reference.integral_dg(case.g, primitive, case.z, x)
            if abs(fv - f_ref) > CONSTRUCT_TOL * (1.0 + abs(f_ref)):
                return False
            rho = case.reference(x)
            if abs(fd / gd - rho) > CONSTRUCT_TOL * (1.0 + abs(rho)):
                return False
            if case.chosen[0] <= x <= case.chosen[1] \
                    and abs(fv / gv - case.K) > CONSTRUCT_TOL * (1.0 + abs(case.K)):
                return False
        return True


WORKLOADS = {cls.name: cls for cls in (Campaign, ExprAnalyze, ConstructBuild)}
