"""Monotonicity-pattern classification of sampled functions, maximal
intervals of constancy, and the level-0 set of rho-tilde.

A pattern is one of Increasing, Decreasing, DownUp (falls, may sit on a
flat [c, d], then rises), UpDown (the mirror), or Constant.  Everything
here works on a tolerance-truncated sign sequence: values within the zero
tolerance count as zero.  Strict and non-strict monotonicity are not
distinguished; sampled floating-point data cannot certify strictness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .intervals import Interval
from .ratio import (BadBracket, FunctionPair, median_abs, refine_sign_change,  # noqa: F401
                    rho_tilde_at, sample_table)


class Unclassifiable(Exception):
    """The sign sequence fits no one-switch pattern; either the zero
    tolerance is off or the input's derivative ratio is not monotone."""


class NonInterval(Exception):
    """The sub-tolerance set of rho-tilde has several separated
    components, which a monotone rho cannot produce."""


class PatternKind(str, Enum):
    INCREASING = "Increasing"
    DECREASING = "Decreasing"
    DOWN_UP = "DownUp"
    UP_DOWN = "UpDown"
    CONSTANT = "Constant"


@dataclass(frozen=True)
class Pattern:
    """A pattern kind plus its switch interval [c, d].

    For Increasing the switch collapses to the left edge, for Decreasing
    to the right edge, for Constant it spans the whole window.  An open
    endpoint flag on the switch means the flat run reached the sampled
    edge, so its true extent is window-truncated.
    """

    kind: PatternKind
    switch: Interval

    def mirror_vertical(self) -> "PatternKind":
        return _VERTICAL_MIRROR[self.kind]


_VERTICAL_MIRROR = {
    PatternKind.INCREASING: PatternKind.DECREASING,
    PatternKind.DECREASING: PatternKind.INCREASING,
    PatternKind.DOWN_UP: PatternKind.UP_DOWN,
    PatternKind.UP_DOWN: PatternKind.DOWN_UP,
    PatternKind.CONSTANT: PatternKind.CONSTANT,
}


@dataclass(frozen=True)
class MicSet:
    """Ordered disjoint maximal intervals of constancy."""

    intervals: tuple[Interval, ...] = ()

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __getitem__(self, i: int) -> Interval:
        return self.intervals[i]


def _split_samples(samples: Sequence[tuple[float, float]]) -> tuple[list[float], list[float]]:
    xs = [x for x, _ in samples]
    vs = [v for _, v in samples]
    if len(xs) < 16:
        raise ValueError("at least 16 samples required")
    for i in range(len(xs) - 1):
        if xs[i] >= xs[i + 1]:
            raise ValueError("sample x's must be strictly increasing")
    return xs, vs


def _signs(values: Sequence[float], tol: float) -> list[int]:
    return [0 if abs(v) <= tol else (1 if v > 0.0 else -1) for v in values]


def _runs(signs: Sequence[int]) -> list[tuple[int, int, int]]:
    """Compress a sign sequence to (sign, first index, last index) runs."""
    runs = []
    start = 0
    for i in range(1, len(signs) + 1):
        if i == len(signs) or signs[i] != signs[start]:
            runs.append((signs[start], start, i - 1))
            start = i
    return runs


def _linear_boundary(px: Sequence[float], pv: Sequence[float], i_left: int,
                     i_right: int, target: float, xtol: float) -> float:
    """Where the linear interpolant of (px, pv) crosses target, between
    two adjacent samples of opposite (target-relative) sign."""
    x0, x1 = px[i_left], px[i_right]
    y0, y1 = pv[i_left] - target, pv[i_right] - target

    def probe(t: float) -> float:
        return y0 + (y1 - y0) * (t - x0) / (x1 - x0)

    return refine_sign_change(probe, (x0, x1), xtol)


def detect_pattern(samples: Sequence[tuple[float, float]], tol: float,
                   mode: str = "values", window: Interval | None = None,
                   probe: Callable[[float], float] | None = None) -> Pattern:
    """Classify the monotonicity pattern behind a sample sequence.

    mode="values": the sample values themselves are a derivative proxy
    (use this on rho-tilde samples to get the pattern of r; the tolerance-
    truncated sign sequence must then be of the one-switch form, e.g.
    (-)*(0)*(+)* for DownUp).

    mode="diffs": classify the sampled function's own direction from the
    signs of its first differences.  Zeros interior to a monotone run are
    allowed there (a non-decreasing function may sit on flats), while the
    composite shapes still require the strict one-switch form.

    Switch endpoints are refined by bisection between the bracketing
    samples.  The bisection probes the caller's ``probe`` (the underlying
    function behind the values, when available) or else the linear
    interpolant of the samples, which can only place a boundary to within
    one grid cell.  When a flat run touches the first or last sample, the
    switch endpoint snaps to the window edge (or sample span if no window
    is given) and is flagged open: truncated, true extent unknown.
    """
    xs, vs = _split_samples(samples)
    if mode == "values":
        px, pv = xs, vs
    elif mode == "diffs":
        px = [0.5 * (xs[i] + xs[i + 1]) for i in range(len(xs) - 1)]
        pv = [vs[i + 1] - vs[i] for i in range(len(vs) - 1)]
        probe = None  # no point function behind first differences
    else:
        raise ValueError(f"unknown mode {mode!r}")

    lo_edge = window.lo if window is not None else xs[0]
    hi_edge = window.hi if window is not None else xs[-1]
    xtol = 1e-12 * (hi_edge - lo_edge)

    signs = _signs(pv, tol)
    runs = _runs(signs)
    shape = [s for s, _, _ in runs]

    if shape == [0]:
        return Pattern(PatternKind.CONSTANT, Interval(lo_edge, hi_edge, False, False))

    if mode == "diffs" and (1 not in shape or -1 not in shape):
        # monotone, flats anywhere
        kind = PatternKind.INCREASING if 1 in shape else PatternKind.DECREASING
        edge = lo_edge if kind is PatternKind.INCREASING else hi_edge
        return Pattern(kind, Interval(edge, edge))

    if shape == [1]:
        return Pattern(PatternKind.INCREASING, Interval(lo_edge, lo_edge))
    if shape == [-1]:
        return Pattern(PatternKind.DECREASING, Interval(hi_edge, hi_edge))

    down_up_shapes = ([-1, 1], [-1, 0, 1], [0, 1], [-1, 0])
    up_down_shapes = ([1, -1], [1, 0, -1], [0, -1], [1, 0])
    if shape in down_up_shapes:
        kind, first, last = PatternKind.DOWN_UP, -1, 1
    elif shape in up_down_shapes:
        kind, first, last = PatternKind.UP_DOWN, 1, -1
    else:
        raise Unclassifiable(
            f"sign sequence {shape} does not fit a one-switch pattern")

    # entering tolerance band: proxy crosses -tol (DownUp) / +tol (UpDown)
    by_sign = {s: (i0, i1) for s, i0, i1 in runs}
    lo_open = hi_open = False

    def boundary(i_left: int, i_right: int, target: float) -> float:
        if probe is not None:
            return refine_sign_change(lambda t: probe(t) - target,
                                      (px[i_left], px[i_right]), xtol)
        return _linear_boundary(px, pv, i_left, i_right, target, xtol)

    if shape in ([-1, 1], [1, -1]):
        c = d = boundary(by_sign[first][1], by_sign[last][0], 0.0)
    else:
        enter_target = -tol if kind is PatternKind.DOWN_UP else tol
        leave_target = tol if kind is PatternKind.DOWN_UP else -tol
        if shape[0] == 0:
            c, lo_open = lo_edge, True
        else:
            c = boundary(by_sign[first][1], by_sign[0][0], enter_target)
        if shape[-1] == 0:
            d, hi_open = hi_edge, True
        else:
            d = boundary(by_sign[0][1], by_sign[last][0], leave_target)
    return Pattern(kind, Interval(min(c, d), max(c, d), not lo_open, not hi_open))


def detect_mics(samples: Sequence[tuple[float, float]], tol: float,
                min_ic_len: float,
                probe: Callable[[float], float] | None = None) -> MicSet:
    """Find maximal runs where max - min of the values stays within
    tol*(1 + median |value|), keeping only runs longer than min_ic_len.

    Run endpoints are refined by bisection on the constancy predicate,
    evaluated on ``probe`` (the underlying function, when the caller has
    one) or else on the linear interpolant of the samples; the interpolant
    can only place an endpoint to within one grid cell.  Endpoints at the
    sampled edge are flagged open (window-truncated).
    """
    xs, vs = _split_samples(samples)
    tol_abs = tol * (1.0 + median_abs(vs))
    n = len(xs)
    xtol = 1e-12 * (xs[-1] - xs[0])

    # two-pointer sweep with min/max deques: j(i) = furthest right index
    # keeping [i..j] within tol_abs; j is nondecreasing in i
    from collections import deque
    max_dq: deque[int] = deque()
    min_dq: deque[int] = deque()
    j = -1
    raw_runs: list[tuple[int, int]] = []
    prev_j = -1
    for i in range(n):
        if j < i - 1:
            j = i - 1
            max_dq.clear()
            min_dq.clear()
        while j + 1 < n:
            cand = j + 1
            v = vs[cand]
            hi_v = max(v, vs[max_dq[0]] if max_dq else v)
            lo_v = min(v, vs[min_dq[0]] if min_dq else v)
            if hi_v - lo_v > tol_abs:
                break
            while max_dq and vs[max_dq[-1]] <= v:
                max_dq.pop()
            max_dq.append(cand)
            while min_dq and vs[min_dq[-1]] >= v:
                min_dq.pop()
            min_dq.append(cand)
            j = cand
        if j > i - 1 and (i == 0 or j > prev_j):
            raw_runs.append((i, j))
        prev_j = j
        if max_dq and max_dq[0] == i:
            max_dq.popleft()
        if min_dq and min_dq[0] == i:
            min_dq.popleft()

    intervals: list[Interval] = []
    last_hi = -math.inf
    for i0, i1 in raw_runs:
        # refinement extends less than one cell per side, so a short run
        # can be discarded without refining it
        if xs[i1] - xs[i0] + (xs[min(i1 + 1, n - 1)] - xs[i1]) \
                + (xs[i0] - xs[max(i0 - 1, 0)]) <= min_ic_len:
            continue
        run_max = max(vs[i0:i1 + 1])
        run_min = min(vs[i0:i1 + 1])

        def flat_probe(t: float, xa: float, xb: float, ya: float, yb: float) -> float:
            if probe is not None:
                v = probe(t)
            else:
                v = ya + (yb - ya) * (t - xa) / (xb - xa)
            return tol_abs - (max(run_max, v) - min(run_min, v))

        if i0 == 0:
            lo, lo_closed = xs[0], False
        else:
            xa, xb, ya, yb = xs[i0 - 1], xs[i0], vs[i0 - 1], vs[i0]
            lo = refine_sign_change(
                lambda t: flat_probe(t, xa, xb, ya, yb), (xa, xb), xtol)
            lo_closed = True
        if i1 == n - 1:
            hi, hi_closed = xs[-1], False
        else:
            xa, xb, ya, yb = xs[i1], xs[i1 + 1], vs[i1], vs[i1 + 1]
            hi = refine_sign_change(
                lambda t: flat_probe(t, xa, xb, ya, yb), (xa, xb), xtol)
            hi_closed = True

        if hi - lo <= min_ic_len or lo < last_hi:
            continue
        intervals.append(Interval(lo, hi, lo_closed, hi_closed))
        last_hi = hi
    return MicSet(tuple(intervals))


def level0_set(pair: FunctionPair, tol: float, n: int | None = None,
               _table=None) -> Interval | None:
    """The set where |rho-tilde| <= tol*(1 + median |rho-tilde|), reported
    as one interval with bisection-refined endpoints.

    Returns None when rho-tilde keeps one sign clear of the tolerance.  A
    plain sign crossing with no sub-tolerance sample yields a length-0
    interval: a switch point, not an interval of constancy.  Several
    components separated by more than 2 grid steps raise NonInterval,
    which signals a non-monotone rho (broken precondition).
    """
    table = _table if _table is not None else sample_table(pair, n)
    xs, rt = table.xs, table.rho_tilde
    count = len(xs)
    tol_abs = tol * (1.0 + median_abs(rt))
    xtol = 1e-9 * (1.0 + pair.window.length)

    inside = [abs(v) <= tol_abs for v in rt]
    features: list[tuple[int, int]] = []  # index ranges; i0 > i1 never
    start = None
    for i in range(count):
        if inside[i] and start is None:
            start = i
        elif not inside[i] and start is not None:
            features.append((start, i - 1))
            start = None
    if start is not None:
        features.append((start, count - 1))
    # direct sign crossings between out-of-band neighbours
    for i in range(count - 1):
        if not inside[i] and not inside[i + 1] and (rt[i] > 0.0) != (rt[i + 1] > 0.0):
            features.append((i, i + 1))
    features.sort()

    merged: list[list[int]] = []
    for i0, i1 in features:
        if merged and i0 - merged[-1][1] <= 2:
            merged[-1][1] = max(merged[-1][1], i1)
        else:
            merged.append([i0, i1])
    if not merged:
        return None
    if len(merged) > 1:
        spots = ", ".join(f"{xs[a]:.6g}..{xs[b]:.6g}" for a, b in merged)
        raise NonInterval(
            f"level-0 set of rho-tilde splits into {len(merged)} components "
            f"({spots}); rho is not monotone here")

    i0, i1 = merged[0]
    in_range = [i for i in range(i0, i1 + 1) if inside[i]]
    if not in_range:
        # bare crossing: refine on rho-tilde itself
        root = refine_sign_change(lambda t: rho_tilde_at(pair, t),
                                  (xs[i0], xs[i1]), xtol)
        return Interval(root, root)
    i0, i1 = in_range[0], in_range[-1]

    def band_probe(t: float) -> float:
        return abs(rho_tilde_at(pair, t)) - tol_abs

    if i0 == 0:
        lo, lo_closed = pair.window.lo, False
    else:
        lo = refine_sign_change(band_probe, (xs[i0 - 1], xs[i0]), xtol)
        lo_closed = True
    if i1 == count - 1:
        hi, hi_closed = pair.window.hi, False
    else:
        hi = refine_sign_change(band_probe, (xs[i1], xs[i1 + 1]), xtol)
        hi_closed = True
    return Interval(lo, hi, lo_closed, hi_closed)
