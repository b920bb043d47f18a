"""Monotonicity-pattern classification of sampled functions, maximal
intervals of constancy, and the level-0 set of rho-tilde.

A pattern is one of Increasing, Decreasing, DownUp (falls, may sit on a
flat [c, d], then rises), UpDown (the mirror), or Constant.  Everything
here works on a sign sequence in which values within the zero band
count as zero.  Every detector reads one column of finite samples
at strictly increasing x's and takes its band in the column's own units;
the caller scales it.  Strict and non-strict monotonicity are not
distinguished; sampled floating-point data cannot certify strictness.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import compress, groupby, repeat
from operator import ge, ne, sub
from typing import Callable, Iterable, Sequence

from .intervals import Interval
from .ratio import BadBracket, Grid, check_ascending, refine_sign_change  # noqa: F401


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


def _check_columns(xs: Sequence[float], vs: Sequence[float], band: float) -> None:
    if len(xs) != len(vs) or len(xs) < 16:
        raise ValueError(f"need equal x and value columns of 16+ samples, got {len(xs)}, {len(vs)}")
    if not isinstance(xs, Grid):  # a Grid was checked when it was made
        check_ascending(xs)
    # a NaN or an infinity makes the sum non-finite; so can finite samples
    # whose sum overflows, hence the scan
    if not math.isfinite(sum(vs)):
        i = next((i for i, v in enumerate(vs) if not math.isfinite(v)), None)
        if i is not None:
            raise ValueError(f"sample at x = {xs[i]!r} is not finite: {vs[i]!r}")
    if not band >= 0.0:  # a NaN band would give no zero band at all
        raise ValueError(f"band must be at least 0, got {band!r}")


def _signs(values: Iterable[float], band: float) -> list[int]:
    return [0 if abs(v) <= band else (1 if v > 0.0 else -1) for v in values]


def _runs(signs: Sequence[int]) -> list[tuple[int, int, int]]:
    """Compress a sign sequence to (sign, first index, last index) runs."""
    runs = []
    start = 0
    for sign, group in groupby(signs):
        end = start + len(list(group))
        runs.append((sign, start, end - 1))
        start = end
    return runs


def _interpolant(px: Sequence[float], pv: Sequence[float]) -> Callable[[float], float]:
    """The piecewise-linear interpolant of (px, pv), extended linearly
    past the end samples.  A boundary found on it is only good to within
    one grid cell."""
    last = len(px) - 2

    def value(t: float) -> float:
        i = min(max(bisect_right(px, t) - 1, 0), last)
        j = i + 1 if t >= px[i + 1] else i  # the anchor: exact at every sample
        return pv[j] + (pv[i + 1] - pv[i]) * (t - px[j]) / (px[i + 1] - px[i])

    return value


def _run_interval(px: Sequence[float], i0: int, i1: int,
                  lo_probe: Callable[[float], float], hi_probe: Callable[[float], float],
                  lo_edge: float, hi_edge: float, xtol: float) -> Interval:
    """The extent of the sample run px[i0..i1].

    Each end is bisected to its probe's sign change in the grid cell next
    to the run.  An end that touches the first or last sample snaps to
    the edge instead and is flagged open: window-truncated, true extent
    unknown.
    """
    if i0 == 0:
        lo, lo_closed = lo_edge, False
    else:
        lo, lo_closed = refine_sign_change(lo_probe, (px[i0 - 1], px[i0]), xtol), True
    if i1 == len(px) - 1:
        hi, hi_closed = hi_edge, False
    else:
        hi, hi_closed = refine_sign_change(hi_probe, (px[i1], px[i1 + 1]), xtol), True
    return Interval(lo, hi, lo_closed, hi_closed)


def _one_switch_kind(shape: Sequence[int]) -> PatternKind:
    """The pattern kind of a sign-run shape (signs of consecutive runs,
    zero within the band): one run is monotone or constant, and a
    composite must have the one-switch form, e.g. (-)(0)(+) for DownUp."""
    if len(shape) == 1:
        return {1: PatternKind.INCREASING, -1: PatternKind.DECREASING,
                0: PatternKind.CONSTANT}[shape[0]]
    first = shape[0] or -shape[-1]  # the sign before the switch
    if shape not in ([first, -first], [first, 0, -first], [0, -first], [first, 0]):
        raise Unclassifiable(
            f"sign sequence {shape} does not fit a one-switch pattern")
    return PatternKind.DOWN_UP if first < 0 else PatternKind.UP_DOWN


def detect_pattern(xs: Sequence[float], vs: Sequence[float], band: float,
                   window: Interval | None = None,
                   probe: Callable[[float], float] | None = None) -> Pattern:
    """Classify the monotonicity pattern of a function whose derivative
    proxy takes the values vs at the strictly increasing xs (use this on
    rho-tilde samples to get the pattern of r).  The sign sequence of the
    values, zero within the absolute band, must be of the one-switch form.

    Switch endpoints are refined by bisection between the bracketing
    samples.  The bisection probes the caller's ``probe`` (the underlying
    function behind the values, when available) or else the linear
    interpolant of the samples, which can only place a boundary to within
    one grid cell.  When a flat run touches the first or last sample, the
    switch endpoint snaps to the window edge (or sample span if no window
    is given) and is flagged open: truncated, true extent unknown.
    """
    _check_columns(xs, vs, band)
    if probe is None:
        probe = _interpolant(xs, vs)

    lo_edge = window.lo if window is not None else xs[0]
    hi_edge = window.hi if window is not None else xs[-1]
    xtol = 1e-12 * (hi_edge - lo_edge)

    runs = _runs(_signs(vs, band))
    shape = [s for s, _, _ in runs]
    kind = _one_switch_kind(shape)
    if kind is PatternKind.CONSTANT:
        return Pattern(kind, Interval(lo_edge, hi_edge, False, False))
    if kind is PatternKind.INCREASING:
        return Pattern(kind, Interval(lo_edge, lo_edge))
    if kind is PatternKind.DECREASING:
        return Pattern(kind, Interval(hi_edge, hi_edge))

    if 0 not in shape:  # a bare crossing: the switch is a point
        i = runs[0][2]
        c = refine_sign_change(probe, (xs[i], xs[i + 1]), xtol)
        return Pattern(kind, Interval(c, c))
    # the values enter the band across the edge on the side of the sign
    # before the switch, and leave it across the other edge
    _, z0, z1 = runs[shape.index(0)]
    enter = -band if kind is PatternKind.DOWN_UP else band
    return Pattern(kind, _run_interval(xs, z0, z1, lambda t: probe(t) - enter,
                                       lambda t: probe(t) + enter, lo_edge, hi_edge, xtol))


def detect_direction(xs: Sequence[float], vs: Sequence[float], band: float) -> PatternKind:
    """Classify the direction of the function sampled as vs at the
    strictly increasing xs from the signs of its first differences, zero
    within the absolute band.  Zeros inside a monotone run are allowed (a
    non-decreasing function may sit on flats), while the composite kinds
    still require the strict one-switch form."""
    _check_columns(xs, vs, band)
    shape = [s for s, _ in groupby(_signs(map(sub, vs[1:], vs), band))]
    if (1 in shape) != (-1 in shape):  # monotone, flats anywhere
        shape = [1 if 1 in shape else -1]
    return _one_switch_kind(shape)


def detect_mics(xs: Sequence[float], vs: Sequence[float], band: float,
                min_ic_len: float,
                probe: Callable[[float], float] | None = None) -> tuple[Interval, ...]:
    """Find the maximal intervals of constancy of the values vs sampled at
    the strictly increasing xs: maximal runs where max - min of the values
    stays within the absolute band, keeping only runs longer than
    min_ic_len.  Returns them ordered and disjoint.

    Run endpoints are refined by bisection on the constancy predicate,
    evaluated on ``probe`` (the underlying function, when the caller has
    one) or else on the linear interpolant of the samples; the interpolant
    can only place an endpoint to within one grid cell.  Endpoints at the
    sampled edge are flagged open (window-truncated).
    """
    _check_columns(xs, vs, band)
    n = len(xs)
    xtol = 1e-12 * (xs[-1] - xs[0])
    value = probe if probe is not None else _interpolant(xs, vs)

    # Samples j - 1 and j share a run only across a join, a step
    # |vs[j] - vs[j-1]| within the band, so every longer run lies in a
    # piece [a, b) of consecutive joins; on a sampled curve joins are few,
    # and C-level passes find them and the breaks between their pieces
    joins = list(compress(range(1, n), map(ge, repeat(band), map(abs, map(sub, vs[1:], vs)))))
    breaks = list(compress(range(1, len(joins)), map(ne, map(sub, joins[1:], joins), repeat(1))))
    pieces = [(joins[k] - 1, joins[m - 1] + 1)
              for k, m in zip([0, *breaks], [*breaks, len(joins)])] if joins else []
    raw_runs = []
    # a sample in no piece is a run of its own, which the length test of
    # the loop further down drops whenever two grid cells fit in min_ic_len
    if not 2.0 * max(map(sub, xs[1:], xs)) <= min_ic_len:
        raw_runs += ((i, i) for e, s in zip([0, *(b for _, b in pieces)],
                                            [*(a for a, _ in pieces), n]) for i in range(e, s))
    for a, b in pieces:
        if max(vs[a:b]) - min(vs[a:b]) <= band:  # the piece fits the band whole
            raw_runs.append((a, b - 1))
            continue
        # streaming min/max filter (Lemire 2006): the deques hold the
        # indices of the window [lo..j]'s running max and min; when j
        # breaks the band, [lo..j-1] is maximal and lo moves past the older
        # extreme until the window fits again
        max_dq: deque[int] = deque()
        min_dq: deque[int] = deque()
        lo = a
        for j in range(a, b):
            v = vs[j]
            while max_dq and vs[max_dq[-1]] <= v:
                max_dq.pop()
            max_dq.append(j)
            while min_dq and vs[min_dq[-1]] >= v:
                min_dq.pop()
            min_dq.append(j)
            if vs[max_dq[0]] - vs[min_dq[0]] > band:
                raw_runs.append((lo, j - 1))
                while vs[max_dq[0]] - vs[min_dq[0]] > band:
                    lo = (max_dq if max_dq[0] < min_dq[0] else min_dq).popleft() + 1
        raw_runs.append((lo, b - 1))
    raw_runs.sort()

    intervals: list[Interval] = []
    last_hi = -math.inf
    for i0, i1 in raw_runs:
        # refinement extends less than one cell per side, so a short run
        # can be discarded without refining it
        right = xs[i1 + 1] - xs[i1] if i1 < n - 1 else 0.0
        left = xs[i0] - xs[i0 - 1] if i0 else 0.0
        if xs[i1] - xs[i0] + right + left <= min_ic_len:
            continue
        run_max = max(vs[i0:i1 + 1])
        run_min = min(vs[i0:i1 + 1])

        def flat_probe(t: float) -> float:
            v = value(t)
            return band - (max(run_max, v) - min(run_min, v))

        run = _run_interval(xs, i0, i1, flat_probe, flat_probe, xs[0], xs[-1], xtol)
        if run.length <= min_ic_len or run.lo < last_hi:
            continue
        intervals.append(run)
        last_hi = run.hi
    return tuple(intervals)


def level0_set(xs: Sequence[float], rho_tilde: Sequence[float], band: float,
               probe: Callable[[float], float], window: Interval) -> Interval | None:
    """The set where |rho-tilde| <= band over its column sampled at the
    strictly increasing xs inside the window, reported as one interval
    whose endpoints are bisected on probe (rho-tilde as a function).
    Returns None when rho-tilde keeps one sign clear of the band.  A plain
    sign crossing with no in-band sample yields a length-0 interval: a
    switch point, not an interval of constancy.  Several components
    separated by more than 2 grid steps raise NonInterval, which signals
    a non-monotone rho (broken precondition).
    """
    _check_columns(xs, rho_tilde, band)
    xtol = 1e-9 * (1.0 + window.length)

    runs = _runs(_signs(rho_tilde, band))
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

    merged: list[list[int]] = []
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

    def band_probe(t: float) -> float:
        return abs(probe(t)) - band

    return _run_interval(xs, band_runs[0][0], band_runs[-1][1], band_probe, band_probe,
                         window.lo, window.hi, xtol)
