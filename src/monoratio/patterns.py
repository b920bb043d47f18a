"""Monotonicity-pattern classification of sampled functions, maximal
intervals of constancy, and the level-0 set of rho-tilde.

A pattern is one of Increasing, Decreasing, DownUp (falls, may sit on a
flat [c, d], then rises), UpDown (the mirror), or Constant.  Everything
here works on a sign sequence in which values within the zero band
count as zero.  Every detector reads one column of finite samples
at strictly increasing x's and takes its band in the column's own units;
the caller scales it; the column may be a Column made over the same xs,
which several detectors then share.  Strict and non-strict monotonicity
are not distinguished; sampled floating-point data cannot certify strictness.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import compress, groupby, repeat
from operator import ge, ne, sub
from typing import Callable, Iterable, Sequence

from .intervals import Interval
from .ratio import BadBracket, Grid, first_non_finite, refine_sign_change  # noqa: F401


class Unclassifiable(Exception):
    """The sign sequence fits no one-switch pattern; either the zero
    tolerance is off or the input's derivative ratio is not monotone."""


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


def _signs(values: Iterable[float], band: float) -> list[int]:
    return [0 if abs(v) <= band else (1 if v > 0.0 else -1) for v in values]


class Column:
    """One sampled quantity as the detectors share it: values vs at the x's
    of a Grid, their first differences, and their sign runs once per band.
    Making one is the detectors' check: 16+ values, as many as xs, ascending
    xs and finite values, unless finite says the caller tested them."""

    def __init__(self, xs: Sequence[float], vs: Sequence[float], finite: bool = False):
        if len(xs) != len(vs) or len(xs) < 16:
            raise ValueError(f"need equal x and value columns of 16+ samples, got {len(xs)}, {len(vs)}")
        self.xs = xs if isinstance(xs, Grid) else Grid(xs)
        i = None if finite else first_non_finite(vs)
        if i is not None:
            raise ValueError(f"sample at x = {xs[i]!r} is not finite: {vs[i]!r}")
        self.vs = vs
        self.steps = list(map(sub, vs[1:], vs))
        self._runs_by_band: dict[float, list[tuple[int, int, int]]] = {}

    def runs(self, band: float) -> list[tuple[int, int, int]]:
        if band not in self._runs_by_band:
            self._runs_by_band[band] = _runs(_signs(self.vs, band))
        return self._runs_by_band[band]


def _column(xs: Sequence[float], vs: Sequence[float] | Column, band: float) -> Column:
    """vs as a Column made, and so checked, over xs; then the band is checked."""
    if not isinstance(vs, Column):
        vs = Column(xs, vs)
    elif vs.xs is not xs:
        raise ValueError("a Column is read with the grid it was made over")
    if not band >= 0.0:  # a NaN band would give no zero band at all
        raise ValueError(f"band must be at least 0, got {band!r}")
    return vs


def _runs(signs: Sequence[int]) -> list[tuple[int, int, int]]:
    """Compress a sign sequence to (sign, first index, last index) runs."""
    runs = []
    start = 0
    for sign, group in groupby(signs):
        end = start + len(list(group))
        runs.append((sign, start, end - 1))
        start = end
    return runs


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
                   window: Interval, probe: Callable[[float], float]) -> Pattern:
    """Classify the monotonicity pattern of a function whose derivative
    proxy takes the values vs at the strictly increasing xs inside the
    window (use this on rho-tilde samples to get the pattern of r).  The
    sign sequence of the values, zero within the absolute band, must be of
    the one-switch form.

    Switch endpoints are refined by bisection between the bracketing
    samples on ``probe``, the function behind the values.  When a flat run
    touches the first or last sample, the switch endpoint snaps to the
    window edge and is flagged open: truncated, true extent unknown.
    """
    column = _column(xs, vs, band)
    lo_edge, hi_edge = window.lo, window.hi
    xtol = 1e-12 * (hi_edge - lo_edge)

    runs = column.runs(band)
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
    steps = _column(xs, vs, band).steps
    rise, fall = max(steps) > band, min(steps) < -band
    if not (rise and fall):  # monotone or constant, flats anywhere
        return _one_switch_kind([rise - fall])
    return _one_switch_kind([s for s, _ in groupby(_signs(steps, band))])


def detect_mics(xs: Sequence[float], vs: Sequence[float], band: float,
                min_ic_len: float, probe: Callable[[float], float]) -> tuple[Interval, ...]:
    """Find the maximal intervals of constancy of the values vs sampled at
    the strictly increasing xs: maximal runs where max - min of the values
    stays within the absolute band, keeping only runs longer than
    min_ic_len.  Returns them ordered and disjoint.

    Run endpoints are refined by bisection on the constancy predicate,
    evaluated on ``probe``, the function behind the values.  Endpoints at
    the sampled edge are flagged open (window-truncated).
    """
    column = _column(xs, vs, band)
    vs = column.vs
    n = len(xs)
    xtol = 1e-12 * (xs[-1] - xs[0])

    # Samples j - 1 and j share a run only across a join, a step
    # |vs[j] - vs[j-1]| within the band, so every longer run lies in a
    # piece [a, b) of consecutive joins; on a sampled curve joins are few,
    # and C-level passes find them and the breaks between their pieces
    joins = list(compress(range(1, n), map(ge, repeat(band), map(abs, column.steps))))
    breaks = list(compress(range(1, len(joins)), map(ne, map(sub, joins[1:], joins), repeat(1))))
    pieces = [(joins[k] - 1, joins[m - 1] + 1)
              for k, m in zip([0, *breaks], [*breaks, len(joins)])] if joins else []
    raw_runs = []
    # a sample in no piece is a run of its own, which the length test of
    # the loop further down drops whenever two grid cells fit in min_ic_len
    if not 2.0 * column.xs.max_cell <= min_ic_len:
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
            v = probe(t)
            return band - (max(run_max, v) - min(run_min, v))

        run = _run_interval(xs, i0, i1, flat_probe, flat_probe, xs[0], xs[-1], xtol)
        if run.length <= min_ic_len or run.lo < last_hi:
            continue
        intervals.append(run)
        last_hi = run.hi
    return tuple(intervals)


def level0_set(pattern: Pattern | None) -> Interval | None:
    """The level-0 set of rho-tilde (where it lies within the zero band),
    read off the pattern detect_pattern found in rho-tilde's sign runs: the
    switch (a point for a bare crossing, the window for Constant).  None
    when there is no pattern or rho-tilde keeps one sign clear of the band."""
    if pattern is None or pattern.kind in (PatternKind.INCREASING, PatternKind.DECREASING):
        return None
    return pattern.switch
