"""Intervals on the real line with per-endpoint closed/open flags."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Interval:
    """An interval from ``lo`` to ``hi``.

    Endpoint flags are reporting metadata: a constancy interval truncated
    by the analysis window is marked open at the window edge, since its
    true extent past the window is unknown.  All arithmetic uses lo/hi
    alone.
    """

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def degenerate(self) -> bool:
        """True for a single point, which never qualifies as an interval
        of constancy (those need nonzero length)."""
        return self.length == 0.0

    def contains(self, x: float) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"
