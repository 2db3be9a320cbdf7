"""Interval-decomposed persistence modules on the line and on the circle.

A line module is a finite multiset of intervals |a,b| with explicit endpoint
kinds; a circle module is a finite multiset of translation classes of finite
intervals.  This layer holds the modules, the translate basis of a circle
module's fiber (the membership rule the grid sampler shares) and the
persistence diagrams, all exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .metric_plane import Diagram, PlanePoint
from .metric_quotient import QuotientDiagram, QuotientPoint
from .rationals import (
    Ext,
    as_ext,
    as_fraction,
    is_finite,
    order_key,
    shown,
    unit_representative,
)


class EndpointKind(Enum):
    OPEN = "o"
    CLOSED = "c"


OPEN = EndpointKind.OPEN
CLOSED = EndpointKind.CLOSED

KIND_CODES = {
    "oo": (OPEN, OPEN),
    "oc": (OPEN, CLOSED),
    "co": (CLOSED, OPEN),
    "cc": (CLOSED, CLOSED),
}


def kind_code(lo_kind: EndpointKind, hi_kind: EndpointKind) -> str:
    return lo_kind.value + hi_kind.value


@dataclass(frozen=True, slots=True)
class LineInterval:
    """An interval |lo, hi| on the real line with explicit endpoint kinds.

    Infinite endpoints must be open; a singleton (lo == hi) must be finite
    and closed on both sides.
    """

    lo: Ext
    hi: Ext
    lo_kind: EndpointKind = CLOSED
    hi_kind: EndpointKind = OPEN

    def __post_init__(self):
        object.__setattr__(self, "lo", as_ext(self.lo))
        object.__setattr__(self, "hi", as_ext(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {shown(self.lo)} > {shown(self.hi)}")
        if (not is_finite(self.lo) and self.lo > 0) or (not is_finite(self.hi) and self.hi < 0):
            raise ValueError("interval cannot sit at a single infinity")
        if not is_finite(self.lo) and self.lo_kind is not OPEN:
            raise ValueError("an infinite endpoint must be open")
        if not is_finite(self.hi) and self.hi_kind is not OPEN:
            raise ValueError("an infinite endpoint must be open")
        if self.lo == self.hi and (self.lo_kind is not CLOSED or self.hi_kind is not CLOSED):
            raise ValueError("a singleton interval must be closed on both sides")

    def contains(self, x) -> bool:
        x = as_ext(x)
        if not is_finite(x):
            return False
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and self.lo_kind is OPEN:
            return False
        if x == self.hi and self.hi_kind is OPEN:
            return False
        return True

    def diagram_point(self) -> PlanePoint:
        return PlanePoint(self.lo, self.hi)


@dataclass(frozen=True, slots=True)
class CircleInterval:
    """Translation class of a finite interval, stored with lo in [0, 1).

    The class stands for the whole family {|lo+n, hi+n| : n integer}; any
    representative may be passed to the constructor.  The length hi - lo may
    exceed 1, in which case the interval winds around the circle, but it must
    be finite (this is what keeps the around-the-loop maps nilpotent).
    """

    lo: Fraction
    hi: Fraction
    lo_kind: EndpointKind = CLOSED
    hi_kind: EndpointKind = OPEN

    def __post_init__(self):
        lo = as_fraction(self.lo)
        hi = as_fraction(self.hi)
        canonical = unit_representative(lo, hi)
        if canonical is None:
            raise ValueError(f"interval endpoints out of order: {shown(lo)} > {shown(hi)}")
        lo, hi = canonical
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if self.lo == self.hi and (self.lo_kind is not CLOSED or self.hi_kind is not CLOSED):
            raise ValueError("a singleton interval must be closed on both sides")


def _sort_key(ival: LineInterval | CircleInterval):
    return (*order_key(ival.lo), *order_key(ival.hi), ival.lo_kind.value, ival.hi_kind.value)


@dataclass(frozen=True)
class LineModule:
    """Finite multiset of line intervals, one summand per entry."""

    intervals: tuple[LineInterval, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "intervals", tuple(sorted(self.intervals, key=_sort_key))
        )


@dataclass(frozen=True)
class CircleModule:
    """Finite multiset of circle interval classes, one summand per entry."""

    intervals: tuple[CircleInterval, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "intervals", tuple(sorted(self.intervals, key=_sort_key))
        )


def _members(lo, hi, lo_kind: EndpointKind, hi_kind: EndpointKind) -> range:
    # the integers in |lo, hi|: lo <= k <= hi, made strict at an open end
    first = math.floor(lo) + 1 if lo_kind is OPEN else math.ceil(lo)
    last = math.ceil(hi) - 1 if hi_kind is OPEN else math.floor(hi)
    return range(first, last + 1)


def translate_basis(m: CircleModule, x) -> list[tuple[int, int]]:
    """Canonical basis of the fiber of *m* over the class of *x*.

    Each basis vector is labelled (interval index, integer translate k),
    meaning the point x + k lies in the canonical representative of that
    interval.  Labels are ordered by interval index, then translate.
    """
    x = as_fraction(x)
    return [
        (idx, k)
        for idx, ival in enumerate(m.intervals)
        for k in _members(ival.lo - x, ival.hi - x, ival.lo_kind, ival.hi_kind)
    ]


def diagram_of(m: CircleModule) -> QuotientDiagram:
    """Persistence diagram of a circle module: endpoint classes, kinds dropped."""
    # a list, not a generator: `tuple` resizes what a generator gives it,
    # and such tuples pile up in the interpreter's free lists between full
    # garbage collections, which the int bottleneck kernel makes rare
    return QuotientDiagram(tuple([QuotientPoint(ival.lo, ival.hi) for ival in m.intervals]))


def diagram_of_line(m: LineModule) -> Diagram:
    """Persistence diagram of a line module; infinite endpoints permitted."""
    return Diagram(tuple([ival.diagram_point() for ival in m.intervals]))
