"""Interval-decomposed persistence modules on the line and on the circle.

A line module is a finite multiset of intervals |a,b| with explicit endpoint
kinds; a circle module is a finite multiset of translation classes of finite
intervals.  This layer holds the modules, the translate basis of a circle
module's fiber (the membership rule the grid sampler shares) and the
persistence diagrams, all exact.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from ._value import Value
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


def _is_singleton(lo: Fraction, hi: Fraction) -> bool:
    # lo == hi on the ints of two reduced fractions, with no `Fraction.__eq__`
    return lo.numerator == hi.numerator and lo.denominator == hi.denominator


class LineInterval(Value):
    """An interval |lo, hi| on the real line with explicit endpoint kinds.

    Infinite endpoints must be open; a singleton (lo == hi) must be finite
    and closed on both sides.
    """

    __slots__ = ("lo", "hi", "lo_kind", "hi_kind")
    lo: Ext
    hi: Ext
    lo_kind: EndpointKind
    hi_kind: EndpointKind

    def __init__(self, lo: Ext, hi: Ext, lo_kind: EndpointKind = CLOSED, hi_kind: EndpointKind = OPEN):
        lo = as_ext(lo)
        hi = as_ext(hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {shown(lo)} > {shown(hi)}")
        finite_lo, finite_hi = is_finite(lo), is_finite(hi)
        if (not finite_lo and lo > 0) or (not finite_hi and hi < 0):
            raise ValueError("interval cannot sit at a single infinity")
        if not finite_lo and lo_kind is not OPEN:
            raise ValueError("an infinite endpoint must be open")
        if not finite_hi and hi_kind is not OPEN:
            raise ValueError("an infinite endpoint must be open")
        # past the tests above, equal endpoints are finite, so their ints decide
        if finite_lo and finite_hi and _is_singleton(lo, hi) and (lo_kind is not CLOSED or hi_kind is not CLOSED):
            raise ValueError("a singleton interval must be closed on both sides")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo_kind", lo_kind)
        object.__setattr__(self, "hi_kind", hi_kind)

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


class CircleInterval(Value):
    """Translation class of a finite interval, stored with lo in [0, 1).

    The class stands for the whole family {|lo+n, hi+n| : n integer}; any
    representative may be passed to the constructor.  The length hi - lo may
    exceed 1, in which case the interval winds around the circle, but it must
    be finite (this is what keeps the around-the-loop maps nilpotent).
    """

    __slots__ = ("lo", "hi", "lo_kind", "hi_kind")
    lo: Fraction
    hi: Fraction
    lo_kind: EndpointKind
    hi_kind: EndpointKind

    def __init__(
        self, lo: Fraction, hi: Fraction, lo_kind: EndpointKind = CLOSED, hi_kind: EndpointKind = OPEN
    ):
        lo = as_fraction(lo)
        hi = as_fraction(hi)
        canonical = unit_representative(lo, hi)
        if canonical is None:
            raise ValueError(f"interval endpoints out of order: {shown(lo)} > {shown(hi)}")
        lo, hi = canonical
        if _is_singleton(lo, hi) and (lo_kind is not CLOSED or hi_kind is not CLOSED):
            raise ValueError("a singleton interval must be closed on both sides")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo_kind", lo_kind)
        object.__setattr__(self, "hi_kind", hi_kind)


def _sort_key(ival: LineInterval | CircleInterval):
    return (*order_key(ival.lo), *order_key(ival.hi), ival.lo_kind.value, ival.hi_kind.value)


class LineModule(Value):
    """Finite multiset of line intervals, one summand per entry."""

    __slots__ = ("intervals",)
    intervals: tuple[LineInterval, ...]

    def __init__(self, intervals: tuple[LineInterval, ...] = ()):
        object.__setattr__(self, "intervals", tuple(sorted(intervals, key=_sort_key)))


class CircleModule(Value):
    """Finite multiset of circle interval classes, one summand per entry."""

    __slots__ = ("intervals",)
    intervals: tuple[CircleInterval, ...]

    def __init__(self, intervals: tuple[CircleInterval, ...] = ()):
        object.__setattr__(self, "intervals", tuple(sorted(intervals, key=_sort_key)))


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
