"""Interval-decomposed persistence modules on the line and on the circle.

A line module is a finite multiset of intervals |a,b| with explicit endpoint
kinds; a circle module is a finite multiset of translation classes of finite
intervals.  All evaluations (pointwise dimension, structure maps between
nearby circle classes, lifts to the line, persistence diagrams) are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .gf2 import Matrix
from .metric_plane import Diagram, PlanePoint
from .metric_quotient import QuotientDiagram, QuotientPoint
from .rationals import NEG_INF, INF, Ext, as_ext, as_fraction, clipped, is_finite


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


@dataclass(frozen=True)
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
            raise ValueError(
                f"interval endpoints out of order: {clipped(self.lo)} > {clipped(self.hi)}"
            )
        if self.lo == INF or self.hi == NEG_INF:
            raise ValueError("interval cannot sit at a single infinity")
        if not is_finite(self.lo) and self.lo_kind is not OPEN:
            raise ValueError("an infinite endpoint must be open")
        if not is_finite(self.hi) and self.hi_kind is not OPEN:
            raise ValueError("an infinite endpoint must be open")
        if self.lo == self.hi and (self.lo_kind is not CLOSED or self.hi_kind is not CLOSED):
            raise ValueError("a singleton interval must be closed on both sides")

    @property
    def length(self) -> Ext:
        return self.hi - self.lo

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


@dataclass(frozen=True)
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
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {clipped(lo)} > {clipped(hi)}")
        shift = math.floor(lo)
        object.__setattr__(self, "lo", lo - shift)
        object.__setattr__(self, "hi", hi - shift)
        if self.lo == self.hi and (self.lo_kind is not CLOSED or self.hi_kind is not CLOSED):
            raise ValueError("a singleton interval must be closed on both sides")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def line_representative(self, k: int = 0) -> LineInterval:
        """The translate by *k* of the canonical representative, as a line interval."""
        return LineInterval(self.lo + k, self.hi + k, self.lo_kind, self.hi_kind)


def _sort_key(ival: LineInterval | CircleInterval):
    return (ival.lo, ival.hi, ival.lo_kind.value, ival.hi_kind.value)


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


def _label_map(source: list, target: list) -> Matrix:
    # the 0/1 matrix that sends each source label to the equal target label
    position = {label: c for c, label in enumerate(source)}
    rows = []
    for label in target:
        c = position.get(label)
        rows.append(0 if c is None else 1 << c)
    return Matrix(tuple(rows), len(source))


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


def dim_at(m: CircleModule, x) -> int:
    """Dimension of the fiber of *m* over the class of *x*.

    Counts, over all intervals, the integer translates k with x + k inside
    the interval.  Well defined on the circle: dim_at(m, x) == dim_at(m, x+1).
    """
    return len(translate_basis(m, x))


def dim_at_line(m: LineModule, x) -> int:
    """Dimension of the fiber of a line module at the point *x*."""
    x = as_ext(x)
    return sum(1 for ival in m.intervals if ival.contains(x))


def structure_map(m: CircleModule, x, y) -> Matrix:
    """The map of *m* from the class of *x* to the class of *y*, y - x < 1/2.

    Returned as a 0/1 matrix over the two-element field in the canonical
    translate bases of :func:`translate_basis`; the entry for a pair of
    labels is 1 exactly when they name the same translate of the same
    interval (so the points x+k and y+k sit in one interval together).

    The class order on the circle only relates classes less than half a
    turn apart, so arcs with y - x >= 1/2 are rejected.
    """
    x = as_fraction(x)
    y = as_fraction(y)
    if not x < y:
        raise ValueError(f"structure map requires x < y, got {x} >= {y}")
    if y - x >= Fraction(1, 2):
        raise ValueError(
            f"no class order across an arc of length {y - x} >= 1/2"
        )
    return _label_map(translate_basis(m, x), translate_basis(m, y))


def lift_module(m: CircleModule, window: int) -> LineModule:
    """Unroll *m* to the line over translates -window..window.

    This is the restriction of the translation-invariant line module attached
    to *m* to 2*window + 1 fundamental domains.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    lifted = [
        ival.line_representative(k)
        for ival in m.intervals
        for k in range(-window, window + 1)
    ]
    return LineModule(tuple(lifted))


def diagram_of(m: CircleModule) -> QuotientDiagram:
    """Persistence diagram of a circle module: endpoint classes, kinds dropped."""
    # a list, not a generator: `tuple` resizes what a generator gives it,
    # and such tuples pile up in the interpreter's free lists between full
    # garbage collections, which the int bottleneck kernel makes rare
    return QuotientDiagram(tuple([QuotientPoint(ival.lo, ival.hi) for ival in m.intervals]))


def diagram_of_line(m: LineModule) -> Diagram:
    """Persistence diagram of a line module; infinite endpoints permitted."""
    return Diagram(tuple(ival.diagram_point() for ival in m.intervals))
