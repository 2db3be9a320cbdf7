"""The plane modulo diagonal integer shifts, and its exact bottleneck distance.

Two plane points are identified when they differ by (k, k) for an integer k.
Classes are stored canonically with the first coordinate in [0, 1); the
induced distance between classes is the minimum sup-distance over aligning
shifts, which has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .metric_plane import BottleneckResult, Diagram, PartialMatching, PlanePoint, solve_bottleneck
from .rationals import as_fraction


@dataclass(frozen=True)
class QuotientPoint:
    """Class of a finite plane point under diagonal integer shifts.

    Stored with a in [0, 1); any representative may be passed in.  The
    persistence b - a is shift-invariant.
    """

    a: Fraction
    b: Fraction

    def __post_init__(self):
        a = as_fraction(self.a)
        b = as_fraction(self.b)
        if a > b:
            raise ValueError(f"birth exceeds death: ({a}, {b})")
        shift = math.floor(a)
        object.__setattr__(self, "a", a - shift)
        object.__setattr__(self, "b", b - shift)

    @property
    def persistence(self) -> Fraction:
        return self.b - self.a

    def representative(self, n: int = 0) -> PlanePoint:
        """The canonical representative shifted diagonally by *n*."""
        return PlanePoint(self.a + n, self.b + n)


@dataclass(frozen=True)
class QuotientDiagram(Diagram):
    """Finite multiset of quotient points, stored in sorted order."""

    points: tuple[QuotientPoint, ...] = ()


def quotient_linf_with_shift(p: QuotientPoint, q: QuotientPoint) -> tuple[Fraction, int]:
    """Distance between classes plus the aligning shift.

    Minimises max(|u+k|, |v+k|) over integers k, where u and v are the
    coordinate differences of the canonical representatives.  That maximum
    is |k - c| + |u - v|/2 with c = -(u+v)/2, so the optimum is the integer
    nearest to c, ties going to the smaller one.  The returned k shifts the
    *first* argument's representative onto the minimising pair: the value
    equals linf(p.representative(k), q.representative()).
    """
    u = p.a - q.a
    v = p.b - q.b
    # on integers: u = x/den and v = y/den, so c = -(x+y)/(2 den)
    den = u.denominator * v.denominator
    x = u.numerator * v.denominator
    y = v.numerator * u.denominator
    k = -((x + y + den) // (2 * den))  # ceil(c - 1/2)
    return Fraction(abs(2 * k * den + x + y) + abs(x - y), 2 * den), k


def quotient_linf(p: QuotientPoint, q: QuotientPoint) -> Fraction:
    """Sup-distance on the quotient: minimum over aligning integer shifts."""
    return quotient_linf_with_shift(p, q)[0]


def diag_cost_quotient(p: QuotientPoint) -> Fraction:
    """Cost of leaving a class unmatched: half its (shift-invariant) persistence."""
    return p.persistence / 2


def matching_cost_quotient(a: QuotientDiagram, b: QuotientDiagram, matching: PartialMatching) -> Fraction:
    """Bottleneck cost of a partial matching between quotient diagrams."""
    matching.validate_for(len(a.points), len(b.points))
    costs = [Fraction(0)]
    costs.extend(quotient_linf(a.points[i], b.points[j]) for i, j in matching.pairs)
    costs.extend(diag_cost_quotient(a.points[i]) for i in matching.unmatched_a)
    costs.extend(diag_cost_quotient(b.points[j]) for j in matching.unmatched_b)
    return max(costs)


def bottleneck_quotient(a: QuotientDiagram, b: QuotientDiagram) -> BottleneckResult:
    """Exact bottleneck distance between quotient diagrams, with a witness.

    Same threshold search as the plane version, with class distances as pair
    costs and half-persistences as unmatched costs.
    """
    pair_costs = [[quotient_linf(p, q) for q in b.points] for p in a.points]
    return solve_bottleneck(
        pair_costs,
        [diag_cost_quotient(p) for p in a.points],
        [diag_cost_quotient(q) for q in b.points],
    )
