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

from .metric_plane import (
    BottleneckResult,
    Diagram,
    PartialMatching,
    common_denominator,
    scaled,
    solve_bottleneck,
    unscaled,
)
from .rationals import as_fraction, shown


@dataclass(frozen=True, slots=True)
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
            raise ValueError(f"birth exceeds death: ({shown(a)}, {shown(b)})")
        shift = math.floor(a)
        if shift:  # an already canonical class costs no arithmetic
            a -= shift
            b -= shift
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def persistence(self) -> Fraction:
        return self.b - self.a


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
    equals linf((p.a + k, p.b + k), (q.a, q.b)).
    """
    u = p.a - q.a
    v = p.b - q.b
    # on integers: u = x/den and v = y/den, so c = -(x+y)/(2 den)
    den = u.denominator * v.denominator
    x = u.numerator * v.denominator
    y = v.numerator * u.denominator
    k = -((x + y + den) // (2 * den))  # ceil(c - 1/2)
    return Fraction(_class_cost(x + y, x - y, den), 2 * den), k


def _class_cost(sum_gap: int, pers_gap: int, scale: int) -> int:
    """max(|u+k|, |v+k|) at the optimal k, in units of 1/(2 scale), for
    u = x/scale and v = y/scale with sum_gap = x + y and pers_gap = x - y.

    That is |2k scale + x + y| + |x - y| with k = -((x + y + scale) // (2 scale)),
    and 2k scale + x + y = ((x + y + scale) mod 2 scale) - scale.
    """
    return abs((sum_gap + scale) % (2 * scale) - scale) + abs(pers_gap)


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

    Same threshold search as the plane version, on coordinates scaled by
    their common denominator D, with costs in units of 1/(2D).  A pair
    costs `_class_cost`, the closed form `quotient_linf_with_shift`
    unscales; an unmatched class costs its scaled persistence.
    """
    # both diagrams in place: a concatenated tuple on every call fragments
    # the heap of a long-running process
    scale = common_denominator(c for d in (a, b) for p in d.points for c in (p.a, p.b))
    # u + v is the difference of the two coordinate sums, and u - v that of
    # the two persistences, up to sign
    points_a = [(scaled(p.a + p.b, scale), scaled(p.persistence, scale)) for p in a.points]
    points_b = [(scaled(q.a + q.b, scale), scaled(q.persistence, scale)) for q in b.points]
    pair_costs = [
        [_class_cost(sum_p - sum_q, pers_p - pers_q, scale) for sum_q, pers_q in points_b]
        for sum_p, pers_p in points_a
    ]
    value, witness = solve_bottleneck(
        pair_costs, [pers for _, pers in points_a], [pers for _, pers in points_b]
    )
    return BottleneckResult(unscaled(value, scale), witness)
