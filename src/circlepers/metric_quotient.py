"""The plane modulo diagonal integer shifts, and its exact bottleneck distance.

Two plane points are identified when they differ by (k, k) for an integer k.
Classes are stored canonically with the first coordinate in [0, 1); the
induced distance between classes is the minimum sup-distance over aligning
shifts, which has a closed form.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._value import Value
from .metric_plane import (
    BottleneckResult,
    Diagram,
    PartialMatching,
    common_denominator,
    solve_bottleneck,
    unscaled,
)
from .rationals import as_fraction, shown, unit_representative


class QuotientPoint(Value):
    """Class of a finite plane point under diagonal integer shifts.

    Stored with a in [0, 1); any representative may be passed in.  The
    persistence b - a is shift-invariant.
    """

    __slots__ = ("a", "b")
    a: Fraction
    b: Fraction

    def __init__(self, a: Fraction, b: Fraction):
        a = as_fraction(a)
        b = as_fraction(b)
        canonical = unit_representative(a, b)
        if canonical is None:
            raise ValueError(f"birth exceeds death: ({shown(a)}, {shown(b)})")
        a, b = canonical
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def persistence(self) -> Fraction:
        return self.b - self.a


class QuotientDiagram(Diagram):
    """Finite multiset of quotient points, stored in sorted order."""

    __slots__ = ()
    points: tuple[QuotientPoint, ...]


def _sum_and_persistence(p: QuotientPoint, scale: int) -> tuple[int, int]:
    # (p.a + p.b, p.b - p.a) times *scale*, a multiple of both denominators
    a = p.a.numerator * (scale // p.a.denominator)
    b = p.b.numerator * (scale // p.b.denominator)
    return a + b, b - a


def _class_pair_cost(p: QuotientPoint, q: QuotientPoint, k: int | None = None) -> tuple[int, int, int]:
    """(cost, scale, k): linf((p.a + k, p.b + k), (q.a, q.b)) is cost/(2 scale),
    on ints.  Without *k*, k is the aligning shift, so the cost is the class
    distance `quotient_linf` returns.

    The scale is the lcm of the pair's four denominators, never more, so a
    cost's size does not depend on the other classes of a file.  With Δsum
    and Δpers the gaps between the two classes' `_sum_and_persistence` on
    that scale, the cost is |2k scale + Δsum| + |Δpers|, and the aligning k
    is ceil(-Δsum/(2 scale) - 1/2): the integer nearest -Δsum/(2 scale),
    ties going to the smaller one.
    """
    scale = math.lcm(p.a.denominator, p.b.denominator, q.a.denominator, q.b.denominator)
    sum_p, pers_p = _sum_and_persistence(p, scale)
    sum_q, pers_q = _sum_and_persistence(q, scale)
    if k is None:
        k = -((sum_p - sum_q + scale) // (2 * scale))
    return abs(2 * k * scale + sum_p - sum_q) + abs(pers_p - pers_q), scale, k


def _largest_cost(a, b, pairs, unmatched_a, unmatched_b) -> Fraction:
    """Bottleneck cost of a matching between the class tuples *a* and *b*:
    a[i] shifted by k is matched to b[j] for each (i, j, k) of *pairs*, k None
    being the aligning shift, and each unmatched class costs half its
    persistence.  Every cost is an int pair (cost, scale), cost/(2 scale), on
    its own lcm; the largest is found by cross-multiplication, so no scale
    outgrows one pair's and one `Fraction` is built at the end (0 for none)."""
    costs = [_class_pair_cost(a[i], b[j], k)[:2] for i, j, k in pairs]
    for p in [a[i] for i in unmatched_a] + [b[j] for j in unmatched_b]:
        scale = math.lcm(p.a.denominator, p.b.denominator)
        costs.append((_sum_and_persistence(p, scale)[1], scale))
    best, best_scale = 0, 1
    for cost, scale in costs:
        if cost * best_scale > best * scale:
            best, best_scale = cost, scale
    return Fraction(best, 2 * best_scale)


def _class_cost(sum_gap: int, pers_gap: int, scale: int) -> int:
    """max(|u+k|, |v+k|) at the optimal k, in units of 1/(2 scale), for
    u = x/scale and v = y/scale with sum_gap = x + y and pers_gap = x - y.

    That is |2k scale + x + y| + |x - y| with k = -((x + y + scale) // (2 scale)),
    and 2k scale + x + y = ((x + y + scale) mod 2 scale) - scale.
    """
    return abs((sum_gap + scale) % (2 * scale) - scale) + abs(pers_gap)


def quotient_linf(p: QuotientPoint, q: QuotientPoint) -> Fraction:
    """Sup-distance on the quotient: minimum over aligning integer shifts."""
    cost, scale, _ = _class_pair_cost(p, q)
    return Fraction(cost, 2 * scale)


def matching_cost_quotient(a: QuotientDiagram, b: QuotientDiagram, matching: PartialMatching) -> Fraction:
    """Bottleneck cost of a partial matching between quotient diagrams."""
    matching.validate_for(len(a.points), len(b.points))
    pairs = [(i, j, None) for i, j in matching.pairs]
    return _largest_cost(a.points, b.points, pairs, matching.unmatched_a, matching.unmatched_b)


def bottleneck_quotient(a: QuotientDiagram, b: QuotientDiagram) -> BottleneckResult:
    """Exact bottleneck distance between quotient diagrams, with a witness.

    Same threshold search as the plane version, on coordinates scaled by
    their common denominator D, with costs in units of 1/(2D).  A pair
    costs `_class_cost`, the closed form `quotient_linf` unscales; an
    unmatched class costs its scaled persistence.
    """
    # both diagrams in place: a concatenated tuple on every call fragments
    # the heap of a long-running process
    scale = common_denominator(c for d in (a, b) for p in d.points for c in (p.a, p.b))
    # u + v is the difference of the two coordinate sums, and u - v that of
    # the two persistences, up to sign
    points_a = [_sum_and_persistence(p, scale) for p in a.points]
    points_b = [_sum_and_persistence(q, scale) for q in b.points]
    pair_costs = [
        [_class_cost(sum_p - sum_q, pers_p - pers_q, scale) for sum_q, pers_q in points_b]
        for sum_p, pers_p in points_a
    ]
    value, witness = solve_bottleneck(
        pair_costs, [pers for _, pers in points_a], [pers for _, pers in points_b]
    )
    return BottleneckResult(unscaled(value, scale), witness)
