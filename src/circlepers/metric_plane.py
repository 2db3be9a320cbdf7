"""Sup-metric geometry on the extended plane and exact bottleneck distance.

Diagram points are (birth, death) pairs with birth <= death; unmatched points
pay half their persistence.  The bottleneck distance is computed exactly: the
optimum is always one of finitely many candidate values (pairwise distances
and half-persistences), reached by one threshold ascent per diagram that
keeps its matching as the threshold rises.  The search runs on scaled
integer costs; `Fraction`s appear only at the API boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from ._value import Value
from .rationals import NEG_INF, INF, Ext, as_ext, is_finite, order_key, shown


class PlanePoint(Value):
    """A diagram point (a, b) in the extended plane, a <= b."""

    __slots__ = ("a", "b")
    a: Ext
    b: Ext

    def __init__(self, a: Ext, b: Ext):
        a = as_ext(a)
        b = as_ext(b)
        if a > b:
            raise ValueError(f"birth exceeds death: ({shown(a)}, {shown(b)})")
        if not is_finite(a) and not is_finite(b) and a == b:
            raise ValueError("point cannot have both coordinates at the same infinity")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def _point_key(p: PlanePoint):
    return (*order_key(p.a), *order_key(p.b))


class Diagram(Value):
    """Finite multiset of plane points, stored in sorted order."""

    __slots__ = ("points",)
    points: tuple[PlanePoint, ...]

    def __init__(self, points: tuple[PlanePoint, ...] = ()):
        object.__setattr__(self, "points", tuple(sorted(points, key=_point_key)))


class PartialMatching(Value):
    """An injective-on-both-sides pairing by index between two diagrams.

    ``pairs`` holds (index into A, index into B); together with the unmatched
    index sets it must partition both diagrams.
    """

    __slots__ = ("pairs", "unmatched_a", "unmatched_b")
    pairs: frozenset[tuple[int, int]]
    unmatched_a: frozenset[int]
    unmatched_b: frozenset[int]

    def __init__(
        self, pairs: frozenset[tuple[int, int]], unmatched_a: frozenset[int], unmatched_b: frozenset[int]
    ):
        object.__setattr__(self, "pairs", frozenset(pairs))
        object.__setattr__(self, "unmatched_a", frozenset(unmatched_a))
        object.__setattr__(self, "unmatched_b", frozenset(unmatched_b))

    @classmethod
    def from_pairs(cls, pairs, n_a: int, n_b: int) -> "PartialMatching":
        pairs = frozenset((int(i), int(j)) for i, j in pairs)
        matched_a = {i for i, _ in pairs}
        matched_b = {j for _, j in pairs}
        matching = cls(
            pairs,
            frozenset(range(n_a)) - matched_a,
            frozenset(range(n_b)) - matched_b,
        )
        matching.validate_for(n_a, n_b)
        return matching

    def validate_for(self, n_a: int, n_b: int) -> None:
        matched_a = [i for i, _ in self.pairs]
        matched_b = [j for _, j in self.pairs]
        if len(matched_a) != len(set(matched_a)) or len(matched_b) != len(set(matched_b)):
            raise ValueError("matching is not injective")
        if set(matched_a) | self.unmatched_a != set(range(n_a)) or set(matched_a) & self.unmatched_a:
            raise ValueError("A indices are not partitioned by the matching")
        if set(matched_b) | self.unmatched_b != set(range(n_b)) or set(matched_b) & self.unmatched_b:
            raise ValueError("B indices are not partitioned by the matching")


def linf(p: PlanePoint, q: PlanePoint) -> Ext:
    """Sup-distance of two plane points; coordinates at the same infinity count as 0."""
    scale = common_denominator((p.a, p.b, q.a, q.b))
    return unscaled(
        _pair_cost(scaled(p.a, scale), scaled(p.b, scale), scaled(q.a, scale), scaled(q.b, scale)),
        scale,
    )


def diag_cost(p: PlanePoint) -> Ext:
    """Cost of leaving *p* unmatched: half its persistence."""
    if p.b == INF or p.a == NEG_INF:
        return INF
    return (p.b - p.a) / 2


def matching_cost(a: Diagram, b: Diagram, matching: PartialMatching) -> Ext:
    """Bottleneck cost of a partial matching: the worst pair or unmatched point."""
    matching.validate_for(len(a.points), len(b.points))
    costs: list[Ext] = [Fraction(0)]
    costs.extend(linf(a.points[i], b.points[j]) for i, j in matching.pairs)
    costs.extend(diag_cost(a.points[i]) for i in matching.unmatched_a)
    costs.extend(diag_cost(b.points[j]) for j in matching.unmatched_b)
    return max(costs)


class BottleneckResult(NamedTuple):
    value: Ext
    witness: PartialMatching


# A cost inside the bottleneck kernel: a Python int in units of 1/(2D), where
# D is the common denominator of the two diagrams' finite coordinates, or INF.
Cost = int | float


def common_denominator(values) -> int:
    """The lcm of the denominators of the finite values among *values*."""
    # a set, not a generator: each distinct denominator once, and the
    # argument tuple is built at its final size (see `diagram_of`)
    return math.lcm(*{x.denominator for x in values if is_finite(x)})


def scaled(x: Ext, scale: int) -> int | float:
    """*x* times *scale* (a multiple of its denominator); infinities stay."""
    return x.numerator * (scale // x.denominator) if is_finite(x) else x


def unscaled(t: Cost, scale: int) -> Ext:
    """A kernel cost back in plane units: a Fraction, even for 0, or INF."""
    return INF if t == INF else Fraction(t, 2 * scale)


def _pair_cost(x: Cost, y: Cost, u: Cost, v: Cost) -> Cost:
    """Kernel cost of pairing scaled points (x, y) and (u, v): twice their
    sup-gap, where coordinates at the same infinity are 0 apart."""
    return 2 * max(0 if x == u else abs(x - u), 0 if y == v else abs(y - v))


def _least_cover(
    rows: list[list[Cost]], diag: list[Cost], n_right: int, t: Cost
) -> tuple[Cost, list[int]]:
    """The least threshold >= t at which the points of unmatched cost above
    it can be matched into the right side along entries within it (row i
    holds point i's costs), and such a matching, right -> left (-1 where
    unmatched): the one the ascent ends with.

    One ascent keeps its matching as the threshold rises.  Roots are taken
    in index order; a root of unmatched cost > t searches, breadth first,
    an alternating path along entries <= t.  The path ends at a free right
    point, or at a right point whose partner has unmatched cost <= t: that
    partner no longer needs one and gives it up.  A search that fails
    reaches left points whose unmatched costs all exceed t and whose
    neighbours within t are fewer than they are, so no matching exists
    below the least unmatched cost among them or the least entry from them
    to a right point they did not reach; t moves to that value.  A pair is
    within the t at which it is made, and a point gives up its partner only
    when its unmatched cost is within t, so the matching returned is a
    cover at the final threshold.
    """
    match_right = [-1] * n_right
    # order[u]: the right points by ascending cost from left point u (ties by
    # index), sorted when a search first reaches u; a search reads only the
    # prefix within t, and a failed one the first entry after it
    order: dict[int, list[int]] = {}
    for root, d in enumerate(diag):
        while d > t:
            # queue holds the reached left points in order; entered[u] is
            # the right point by which u was entered (its partner), -1 for
            # the root; reached[v] is the left point that reached v, -1 for
            # a right point not reached
            queue = [root]
            entered = {root: -1}
            reached = [-1] * n_right
            end = -1
            for u in queue:
                row = rows[u]
                if u not in order:
                    order[u] = sorted(range(n_right), key=row.__getitem__)
                for v in order[u]:
                    if row[v] > t:
                        break
                    if reached[v] == -1:
                        reached[v] = u
                        w = match_right[v]
                        if w == -1 or diag[w] <= t:
                            end = v
                            break
                        entered[w] = v
                        queue.append(w)
                if end != -1:
                    break
            if end == -1:
                step = min(diag[u] for u in queue)
                for u in queue:
                    row = rows[u]
                    for v in order[u]:
                        if row[v] > t and reached[v] == -1:
                            step = min(step, row[v])
                            break
                if not step > t:
                    raise RuntimeError(f"bottleneck threshold ascent stalled at {t}")
                t = step
            else:
                while end != -1:
                    u = reached[end]
                    match_right[end] = u
                    end = entered[u]
                break
    return t, match_right


def _witness(pair_costs, b_to_a: list[int], c_right: list[int], t: Cost) -> PartialMatching:
    """The witness at the optimum t, built from the two ascents' matchings.

    1. M, ``b_to_a`` (B point -> A point), is A's ascent's matching: it
       matches A's points of unmatched cost > t into B within t.
    2. C, ``c_right`` (A point -> B point), is B's ascent's matching: it
       matches B's such points into A within t.
    3. Walk the B points j in ascending order.  If M leaves j uncovered and
       C pairs j with an A point i, give j to i in M; the B point that i
       gives up continues the walk.
    4. Pair each A point still unmatched, in ascending order, with the
       first unmatched B point within t.
    The result costs <= t, covers every point of unmatched cost > t, and
    leaves no unmatched pair within t.
    """
    n_a = len(c_right)
    n_b = len(b_to_a)
    a_to_b = [-1] * n_a
    for j, i in enumerate(b_to_a):
        if i != -1:
            a_to_b[i] = j
    cover_b = {j: i for i, j in enumerate(c_right) if j != -1}
    for j in range(n_b):
        while j != -1 and b_to_a[j] == -1 and j in cover_b:
            i = cover_b[j]
            # j moves on to the B point that i gives up
            b_to_a[j], a_to_b[i], j = i, j, a_to_b[i]
            if j != -1:
                b_to_a[j] = -1
    for i in range(n_a):
        if a_to_b[i] == -1:
            for j in range(n_b):
                if b_to_a[j] == -1 and pair_costs[i][j] <= t:
                    a_to_b[i], b_to_a[j] = j, i
                    break
    return PartialMatching.from_pairs(((i, j) for i, j in enumerate(a_to_b) if j != -1), n_a, n_b)


def solve_bottleneck(
    pair_costs: list[list[Cost]],
    diag_a: list[Cost],
    diag_b: list[Cost],
) -> BottleneckResult:
    """Exact bottleneck optimum for explicit cost tables, in their units.

    A threshold t is feasible when a matching within t covers A's points of
    unmatched cost > t and another covers B's (Mendelsohn-Dulmage: the two
    combine into one).  Each cover only gets easier as t grows, so the
    optimum is the larger of the two least thresholds; `_least_cover` finds
    A's from 0 and then B's from A's.  A's matching is within A's threshold
    and still covers A's points above the optimum, so `_witness` builds the
    witness from the two matchings the ascents end with.
    """
    columns = [[row[j] for row in pair_costs] for j in range(len(diag_b))]
    t, b_to_a = _least_cover(pair_costs, diag_a, len(diag_b), 0)
    t, c_right = _least_cover(columns, diag_b, len(diag_a), t)
    return BottleneckResult(t, _witness(pair_costs, b_to_a, c_right, t))


def bottleneck_plane(a: Diagram, b: Diagram) -> BottleneckResult:
    """Exact bottleneck distance between two plane diagrams, with a witness.

    Coordinates are scaled by their common denominator D, so every cost is
    an int in units of 1/(2D): `_pair_cost` for a pair, the cost `linf`
    unscales, and death minus birth for an unmatched point.
    """
    # both diagrams in place: a concatenated tuple on every call fragments
    # the heap of a long-running process
    scale = common_denominator(c for d in (a, b) for p in d.points for c in (p.a, p.b))
    points_a = [(scaled(p.a, scale), scaled(p.b, scale)) for p in a.points]
    points_b = [(scaled(q.a, scale), scaled(q.b, scale)) for q in b.points]
    pair_costs = [[_pair_cost(x, y, u, v) for u, v in points_b] for x, y in points_a]
    value, witness = solve_bottleneck(
        pair_costs, [y - x for x, y in points_a], [v - u for u, v in points_b]
    )
    return BottleneckResult(unscaled(value, scale), witness)
