"""Sup-metric geometry on the extended plane and exact bottleneck distance.

Diagram points are (birth, death) pairs with birth <= death; unmatched points
pay half their persistence.  The bottleneck distance is computed exactly: the
optimum is always one of finitely many candidate values (pairwise distances
and half-persistences), located by binary search with a perfect-matching
feasibility test on the doubled bipartite graph.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .rationals import NEG_INF, INF, Ext, as_ext, is_finite


@dataclass(frozen=True)
class PlanePoint:
    """A diagram point (a, b) in the extended plane, a <= b."""

    a: Ext
    b: Ext

    def __post_init__(self):
        object.__setattr__(self, "a", as_ext(self.a))
        object.__setattr__(self, "b", as_ext(self.b))
        if self.a > self.b:
            raise ValueError(f"birth exceeds death: ({self.a}, {self.b})")
        if not is_finite(self.a) and not is_finite(self.b) and self.a == self.b:
            raise ValueError("point cannot have both coordinates at the same infinity")


def _point_key(p: PlanePoint):
    return (p.a, p.b)


@dataclass(frozen=True)
class Diagram:
    """Finite multiset of plane points, stored in sorted order."""

    points: tuple[PlanePoint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(sorted(self.points, key=_point_key)))


@dataclass(frozen=True)
class PartialMatching:
    """An injective-on-both-sides pairing by index between two diagrams.

    ``pairs`` holds (index into A, index into B); together with the unmatched
    index sets it must partition both diagrams.
    """

    pairs: frozenset[tuple[int, int]]
    unmatched_a: frozenset[int]
    unmatched_b: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        object.__setattr__(self, "unmatched_a", frozenset(self.unmatched_a))
        object.__setattr__(self, "unmatched_b", frozenset(self.unmatched_b))

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


def _coord_gap(x: Ext, y: Ext) -> Ext:
    if not is_finite(x) and not is_finite(y):
        return Fraction(0) if x == y else INF
    if not is_finite(x) or not is_finite(y):
        return INF
    return abs(x - y)


def linf(p: PlanePoint, q: PlanePoint) -> Ext:
    """Sup-distance of two plane points; coordinates at the same infinity count as 0."""
    return max(_coord_gap(p.a, q.a), _coord_gap(p.b, q.b))


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


def _perfect_matching(n_left: int, n_right: int, adjacency: list[list[int]]) -> list[int] | None:
    """Kuhn's augmenting-path matching; returns right->left or None if not perfect.

    Deterministic: left vertices are processed in index order and adjacency
    lists are tried in the given order, depth first.  The search keeps an
    explicit stack, so long augmenting paths need no recursion.
    """
    match_right = [-1] * n_right
    for root in range(n_left):
        seen = [False] * n_right
        # stack[d] is a left vertex with its remaining edges; through[d] is
        # the right vertex by which stack[d] reached stack[d + 1]
        stack = [(root, iter(adjacency[root]))]
        through: list[int] = []
        while stack:
            for v in stack[-1][1]:
                if not seen[v]:
                    break
            else:
                stack.pop()
                if through:
                    through.pop()
                continue
            seen[v] = True
            through.append(v)
            if match_right[v] == -1:
                for (u, _), w in zip(stack, through):
                    match_right[w] = u
                break
            stack.append((match_right[v], iter(adjacency[match_right[v]])))
        else:
            return None
    return match_right


def solve_bottleneck(
    pair_costs: list[list[Ext]],
    diag_a: list[Ext],
    diag_b: list[Ext],
) -> BottleneckResult:
    """Exact bottleneck optimum for explicit cost tables.

    Feasibility at a threshold t is a perfect matching on the doubled graph:
    every point gets a diagonal surrogate, point-point edges require pairwise
    cost <= t, point-surrogate edges require half-persistence <= t, and
    surrogate-surrogate edges are free.  The optimum is the smallest feasible
    member of the finite candidate set (all table entries and 0).
    """
    n_a = len(diag_a)
    n_b = len(diag_b)

    candidates = {Fraction(0)}
    for row in pair_costs:
        candidates.update(row)
    candidates.update(diag_a)
    candidates.update(diag_b)
    ordered = sorted(candidates)

    # left: A points then surrogates of B; right: B points then surrogates of A
    def matching_at(t: Ext) -> list[int] | None:
        adjacency: list[list[int]] = []
        for i in range(n_a):
            row = [j for j in range(n_b) if pair_costs[i][j] <= t]
            if diag_a[i] <= t:
                row.append(n_b + i)
            adjacency.append(row)
        for j in range(n_b):
            # surrogate-surrogate edges first, so a B surrogate only claims its
            # real point when no A surrogate is left; ties then favour witnesses
            # that keep point-point pairs matched
            row = [n_b + i for i in range(n_a)]
            if diag_b[j] <= t:
                row.append(j)
            adjacency.append(row)
        return _perfect_matching(n_a + n_b, n_a + n_b, adjacency)

    # feasibility is monotone in t, and the largest candidate is always feasible
    lo = bisect.bisect_left(
        ordered, True, hi=len(ordered) - 1, key=lambda t: matching_at(t) is not None
    )
    best = matching_at(ordered[lo])
    assert best is not None

    pairs = set()
    unmatched_b = set()
    for j in range(n_b):
        u = best[j]
        if u < n_a:
            pairs.add((u, j))
        else:
            unmatched_b.add(j)
    unmatched_a = {i for i in range(n_a) if best[n_b + i] == i}
    witness = PartialMatching(frozenset(pairs), frozenset(unmatched_a), frozenset(unmatched_b))
    return BottleneckResult(ordered[lo], witness)


def bottleneck_plane(a: Diagram, b: Diagram) -> BottleneckResult:
    """Exact bottleneck distance between two plane diagrams, with a witness."""
    pair_costs = [[linf(p, q) for q in b.points] for p in a.points]
    return solve_bottleneck(
        pair_costs,
        [diag_cost(p) for p in a.points],
        [diag_cost(q) for q in b.points],
    )
