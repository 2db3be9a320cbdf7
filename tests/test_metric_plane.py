import inspect
import math
import random
import sys
from fractions import Fraction

import pytest

from circlepers import (
    CLOSED,
    OPEN,
    CircleInterval,
    CircleModule,
    Diagram,
    LineInterval,
    LineModule,
    PartialMatching,
    PlanePoint,
    INF,
    NEG_INF,
    bottleneck_plane,
    bruteforce_distance,
    diag_cost,
    diagram_of_line,
    linf,
    matching_cost,
    to_grid,
)
from generators import KIND_PAIRS, random_partial_matching, random_plane_diagram
from oracles import enumerate_bottleneck, snapped

F = Fraction


class TestPlanePoint:
    def test_orders_coordinates(self):
        with pytest.raises(ValueError):
            PlanePoint(F(3), F(1))

    def test_rejects_double_infinity_of_one_sign(self):
        with pytest.raises(ValueError):
            PlanePoint(INF, INF)
        with pytest.raises(ValueError):
            PlanePoint(NEG_INF, NEG_INF)
        PlanePoint(NEG_INF, INF)  # fine


class TestLinf:
    def test_finite_example(self):
        assert linf(PlanePoint(F(1), F(3)), PlanePoint(F(12, 10), F(31, 10))) == F(2, 10)

    def test_matching_infinities_cost_nothing(self):
        assert linf(PlanePoint(F(0), INF), PlanePoint(F(1), INF)) == F(1)

    def test_identity(self):
        p = PlanePoint(F(1, 3), F(7, 3))
        assert linf(p, p) == 0

    def test_mismatched_infinity_is_infinite(self):
        assert linf(PlanePoint(F(0), INF), PlanePoint(F(0), F(5))) == INF


class TestDiagCost:
    def test_examples(self):
        assert diag_cost(PlanePoint(F(0), F(1, 2))) == F(1, 4)
        assert diag_cost(PlanePoint(F(2), F(2))) == 0
        assert diag_cost(PlanePoint(F(0), INF)) == INF
        assert diag_cost(PlanePoint(NEG_INF, F(0))) == INF


class TestMatchingCost:
    def test_matched_pair(self):
        a = Diagram((PlanePoint(F(1), F(3)),))
        b = Diagram((PlanePoint(F(12, 10), F(31, 10)),))
        matching = PartialMatching.from_pairs({(0, 0)}, 1, 1)
        assert matching_cost(a, b, matching) == F(2, 10)

    def test_unmatched_only(self):
        a = Diagram((PlanePoint(F(0), F(1, 2)),))
        matching = PartialMatching.from_pairs(set(), 1, 0)
        assert matching_cost(a, Diagram(()), matching) == F(1, 4)

    def test_empty_everything(self):
        matching = PartialMatching.from_pairs(set(), 0, 0)
        assert matching_cost(Diagram(()), Diagram(()), matching) == 0

    def test_rejects_invalid_matchings(self):
        a = Diagram((PlanePoint(F(0), F(1)),))
        b = Diagram((PlanePoint(F(0), F(1)), PlanePoint(F(2), F(3))))
        bad = PartialMatching(frozenset({(0, 0), (0, 1)}), frozenset(), frozenset())
        with pytest.raises(ValueError):
            matching_cost(a, b, bad)
        stale = PartialMatching(frozenset({(0, 0)}), frozenset({0}), frozenset({1}))
        with pytest.raises(ValueError):
            matching_cost(a, b, stale)


class TestBottleneckPlane:
    def test_leaves_the_far_point_unmatched(self):
        a = Diagram((PlanePoint(F(1), F(3)), PlanePoint(F(2), F(6))))
        b = Diagram((PlanePoint(F(12, 10), F(31, 10)),))
        value, witness = bottleneck_plane(a, b)
        assert value == F(2)
        assert matching_cost(a, b, witness) == F(2)

    def test_identity_is_zero(self):
        a = random_plane_diagram(random.Random(1), max_points=4)
        assert bottleneck_plane(a, a).value == 0

    def test_diagonal_beats_far_matching(self):
        a = Diagram((PlanePoint(F(0), F(1)),))
        b = Diagram((PlanePoint(F(10), F(11)),))
        value, witness = bottleneck_plane(a, b)
        assert value == F(1, 2)
        assert witness.pairs == frozenset()

    def test_agrees_with_enumeration(self):
        rng = random.Random(321)
        for _ in range(120):
            a = random_plane_diagram(rng)
            b = random_plane_diagram(rng)
            pair_costs = [[linf(p, q) for q in b.points] for p in a.points]
            expected = enumerate_bottleneck(
                pair_costs, [diag_cost(p) for p in a.points], [diag_cost(q) for q in b.points]
            )
            value, witness = bottleneck_plane(a, b)
            assert value == expected
            assert matching_cost(a, b, witness) == value

    def test_value_is_a_candidate(self):
        rng = random.Random(17)
        for _ in range(60):
            a = random_plane_diagram(rng)
            b = random_plane_diagram(rng)
            value = bottleneck_plane(a, b).value
            candidates = {F(0)}
            candidates.update(linf(p, q) for p in a.points for q in b.points)
            candidates.update(diag_cost(p) for p in a.points)
            candidates.update(diag_cost(q) for q in b.points)
            assert value in candidates

    def test_lower_bounds_every_matching(self):
        rng = random.Random(55)
        for _ in range(80):
            a = random_plane_diagram(rng)
            b = random_plane_diagram(rng)
            value = bottleneck_plane(a, b).value
            matching = random_partial_matching(rng, len(a.points), len(b.points))
            assert value <= matching_cost(a, b, matching)

    def test_symmetry_and_triangle(self):
        rng = random.Random(2024)
        for _ in range(40):
            a = random_plane_diagram(rng)
            b = random_plane_diagram(rng)
            c = random_plane_diagram(rng)
            ab = bottleneck_plane(a, b).value
            ba = bottleneck_plane(b, a).value
            assert ab == ba
            assert bottleneck_plane(a, c).value <= ab + bottleneck_plane(b, c).value

    def test_witness_is_deterministic(self):
        rng = random.Random(8)
        a = random_plane_diagram(rng)
        b = random_plane_diagram(rng)
        first = bottleneck_plane(a, b)
        second = bottleneck_plane(a, b)
        assert first.witness == second.witness

    def test_long_augmenting_chain_needs_no_recursion(self):
        _assert_chain_solved(300)

    def test_the_long_chain_at_1100_points(self):
        # the size that took the threshold bisection about 20 s, rebuilding
        # both covers from empty at every probe
        _assert_chain_solved(1100)


def _assert_chain_solved(n: int) -> None:
    """A_i is 1/2 from B_i and B_{i-1}; the half persistences are far larger,
    so the optimum matches A_i to B_i and the witness's covers walk long
    chains, with almost no recursion allowed."""
    a = Diagram(tuple(PlanePoint(F(i), F(i + 10**4)) for i in range(n)))
    b = Diagram(tuple(PlanePoint(F(2 * i + 1, 2), F(2 * i + 1, 2) + 10**4) for i in range(n)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        value, witness = bottleneck_plane(a, b)
    finally:
        sys.setrecursionlimit(limit)
    assert value == F(1, 2)
    assert matching_cost(a, b, witness) == value


def _half_line_module(rng: random.Random, n: int, random_kinds: bool = False) -> LineModule:
    """Up to three line intervals on the 1/N grid inside [0, 1/2): closed-open
    ones of positive length, or with *random_kinds* any kinds, with closed
    singletons."""
    intervals = []
    for _ in range(rng.randint(0, 3)):
        lo = rng.randrange(n // 2 - 1)
        if random_kinds:
            hi = rng.randint(lo, n // 2 - 1)
            kinds = (CLOSED, CLOSED) if hi == lo else rng.choice(KIND_PAIRS)
        else:
            hi, kinds = rng.randint(lo + 1, n // 2 - 1), (CLOSED, OPEN)
        intervals.append(LineInterval(F(lo, n), F(hi, n), *kinds))
    return LineModule(tuple(intervals))


def _on_the_circle(m: LineModule) -> CircleModule:
    return CircleModule(tuple(CircleInterval(i.lo, i.hi, i.lo_kind, i.hi_kind) for i in m.intervals))


class TestAgainstTheGridSearch:
    def test_grid_distance_is_the_plane_distance_rounded_up(self):
        # closed-open line intervals in the first half of [0, 1), embedded as
        # circle intervals: nothing wraps and every class distance is below
        # 1/2 at shift 0, so the grid search, which never sees a diagram or a
        # matching, must land on the first grid step at or above the plane
        # bottleneck distance (the type-A isometry, sampled at 1/N)
        n = 16
        rng = random.Random(3)
        for trial in range(200):
            a, b = _half_line_module(rng, n), _half_line_module(rng, n)
            d = bottleneck_plane(diagram_of_line(a), diagram_of_line(b)).value
            grid_value = bruteforce_distance(to_grid(_on_the_circle(a), n), to_grid(_on_the_circle(b), n))
            assert grid_value == F(math.ceil(n * d), n), (trial, a, b)

    def test_grid_distance_is_the_snapped_plane_distance_rounded_up(self):
        # the same with every endpoint kind: at 1/N an interval holds the
        # sample positions of its closed-open snap (which may end at 1/2), so
        # the rule holds for the plane distance d' of the snapped modules
        n = 16
        rng = random.Random(4)
        for trial in range(300):
            a, b = _half_line_module(rng, n, True), _half_line_module(rng, n, True)
            d = bottleneck_plane(diagram_of_line(snapped(a, n)), diagram_of_line(snapped(b, n))).value
            grid_value = bruteforce_distance(to_grid(_on_the_circle(a), n), to_grid(_on_the_circle(b), n))
            assert grid_value == F(math.ceil(n * d), n), (trial, a, b)
