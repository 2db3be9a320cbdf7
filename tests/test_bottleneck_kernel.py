"""The scaled-integer bottleneck kernel against the frozen `Fraction` kernel.

`bottleneck_plane` and `bottleneck_quotient` must return the same value,
type included (a `Fraction`, or INF), as the doubled-graph search on
`Fraction` cost tables frozen in `oracles`.  Their witness must cost exactly
that value, match every point whose unmatched cost exceeds it, and leave no
unmatched pair within it.  On raw integer tables, `solve_bottleneck` must
return the value of the threshold bisection it replaced with a witness that
certifies it on the table, each side's ascent must end holding a cover
within its threshold, and every candidate threshold at or above the value,
and none below, must admit a perfect matching of the frozen doubled graph.
"""

from __future__ import annotations

import random
from fractions import Fraction

from circlepers import (
    INF,
    NEG_INF,
    Diagram,
    PartialMatching,
    PlanePoint,
    QuotientDiagram,
    QuotientPoint,
    bottleneck_plane,
    bottleneck_quotient,
    diag_cost,
    linf,
    matching_cost,
    matching_cost_quotient,
    quotient_linf,
)
from circlepers.metric_plane import _least_cover, solve_bottleneck
from oracles import (
    frozen_bottleneck_plane,
    frozen_bottleneck_quotient,
    frozen_linf,
    frozen_matching_at,
    frozen_quotient_linf,
    frozen_threshold_bisection,
)

F = Fraction

# pairwise coprime, so a diagram's common denominator grows as their product
COPRIME = [1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def _value(rng: random.Random, denominators: list[int]) -> Fraction:
    den = rng.choice(denominators)
    return F(rng.randint(-3 * den, 3 * den), den)


def _plane_diagram(rng: random.Random, max_points: int, denominators: list[int]) -> Diagram:
    """Finite points and all three essential classes, with repeats: a point
    is drawn again from those already drawn a third of the time."""
    points: list[PlanePoint] = []
    for _ in range(rng.randint(0, max_points)):
        if points and rng.random() < 1 / 3:
            points.append(rng.choice(points))
            continue
        kind = rng.random()
        a, b = sorted((_value(rng, denominators), _value(rng, denominators)))
        if kind < 0.15:
            points.append(PlanePoint(a, INF))
        elif kind < 0.3:
            points.append(PlanePoint(NEG_INF, b))
        elif kind < 0.4:
            points.append(PlanePoint(NEG_INF, INF))
        else:
            points.append(PlanePoint(a, b))
    return Diagram(tuple(points))


def _quotient_diagram(rng: random.Random, max_points: int, denominators: list[int]) -> QuotientDiagram:
    points: list[QuotientPoint] = []
    for _ in range(rng.randint(0, max_points)):
        if points and rng.random() < 1 / 3:
            points.append(rng.choice(points))
            continue
        a = _value(rng, denominators)
        points.append(QuotientPoint(a, a + abs(_value(rng, denominators))))
    return QuotientDiagram(tuple(points))


def _denominators(rng: random.Random) -> list[int]:
    # a small grid makes ties common; coprime denominators make D large
    return [rng.choice([2, 4, 8])] if rng.random() < 0.5 else rng.sample(COPRIME, 4)


def _assert_optimal(result, frozen, a, b):
    """The frozen value, and a witness that certifies it and is maximal."""
    value, _ = frozen
    assert type(result.value) is type(value)
    assert result.value == value
    if isinstance(a, QuotientDiagram):
        cost, unmatched, pair = matching_cost_quotient, lambda p: p.persistence / 2, quotient_linf
    else:
        cost, unmatched, pair = matching_cost, diag_cost, linf
    witness = result.witness
    witness_cost = cost(a, b, witness)
    assert type(witness_cost) is type(value)
    assert witness_cost == value
    for points, matched in [
        (a.points, {i for i, _ in witness.pairs}),
        (b.points, {j for _, j in witness.pairs}),
    ]:
        assert all(k in matched for k, p in enumerate(points) if unmatched(p) > value)
    assert not any(
        pair(a.points[i], b.points[j]) <= value
        for i in witness.unmatched_a
        for j in witness.unmatched_b
    )


class TestAgainstFrozenFractionKernel:
    def test_plane(self):
        rng = random.Random(2026)
        infinite = 0
        for trial in range(600):
            denominators = _denominators(rng)
            a = _plane_diagram(rng, 8, denominators)
            b = a if trial % 20 == 0 else _plane_diagram(rng, 8, denominators)
            result = bottleneck_plane(a, b)
            _assert_optimal(result, frozen_bottleneck_plane(a, b), a, b)
            infinite += result.value == INF
        # essential class counts differ often enough to give infinite values
        assert infinite > 50

    def test_quotient(self):
        rng = random.Random(2027)
        for trial in range(600):
            denominators = _denominators(rng)
            a = _quotient_diagram(rng, 8, denominators)
            b = a if trial % 20 == 0 else _quotient_diagram(rng, 8, denominators)
            _assert_optimal(bottleneck_quotient(a, b), frozen_bottleneck_quotient(a, b), a, b)

    def test_larger_diagrams(self):
        rng = random.Random(2028)
        for _ in range(6):
            denominators = _denominators(rng)
            a = _quotient_diagram(rng, 60, denominators)
            b = _quotient_diagram(rng, 60, denominators)
            _assert_optimal(bottleneck_quotient(a, b), frozen_bottleneck_quotient(a, b), a, b)
            a = _plane_diagram(rng, 40, denominators)
            b = _plane_diagram(rng, 40, denominators)
            _assert_optimal(bottleneck_plane(a, b), frozen_bottleneck_plane(a, b), a, b)

    def test_empty_and_identical(self):
        empty = Diagram(())
        point = Diagram((PlanePoint(F(1, 3), F(5, 7)),))
        for a, b in [(empty, empty), (point, empty), (empty, point), (point, point)]:
            _assert_optimal(bottleneck_plane(a, b), frozen_bottleneck_plane(a, b), a, b)
        zero = bottleneck_plane(point, point).value
        assert type(zero) is Fraction and zero == 0
        q_empty = QuotientDiagram(())
        q_point = QuotientDiagram((QuotientPoint(F(1, 3), F(5, 7)),))
        for a, b in [(q_empty, q_empty), (q_point, q_empty), (q_empty, q_point), (q_point, q_point)]:
            _assert_optimal(bottleneck_quotient(a, b), frozen_bottleneck_quotient(a, b), a, b)
        assert type(bottleneck_quotient(q_empty, q_empty).value) is Fraction

    def test_large_common_denominator(self):
        rng = random.Random(2029)
        primes = [101, 103, 107, 109, 113, 127, 131, 137, 139, 149]
        a = _quotient_diagram(rng, 20, primes)
        b = _quotient_diagram(rng, 20, primes)
        _assert_optimal(bottleneck_quotient(a, b), frozen_bottleneck_quotient(a, b), a, b)
        a = _plane_diagram(rng, 20, primes)
        b = _plane_diagram(rng, 20, primes)
        _assert_optimal(bottleneck_plane(a, b), frozen_bottleneck_plane(a, b), a, b)

    def test_pair_distances(self):
        # `linf` and `quotient_linf` unscale the kernel's own pair costs
        rng = random.Random(2030)
        for _ in range(150):
            denominators = _denominators(rng)
            for distance, frozen, diagram in [
                (linf, frozen_linf, _plane_diagram),
                (quotient_linf, frozen_quotient_linf, _quotient_diagram),
            ]:
                a = diagram(rng, 6, denominators)
                b = diagram(rng, 6, denominators)
                for p in a.points:
                    for q in b.points:
                        value, expected = distance(p, q), frozen(p, q)
                        assert type(value) is type(expected)
                        assert value == expected


def _random_table(rng: random.Random, max_points: int, max_cost: int):
    """A cost table and two unmatched-cost lists, about 10% of entries INF."""
    n_a, n_b = rng.randint(0, max_points), rng.randint(0, max_points)

    def cost():
        return INF if rng.random() < 0.1 else rng.randint(0, max_cost)

    pair_costs = [[cost() for _ in range(n_b)] for _ in range(n_a)]
    return pair_costs, [cost() for _ in range(n_a)], [cost() for _ in range(n_b)]


class TestMendelsohnDulmage:
    def test_feasibility_equals_the_doubled_graph_at_every_candidate(self):
        rng = random.Random(11)
        infeasible = 0
        for _ in range(1500):
            pair_costs, diag_a, diag_b = _random_table(rng, 6, 8)
            value = solve_bottleneck(pair_costs, diag_a, diag_b).value
            candidates = {0, *diag_a, *diag_b, *(c for row in pair_costs for c in row)}
            for t in sorted(candidates):
                feasible = t >= value
                assert feasible == (frozen_matching_at(pair_costs, diag_a, diag_b, t) is not None)
                infeasible += not feasible
        assert infeasible > 1000


def _assert_table_certificate(pair_costs, diag_a, diag_b, value, witness):
    """*witness* is a matching of the table whose largest pair or unmatched
    cost is *value*, that matches every point of unmatched cost above it and
    leaves no unmatched pair within it."""
    assert isinstance(witness, PartialMatching)
    witness.validate_for(len(diag_a), len(diag_b))
    cost = max(
        [0]
        + [pair_costs[i][j] for i, j in witness.pairs]
        + [diag_a[i] for i in witness.unmatched_a]
        + [diag_b[j] for j in witness.unmatched_b]
    )
    assert type(cost) is type(value)
    assert cost == value
    assert all(diag_a[i] <= value for i in witness.unmatched_a)
    assert all(diag_b[j] <= value for j in witness.unmatched_b)
    assert not any(pair_costs[i][j] <= value for i in witness.unmatched_a for j in witness.unmatched_b)


def _assert_cover(rows, diag, match_right, t):
    """*match_right* (right -> left, -1 where unmatched) is injective, uses
    only entries within t and matches every left point of unmatched cost
    above t."""
    matched = [u for u in match_right if u != -1]
    assert len(matched) == len(set(matched))
    assert all(rows[u][v] <= t for v, u in enumerate(match_right) if u != -1)
    assert all(u in matched for u, d in enumerate(diag) if d > t)


class TestAgainstTheFrozenBisection:
    def test_same_value_and_witness_on_random_tables(self):
        # ties and INF entries make many thresholds where one cover exists
        # and the other does not, and many witnesses among optimal ones
        rng = random.Random(2031)
        for _ in range(3000):
            pair_costs, diag_a, diag_b = _random_table(rng, 9, 12)
            value, witness = solve_bottleneck(pair_costs, diag_a, diag_b)
            expected = frozen_threshold_bisection(pair_costs, diag_a, diag_b)
            assert type(value) is type(expected)
            assert value == expected
            _assert_table_certificate(pair_costs, diag_a, diag_b, value, witness)
            # the two matchings the witness starts from
            columns = [[row[j] for row in pair_costs] for j in range(len(diag_b))]
            t_a, b_to_a = _least_cover(pair_costs, diag_a, len(diag_b), 0)
            assert len(b_to_a) == len(diag_b)
            _assert_cover(pair_costs, diag_a, b_to_a, t_a)
            t, c_right = _least_cover(columns, diag_b, len(diag_a), t_a)
            assert len(c_right) == len(diag_a)
            _assert_cover(columns, diag_b, c_right, t)
            assert t == value
