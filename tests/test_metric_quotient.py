import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlepers import io as fileio
from circlepers import (
    PartialMatching,
    PlanePoint,
    QuotientDiagram,
    QuotientPoint,
    bottleneck_quotient,
    lift_matching,
    linf,
    matching_cost_quotient,
    quotient_linf,
)
from circlepers.rationals import format_number
from generators import random_quotient_diagram, random_quotient_point
from oracles import enumerate_bottleneck, window_quotient_linf

F = Fraction

quotient_points = st.builds(
    lambda a, pers: QuotientPoint(a, a + pers),
    st.fractions(min_value=0, max_value=3, max_denominator=20),
    st.fractions(min_value=0, max_value=2, max_denominator=20),
)
translated_sides = st.lists(st.tuples(quotient_points, st.integers(-3, 3)), max_size=8)


def aligning_shift(p: QuotientPoint, q: QuotientPoint) -> int:
    """The k with quotient_linf(p, q) == linf((p.a + k, p.b + k), (q.a, q.b)),
    read off the lift of the one pair: its orbit pair's shift is -k."""
    one = PartialMatching.from_pairs({(0, 0)}, 1, 1)
    (orbit_pair,) = lift_matching(QuotientDiagram((p,)), QuotientDiagram((q,)), one).orbit_pairs
    return -orbit_pair.shift


def unmatched_cost(p: QuotientPoint):
    """What `matching_cost_quotient` charges for leaving *p* unmatched."""
    alone = QuotientDiagram((p,))
    return matching_cost_quotient(alone, QuotientDiagram(()), PartialMatching.from_pairs((), 1, 0))


class TestQuotientPoint:
    def test_canonical_storage(self):
        p = QuotientPoint(F(23, 10), F(27, 10))
        assert p.a == F(3, 10)
        assert p.b == F(7, 10)

    def test_equality_through_representatives(self):
        assert QuotientPoint(F(9, 10), F(13, 10)) == QuotientPoint(F(19, 10), F(23, 10))

    def test_negative_representative(self):
        p = QuotientPoint(F(-3, 10), F(1, 10))
        assert p.a == F(7, 10)
        assert p.persistence == F(4, 10)

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            QuotientPoint(F(1, 2), F(1, 4))

    def test_canonical_int_and_shifted_inputs_store_equal_fractions(self):
        # a canonical point skips the shift; the stored values must not show it
        for a, b in ((F(3, 10), F(7, 10)), (F(0), F(2)), (0, 2), (F(-7, 10), F(-3, 10)), (F(23, 10), 5), (-1, 0)):
            p = QuotientPoint(a, b)
            shifted = QuotientPoint(F(a) + 3, F(b) + 3)
            assert (p.a, p.b) == (shifted.a, shifted.b) == (F(a) % 1, F(b) - (F(a) - F(a) % 1))
            assert all(type(x) is F for x in (p.a, p.b, shifted.a, shifted.b))


class TestQuotientLinf:
    def test_no_shift_needed(self):
        assert quotient_linf(QuotientPoint(F(2, 10), F(5, 10)), QuotientPoint(F(3, 10), F(7, 10))) == F(2, 10)

    def test_shift_aligns_the_pair(self):
        p, q = QuotientPoint(F(9, 10), F(13, 10)), QuotientPoint(F(0), F(4, 10))
        assert quotient_linf(p, q) == F(1, 10)
        assert aligning_shift(p, q) == -1

    def test_identity(self):
        p = random_quotient_point(random.Random(3))
        assert quotient_linf(p, p) == 0

    def test_shift_achieves_the_value(self):
        rng = random.Random(77)
        for _ in range(300):
            p = random_quotient_point(rng)
            q = random_quotient_point(rng)
            value, shift = quotient_linf(p, q), aligning_shift(p, q)
            assert max(abs(p.a - q.a + shift), abs(p.b - q.b + shift)) == value
            assert linf(PlanePoint(p.a + shift, p.b + shift), PlanePoint(q.a, q.b)) == value

    def test_shift_is_the_smallest_minimiser(self):
        # with denominator 2 some pairs tie between two shifts
        rng = random.Random(78)
        for den in (2, 4, 7, 8, 240):
            for _ in range(100):
                a, c = (F(rng.randint(0, den - 1), den) for _ in range(2))
                p = QuotientPoint(a, a + F(rng.randint(0, 3 * den), den))
                q = QuotientPoint(c, c + F(rng.randint(0, 3 * den), den))
                costs = [(max(abs(p.a - q.a + k), abs(p.b - q.b + k)), k) for k in range(-5, 6)]
                assert (quotient_linf(p, q), aligning_shift(p, q)) == min(costs)

    @given(p=quotient_points, q=quotient_points)
    @settings(max_examples=150, deadline=None)
    def test_matches_window_enumeration(self, p, q):
        assert quotient_linf(p, q) == window_quotient_linf(p, q)

    def test_never_exceeds_representative_distances(self):
        rng = random.Random(13)
        for _ in range(100):
            p = random_quotient_point(rng)
            q = random_quotient_point(rng)
            value = quotient_linf(p, q)
            for k in range(-3, 4):
                for n in range(-3, 4):
                    rep_p = PlanePoint(p.a + k, p.b + k)
                    rep_q = PlanePoint(q.a + n, q.b + n)
                    assert value <= linf(rep_p, rep_q)


class TestDiagCostQuotient:
    """An unmatched class costs half its persistence."""

    def test_examples(self):
        assert unmatched_cost(QuotientPoint(F(0), F(1, 2))) == F(1, 4)
        assert unmatched_cost(QuotientPoint(F(2, 10), F(14, 10))) == F(6, 10)
        assert unmatched_cost(QuotientPoint(F(3, 10), F(3, 10))) == 0

    def test_class_invariance(self):
        assert unmatched_cost(QuotientPoint(F(23, 10), F(27, 10))) == unmatched_cost(
            QuotientPoint(F(3, 10), F(7, 10))
        )


class TestBottleneckQuotient:
    def test_mixed_pair_and_diagonal_instance(self):
        a = QuotientDiagram((QuotientPoint(F(0), F(1, 2)), QuotientPoint(F(2, 10), F(14, 10))))
        b = QuotientDiagram((QuotientPoint(F(1, 10), F(6, 10)),))
        value, witness = bottleneck_quotient(a, b)
        assert value == F(3, 5)
        assert matching_cost_quotient(a, b, witness) == value

    def test_identity(self):
        a = random_quotient_diagram(random.Random(5))
        assert bottleneck_quotient(a, a).value == 0

    def test_single_unmatched_point(self):
        a = QuotientDiagram((QuotientPoint(F(0), F(1, 2)),))
        assert bottleneck_quotient(a, QuotientDiagram(())).value == F(1, 4)

    def test_agrees_with_enumeration(self):
        rng = random.Random(654)
        for _ in range(120):
            a = random_quotient_diagram(rng)
            b = random_quotient_diagram(rng)
            pair_costs = [[quotient_linf(p, q) for q in b.points] for p in a.points]
            expected = enumerate_bottleneck(
                pair_costs,
                [p.persistence / 2 for p in a.points],
                [q.persistence / 2 for q in b.points],
            )
            value, witness = bottleneck_quotient(a, b)
            assert value == expected
            assert matching_cost_quotient(a, b, witness) == value

    def test_metric_axioms_sample(self):
        rng = random.Random(31)
        for _ in range(30):
            a = random_quotient_diagram(rng)
            b = random_quotient_diagram(rng)
            c = random_quotient_diagram(rng)
            ab = bottleneck_quotient(a, b).value
            assert ab == bottleneck_quotient(b, a).value
            assert bottleneck_quotient(a, c).value <= ab + bottleneck_quotient(b, c).value

    @given(diagrams=st.lists(st.lists(quotient_points, max_size=12), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality_past_enumeration(self, diagrams):
        # up to 12 points a side, past what enumerate_bottleneck can check
        a, b, c = (QuotientDiagram(tuple(points)) for points in diagrams)
        ab = bottleneck_quotient(a, b).value
        assert bottleneck_quotient(a, c).value <= ab + bottleneck_quotient(b, c).value

    @given(sides=st.lists(translated_sides, min_size=2, max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_any_integer_translate_of_each_point_gives_the_same_value_and_witness(self, sides):
        # each class is read from its canonical representative shifted by its own (k, k)
        def read(side):
            lines = [f"{format_number(p.a + k)} {format_number(p.b + k)}\n" for p, k in side]
            return fileio.read_quotient_diagram("".join(lines))

        canonical = [QuotientDiagram(tuple(p for p, _ in side)) for side in sides]
        assert bottleneck_quotient(*map(read, sides)) == bottleneck_quotient(*canonical)
