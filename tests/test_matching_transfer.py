import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlepers import (
    InvariantMatching,
    diag_cost_quotient,
    quotient_linf,
    OrbitPair,
    PartialMatching,
    QuotientDiagram,
    QuotientPoint,
    bottleneck_quotient,
    invariant_cost,
    lift_matching,
    matching_cost_quotient,
    project_matching,
)
from generators import (
    random_invariant_matching,
    random_partial_matching,
    random_quotient_diagram,
)
from oracles import frozen_invariant_cost

F = Fraction


def _classes(*coords):
    return tuple(QuotientPoint(F(a), F(b)) for a, b in coords)


class TestInvariantMatchingValidation:
    def test_orbit_pairs_must_be_injective(self):
        classes = _classes(("0", "0.5"), ("0.25", "0.75"))
        with pytest.raises(ValueError):
            InvariantMatching(
                classes, classes, frozenset({OrbitPair(0, 0, 0), OrbitPair(0, 1, 0)})
            )

    def test_orbit_pair_index_must_be_in_range(self):
        classes = _classes(("0", "0.5"))
        with pytest.raises(ValueError):
            InvariantMatching(classes, classes, frozenset({OrbitPair(0, 1, 0)}))

    def test_partition_views(self):
        classes_a = _classes(("0", "0.5"), ("0.25", "0.75"), ("0.5", "1"))
        classes_b = _classes(("0.1", "0.6"), ("0.3", "0.8"))
        m = InvariantMatching(classes_a, classes_b, frozenset({OrbitPair(0, 0, 0)}))
        assert m.fully_matched_a() == {0}
        assert m.fully_matched_b() == {0}
        assert m.unmatched_a() == {1, 2}
        assert m.unmatched_b() == {1}


class TestInvariantCost:
    def test_orbit_pair_at_zero_shift(self):
        m = InvariantMatching(
            _classes(("0", "0.5")), _classes(("0.1", "0.6")), frozenset({OrbitPair(0, 0, 0)})
        )
        assert invariant_cost(m) == F(1, 10)

    def test_orbit_pair_at_bad_shift_pays_the_translation(self):
        m = InvariantMatching(
            _classes(("0", "0.5")), _classes(("0.1", "0.6")), frozenset({OrbitPair(0, 0, 1)})
        )
        assert invariant_cost(m) == F(11, 10)

    def test_everything_unmatched(self):
        classes = _classes(("0", "0.5"))
        m = InvariantMatching(classes, classes, frozenset())
        assert invariant_cost(m) == F(1, 4)

    @pytest.mark.parametrize("denominators", [None, (7, 11, 13, 64, 2**70)], ids=["generator", "mixed"])
    def test_matches_the_frozen_plane_cost(self, denominators):
        # the orbit pairs' costs on the kernel's pair rule, against `linf` of
        # Fraction representatives; "mixed" draws classes of mixed denominators
        rng = random.Random(41)
        for _ in range(300):
            classes = () if denominators is None else [
                tuple(
                    QuotientPoint(a, a + F(rng.randint(0, 3 * den), den))
                    for den in rng.choices(denominators, k=rng.randint(0, 5))
                    for a in [F(rng.randrange(den), den)]
                )
                for _side in "ab"
            ]
            m = random_invariant_matching(rng, *classes, max_classes=6)
            value, frozen = invariant_cost(m), frozen_invariant_cost(m)
            assert value == frozen and type(value) is type(frozen)


class TestProjectMatching:
    def test_full_orbit_matching_projects_to_its_pairs(self):
        m = InvariantMatching(
            _classes(("0", "0.5")), _classes(("0.1", "0.6")), frozenset({OrbitPair(0, 0, 0)})
        )
        projected = project_matching(m)
        assert projected.pairs == frozenset({(0, 0)})
        assert not projected.unmatched_a and not projected.unmatched_b

    def test_fully_unmatched_class_stays_unmatched(self):
        m = InvariantMatching(
            _classes(("0", "0.5"), ("0.3", "0.8")),
            _classes(("0.1", "0.6")),
            frozenset({OrbitPair(0, 0, 0)}),
        )
        projected = project_matching(m)
        assert projected.pairs == frozenset({(0, 0)})
        assert projected.unmatched_a == frozenset({1})

    def test_empty_matching_projects_empty(self):
        m = InvariantMatching(_classes(("0", "0.5")), _classes(("0.1", "0.6")), frozenset())
        projected = project_matching(m)
        assert projected.pairs == frozenset()
        assert projected.unmatched_a == frozenset({0})
        assert projected.unmatched_b == frozenset({0})

    def test_projection_invariants_and_cost_on_randoms(self):
        rng = random.Random(2718)
        for _ in range(200):
            m = random_invariant_matching(rng)
            projected = project_matching(m)
            projected.validate_for(len(m.classes_a), len(m.classes_b))
            assert projected.pairs == {(op.a, op.b) for op in m.orbit_pairs}
            plane_cost = invariant_cost(m)
            orbit_partners = {(p.a, p.b) for p in m.orbit_pairs}
            cost = F(0)
            for i, j in projected.pairs:
                # invariant (i): a projected pair is backed by a matched plane pair
                assert (i, j) in orbit_partners
                cost = max(cost, quotient_linf(m.classes_a[i], m.classes_b[j]))
            for i in projected.unmatched_a:
                # invariant (ii): an unmatched class has an unmatched representative
                assert i not in m.fully_matched_a()
                cost = max(cost, diag_cost_quotient(m.classes_a[i]))
            for j in projected.unmatched_b:
                assert j not in m.fully_matched_b()
                cost = max(cost, diag_cost_quotient(m.classes_b[j]))
            assert cost <= plane_cost


class TestLiftMatching:
    def test_pair_lifts_with_aligning_shift(self):
        a = QuotientDiagram((QuotientPoint(F(9, 10), F(13, 10)),))
        b = QuotientDiagram((QuotientPoint(F(0), F(4, 10)),))
        matching = PartialMatching.from_pairs({(0, 0)}, 1, 1)
        lifted = lift_matching(a, b, matching)
        assert lifted.orbit_pairs == frozenset({OrbitPair(0, 0, 1)})
        assert invariant_cost(lifted) == F(1, 10)

    def test_unmatched_class_costs_half_persistence(self):
        a = QuotientDiagram((QuotientPoint(F(0), F(1, 2)),))
        matching = PartialMatching.from_pairs(set(), 1, 0)
        lifted = lift_matching(a, QuotientDiagram(()), matching)
        assert invariant_cost(lifted) == F(1, 4)

    def test_identity_matching_costs_zero(self):
        a = random_quotient_diagram(random.Random(9), max_points=4)
        matching = PartialMatching.from_pairs(
            {(i, i) for i in range(len(a.points))}, len(a.points), len(a.points)
        )
        lifted = lift_matching(a, a, matching)
        assert invariant_cost(lifted) == 0

    def test_cost_equality_on_randoms(self):
        rng = random.Random(31415)
        for _ in range(200):
            a = random_quotient_diagram(rng)
            b = random_quotient_diagram(rng)
            matching = random_partial_matching(rng, len(a.points), len(b.points))
            lifted = lift_matching(a, b, matching)
            assert invariant_cost(lifted) == matching_cost_quotient(a, b, matching)

    def test_project_inverts_lift(self):
        rng = random.Random(27182)
        for _ in range(100):
            a = random_quotient_diagram(rng)
            b = random_quotient_diagram(rng)
            matching = random_partial_matching(rng, len(a.points), len(b.points))
            lifted = lift_matching(a, b, matching)
            assert project_matching(lifted) == matching


quotient_diagrams = st.lists(
    st.builds(
        lambda a, pers: QuotientPoint(a, a + pers),
        st.fractions(0, 1, max_denominator=20).filter(lambda a: a < 1),
        st.fractions(0, 2, max_denominator=20),
    ),
    max_size=6,
).map(lambda points: QuotientDiagram(tuple(points)))


@st.composite
def matched_diagrams(draw):
    """Two quotient diagrams and a partial matching between them."""
    a, b = draw(quotient_diagrams), draw(quotient_diagrams)
    left = draw(st.permutations(range(len(a.points))))
    right = draw(st.permutations(range(len(b.points))))
    count = draw(st.integers(0, min(len(left), len(right))))
    pairs = set(zip(left[:count], right[:count]))
    return a, b, PartialMatching.from_pairs(pairs, len(a.points), len(b.points))


class TestLiftThenProject:
    @given(instance=matched_diagrams())
    @settings(max_examples=60, deadline=None)
    def test_keeps_the_pairs_and_never_raises_the_cost(self, instance):
        a, b, matching = instance
        lifted = lift_matching(a, b, matching)
        projected = project_matching(lifted)
        assert projected.pairs == matching.pairs
        assert matching_cost_quotient(a, b, projected) <= invariant_cost(lifted)


class TestOptimaAgreeAcrossTheQuotient:
    def test_bottleneck_certified_from_both_sides(self):
        rng = random.Random(123)
        for _ in range(50):
            a = random_quotient_diagram(rng)
            b = random_quotient_diagram(rng)
            value, witness = bottleneck_quotient(a, b)
            # lifting the optimal matching attains the quotient optimum on the plane
            assert invariant_cost(lift_matching(a, b, witness)) == value
            # and every orbit matching projects to a quotient matching, so it
            # can never beat the quotient optimum
            for _ in range(5):
                m = random_invariant_matching(rng, a.points, b.points)
                assert invariant_cost(m) >= value
