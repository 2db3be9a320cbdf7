import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlepers import (
    InvariantMatching,
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
from circlepers.cli import main
from generators import (
    primes_below,
    random_invariant_matching,
    random_partial_matching,
    random_quotient_diagram,
)
from oracles import (
    frozen_invariant_cost,
    frozen_lift_shifts,
    frozen_matching_cost_quotient,
    frozen_quotient_linf,
)

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
        assert {op.a for op in m.orbit_pairs} == {0}
        assert {op.b for op in m.orbit_pairs} == {0}
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
                assert i not in {op.a for op in m.orbit_pairs}
                cost = max(cost, m.classes_a[i].persistence / 2)
            for j in projected.unmatched_b:
                assert j not in {op.b for op in m.orbit_pairs}
                cost = max(cost, m.classes_b[j].persistence / 2)
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
def index_pairs(draw, n_a: int, n_b: int) -> list[tuple[int, int]]:
    """A one-to-one pairing of some of range(n_a) with some of range(n_b)."""
    left = draw(st.permutations(range(n_a)))
    right = draw(st.permutations(range(n_b)))
    count = draw(st.integers(0, min(n_a, n_b)))
    return list(zip(left[:count], right[:count]))


@st.composite
def matched_diagrams(draw, diagrams=quotient_diagrams):
    """Two quotient diagrams and a partial matching between them."""
    a, b = draw(diagrams), draw(diagrams)
    pairs = draw(index_pairs(len(a.points), len(b.points)))
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


# classes of mixed denominators up to 2^70, each given by a representative
# up to three shifts off the canonical one
denominators = st.one_of(st.sampled_from([1, 2, 3, 64, 240, 2**61 - 1, 2**70]), st.integers(1, 2**70))


@st.composite
def any_representative(draw):
    d_a, d_b = draw(denominators), draw(denominators)
    a = F(draw(st.integers(-3 * d_a, 3 * d_a)), d_a)
    return QuotientPoint(a, a + F(draw(st.integers(0, 3 * d_b)), d_b))


mixed_classes = st.lists(any_representative(), max_size=6).map(tuple)
mixed_diagrams = mixed_classes.map(QuotientDiagram)


@st.composite
def mixed_orbit_matchings(draw):
    """An orbit matching of mixed denominators with shifts in -3..3."""
    a, b = draw(mixed_classes), draw(mixed_classes)
    pairs = draw(index_pairs(len(a), len(b)))
    return InvariantMatching(a, b, frozenset(OrbitPair(i, j, draw(st.integers(-3, 3))) for i, j in pairs))


class TestAgainstTheFrozenCosts:
    """Int pair costs on each pair's own scale give the `Fraction` rules'
    values, type included, and their shifts."""

    @given(instance=matched_diagrams(mixed_diagrams))
    @settings(max_examples=200, deadline=None)
    def test_quotient_matching_cost(self, instance):
        a, b, matching = instance
        value, frozen = matching_cost_quotient(a, b, matching), frozen_matching_cost_quotient(a, b, matching)
        assert value == frozen and type(value) is type(frozen)

    @given(m=mixed_orbit_matchings())
    @settings(max_examples=200, deadline=None)
    def test_orbit_matching_cost(self, m):
        value, frozen = invariant_cost(m), frozen_invariant_cost(m)
        assert value == frozen and type(value) is type(frozen)

    @given(instance=matched_diagrams(mixed_diagrams))
    @settings(max_examples=200, deadline=None)
    def test_lift_shifts_and_class_distances(self, instance):
        a, b, matching = instance
        lifted = lift_matching(a, b, matching)
        shifts = frozen_lift_shifts(a, b, matching)
        assert {(op.a, op.b): op.shift for op in lifted.orbit_pairs} == shifts
        for i, j in shifts:
            value = quotient_linf(a.points[i], b.points[j])
            frozen = frozen_quotient_linf(a.points[i], b.points[j])
            assert value == frozen and type(value) is type(frozen)
        value, frozen = invariant_cost(lifted), frozen_matching_cost_quotient(a, b, matching)
        assert value == frozen and type(value) is type(frozen)

    def test_empty_sides(self):
        point = QuotientDiagram((QuotientPoint(F(-5, 3), F(7, 2**70)),))
        empty = QuotientDiagram(())
        for a, b in [(empty, empty), (point, empty), (empty, point)]:
            matching = PartialMatching.from_pairs((), len(a.points), len(b.points))
            frozen = frozen_matching_cost_quotient(a, b, matching)
            for value in (matching_cost_quotient(a, b, matching), invariant_cost(lift_matching(a, b, matching))):
                assert value == frozen and type(value) is type(frozen)


def test_transfer_stays_small_on_file_wide_denominators(tmp_path):
    # each class has its own prime denominator: costs on the file's common
    # scale hold ints of the lcm of 6000 primes, about 12 KB each; a
    # matching cost that scaled every class so peaked at about 167 MiB here,
    # pair scales at about 4 MiB
    primes = primes_below(70_000)[:6000]
    sides = []
    for name, chunk in (("a", primes[:3000]), ("b", primes[3000:])):
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(f"{k}/{p} {k + 2 * p}/{p}\n" for k, p in enumerate(chunk)))
        sides += [f"--diagram-{name}", str(path)]
    identity = tmp_path / "identity.txt"
    identity.write_text("".join(f"pair {i} {i}\n" for i in range(3000)))
    lifted, projected = tmp_path / "lifted.txt", tmp_path / "projected.txt"
    tracemalloc.start()
    try:
        assert main(["transfer", "lift", *sides, "--matching", str(identity), "-o", str(lifted)]) == 0
        assert main(["transfer", "project", *sides, "--matching", str(lifted), "-o", str(projected)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert projected.read_text().count("pair") == 3000
    assert peak < 8 * 2**20
