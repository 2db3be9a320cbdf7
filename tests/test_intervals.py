import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlepers import (
    CLOSED,
    OPEN,
    CircleInterval,
    CircleModule,
    Diagram,
    LineInterval,
    LineModule,
    PlanePoint,
    QuotientDiagram,
    QuotientPoint,
    INF,
    NEG_INF,
    diagram_of,
    diagram_of_line,
    step_composite,
    to_grid,
    translate_basis,
)
from circlepers.rationals import as_ext
from oracles import (
    count_translates,
    frozen_interval_key,
    frozen_point_key,
    frozen_unit_representative,
    scan_translate_basis,
)

F = Fraction

fractions_small = st.fractions(min_value=-3, max_value=3, max_denominator=24)


class TestLineInterval:
    @pytest.mark.parametrize(
        "lo_kind,hi_kind,lo_in,hi_in",
        [
            (CLOSED, CLOSED, True, True),
            (CLOSED, OPEN, True, False),
            (OPEN, CLOSED, False, True),
            (OPEN, OPEN, False, False),
        ],
    )
    def test_membership_respects_kinds(self, lo_kind, hi_kind, lo_in, hi_in):
        ival = LineInterval(F(1), F(3), lo_kind, hi_kind)
        assert ival.contains(1) is lo_in
        assert ival.contains(3) is hi_in
        assert ival.contains(2)
        assert not ival.contains(F(1, 2))
        assert not ival.contains(4)

    def test_infinite_endpoints_must_be_open(self):
        LineInterval(NEG_INF, F(3), OPEN, CLOSED)
        with pytest.raises(ValueError):
            LineInterval(NEG_INF, F(3), CLOSED, CLOSED)
        with pytest.raises(ValueError):
            LineInterval(F(0), INF, CLOSED, CLOSED)

    def test_singleton_requires_closed_kinds(self):
        point = LineInterval(F(2), F(2), CLOSED, CLOSED)
        assert point.contains(2)
        assert not point.contains(F(3, 2))
        with pytest.raises(ValueError):
            LineInterval(F(2), F(2), CLOSED, OPEN)

    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ValueError):
            LineInterval(F(3), F(1))

    def test_rejects_strings(self):
        # text is read by parse_number; the library takes values
        with pytest.raises(TypeError):
            as_ext("0.5")
        with pytest.raises(TypeError):
            LineInterval("0", "1")

    def test_infinite_membership_and_length(self):
        ray = LineInterval(NEG_INF, F(3), OPEN, CLOSED)
        assert ray.contains(-1000)
        assert ray.contains(3)
        assert not ray.contains(4)
        assert ray.hi - ray.lo == INF


class TestCircleInterval:
    def test_canonicalizes_to_unit_window(self):
        ival = CircleInterval(F(12, 10), F(15, 10), CLOSED, OPEN)
        assert ival.lo == F(2, 10)
        assert ival.hi == F(5, 10)

    def test_translates_are_equal(self):
        assert CircleInterval(F(12, 10), F(15, 10)) == CircleInterval(F(2, 10), F(5, 10))
        assert CircleInterval(F(2, 10), F(5, 10)) != CircleInterval(F(2, 10), F(6, 10))

    def test_endpoints_must_be_finite(self):
        with pytest.raises(ValueError):
            CircleInterval(F(0), INF)

    def test_winding_interval_allowed(self):
        long = CircleInterval(F(1, 10), F(23, 10))
        assert long.hi - long.lo == F(22, 10)

    def test_canonical_int_and_shifted_inputs_store_equal_fractions(self):
        # a canonical interval skips the shift; the stored values must not show it
        for lo, hi in ((F(3, 10), F(7, 10)), (F(0), F(2)), (0, 2), (F(-7, 10), F(-3, 10)), (F(23, 10), 5), (-1, 0)):
            ival = CircleInterval(lo, hi)
            shifted = CircleInterval(F(lo) + 3, F(hi) + 3)
            assert (ival.lo, ival.hi) == (shifted.lo, shifted.hi) == (F(lo) % 1, F(hi) - (F(lo) - F(lo) % 1))
            assert all(type(x) is F for x in (ival.lo, ival.hi, shifted.lo, shifted.hi))


@st.composite
def mixed_ends(draw):
    """An end of denominator up to 2^70, anywhere in -3..3."""
    d = draw(st.one_of(st.sampled_from([1, 2, 64, 2**70]), st.integers(1, 2**70)))
    return F(draw(st.integers(-3 * d, 3 * d)), d)


@given(lo=mixed_ends(), hi=mixed_ends())
@settings(max_examples=300, deadline=None)
def test_classes_store_the_frozen_representative(lo, hi):
    frozen = frozen_unit_representative(lo, hi)
    if frozen is None:
        with pytest.raises(ValueError, match="^interval endpoints out of order: "):
            CircleInterval(lo, hi, CLOSED, CLOSED)
        with pytest.raises(ValueError, match="^birth exceeds death: "):
            QuotientPoint(lo, hi)
        return
    ival, point = CircleInterval(lo, hi, CLOSED, CLOSED), QuotientPoint(lo, hi)
    for ends in ((ival.lo, ival.hi), (point.a, point.b)):
        assert ends == frozen and all(type(x) is F for x in ends)


def fiber_dim(m: CircleModule, x) -> int:
    return len(translate_basis(m, x))


class TestDimAt:
    def test_open_interval_examples(self):
        m = CircleModule((CircleInterval(F(2, 10), F(15, 10), OPEN, OPEN),))
        assert fiber_dim(m, F(3, 10)) == 2  # translates 0.3 and 1.3
        assert fiber_dim(m, F(2, 10)) == 1  # 0.2 excluded by the open end, 1.2 inside

    def test_empty_module(self):
        assert fiber_dim(CircleModule(()), F(7, 10)) == 0

    def test_matches_translate_count_oracle(self):
        rng = random.Random(4321)
        for _ in range(200):
            intervals = []
            for _ in range(rng.randint(0, 3)):
                lo = F(rng.randint(0, 19), 20)
                length = F(rng.randint(0, 30), 20)
                kinds = (
                    (CLOSED, CLOSED)
                    if length == 0
                    else (rng.choice([OPEN, CLOSED]), rng.choice([OPEN, CLOSED]))
                )
                intervals.append(CircleInterval(lo, lo + length, *kinds))
            m = CircleModule(tuple(intervals))
            x = F(rng.randint(-40, 40), 20)
            expected = sum(count_translates(ival, x) for ival in m.intervals)
            assert fiber_dim(m, x) == expected

    @given(
        lo=st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda f: f < 1),
        length=st.fractions(min_value=0, max_value=2, max_denominator=12),
        x=fractions_small,
    )
    @settings(max_examples=80, deadline=None)
    def test_period_one_invariance(self, lo, length, x):
        kinds = (CLOSED, CLOSED) if length == 0 else (CLOSED, OPEN)
        m = CircleModule((CircleInterval(lo, lo + length, *kinds),))
        assert fiber_dim(m, x) == fiber_dim(m, x + 1)


class TestStructureMap:
    # the structure maps as the grid samples them: the composite of the
    # steps from node j to node k is the map from j/N to k/N
    def test_interior_identity(self):
        g = to_grid(CircleModule((CircleInterval(F(0), F(6, 10), CLOSED, OPEN),)), 10)
        assert step_composite(g, 1, 2).tolist() == [[1]]

    def test_map_out_of_the_interval_is_zero(self):
        # source fiber at 0.5 is one-dimensional, target fiber at 0.7 is empty:
        # no translate of 0.7 lies in [0, 0.6)
        g = to_grid(CircleModule((CircleInterval(F(0), F(6, 10), CLOSED, OPEN),)), 10)
        assert step_composite(g, 5, 2).shape == (0, 1)

    def test_empty_module_gives_empty_matrix(self):
        assert step_composite(to_grid(CircleModule(()), 10), 1, 1).shape == (0, 0)

    def test_functoriality_on_random_triples(self):
        rng = random.Random(97)
        for _ in range(150):
            intervals = []
            for _ in range(rng.randint(0, 3)):
                lo = F(rng.randint(0, 19), 20)
                length = F(rng.randint(1, 30), 20)
                intervals.append(
                    CircleInterval(
                        lo, lo + length, rng.choice([OPEN, CLOSED]), rng.choice([OPEN, CLOSED])
                    )
                )
            g = to_grid(CircleModule(tuple(intervals)), 20)
            x, step1, step2 = rng.randint(0, 19), rng.randint(1, 4), rng.randint(1, 4)
            composite = step_composite(g, x + step1, step2) @ step_composite(g, x, step1)
            direct = step_composite(g, x, step1 + step2)
            assert composite == direct
            assert composite.tolist() == direct.tolist()


class TestLift:
    # the fiber read off the line: each translate x + k tested for membership
    # in the interval on the line (scan_translate_basis)
    def test_dimension_agrees_away_from_the_window_edge(self):
        m = CircleModule(
            (
                CircleInterval(F(0), F(5, 10), CLOSED, OPEN),
                CircleInterval(F(1, 10), F(12, 10), CLOSED, CLOSED),
            )
        )
        # 0.15 in the first; 0.15 and 1.15 in the second, which winds
        labels = translate_basis(m, F(15, 100))
        assert labels == [(0, 0), (1, 0), (1, 1)]
        assert labels == scan_translate_basis(m, F(15, 100))

    def test_dimension_agreement_on_randoms(self):
        # closed singletons, and modules and points on the 1/20 grid, which the
        # translate-scan comparison in test_interleaving (grids 4, 6, 8) never draws
        rng = random.Random(5)
        for _ in range(100):
            intervals = []
            for _ in range(rng.randint(0, 3)):
                lo = F(rng.randint(0, 19), 20)
                intervals.append(CircleInterval(lo, lo + F(rng.randint(0, 20), 20), CLOSED, CLOSED))
            m = CircleModule(tuple(intervals))
            x = F(rng.randint(-20, 19), 20)
            assert translate_basis(m, x) == scan_translate_basis(m, x)


class TestDiagrams:
    def test_circle_diagram_basics(self):
        m = CircleModule((CircleInterval(F(2, 10), F(5, 10)),))
        assert diagram_of(m).points == (QuotientPoint(F(2, 10), F(5, 10)),)

    def test_multiplicity_preserved(self):
        ival = CircleInterval(F(9, 10), F(13, 10))
        m = CircleModule((ival, ival))
        assert diagram_of(m).points == (
            QuotientPoint(F(9, 10), F(13, 10)),
            QuotientPoint(F(9, 10), F(13, 10)),
        )

    def test_canonicalized_on_the_way_in(self):
        m = CircleModule((CircleInterval(F(12, 10), F(15, 10)),))
        assert diagram_of(m).points == (QuotientPoint(F(2, 10), F(5, 10)),)

    def test_translate_invariance(self):
        rng = random.Random(11)
        for _ in range(50):
            lo = F(rng.randint(0, 19), 20)
            length = F(rng.randint(0, 30), 20)
            kinds = (CLOSED, CLOSED) if length == 0 else (CLOSED, OPEN)
            base = CircleModule((CircleInterval(lo, lo + length, *kinds),))
            shifted = CircleModule((CircleInterval(lo + 1, lo + length + 1, *kinds),))
            assert diagram_of(base) == diagram_of(shifted)

    def test_line_diagram_examples(self):
        ray = LineModule((LineInterval(NEG_INF, F(3), OPEN, CLOSED),))
        point = diagram_of_line(ray).points[0]
        assert point.a == NEG_INF and point.b == F(3)

        doubled = LineModule((LineInterval(F(1), F(2)), LineInterval(F(1), F(2))))
        assert len(diagram_of_line(doubled).points) == 2

        translates = LineModule(
            tuple(LineInterval(F(2, 10) + k, F(5, 10) + k) for k in (-1, 0, 1))
        )
        coords = [(p.a, p.b) for p in diagram_of_line(translates).points]
        assert coords == [
            (F(-8, 10), F(-5, 10)),
            (F(2, 10), F(5, 10)),
            (F(12, 10), F(15, 10)),
        ]


@st.composite
def end_pairs(draw, infinite: bool):
    """(lo, hi) pairs with lo <= hi, drawn from a pool of a few values so
    endpoints repeat: mixed denominators, some 2^-70 apart (the same int part
    of the order key), and +-inf when *infinite*."""
    base = draw(st.fractions(min_value=-2, max_value=2, max_denominator=60))
    values = st.one_of(
        st.fractions(min_value=-2, max_value=2, max_denominator=1000),
        st.builds(lambda k: base + F(k, 2**70), st.integers(-2, 2)),
        *([st.sampled_from([NEG_INF, INF])] if infinite else []),
    )
    pool = st.sampled_from(draw(st.lists(values, min_size=1, max_size=5)))
    pairs = map(sorted, draw(st.lists(st.tuples(pool, pool), max_size=12)))
    # a point cannot sit at one infinity
    return [(lo, hi) for lo, hi in pairs if lo != hi or isinstance(lo, Fraction)]


@st.composite
def interval_rows(draw, infinite: bool):
    """(lo, hi, lo_kind, hi_kind): random kinds, open at infinity, closed at a singleton."""
    kinds = st.sampled_from([OPEN, CLOSED])
    return [
        (lo, hi, CLOSED, CLOSED) if lo == hi else
        (lo, hi, *(draw(kinds) if isinstance(x, Fraction) else OPEN for x in (lo, hi)))
        for lo, hi in draw(end_pairs(infinite))
    ]


class TestOrderAgainstTheFrozenKeys:
    """Modules and diagrams hold their entries in the order, stable among
    equals, that sorting by the `Fraction` keys gives."""

    @staticmethod
    def assert_same_order(held, given_order, frozen_key):
        expected = sorted(given_order, key=frozen_key)
        assert len(held) == len(expected)
        assert all(x is y for x, y in zip(held, expected))

    @given(rows=interval_rows(infinite=True))
    @settings(max_examples=200, deadline=None)
    def test_line_modules(self, rows):
        intervals = [LineInterval(*row) for row in rows]
        self.assert_same_order(LineModule(tuple(intervals)).intervals, intervals, frozen_interval_key)

    @given(rows=interval_rows(infinite=False))
    @settings(max_examples=200, deadline=None)
    def test_circle_modules(self, rows):
        intervals = [CircleInterval(*row) for row in rows]
        self.assert_same_order(CircleModule(tuple(intervals)).intervals, intervals, frozen_interval_key)

    @given(pairs=end_pairs(infinite=True))
    @settings(max_examples=200, deadline=None)
    def test_plane_diagrams(self, pairs):
        points = [PlanePoint(a, b) for a, b in pairs]
        self.assert_same_order(Diagram(tuple(points)).points, points, frozen_point_key)

    @given(pairs=end_pairs(infinite=False))
    @settings(max_examples=200, deadline=None)
    def test_quotient_diagrams(self, pairs):
        points = [QuotientPoint(a, b) for a, b in pairs]
        self.assert_same_order(QuotientDiagram(tuple(points)).points, points, frozen_point_key)

    def test_values_closer_than_the_int_part_of_the_key(self):
        third, tiny = F(1, 3), F(1, 2**70)
        coords = [(third + tiny, INF), (third, third + tiny), (third - tiny, third), (NEG_INF, third), (third, third)]
        diagram = Diagram(tuple(PlanePoint(a, b) for a, b in coords))
        assert [(p.a, p.b) for p in diagram.points] == [coords[i] for i in (3, 2, 4, 1, 0)]


class TestTranslateBasis:
    def test_labels_are_ordered_and_consistent(self):
        m = CircleModule(
            (CircleInterval(F(0), F(5, 4), CLOSED, OPEN), CircleInterval(F(1, 4), F(3, 4), CLOSED, OPEN))
        )
        labels = translate_basis(m, F(1, 4))
        assert labels == sorted(labels)
        assert labels == [(0, 0), (1, 0)]  # 5/4 is the first interval's open end
