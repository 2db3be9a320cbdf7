import random

from hypothesis import example, given
from hypothesis import strategies as st

from circlepers.gf2 import Matrix, echelon, lex_min_solution, nullspace, remainder, rref
from oracles import frozen_rref


def picked_xor(rows, x: int) -> int:
    acc = 0
    for k, row in enumerate(rows):
        if x >> k & 1:
            acc ^= row
    return acc


def first_pick(rows, b: int) -> int | None:
    """The first x of an ascending enumeration whose picked rows XOR to b."""
    for x in range(1 << len(rows)):
        if picked_xor(rows, x) == b:
            return x
    return None


def random_case(rng: random.Random) -> tuple[Matrix, int]:
    """0-8 rows of 0-12 columns; some rows repeat sums of earlier ones, and
    the target is a pick of the rows or, a third of the time, anything."""
    cols = rng.randint(0, 12)
    rows = []
    for _ in range(rng.randint(0, 8)):
        if rows and rng.random() < 0.3:
            rows.append(picked_xor(rows, rng.getrandbits(len(rows))))
        else:
            rows.append(rng.getrandbits(cols))
    if rng.random() < 1 / 3:
        b = rng.getrandbits(cols)
    else:
        b = picked_xor(rows, rng.getrandbits(len(rows)))
    return Matrix(tuple(rows), cols), b


@st.composite
def systems(draw):
    """Up to 12 drawn rows of up to 100 columns, then up to 4 sums of them,
    and a target that is a sum of the rows or any vector."""
    cols = draw(st.integers(0, 100))
    vector = st.integers(0, (1 << cols) - 1)
    rows = draw(st.lists(vector, max_size=12))
    for x in draw(st.lists(st.integers(0, (1 << len(rows)) - 1), max_size=4)):
        rows.append(picked_xor(rows, x))
    if draw(st.booleans()):
        b = picked_xor(rows, draw(st.integers(0, (1 << len(rows)) - 1)))
    else:
        b = draw(vector)
    return Matrix(tuple(rows), cols), b


WIDE = Matrix((1 << 70 | 1, 1 << 64, 1 << 70 | 1 << 64 | 1, 0), 71)


class TestEchelon:
    """The echelon basis and the remainder against it, which the grid search
    reads for ranks and span tests, agree with `rref` and `lex_min_solution`."""

    @given(systems())
    @example((Matrix((), 0), 0))
    @example((Matrix((), 5), 0b100))
    @example((Matrix((0, 0, 0), 5), 0))
    @example((Matrix((0, 0, 0), 5), 0b1))
    @example((WIDE, 1 << 70 | 1 << 64 | 1))
    @example((WIDE, 1 << 70 | 1 << 64))
    def test_pivots_and_span_agree_with_the_solvers(self, system):
        a, b = system
        basis = echelon(a.rows)
        assert len(basis) == len(rref(a)[1])
        assert all(row & -row == bit for bit, row in basis.items())
        assert (remainder(basis, b) == 0) == (lex_min_solution(a, b) is not None)

    def test_remainder_keeps_what_no_pivot_clears(self):
        basis = echelon((0b0110, 0b0011))
        assert sorted(basis) == [0b0001, 0b0010]
        assert remainder(basis, 0b0101) == 0
        assert remainder(basis, 0b1000) == 0b1000
        assert remainder({}, 0b10) == 0b10
        assert remainder(basis, 0) == 0


class TestLexMinSolution:
    def test_matches_the_ascending_enumeration(self):
        rng = random.Random(2412)
        inconsistent = 0
        for case in range(4000):
            a, b = random_case(rng)
            expected = first_pick(a.rows, b)
            assert lex_min_solution(a, b) == expected, (case, a, b)
            inconsistent += expected is None
        assert inconsistent >= 400  # both answers are exercised

    def test_small_cases(self):
        empty = Matrix((), 3)
        assert lex_min_solution(empty, 0) == 0
        assert lex_min_solution(empty, 0b101) is None
        # rows 0 and 2 are equal: picking row 0 alone beats picking row 2
        a = Matrix((0b01, 0b10, 0b01), 2)
        assert lex_min_solution(a, 0b01) == 0b001
        assert lex_min_solution(a, 0b11) == 0b011
        assert lex_min_solution(a, 0) == 0
        assert lex_min_solution(Matrix((0b11,), 2), 0b01) is None


class TestElimination:
    def test_rref_and_nullspace(self):
        rng = random.Random(7)
        for _ in range(500):
            a, _ = random_case(rng)
            reduced, pivots = rref(a)
            assert reduced.shape == a.shape
            assert pivots == sorted(pivots)
            for row, col in zip(reduced.rows, pivots):
                assert row & ((1 << col + 1) - 1) == 1 << col  # pivot is the lowest bit
                assert all(other >> col & 1 == 0 for other in reduced.rows if other != row)
            assert not any(reduced.rows[len(pivots):])
            kernel = nullspace(a)
            assert len(kernel.rows) == a.cols - len(pivots)
            for vec in kernel.rows:
                assert all(bin(row & vec).count("1") % 2 == 0 for row in a.rows)

    def test_rref_matches_the_frozen_elimination(self):
        # sparse rows like the commutation systems, dense ones like the mask
        # scan's, repeated rows and sums of earlier rows; up to 60 x 90
        rng = random.Random(1913)
        for case in range(3000):
            cols = rng.randint(0, 90)
            density = rng.choice([0.03, 0.1, 0.5, 0.9])
            rows = []
            for _ in range(rng.randint(0, 60)):
                if rows and rng.random() < 0.2:
                    rows.append(picked_xor(rows, rng.getrandbits(len(rows))))
                else:
                    rows.append(sum(1 << c for c in range(cols) if rng.random() < density))
            a = Matrix(tuple(rows), cols)
            assert rref(a) == frozen_rref(a), case
