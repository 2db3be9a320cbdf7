import itertools
import math
import random
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circlepers.interleaving
from circlepers import (
    CLOSED,
    DEFAULT_BUDGET,
    OPEN,
    BudgetExceeded,
    CircleInterval,
    CircleModule,
    GridModule,
    LineInterval,
    INF,
    NEG_INF,
    bruteforce_distance,
    feasible_interleaving,
    interleaving_distance_circle,
    interval_distance_line,
    is_interleaving_pair,
    to_grid,
    translate_basis,
)
from circlepers import gf2
from circlepers.gf2 import Matrix, identity
from generators import KIND_PAIRS, random_on_grid_module
from oracles import (
    as_array,
    direct_sum,
    frozen_to_grid,
    loop_is_nilpotent,
    max_direct_sum_bound_check,
    np_bruteforce_distance,
    np_feasible_interleaving,
    np_hom_space,
    np_matmul,
    np_morphism_shapes,
    np_rank_bound_refutes,
    np_step_composite,
    scan_translate_basis,
    snapped,
)

F = Fraction


def grid_of(intervals, n=8):
    return to_grid(CircleModule(tuple(intervals)), n)


def rotated(m, c):
    return CircleModule(
        tuple(CircleInterval(i.lo + c, i.hi + c, i.lo_kind, i.hi_kind) for i in m.intervals)
    )


@st.composite
def circle_modules(draw, max_intervals=4):
    intervals = []
    for _ in range(draw(st.integers(0, max_intervals))):
        lo = draw(st.fractions(0, 1, max_denominator=24).filter(lambda f: f < 1))
        length = draw(st.fractions(0, 2, max_denominator=24))
        kinds = (CLOSED, CLOSED) if length == 0 else draw(st.sampled_from(KIND_PAIRS))
        intervals.append(CircleInterval(lo, lo + length, *kinds))
    return CircleModule(tuple(intervals))


def with_loop(rows, d):
    """Two nodes of dimension d; the step out of node 1 sets the loop map at node 0."""
    return GridModule(2, (d, d), (identity(d), Matrix(rows, d)))


# (rows of the loop map, its dimension), and for the nilpotent ones the
# number of turns whose loop maps first compose to zero
NON_NILPOTENT_LOOPS = [
    ((0b1,), 1),  # the identity
    ((0b01, 0b10), 2),
    ((0b01, 0b00), 2),  # idempotent
]
NILPOTENT_LOOPS = [
    (((0b10, 0b00), 2), 2),
    # a 3x3 Jordan block: its square is nonzero, its cube vanishes
    (((0b010, 0b100, 0b000), 3), 3),
]
EMPTY_LOOP = GridModule(2, (0, 0), (Matrix((), 0), Matrix((), 0)))


@pytest.fixture
def lex_min_calls(monkeypatch):
    """The grid search's `gf2`, with its `lex_min_solution` calls counted in `.calls`."""

    class Counting:
        calls = 0

        def __getattr__(self, name):
            return getattr(gf2, name)

        def lex_min_solution(self, a, b):
            self.calls += 1
            return gf2.lex_min_solution(a, b)

    counting = Counting()
    monkeypatch.setattr(circlepers.interleaving, "gf2", counting)
    return counting


def counted(monkeypatch, name):
    """The grid search's function *name*, with its calls counted in `.calls`."""
    function = getattr(circlepers.interleaving, name)

    class Counting:
        calls = 0

        def __call__(self, *args):
            self.calls += 1
            return function(*args)

    counting = Counting()
    monkeypatch.setattr(circlepers.interleaving, name, counting)
    return counting


@pytest.fixture
def hom_space_calls(monkeypatch):
    return counted(monkeypatch, "_hom_space")


@pytest.fixture
def first_pair_calls(monkeypatch):
    return counted(monkeypatch, "_first_pair")


def assert_same_witnesses(result, forward, backward):
    """Both witnesses of *result* equal the numpy oracle's maps, node by node."""
    assert [m.tolist() for m in result.forward.maps] == [m.tolist() for m in forward]
    assert [m.tolist() for m in result.backward.maps] == [m.tolist() for m in backward]


def assert_same_answer(result, expected, context):
    """*result* has the flag of the oracle's *expected* triple and, when
    feasible, its witnesses; returns the flag."""
    flag, forward, backward = expected
    assert result.feasible == flag, context
    if flag:
        assert_same_witnesses(result, forward, backward)
    return flag


def vanishes_after(g, count):
    """Whether every *count*-step composite of g is zero, by the numpy oracle."""
    steps = [as_array(m) for m in g.steps]
    return not any(np_step_composite(steps, g.dims, j, count).any() for j in range(g.resolution))


class TestToGrid:
    def test_half_open_interval_dims(self):
        g = grid_of([CircleInterval(F(0), F(1, 2), CLOSED, OPEN)], 4)
        assert g.dims == (1, 1, 0, 0)

    def test_empty_module(self):
        g = grid_of([], 4)
        assert g.dims == (0, 0, 0, 0)

    def test_winding_interval_dims(self):
        g = grid_of([CircleInterval(F(0), F(5, 4), CLOSED, OPEN)], 4)
        assert g.dims == (2, 1, 1, 1)
        assert loop_is_nilpotent(g)

    def test_rejects_off_grid_endpoints(self):
        with pytest.raises(ValueError, match="^interval endpoint 1/3 is not a multiple of 1/4$"):
            grid_of([CircleInterval(F(1, 3), F(2, 3))], 4)
        # the value in its data-file form, and a long one clipped
        with pytest.raises(ValueError, match="^interval endpoint 0.2 is not a multiple of 1/4$"):
            grid_of([CircleInterval(F(1, 5), F(1, 2))], 4)
        clipped = r"1/51537752073201133103646112976562127270\.\.\. \(50 characters\)"
        with pytest.raises(ValueError, match=f"^interval endpoint {clipped} is not a multiple of 1/4$"):
            grid_of([CircleInterval(F(1, 3**100), F(1, 2))], 4)

    def test_matches_the_frozen_sampler(self):
        # every grid from 2 up, grid 2 included: its steps cross an arc of 1/2
        rng = random.Random(2412)
        for n in range(2, 17):
            for trial in range(150):
                intervals = []
                for _ in range(rng.randint(0, 4)):
                    start = rng.randint(-2 * n, 2 * n)
                    # 0 is a singleton; n is exactly one turn
                    length = rng.choice([0, n, rng.randint(1, 2 * n + 1)])
                    kinds = (CLOSED, CLOSED) if length == 0 else rng.choice(KIND_PAIRS)
                    intervals.append(CircleInterval(F(start, n), F(start + length, n), *kinds))
                m = CircleModule(tuple(intervals))
                g, frozen = to_grid(m, n), frozen_to_grid(m, n)
                assert g.dims == frozen.dims, (n, trial)
                assert [step.rows for step in g.steps] == [step.rows for step in frozen.steps], (n, trial)
                assert [step.cols for step in g.steps] == [step.cols for step in frozen.steps], (n, trial)

    def test_loop_is_nilpotent_on_hand_built_loops(self):
        for loop in NON_NILPOTENT_LOOPS:
            assert not loop_is_nilpotent(with_loop(*loop))
        for loop, _ in NILPOTENT_LOOPS:
            assert loop_is_nilpotent(with_loop(*loop))
        assert loop_is_nilpotent(EMPTY_LOOP)

    def test_loop_map_nilpotent_on_randoms(self):
        rng = random.Random(43)
        for _ in range(60):
            g = to_grid(random_on_grid_module(rng, 8, random_kinds=True), 8)
            assert loop_is_nilpotent(g)


def assert_operator_holds_the_steps(g):
    n = g.resolution
    assert g.offsets == tuple([sum(g.dims[:j]) for j in range(n + 1)])
    assert g.operator.shape == (g.offsets[n], g.offsets[n])
    for j in range(n):
        t = (j + 1) % n
        below = (1 << g.offsets[j]) - 1
        for r, step_row in enumerate(g.steps[j].rows):
            row = g.operator.rows[g.offsets[t] + r]
            assert row >> g.offsets[j] == step_row and not row & below, (j, r)


class TestGridModule:
    @staticmethod
    def _dense_random(rng):
        n = rng.randint(2, 7)
        dims = tuple([rng.randint(0, 4) for _ in range(n)])
        steps = tuple([
            Matrix(tuple([rng.getrandbits(dims[j]) for _ in range(dims[(j + 1) % n])]), dims[j])
            for j in range(n)
        ])
        return GridModule(n, dims, steps)

    def test_offsets_and_operator_hold_dense_random_steps(self):
        rng = random.Random(15)
        for _ in range(200):
            assert_operator_holds_the_steps(self._dense_random(rng))

    def test_offsets_and_operator_hold_sampled_steps(self):
        rng = random.Random(16)
        for n in (2, 3, 8, 12):
            for _ in range(40):
                a = to_grid(random_on_grid_module(rng, n, 4, random_kinds=True), n)
                b = to_grid(random_on_grid_module(rng, n, 2, random_kinds=True), n)
                assert_operator_holds_the_steps(a)
                assert_operator_holds_the_steps(direct_sum(a, b))

    def test_refuses_a_row_with_bits_past_its_columns(self):
        # tolist() cannot tell this step from Matrix((1,), 1); the stray bit
        # would land in the next node's labels of the step operator
        steps = (Matrix((0b11,), 1), Matrix((0,), 1))
        assert steps[0].tolist() == Matrix((1,), 1).tolist()
        with pytest.raises(ValueError, match="^step matrix at node 0 has row 0 outside its 1 columns$"):
            GridModule(2, (1, 1), steps)
        valid = GridModule(2, (1, 1), (Matrix((1,), 1), Matrix((0,), 1)))
        assert bruteforce_distance(valid, grid_of([], 2)) == F(1, 2)

    def test_refuses_a_negative_row(self):
        with pytest.raises(ValueError, match="^step matrix at node 1 has row 0 outside its 1 columns$"):
            GridModule(2, (1, 1), (Matrix((1,), 1), Matrix((-1,), 1)))

    def test_even_power_is_twice_as_many_steps(self):
        rng = random.Random(18)
        modules = [self._dense_random(rng) for _ in range(60)]
        modules += [
            to_grid(random_on_grid_module(rng, n, 4, random_kinds=True), n)
            for n in (2, 3, 5, 8, 12) for _ in range(12)
        ]
        past_the_depth = 0
        for g in modules:
            n, offsets = g.resolution, g.offsets
            steps = [as_array(m) for m in g.steps]
            expected = identity(offsets[n])
            for s in range(offsets[n] // 2 + 2):
                power = g.even_power(s)
                assert power == expected, s
                # each block sends node j to node j + 2s and equals the 2s-step composite there
                for j in range(n):
                    t = (j + 2 * s) % n
                    block = power.rows[offsets[t]:offsets[t + 1]]
                    as_block = Matrix(tuple([row >> offsets[j] & (1 << g.dims[j]) - 1 for row in block]), g.dims[j])
                    assert [row << offsets[j] for row in as_block.rows] == list(block), (s, j)
                    assert np.array_equal(as_array(as_block), np_step_composite(steps, g.dims, j, 2 * s)), (s, j)
                expected = gf2.matmul(g.operator, gf2.matmul(g.operator, expected))
            if loop_is_nilpotent(g):
                # 2s reached the total dimension, so the last power checked is zero
                assert not any(power.rows)
                past_the_depth += offsets[n] > 0
        assert past_the_depth >= 80

    def test_even_powers_survive_two_threads_building_the_same_power(self, monkeypatch):
        # both threads compute S^2 before either stores it; the cache must
        # still hold S^(2s) under key s, not a second S^2 past the first
        g = grid_of([CircleInterval(F(0), F(3))], 8)
        barrier = threading.Barrier(2, timeout=10)
        calls = itertools.count()
        matmul = gf2.matmul

        def meeting_matmul(a, b):
            if next(calls) < 2:
                barrier.wait()
            return matmul(a, b)

        monkeypatch.setattr(gf2, "matmul", meeting_matmul)
        threads = [threading.Thread(target=g.even_power, args=(1,)) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert next(calls) == 2
        monkeypatch.undo()
        expected = identity(g.offsets[-1])
        for s in range(6):
            assert g.even_power(s) == expected, s
            expected = matmul(g.operator, matmul(g.operator, expected))

    def test_even_powers_do_not_depend_on_the_call_order(self):
        rng = random.Random(19)
        for _ in range(40):
            g = to_grid(random_on_grid_module(rng, 8, 4, random_kinds=True), 8)
            fresh = GridModule(g.resolution, g.dims, g.steps)
            late, early = fresh.even_power(5), fresh.even_power(2)
            assert (early, late) == (g.even_power(2), g.even_power(5))
            assert fresh.even_power(3) == g.even_power(3)


class TestIntervalDistanceLine:
    def test_identity(self):
        ival = LineInterval(F(0), F(4), CLOSED, CLOSED)
        assert interval_distance_line(ival, ival) == 0

    def test_diagonal_beats_translation(self):
        a = LineInterval(F(0), F(2), CLOSED, CLOSED)
        b = LineInterval(F(10), F(12), CLOSED, CLOSED)
        assert interval_distance_line(a, b) == 1

    def test_nested_intervals(self):
        a = LineInterval(F(0), F(6), CLOSED, CLOSED)
        b = LineInterval(F(1), F(5), CLOSED, CLOSED)
        assert interval_distance_line(a, b) == 1

    def test_infinite_rays(self):
        a = LineInterval(NEG_INF, F(3), OPEN, CLOSED)
        b = LineInterval(NEG_INF, F(5), OPEN, CLOSED)
        assert interval_distance_line(a, b) == 2
        c = LineInterval(F(0), INF, CLOSED, OPEN)
        assert interval_distance_line(a, c) == INF


class TestFeasibleInterleaving:
    def test_identity_at_shift_zero(self):
        v = grid_of([CircleInterval(F(0), F(1, 2), CLOSED, OPEN)])
        result = feasible_interleaving(v, v, 0)
        assert result.feasible
        assert is_interleaving_pair(v, v, result.forward, result.backward)

    def test_zero_module_threshold(self):
        v = grid_of([CircleInterval(F(0), F(1, 2), CLOSED, OPEN)])
        empty = grid_of([])
        assert feasible_interleaving(v, empty, 2).feasible  # 2*eps = 1/2 kills the bar
        assert not feasible_interleaving(v, empty, 1).feasible

    def test_shifted_interval(self):
        v = grid_of([CircleInterval(F(0), F(1, 2), CLOSED, OPEN)])
        w = grid_of([CircleInterval(F(1, 8), F(5, 8), CLOSED, OPEN)])
        result = feasible_interleaving(v, w, 1)
        assert result.feasible
        assert is_interleaving_pair(v, w, result.forward, result.backward)

    def test_rejects_mismatched_resolutions(self):
        v, w = grid_of([], 4), grid_of([], 8)
        with pytest.raises(ValueError, match="^grid modules must share a resolution$"):
            feasible_interleaving(v, w, 0)
        with pytest.raises(ValueError, match="^grid modules must share a resolution$"):
            bruteforce_distance(v, w)

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            feasible_interleaving(grid_of([]), grid_of([]), -1)

    def test_budget_rejection(self):
        ival = CircleInterval(F(0), F(1, 2), CLOSED, OPEN)
        v = grid_of([ival, ival, ival])
        with pytest.raises(BudgetExceeded):
            feasible_interleaving(v, v, 0, budget=4)

    def test_budget_never_refuses_a_shift_the_rank_bound_refutes(self):
        # v -> w and w -> v each have 3 dimensions at shift 0, so 2**6 pairs;
        # v's identity has rank 3, above w's fiber of 1, so no pair passes
        ival = CircleInterval(F(0), F(1, 2), CLOSED, OPEN)
        v, w = grid_of([ival, ival, ival]), grid_of([ival])
        assert not feasible_interleaving(v, w, 0, budget=1).feasible
        assert not feasible_interleaving(w, v, 0, budget=1).feasible
        # at shift 2 every composite of 4 steps vanishes: 2**6 pairs again, unrefuted
        with pytest.raises(BudgetExceeded):
            feasible_interleaving(v, w, 2, budget=32)
        assert feasible_interleaving(v, w, 2, budget=64).feasible

    def test_witnesses_check_out_on_randoms(self):
        rng = random.Random(99)
        for _ in range(30):
            v = to_grid(random_on_grid_module(rng, 8, 2), 8)
            w = to_grid(random_on_grid_module(rng, 8, 2), 8)
            for s in range(0, 10):
                result = feasible_interleaving(v, w, s)
                if result.feasible:
                    assert is_interleaving_pair(v, w, result.forward, result.backward)
                    break

    def test_monotone_and_symmetric_sample(self):
        rng = random.Random(123)
        for _ in range(20):
            v = to_grid(random_on_grid_module(rng, 8, 2), 8)
            w = to_grid(random_on_grid_module(rng, 8, 2), 8)
            previous = False
            for s in range(0, 12):
                feasible = feasible_interleaving(v, w, s).feasible
                assert feasible_interleaving(w, v, s).feasible == feasible
                assert not (previous and not feasible)
                previous = feasible


class TestScanShortcuts:
    def test_a_zero_hom_space_decides_by_the_two_powers(self):
        # feasible exactly when both 2s-step composites vanish; the infeasible
        # shifts include many where only one of them does
        rng = random.Random(1616)
        feasible = infeasible = one_vanishes = 0
        for trial in range(120):
            n = rng.randint(4, 12)
            v = to_grid(random_on_grid_module(rng, n, 3, random_kinds=True), n)
            w = to_grid(random_on_grid_module(rng, n, 3, random_kinds=True), n)
            for s in range(n + 2):
                if np_hom_space(v, w, s) and np_hom_space(w, v, s):
                    continue
                expected = np_feasible_interleaving(v, w, s)
                if assert_same_answer(feasible_interleaving(v, w, s), expected, (trial, s)):
                    feasible += 1
                else:
                    infeasible += 1
                    one_vanishes += vanishes_after(v, 2 * s) != vanishes_after(w, 2 * s)
        assert feasible >= 400 and infeasible >= 150 and one_vanishes >= 100, (feasible, infeasible, one_vanishes)

    def test_the_smaller_hom_space_decides_an_infeasible_shift(self, lex_min_calls):
        rng = random.Random(2020)
        checked = saved = 0
        for trial in range(150):
            v = to_grid(random_on_grid_module(rng, 8, 4), 8)
            w = to_grid(random_on_grid_module(rng, 8, 2), 8)
            for s in range(9):
                d_a, d_b = len(np_hom_space(v, w, s)), len(np_hom_space(w, v, s))
                if not 0 < d_b < d_a:
                    continue
                lex_min_calls.calls = 0
                if feasible_interleaving(v, w, s).feasible:
                    break
                assert lex_min_calls.calls <= 1 << d_b, (trial, s, d_a, d_b)
                checked += 1
                saved += (1 << d_a) - lex_min_calls.calls
        assert checked >= 40 and saved >= 300, (checked, saved)

    def test_one_scan_over_the_smaller_hom_space_settles_each_open_shift(self, first_pair_calls, lex_min_calls):
        # feasible shifts included, among them those with 0 < d_b < d_a, whose
        # witness also comes from the one scan over w -> v
        rng = random.Random(2525)
        scanned = swapped = 0
        for trial in range(60):
            v = to_grid(random_on_grid_module(rng, 8, 4), 8)
            w = to_grid(random_on_grid_module(rng, 8, 2), 8)
            for s in range(10):
                d_a, d_b = len(np_hom_space(v, w, s)), len(np_hom_space(w, v, s))
                first_pair_calls.calls = lex_min_calls.calls = 0
                feasible = feasible_interleaving(v, w, s).feasible
                assert first_pair_calls.calls == (not np_rank_bound_refutes(v, w, s)), (trial, s)
                assert lex_min_calls.calls <= 1 << min(d_a, d_b), (trial, s, d_a, d_b)
                scanned += first_pair_calls.calls
                swapped += feasible and 0 < d_b < d_a
        assert scanned >= 400 and swapped >= 45, (scanned, swapped)

    def test_swapping_the_modules_swaps_the_witnesses(self):
        # the scan runs over the smaller hom space whichever module comes
        # first, so only a tie scans two different products; random steps
        # give shifts with several passing pairs, where the first pair of a
        # product depends on which side it scans
        rng = random.Random(2626)
        compared = 0
        for trial in range(300):
            n = (4, 6, 8)[trial % 3]
            v, w = random_steps_module(rng, n, 3), random_steps_module(rng, n, 2)
            for s in range(n + 2):
                d_a, d_b = len(np_hom_space(v, w, s)), len(np_hom_space(w, v, s))
                if 1 << (d_a + d_b) > DEFAULT_BUDGET:
                    continue
                result, mirrored = feasible_interleaving(v, w, s), feasible_interleaving(w, v, s)
                assert result.feasible == mirrored.feasible, (trial, s)
                if not result.feasible or d_a == d_b:
                    continue
                assert is_interleaving_pair(v, w, result.forward, result.backward), (trial, s)
                assert is_interleaving_pair(w, v, mirrored.forward, mirrored.backward), (trial, s)
                assert result.forward.maps == mirrored.backward.maps, (trial, s)
                assert result.backward.maps == mirrored.forward.maps, (trial, s)
                compared += min(d_a, d_b) > 0
        assert compared >= 1100, compared


def random_invertible(rng, d):
    """A random invertible d x d matrix over GF(2) and its inverse, as arrays.

    Built from random row additions and swaps; each one applied to P on the
    left is applied to the inverse on the right, so P @ inverse stays I.
    """
    p = np.eye(d, dtype=np.uint8)
    inverse = np.eye(d, dtype=np.uint8)
    for _ in range(3 * d):
        i, k = rng.randrange(d), rng.randrange(d)
        if i == k:
            continue
        if rng.random() < 0.25:
            p[[i, k]] = p[[k, i]]
            inverse[:, [i, k]] = inverse[:, [k, i]]
        else:
            p[i] ^= p[k]  # row i += row k
            inverse[:, k] ^= inverse[:, i]
    assert np.array_equal(np_matmul(p, inverse), np.eye(d, dtype=np.uint8))
    return p, inverse


def as_matrix(a):
    """A uint8 array as a library matrix of the same shape."""
    return Matrix(tuple(sum(int(bit) << c for c, bit in enumerate(row)) for row in a), a.shape[1])


def conjugated(g, rng):
    """An isomorphic copy of g: a random change of basis at every node."""
    n = g.resolution
    changes = [random_invertible(rng, d) for d in g.dims]
    steps = []
    for j in range(n):
        p_next, _ = changes[(j + 1) % n]
        _, inverse = changes[j]
        steps.append(as_matrix(np_matmul(np_matmul(p_next, as_array(g.steps[j])), inverse)))
    return GridModule(n, g.dims, tuple(steps))


def random_steps_module(rng, n, max_dim):
    """A grid module with uniformly random GF(2) steps, nilpotent or not."""
    dims = tuple(rng.randint(0, max_dim) for _ in range(n))
    steps = tuple(
        Matrix(tuple(rng.randrange(1 << dims[j]) for _ in range(dims[(j + 1) % n])), dims[j])
        for j in range(n)
    )
    return GridModule(n, dims, steps)


def rank_bound_refutes(v, w, s):
    refutes = circlepers.interleaving._rank_exceeds_room
    return refutes(v, w, s) or refutes(w, v, s)


class TestRankBound:
    """The 2s-composite rank bound refutes only shifts no pair passes.

    Basis changes at every node turn the step maps of `to_grid` modules,
    which send labels to labels, into dense ones, so the ranks the bound
    reads are no longer counts of surviving labels.
    """

    def test_same_flag_and_witnesses_on_conjugated_modules_and_sums(self):
        rng = random.Random(5151)
        feasible = refuted = 0
        for trial in range(90):
            n = (4, 5, 6)[trial % 3]

            def module():
                g = to_grid(random_on_grid_module(rng, n, 2, random_kinds=True), n)
                if trial % 2:
                    g = direct_sum(g, to_grid(random_on_grid_module(rng, n, 1, random_kinds=True), n))
                return conjugated(g, rng)

            v, w = module(), module()
            for s in range(n + 2):
                expected = np_feasible_interleaving(v, w, s)
                if assert_same_answer(feasible_interleaving(v, w, s), expected, (trial, s)):
                    feasible += 1
                    assert not rank_bound_refutes(v, w, s), (trial, s)
                else:
                    refuted += rank_bound_refutes(v, w, s)
        assert feasible >= 400 and refuted >= 140, (feasible, refuted)

    def test_settles_infeasible_shifts_with_two_nonzero_hom_spaces_without_a_scan(self, lex_min_calls):
        rng = random.Random(3131)
        unscanned = 0
        for trial in range(60):
            v = to_grid(random_on_grid_module(rng, 8, 3), 8)
            w = to_grid(random_on_grid_module(rng, 8, 3), 8)
            for order in ((v, w), (w, v)):
                for s in range(9):
                    if not (np_hom_space(*order, s) and np_hom_space(*order[::-1], s)):
                        continue
                    lex_min_calls.calls = 0
                    if feasible_interleaving(*order, s).feasible:
                        break
                    unscanned += lex_min_calls.calls == 0
        assert unscanned >= 70, unscanned

    def test_equals_the_numpy_rank_bound(self):
        # the bound decides which shifts the budget may refuse, so its value is
        # pinned exactly, on step operators nilpotent or not
        loops = [with_loop(*loop) for loop in NON_NILPOTENT_LOOPS]
        loops += [with_loop(*loop) for loop, _ in NILPOTENT_LOOPS] + [EMPTY_LOOP]
        pairs = list(itertools.product(loops, repeat=2))
        rng = random.Random(6262)
        for trial in range(160):
            n = (2, 3, 4, 6, 8)[trial // 4 % 5]

            def module():
                if trial % 4 == 3:
                    return random_steps_module(rng, n, 3)
                g = to_grid(random_on_grid_module(rng, n, 3, random_kinds=True), n)
                if trial % 4 == 2:
                    g = direct_sum(g, to_grid(random_on_grid_module(rng, n, 1, random_kinds=True), n))
                return conjugated(g, rng) if trial % 4 else g

            pairs.append((module(), module()))
        refuted = open_shifts = non_nilpotent = 0
        for v, w in pairs:
            non_nilpotent += (not loop_is_nilpotent(v)) + (not loop_is_nilpotent(w))
            for s in range(2 * v.resolution + 1):
                expected = np_rank_bound_refutes(v, w, s)
                assert rank_bound_refutes(v, w, s) == expected, (v, w, s)
                refuted += expected
                open_shifts += not expected
        assert refuted >= 330 and open_shifts >= 1300 and non_nilpotent >= 40, (refuted, open_shifts, non_nilpotent)


class TestHomBound:
    """The budget bounds the hom spaces a scan spans, and nothing else.

    A shift the rank bound refutes is settled before either hom space is
    solved, so no budget refuses it; any other shift is refused exactly
    when its candidate product 2**(d_a + d_b) exceeds the budget.
    """

    def test_refutes_first_and_refuses_only_a_scan_over_the_budget(self, hom_space_calls):
        rng = random.Random(4242)
        budgets = [1 << k for k in range(21)]
        refuted = refused = 0
        for trial in range(90):
            n = (4, 6, 8)[trial % 3]
            v = to_grid(random_on_grid_module(rng, n, 3, random_kinds=True), n)
            w = to_grid(random_on_grid_module(rng, n, 3, random_kinds=True), n)
            for s in range(n + 2):
                if np_rank_bound_refutes(v, w, s):
                    refuted += 1
                    for budget in budgets:
                        hom_space_calls.calls = 0
                        assert not feasible_interleaving(v, w, s, budget).feasible, (trial, s, budget)
                        assert hom_space_calls.calls == 0, (trial, s, budget)
                    continue
                d = len(np_hom_space(v, w, s)) + len(np_hom_space(w, v, s))
                expected = np_feasible_interleaving(v, w, s)
                for budget in budgets:
                    if 1 << d > budget:
                        refused += 1
                        with pytest.raises(BudgetExceeded):
                            feasible_interleaving(v, w, s, budget)
                        continue
                    assert_same_answer(feasible_interleaving(v, w, s, budget), expected, (trial, s, budget))
                if expected[0]:
                    break
            for budget in budgets:
                expected = np_bruteforce_distance(v, w, budget)
                if expected is None:
                    with pytest.raises(BudgetExceeded):
                        bruteforce_distance(v, w, budget)
                else:
                    assert bruteforce_distance(v, w, budget) == expected, (trial, budget)
        assert refuted >= 170 and refused >= 230, (refuted, refused)

    def test_settles_infeasible_shifts_with_no_hom_space_solve(self, hom_space_calls):
        rng = random.Random(3131)
        infeasible = unsolved = 0
        for trial in range(60):
            v = to_grid(random_on_grid_module(rng, 8, 3), 8)
            w = to_grid(random_on_grid_module(rng, 8, 3), 8)
            for s in range(9):
                hom_space_calls.calls = 0
                if feasible_interleaving(v, w, s).feasible:
                    break
                infeasible += 1
                unsolved += hom_space_calls.calls == 0
        assert unsolved >= 130, (unsolved, infeasible)


class TestAgainstLiteralProductScan:
    """Reference implementation of the candidate-product scan.

    Enumerates both filtered candidate spaces explicitly in ascending bitmask
    order, the smaller one outermost (v -> w on a tie), and tests the
    triangle identities pair by pair, in numpy arithmetic on the library's
    matrices read through `tolist()`; the library's collapsed search must
    return exactly the same first witness.  The
    candidate bases and their shapes come from the frozen numpy hom-space
    solve in `oracles`, so nothing here runs the kernel it checks.
    """

    @staticmethod
    def _candidates(basis, shapes, n):
        total = 1 << len(basis)
        for mask in range(total):
            mats = [np.zeros(shape, dtype=np.uint8) for shape in shapes]
            for k in range(len(basis)):
                if mask >> k & 1:
                    for j in range(n):
                        mats[j] ^= basis[k][j]
            yield mats

    def _product_scan(self, v, w, s):
        """The first passing pair, the w -> v candidates outermost when they
        span the smaller space, as the library scans."""
        basis_a = np_hom_space(v, w, s)
        basis_b = np_hom_space(w, v, s)
        if len(basis_b) < len(basis_a):
            feasible, beta, alpha = self._first_pair(w, v, s, basis_b, basis_a)
            return feasible, alpha, beta
        return self._first_pair(v, w, s, basis_a, basis_b)

    def _first_pair(self, v, w, s, basis_a, basis_b):
        n = v.resolution
        v_steps = [as_array(m) for m in v.steps]
        w_steps = [as_array(m) for m in w.steps]
        target_v = [np_step_composite(v_steps, v.dims, j, 2 * s) for j in range(n)]
        target_w = [np_step_composite(w_steps, w.dims, j, 2 * s) for j in range(n)]
        for alpha in self._candidates(basis_a, np_morphism_shapes(v, w, s), n):
            for beta in self._candidates(basis_b, np_morphism_shapes(w, v, s), n):
                if all(
                    np.array_equal(np_matmul(beta[(j + s) % n], alpha[j]), target_v[j])
                    and np.array_equal(np_matmul(alpha[(j + s) % n], beta[j]), target_w[j])
                    for j in range(n)
                ):
                    return True, alpha, beta
        return False, None, None

    def test_same_answer_and_same_first_witness(self):
        rng = random.Random(4242)
        checked = swapped = 0
        for _ in range(60):
            v = to_grid(random_on_grid_module(rng, 4, 2), 4)
            w = to_grid(random_on_grid_module(rng, 4, 2), 4)
            for s in range(6):
                feasible, alpha, beta = self._product_scan(v, w, s)
                result = feasible_interleaving(v, w, s)
                assert result.feasible == feasible
                if feasible:
                    checked += 1
                    assert all(np.array_equal(as_array(a), b) for a, b in zip(result.forward.maps, alpha))
                    assert all(np.array_equal(as_array(a), b) for a, b in zip(result.backward.maps, beta))
                    swapped += 0 < len(np_hom_space(w, v, s)) < len(np_hom_space(v, w, s))
        # the comparison actually exercised witnesses, swapped ones included
        assert checked >= 10 and swapped >= 10, (checked, swapped)


class TestAgainstFrozenNumpyKernel:
    """The bitset kernel against the numpy kernel it replaced (`oracles`).

    Random endpoint kinds at every shift from 0 to N+1, so both feasible and
    infeasible scans are compared in full: grids 4, 6 and 8 with up to two
    intervals, and the benchmark's own regime, grid 12 with up to three.
    """

    def test_same_flag_and_same_witnesses(self):
        rng = random.Random(1789)
        # (grids, most intervals per module, trials, least feasible shifts)
        for grids, max_intervals, trials, least_feasible in (((4, 6, 8), 2, 300, 1000), ((12,), 3, 40, 200)):
            feasible = 0
            for trial in range(trials):
                n = grids[trial % len(grids)]
                mv = random_on_grid_module(rng, n, max_intervals, random_kinds=True)
                mw = random_on_grid_module(rng, n, max_intervals, random_kinds=True)
                v, w = to_grid(mv, n), to_grid(mw, n)
                for s in range(n + 2):
                    expected = np_feasible_interleaving(v, w, s)
                    feasible += assert_same_answer(feasible_interleaving(v, w, s), expected, (n, trial, s))
            assert feasible >= least_feasible, grids  # most comparisons include witnesses

    def test_translate_basis_matches_the_translate_scan(self):
        rng = random.Random(1789)
        for trial in range(300):
            n = (4, 6, 8)[trial % 3]
            m = random_on_grid_module(rng, n, 3, random_kinds=True)
            for j in range(-n, 2 * n):
                x = F(j, n)
                assert translate_basis(m, x) == scan_translate_basis(m, x), (trial, x)


class TestBruteforceDistance:
    def test_identical_modules(self):
        v = grid_of([CircleInterval(F(0), F(1, 2), CLOSED, OPEN)])
        assert bruteforce_distance(v, v) == 0

    def test_against_empty(self):
        v = grid_of([CircleInterval(F(0), F(1, 2), CLOSED, OPEN)])
        assert bruteforce_distance(v, grid_of([])) == F(1, 4)

    def test_shifted_interval_distance(self):
        v = grid_of([CircleInterval(F(0), F(1, 2), CLOSED, OPEN)])
        w = grid_of([CircleInterval(F(1, 8), F(5, 8), CLOSED, OPEN)])
        assert bruteforce_distance(v, w) == F(1, 8)

    def test_single_interval_upper_bound_from_class_distance(self):
        # distance between single-interval grid modules never beats the class
        # distance of their diagram points by more than one grid step
        from circlepers import diagram_of, quotient_linf

        rng = random.Random(314)
        for _ in range(40):
            lo_a = F(rng.randrange(8), 8)
            lo_b = F(rng.randrange(8), 8)
            ival_a = CircleInterval(lo_a, lo_a + F(rng.randint(1, 8), 8), CLOSED, OPEN)
            ival_b = CircleInterval(lo_b, lo_b + F(rng.randint(1, 8), 8), CLOSED, OPEN)
            ma = CircleModule((ival_a,))
            mb = CircleModule((ival_b,))
            class_gap = quotient_linf(diagram_of(ma).points[0], diagram_of(mb).points[0])
            assert bruteforce_distance(to_grid(ma, 8), to_grid(mb, 8)) <= class_gap + F(1, 8)

    def test_winding_intervals_match_the_diagram_route(self):
        # intervals longer than the circumference wind around the circle;
        # the two routes must still agree within one grid step
        rng = random.Random(5150)
        for _ in range(25):
            modules = []
            for _ in range(2):
                intervals = []
                for _ in range(rng.randint(0, 2)):
                    lo = F(rng.randrange(8), 8)
                    intervals.append(
                        CircleInterval(lo, lo + F(rng.randint(1, 16), 8), CLOSED, OPEN)
                    )
                modules.append(CircleModule(tuple(intervals)))
            mv, mw = modules
            circle_value = interleaving_distance_circle(mv, mw)
            grid_value = bruteforce_distance(to_grid(mv, 8), to_grid(mw, 8))
            assert abs(grid_value - circle_value) <= F(1, 8)

    def test_matches_diagram_route_within_resolution(self):
        rng = random.Random(2025)
        for _ in range(40):
            mv = random_on_grid_module(rng, 8)
            mw = random_on_grid_module(rng, 8)
            grid_value = bruteforce_distance(to_grid(mv, 8), to_grid(mw, 8))
            circle_value = interleaving_distance_circle(mv, mw)
            assert abs(grid_value - circle_value) <= F(1, 8)
            # the grid may overshoot by at most one step, never undercut more
            assert grid_value >= circle_value - F(1, 8)


    def test_grid_distance_is_the_diagram_distance_rounded_up(self):
        # on the verify-isometry generator (closed-open intervals on the 1/N
        # grid) the search lands exactly on the first grid step at or above
        # the diagram distance, which is sharper than the 1/N bound
        from circlepers.cli import random_circle_module

        rng = random.Random(8128)
        for trial in range(300):
            n = (4, 6, 8, 12)[trial % 4]
            mv = random_circle_module(rng, n)
            mw = random_circle_module(rng, n)
            circle_value = interleaving_distance_circle(mv, mw)
            grid_value = bruteforce_distance(to_grid(mv, n), to_grid(mw, n))
            assert grid_value == F(math.ceil(n * circle_value), n), (trial, n)
            assert abs(grid_value - circle_value) <= F(1, n)

    def test_grid_distance_is_the_snapped_distance_rounded_up(self):
        # every endpoint kind: an open lo or a closed hi moves the sampled
        # positions by one step, so the rule holds for the distance d' of the
        # closed-open snaps; the raw distance misses it in about a quarter of
        # these trials
        rng = random.Random(3)
        decided = 0
        for trial in range(460):
            n = (6, 8, 12, 16)[trial % 4]
            mv = random_on_grid_module(rng, n, random_kinds=True)
            mw = random_on_grid_module(rng, n, random_kinds=True)
            try:
                grid_value = bruteforce_distance(to_grid(mv, n), to_grid(mw, n))
            except BudgetExceeded:
                continue
            decided += 1
            snapped_value = interleaving_distance_circle(snapped(mv, n), snapped(mw, n))
            assert grid_value == F(math.ceil(n * snapped_value), n), (trial, n, mv, mw)
        assert decided >= 440, decided

    def test_a_module_whose_step_operator_is_not_nilpotent_is_named(self):
        for loop in NON_NILPOTENT_LOOPS:
            g = with_loop(*loop)
            with pytest.raises(ValueError, match="^the step operator of v is not nilpotent$"):
                bruteforce_distance(g, EMPTY_LOOP)
            with pytest.raises(ValueError, match="^the step operator of w is not nilpotent$"):
                bruteforce_distance(EMPTY_LOOP, g)
            assert bruteforce_distance(g, g) == 0
        for loop, turns in NILPOTENT_LOOPS:
            g = with_loop(*loop)
            # against zero, the first s whose 2s-step composites all vanish
            assert bruteforce_distance(g, EMPTY_LOOP) == F(turns, 2)
            assert bruteforce_distance(EMPTY_LOOP, g) == F(turns, 2)

    def test_refuses_exactly_when_a_shift_up_to_the_first_feasible_passes_the_budget(self):
        # small budgets make refusals common; the oracle counts the hom-space
        # dimensions with the frozen numpy solve, shift by shift
        rng = random.Random(6174)
        refused = answered = 0
        for trial in range(150):
            n = (4, 6, 8)[trial % 3]
            v = to_grid(random_on_grid_module(rng, n, 3, random_kinds=True), n)
            w = to_grid(random_on_grid_module(rng, n, 3, random_kinds=True), n)
            budget = rng.choice([1, 2, 4, 8, 16, 64, 256])
            expected = np_bruteforce_distance(v, w, budget)
            if expected is None:
                refused += 1
                with pytest.raises(BudgetExceeded):
                    bruteforce_distance(v, w, budget)
            else:
                answered += 1
                assert bruteforce_distance(v, w, budget) == expected, (trial, budget)
        assert refused >= 30 and answered >= 30, (refused, answered)


class TestRotationInvariance:
    def test_rotating_both_modules_keeps_both_distances(self):
        # a rotation by k/N moves intervals across the seam at 0, where
        # to_grid bumps the translate index, so the grid search sees new data
        rng = random.Random(2412)
        for trial in range(300):
            n = (4, 6, 8)[trial % 3]
            mv = random_on_grid_module(rng, n, random_kinds=True)
            mw = random_on_grid_module(rng, n, random_kinds=True)
            c = F(rng.randrange(1, n), n)
            rv, rw = rotated(mv, c), rotated(mw, c)
            assert interleaving_distance_circle(rv, rw) == interleaving_distance_circle(mv, mw)
            grid_value = bruteforce_distance(to_grid(mv, n), to_grid(mw, n))
            assert bruteforce_distance(to_grid(rv, n), to_grid(rw, n)) == grid_value, (trial, c)

    @given(mv=circle_modules(), mw=circle_modules(), c=st.fractions(-3, 3, max_denominator=60))
    @settings(max_examples=80, deadline=None)
    def test_rotation_by_any_rational_keeps_the_diagram_distance(self, mv, mw, c):
        # c need not sit on any grid the endpoints share
        assert interleaving_distance_circle(rotated(mv, c), rotated(mw, c)) == interleaving_distance_circle(mv, mw)


class TestWindowGridAgainstClosedForm:
    def test_line_intervals_on_a_window_grid(self):
        # embed a 16-unit window in the circle; everything stays in half the
        # fundamental domain, so no quotient shortcut can interfere
        rng = random.Random(7)
        for _ in range(30):
            p = rng.randint(0, 6)
            q = rng.randint(p + 1, 7)
            r = rng.randint(0, 6)
            s = rng.randint(r + 1, 7)
            kinds_a = rng.choice([(CLOSED, CLOSED), (CLOSED, OPEN), (OPEN, CLOSED), (OPEN, OPEN)])
            kinds_b = rng.choice([(CLOSED, CLOSED), (CLOSED, OPEN), (OPEN, CLOSED), (OPEN, OPEN)])
            closed_form = interval_distance_line(
                LineInterval(p, q, *kinds_a), LineInterval(r, s, *kinds_b)
            )
            gi = grid_of([CircleInterval(F(p, 16), F(q, 16), *kinds_a)], 16)
            gj = grid_of([CircleInterval(F(r, 16), F(s, 16), *kinds_b)], 16)
            grid_units = bruteforce_distance(gi, gj) * 16
            assert abs(grid_units - closed_form) <= 1


class TestDirectSum:
    def test_equal_summands(self):
        v = grid_of([CircleInterval(F(0), F(1, 2), CLOSED, OPEN)])
        assert max_direct_sum_bound_check(v, v, v, v)

    def test_duplicated_shift_example(self):
        v = grid_of([CircleInterval(F(0), F(1, 2), CLOSED, OPEN)])
        w = grid_of([CircleInterval(F(1, 8), F(5, 8), CLOSED, OPEN)])
        assert max_direct_sum_bound_check(v, w, v, w)
        assert bruteforce_distance(direct_sum(v, v), direct_sum(w, w)) == F(1, 8)

    def test_empty_second_summand(self):
        v = grid_of([CircleInterval(F(0), F(1, 2), CLOSED, OPEN)])
        w = grid_of([CircleInterval(F(1, 8), F(5, 8), CLOSED, OPEN)])
        empty = grid_of([])
        assert max_direct_sum_bound_check(v, w, empty, empty)
        assert bruteforce_distance(direct_sum(v, empty), direct_sum(w, empty)) == bruteforce_distance(v, w)

    def test_direct_sum_shapes_and_nilpotency(self):
        rng = random.Random(3)
        for _ in range(20):
            a = to_grid(random_on_grid_module(rng, 8, 2), 8)
            b = to_grid(random_on_grid_module(rng, 8, 2), 8)
            s = direct_sum(a, b)
            assert s.dims == tuple(x + y for x, y in zip(a.dims, b.dims))
            assert loop_is_nilpotent(s)
