"""Independent reference computations the library is checked against.

Most of it works by definition-level enumeration: all partial matchings,
all integer translates in a window, and so on.  The rest are kernels frozen
as they were before a faster one replaced them: the numpy grid search, the
`Fraction` grid sampler, the `Fraction` bottleneck search, the integer
kernel's threshold bisection, the number reader and writer, the `Fraction`
sort keys, the orbit cost on plane representatives, the `Fraction`
canonical classes, quotient matching cost and lift shifts, and the
`Counter` diagram writer.  None of it shares code with the algorithmic
paths it is used to verify.  Three grid tools live here too, because only
tests build with them: the blockwise direct sum, the loop-nilpotency check
and the closed-open snap of a module's intervals.
"""

from __future__ import annotations

import bisect
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from circlepers import (
    CLOSED,
    OPEN,
    CircleInterval,
    GridModule,
    LineInterval,
    bruteforce_distance,
    step_composite,
)
from circlepers.gf2 import Matrix
from circlepers.interleaving import DEFAULT_BUDGET
from circlepers.metric_plane import PartialMatching, PlanePoint
from circlepers.metric_quotient import QuotientPoint
from circlepers.rationals import INF, NEG_INF, Ext, format_number, is_finite, quoted


def enumerate_bottleneck(pair_costs, diag_a, diag_b) -> Ext:
    """Minimum bottleneck cost over every partial matching, by enumeration."""
    n_a, n_b = len(diag_a), len(diag_b)
    best = None
    for k in range(min(n_a, n_b) + 1):
        for rows in combinations(range(n_a), k):
            for cols in permutations(range(n_b), k):
                cost: Ext = Fraction(0)
                for i, j in zip(rows, cols):
                    cost = max(cost, pair_costs[i][j])
                used_a = set(rows)
                used_b = set(cols)
                for i in range(n_a):
                    if i not in used_a:
                        cost = max(cost, diag_a[i])
                for j in range(n_b):
                    if j not in used_b:
                        cost = max(cost, diag_b[j])
                if best is None or cost < best:
                    best = cost
    assert best is not None
    return best


def window_quotient_linf(p: QuotientPoint, q: QuotientPoint) -> Fraction:
    """Quotient distance by enumerating shifts |k| <= ceil(max(|u|,|v|)) + 1.

    The window provably contains the optimum: the real minimiser -(u+v)/2 has
    absolute value at most max(|u|,|v|).
    """
    u = p.a - q.a
    v = p.b - q.b
    spread = math.ceil(max(abs(u), abs(v))) + 1
    return min(max(abs(u + k), abs(v + k)) for k in range(-spread, spread + 1))


def count_translates(interval: CircleInterval, x: Fraction, pad: int = 2) -> int:
    """Number of integer translates of x inside the interval, by direct scan.

    Membership is re-derived from the endpoint kinds here rather than through
    the interval's own predicate.
    """
    lo, hi = interval.lo, interval.hi
    k_min = math.floor(lo - x) - pad
    k_max = math.ceil(hi - x) + pad
    count = 0
    for k in range(k_min, k_max + 1):
        z = x + k
        if lo < z < hi:
            count += 1
        elif z == lo and lo == hi:
            count += 1  # singleton, necessarily closed-closed
        elif z == lo and interval.lo_kind is CLOSED and lo != hi:
            count += 1
        elif z == hi and interval.hi_kind is CLOSED and lo != hi:
            count += 1
    return count


def snapped(m, n: int):
    """*m* with each interval |lo, hi| replaced by [lo + o/N, hi + c/N), where
    o = 1 if lo is open and c = 1 if hi is closed, and those this makes empty
    dropped.  Works on line and circle modules alike.

    At grid N an on-grid interval holds the same sample positions as its
    snap.  The continuous distances ignore endpoint kinds and sampling does
    not, so the grid distance is ceil(N d')/N with d' the distance of the
    snapped modules, not of the modules themselves.
    """
    step = Fraction(1, n)
    intervals = []
    for ival in m.intervals:
        lo = ival.lo + step if ival.lo_kind is OPEN else ival.lo
        hi = ival.hi + step if ival.hi_kind is CLOSED else ival.hi
        if lo < hi:
            intervals.append(type(ival)(lo, hi, CLOSED, OPEN))
    return type(m)(tuple(intervals))


# -- the numpy grid-search kernel, frozen as the reference ---------------------
#
# This is the uint8-array implementation of `circlepers.gf2`, the per-node
# hom-space solve, `feasible_interleaving` and `translate_basis` that the
# bitset kernel replaced.  It reads grid modules only through `tolist()`, so
# it shares no arithmetic with the code it checks, and it must return the
# same flag and the same witness maps.


def as_array(m) -> np.ndarray:
    """A library matrix as a uint8 array of the same shape."""
    return np.array(m.tolist(), dtype=np.uint8).reshape(m.shape)


def np_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.uint32) @ b.astype(np.uint32) & 1).astype(np.uint8)


def np_rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    m = a.copy()
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(m[r:, c])[0]
        if hits.size == 0:
            continue
        pivot = r + int(hits[0])
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        mask = m[:, c] == 1
        mask[r] = False
        m[mask] ^= m[r]
        pivots.append(c)
        r += 1
    return m, pivots


def np_reduce_vector(reduced: np.ndarray, pivots: list[int], vec: np.ndarray) -> np.ndarray:
    out = vec.copy()
    for row, col in enumerate(pivots):
        if out[col]:
            out ^= reduced[row]
    return out


def np_nullspace(a: np.ndarray) -> np.ndarray:
    m, pivots = np_rref(a)
    cols = a.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(pivots):
            if m[r, fc]:
                basis[i, pc] = 1
    return basis


def np_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    aug = np.concatenate([a, b.reshape(-1, 1).astype(np.uint8)], axis=1)
    m, pivots = np_rref(aug)
    if a.shape[1] in pivots:
        return None
    x = np.zeros(a.shape[1], dtype=np.uint8)
    for r, pc in enumerate(pivots):
        x[pc] = m[r, -1]
    return x


def np_lex_min_solution(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Fixes the coefficients from the highest down, trying 0 first."""
    n = a.shape[1]
    rows = [a]
    rhs = [b.astype(np.uint8)]

    def consistent() -> bool:
        return np_solve(np.concatenate(rows, axis=0), np.concatenate(rhs)) is not None

    if not consistent():
        return None
    for k in range(n - 1, -1, -1):
        unit = np.zeros((1, n), dtype=np.uint8)
        unit[0, k] = 1
        rows.append(unit)
        rhs.append(np.zeros(1, dtype=np.uint8))
        if not consistent():
            rhs[-1] = np.ones(1, dtype=np.uint8)
    return np_solve(np.concatenate(rows, axis=0), np.concatenate(rhs))


def np_step_composite(steps: list[np.ndarray], dims, start: int, count: int) -> np.ndarray:
    n = len(steps)
    acc = np.eye(dims[start % n], dtype=np.uint8)
    for t in range(count):
        acc = np_matmul(steps[(start + t) % n], acc)
    return acc


def np_morphism_shapes(v, w, shift: int) -> list[tuple[int, int]]:
    """Node j of a degree-*shift* morphism v -> w maps v's fiber at j to w's at j + shift."""
    n = v.resolution
    return [(w.dims[(j + shift) % n], v.dims[j]) for j in range(n)]


def np_hom_space(v, w, shift: int) -> list[list[np.ndarray]]:
    n = v.resolution
    v_steps = [as_array(m) for m in v.steps]
    w_steps = [as_array(m) for m in w.steps]
    shapes = np_morphism_shapes(v, w, shift)
    offsets = []
    total = 0
    for rows, cols in shapes:
        offsets.append(total)
        total += rows * cols
    n_eq = sum(w.dims[(j + shift + 1) % n] * v.dims[j] for j in range(n))
    system = np.zeros((n_eq, total), dtype=np.uint8)
    eq = 0
    for j in range(n):
        j_next = (j + 1) % n
        v_step = v_steps[j]
        w_step = w_steps[(j + shift) % n]
        for r in range(w.dims[(j + shift + 1) % n]):
            for c in range(v.dims[j]):
                row = system[eq]
                for k in range(v.dims[j_next]):
                    if v_step[k, c]:
                        row[offsets[j_next] + r * v.dims[j_next] + k] ^= 1
                for k in range(w.dims[(j + shift) % n]):
                    if w_step[r, k]:
                        row[offsets[j] + k * v.dims[j] + c] ^= 1
                eq += 1
    basis = []
    for vec in np_nullspace(system):
        basis.append(
            [
                vec[off : off + rows * cols].reshape(rows, cols).copy()
                for (rows, cols), off in zip(shapes, offsets)
            ]
        )
    return basis


def np_feasible_interleaving(v, w, s: int):
    """(feasible, forward maps, backward maps) by the numpy mask scan."""
    n = v.resolution
    basis_a = np_hom_space(v, w, s)
    basis_b = np_hom_space(w, v, s)
    d_b = len(basis_b)
    v_steps = [as_array(m) for m in v.steps]
    w_steps = [as_array(m) for m in w.steps]
    target_v = [np_step_composite(v_steps, v.dims, j, 2 * s) for j in range(n)]
    target_w = [np_step_composite(w_steps, w.dims, j, 2 * s) for j in range(n)]
    alpha_shapes = np_morphism_shapes(v, w, s)
    beta_shapes = np_morphism_shapes(w, v, s)
    beta_stack = []
    for j in range(n):
        stacked = np.zeros((d_b, *beta_shapes[j]), dtype=np.uint8)
        for k in range(d_b):
            stacked[k] = basis_b[k][j]
        beta_stack.append(stacked)

    current = [np.zeros(shape, dtype=np.uint8) for shape in alpha_shapes]
    for mask in range(1 << len(basis_a)):
        if mask:
            flipped = mask ^ (mask - 1)
            k = 0
            while flipped:
                if flipped & 1:
                    for j in range(n):
                        current[j] ^= basis_a[k][j]
                flipped >>= 1
                k += 1
        t_blocks = []
        rhs_blocks = []
        for j in range(n):
            t = (j + s) % n
            prod = (beta_stack[t].astype(np.uint32) @ current[j].astype(np.uint32) & 1).astype(np.uint8)
            t_blocks.append(prod.reshape(d_b, prod.shape[1] * prod.shape[2]).T)
            rhs_blocks.append(target_v[j].reshape(target_v[j].size))
            prod = (current[t].astype(np.uint32) @ beta_stack[j].astype(np.uint32) & 1).astype(np.uint8)
            t_blocks.append(prod.reshape(d_b, prod.shape[1] * prod.shape[2]).T)
            rhs_blocks.append(target_w[j].reshape(target_w[j].size))
        t_matrix = np.concatenate(t_blocks, axis=0)
        rhs = np.concatenate(rhs_blocks)
        reduced, pivots = np_rref(t_matrix.T)
        if np_reduce_vector(reduced, pivots, rhs).any():
            continue
        coefficients = np_lex_min_solution(t_matrix, rhs)
        beta = [np.zeros(shape, dtype=np.uint8) for shape in beta_shapes]
        for k in range(d_b):
            if coefficients[k]:
                for j in range(n):
                    beta[j] ^= basis_b[k][j]
        return True, [m.copy() for m in current], beta
    return False, None, None


def np_rank_bound_refutes(v, w, s: int) -> bool:
    """Whether some 2s-step composite of one module has GF(2) rank above the
    other's fiber at its midpoint, either way round."""
    n = v.resolution
    for a, b in ((v, w), (w, v)):
        steps = [as_array(m) for m in a.steps]
        for j in range(n):
            rank = len(np_rref(np_step_composite(steps, a.dims, j, 2 * s))[1])
            if rank > b.dims[(j + s) % n]:
                return True
    return False


def np_bruteforce_distance(v, w, budget: int) -> Fraction | None:
    """s/N for the first s whose numpy scan is feasible; None when some shift
    up to it that the rank bound does not refute has a candidate product
    2**(d_a + d_b) above *budget*."""
    s = 0
    while True:
        if not np_rank_bound_refutes(v, w, s):
            if 1 << (len(np_hom_space(v, w, s)) + len(np_hom_space(w, v, s))) > budget:
                return None
            if np_feasible_interleaving(v, w, s)[0]:
                return Fraction(s, v.resolution)
        s += 1


def scan_translate_basis(m, x: Fraction) -> list[tuple[int, int]]:
    """Fiber labels by scanning a padded window of translates k and testing
    membership of x + k with `LineInterval.contains`."""
    labels = []
    for idx, ival in enumerate(m.intervals):
        for k in range(math.floor(ival.lo - x) - 1, math.ceil(ival.hi - x) + 2):
            if LineInterval(ival.lo, ival.hi, ival.lo_kind, ival.hi_kind).contains(x + k):
                labels.append((idx, k))
    return labels


def direct_sum(a: GridModule, b: GridModule) -> GridModule:
    """Blockwise direct sum; both summands must share the resolution."""
    if a.resolution != b.resolution:
        raise ValueError("direct sum requires equal grid resolutions")
    n = a.resolution
    dims = tuple(a.dims[j] + b.dims[j] for j in range(n))
    steps = []
    for j in range(n):
        # b's block sits below and to the right of a's
        shifted = tuple(row << a.dims[j] for row in b.steps[j].rows)
        steps.append(Matrix(a.steps[j].rows + shifted, dims[j]))
    return GridModule(n, dims, tuple(steps))


def loop_is_nilpotent(g: GridModule) -> bool:
    """Whether the loop map is nilpotent (it must be, for interval sources):
    its d-th power, d turns from node 0 with d the fiber dimension there, is 0."""
    return not any(step_composite(g, 0, g.resolution * max(g.dims[0], 1)).rows)


def max_direct_sum_bound_check(v1, w1, v2, w2, budget: int = DEFAULT_BUDGET) -> bool:
    """Verify the direct-sum bound on a concrete quadruple.

    The distance between blockwise direct sums must not exceed the larger of
    the summand distances.
    """
    d1 = bruteforce_distance(v1, w1, budget)
    d2 = bruteforce_distance(v2, w2, budget)
    d_sum = bruteforce_distance(direct_sum(v1, v2), direct_sum(w1, w2), budget)
    return d_sum <= max(d1, d2)


# -- the GF(2) elimination, frozen as the reference ----------------------------
#
# `gf2.rref` as it was before it built an echelon form first: every row is
# reduced against every pivot row so far, and every pivot row against each
# new pivot.  The reduced form is unique, so the library must return the
# same rows and the same pivots.


def frozen_rref(a: Matrix) -> tuple[Matrix, list[int]]:
    basis: dict[int, int] = {}
    for row in a.rows:
        for bit, prow in basis.items():
            if row & bit:
                row ^= prow
        if row:
            low = row & -row
            for bit, prow in basis.items():
                if prow & low:
                    basis[bit] = prow ^ row
            basis[low] = row
    order = sorted(basis)
    reduced = [basis[bit] for bit in order]
    reduced.extend([0] * (len(a.rows) - len(reduced)))
    return Matrix(tuple(reduced), a.cols), [bit.bit_length() - 1 for bit in order]


# -- the Fraction grid sampler, frozen as the reference ----------------------
#
# `to_grid` as it was before it sampled integer positions: one
# `translate_basis` per node at j/N, a label-matching loop per step, and a
# translate bump on the step across the seam.  The library must give the
# same dims and the same step matrices.


def _frozen_translate_range(ival, x: Fraction) -> range:
    # the integers k with x + k in the canonical representative: lo - x <= k
    # <= hi - x, with the inequality made strict at an open end
    lo_gap = ival.lo - x
    hi_gap = ival.hi - x
    first = math.floor(lo_gap) + 1 if ival.lo_kind is OPEN else math.ceil(lo_gap)
    last = math.ceil(hi_gap) - 1 if ival.hi_kind is OPEN else math.floor(hi_gap)
    return range(first, last + 1)


def frozen_translate_basis(m, x: Fraction) -> list[tuple[int, int]]:
    return [
        (idx, k) for idx, ival in enumerate(m.intervals) for k in _frozen_translate_range(ival, x)
    ]


def frozen_to_grid(m, n: int) -> GridModule:
    if n < 2:
        raise ValueError("grid resolution must be at least 2")
    for ival in m.intervals:
        for endpoint in (ival.lo, ival.hi):
            if (endpoint * n).denominator != 1:
                raise ValueError(
                    f"interval endpoint {endpoint} is not a multiple of 1/{n}"
                )

    node_basis = [frozen_translate_basis(m, Fraction(j, n)) for j in range(n)]
    steps = []
    for j in range(n):
        target = (j + 1) % n
        # stepping off node N-1 crosses the fundamental-domain seam, which
        # advances the translate index by one
        bump = 1 if j == n - 1 else 0
        source_pos = {label: c for c, label in enumerate(node_basis[j])}
        rows = []
        for idx, k in node_basis[target]:
            c = source_pos.get((idx, k - bump))
            rows.append(0 if c is None else 1 << c)
        steps.append(Matrix(tuple(rows), len(node_basis[j])))

    return GridModule(
        resolution=n,
        dims=tuple(len(labels) for labels in node_basis),
        steps=tuple(steps),
    )


# -- the Fraction bottleneck kernel, frozen as the reference -----------------
#
# The cost tables of `bottleneck_plane` and `bottleneck_quotient` and the
# doubled-graph threshold search as they were before the scaled-integer
# kernel replaced them.  Every probe is a perfect matching on the doubled
# graph, and every comparison is on `Fraction`s; the library must return
# the same value (type included) and the same witness.


def _frozen_coord_gap(x: Ext, y: Ext) -> Ext:
    if not is_finite(x) and not is_finite(y):
        return Fraction(0) if x == y else INF
    if not is_finite(x) or not is_finite(y):
        return INF
    return abs(x - y)


def frozen_linf(p: PlanePoint, q: PlanePoint) -> Ext:
    return max(_frozen_coord_gap(p.a, q.a), _frozen_coord_gap(p.b, q.b))


def frozen_diag_cost(p: PlanePoint) -> Ext:
    if p.b == INF or p.a == NEG_INF:
        return INF
    return (p.b - p.a) / 2


def frozen_quotient_linf(p: QuotientPoint, q: QuotientPoint) -> Fraction:
    u = p.a - q.a
    v = p.b - q.b
    den = u.denominator * v.denominator
    x = u.numerator * v.denominator
    y = v.numerator * u.denominator
    k = -((x + y + den) // (2 * den))
    return Fraction(abs(2 * k * den + x + y) + abs(x - y), 2 * den)


def frozen_perfect_matching(n_left: int, n_right: int, adjacency: list[list[int]]) -> list[int] | None:
    match_right = [-1] * n_right
    for root in range(n_left):
        seen = [False] * n_right
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


def frozen_matching_at(pair_costs, diag_a, diag_b, t: Ext) -> list[int] | None:
    """The doubled-graph probe: right -> left of the perfect matching at t, or None."""
    n_a = len(diag_a)
    n_b = len(diag_b)
    adjacency: list[list[int]] = []
    for i in range(n_a):
        row = [j for j in range(n_b) if pair_costs[i][j] <= t]
        if diag_a[i] <= t:
            row.append(n_b + i)
        adjacency.append(row)
    for j in range(n_b):
        row = [n_b + i for i in range(n_a)]
        if diag_b[j] <= t:
            row.append(j)
        adjacency.append(row)
    return frozen_perfect_matching(n_a + n_b, n_a + n_b, adjacency)


def frozen_solve_bottleneck(pair_costs, diag_a, diag_b) -> tuple[Ext, PartialMatching]:
    n_a = len(diag_a)
    n_b = len(diag_b)

    candidates = {Fraction(0)}
    for row in pair_costs:
        candidates.update(row)
    candidates.update(diag_a)
    candidates.update(diag_b)
    ordered = sorted(candidates)

    def matching_at(t: Ext) -> list[int] | None:
        return frozen_matching_at(pair_costs, diag_a, diag_b, t)

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
    return ordered[lo], witness


def frozen_bottleneck_plane(a, b) -> tuple[Ext, PartialMatching]:
    pair_costs = [[frozen_linf(p, q) for q in b.points] for p in a.points]
    return frozen_solve_bottleneck(
        pair_costs,
        [frozen_diag_cost(p) for p in a.points],
        [frozen_diag_cost(q) for q in b.points],
    )


def frozen_bottleneck_quotient(a, b) -> tuple[Ext, PartialMatching]:
    pair_costs = [[frozen_quotient_linf(p, q) for q in b.points] for p in a.points]
    return frozen_solve_bottleneck(
        pair_costs,
        [p.persistence / 2 for p in a.points],
        [q.persistence / 2 for q in b.points],
    )


# -- the threshold bisection, frozen as the reference ------------------------
#
# The search of the integer kernel's `solve_bottleneck` as it was before the
# threshold ascent replaced it: bisect the sorted set of every table entry
# and 0, decide each probe with two one-sided Kuhn covers from an empty
# matching (Mendelsohn-Dulmage).  The library must return the same value
# (type included); its witness is checked as a certificate on the table.


def _frozen_kuhn_matching(roots, n_right: int, adjacency) -> list[int] | None:
    match_right = [-1] * n_right
    for root in roots:
        seen = [False] * n_right
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


def _frozen_covers(rows, diag, n_right: int, t) -> list[int] | None:
    must = [i for i, d in enumerate(diag) if d > t]
    adjacency = {i: [j for j, c in enumerate(rows[i]) if c <= t] for i in must}
    return _frozen_kuhn_matching(must, n_right, adjacency)


def _frozen_feasible(pair_costs, columns, diag_a, diag_b, t) -> bool:
    return _frozen_covers(pair_costs, diag_a, len(diag_b), t) is not None and (
        _frozen_covers(columns, diag_b, len(diag_a), t) is not None
    )


def frozen_threshold_bisection(pair_costs, diag_a, diag_b) -> int | float:
    candidates = {0, *diag_a, *diag_b}
    for row in pair_costs:
        candidates.update(row)
    ordered = sorted(candidates)
    columns = [[row[j] for row in pair_costs] for j in range(len(diag_b))]
    lo = bisect.bisect_left(
        ordered,
        True,
        hi=len(ordered) - 1,
        key=lambda t: _frozen_feasible(pair_costs, columns, diag_a, diag_b, t),
    )
    return ordered[lo]


# -- the decimal writer, frozen as the reference -----------------------------
#
# `format_number` as it was before it counted factors by squaring and wrote a
# ratio for a decimal past the read bound: one division per factor 2 or 5.
# Within the bound the library must write the same string.


def frozen_format_number(x: Fraction) -> str:
    d, twos, fives = x.denominator, 0, 0
    while d % 2 == 0:
        d, twos = d // 2, twos + 1
    while d % 5 == 0:
        d, fives = d // 5, fives + 1
    if x.denominator == 1:
        return str(x.numerator)
    if d != 1:
        return f"{x.numerator}/{x.denominator}"
    places = max(twos, fives)
    digits = str(abs(x.numerator) * 10**places // x.denominator).rjust(places + 1, "0")
    return f"{'-' if x.numerator < 0 else ''}{digits[:-places]}.{digits[-places:]}"


# -- the number reader, frozen as the reference ------------------------------
#
# `parse_number` as it was before it matched one grammar of its own:
# `Fraction`'s reading of the token behind checks that refuse `_` and inner
# spaces, with a second scanner, `_digits`, counting the digits for the bound.
# Every token must read to the same value and type, or fail with the same
# message.

_frozen_int_digits_limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)


def _frozen_digits(token: str) -> int:
    unsigned = token[1:] if token[:1] in ("+", "-") else token
    if "/" in unsigned:
        sides = unsigned.split("/")
        if not "".join(sides).isdecimal():
            raise ValueError(token)
        return max(map(len, sides))
    mantissa, _, exponent = unsigned.partition("e")
    whole, _, fraction = mantissa.partition(".")
    if not (whole + fraction).isdecimal():
        raise ValueError(token)
    significant = (whole + fraction).lstrip("0")
    point = len(significant) - len(fraction) + int(exponent or 0)
    significant = significant.rstrip("0")
    return max(len(whole), len(fraction), len(significant), point, len(significant) - point)


def frozen_parse_number(text: str) -> Ext:
    t = text.strip()
    low = t.lower()
    if low in ("inf", "+inf"):
        return INF
    if low == "-inf":
        return NEG_INF
    try:
        if "_" in t or (("/" in t or "e" in low) and len(t.split()) > 1):
            raise ValueError(t)
        limit = _frozen_int_digits_limit() if "e" in low or len(t) > 640 else 0
        if not limit or _frozen_digits(low) <= limit:
            return Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a number: {quoted(text)}") from exc
    raise ValueError(f"more than {limit} digits: {quoted(text)}")


# -- the order, the orbit cost and the diagram writer, frozen as the reference
#
# How modules and diagrams were sorted, orbit matchings costed and diagrams
# written before the order keys were exact ints: by comparing `Fraction`s,
# by `linf` of plane representatives, and by a `Counter` of the points.  The
# library must give the same tuples, the same cost (type included) and the
# same bytes.


def frozen_interval_key(ival):
    return (ival.lo, ival.hi, ival.lo_kind.value, ival.hi_kind.value)


def frozen_point_key(p):
    return (p.a, p.b)


def frozen_invariant_cost(m) -> Ext:
    costs: list[Ext] = [Fraction(0)]
    for op in m.orbit_pairs:
        p, q = m.classes_a[op.a], m.classes_b[op.b]
        costs.append(frozen_linf(PlanePoint(p.a, p.b), PlanePoint(q.a + op.shift, q.b + op.shift)))
    costs.extend(m.classes_a[i].persistence / 2 for i in m.unmatched_a())
    costs.extend(m.classes_b[j].persistence / 2 for j in m.unmatched_b())
    return max(costs)


# How classes were stored, and quotient matchings costed and lifted, before
# these loops ran on ints: the canonical shift, a `Fraction` class distance
# per pair on the product of the two coordinate differences' denominators,
# a `Fraction` half persistence per unmatched class, and `max` over the
# `Fraction`s.  The library must give the same values (type included) and
# the same shifts.


def frozen_unit_representative(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction] | None:
    """How `QuotientPoint` and `CircleInterval` stored a class: None for
    lo > hi, else both ends shifted by floor(lo), in `Fraction` arithmetic."""
    if lo > hi:
        return None
    shift = math.floor(lo)
    return lo - shift, hi - shift


def _frozen_aligning_shift(p: QuotientPoint, q: QuotientPoint) -> int:
    u = p.a - q.a
    v = p.b - q.b
    den = u.denominator * v.denominator
    x = u.numerator * v.denominator
    y = v.numerator * u.denominator
    return -((x + y + den) // (2 * den))


def frozen_matching_cost_quotient(a, b, matching: PartialMatching) -> Fraction:
    costs = [Fraction(0)]
    costs.extend(frozen_quotient_linf(a.points[i], b.points[j]) for i, j in matching.pairs)
    costs.extend(a.points[i].persistence / 2 for i in matching.unmatched_a)
    costs.extend(b.points[j].persistence / 2 for j in matching.unmatched_b)
    return max(costs)


def frozen_lift_shifts(a, b, matching: PartialMatching) -> dict[tuple[int, int], int]:
    """The orbit shift each matched pair (i, j) lifted to."""
    return {(i, j): -_frozen_aligning_shift(a.points[i], b.points[j]) for i, j in matching.pairs}


def frozen_write_points(points, fmt: str) -> str:
    lines = []
    for point, multiplicity in Counter(points).items():
        values = (format_number(point.a), format_number(point.b), multiplicity)
        if fmt == "json-lines":
            lines.append(json.dumps(dict(zip(("a", "b", "multiplicity"), values))))
        else:
            lines.append("%s %s %d" % values)
    return "\n".join(lines) + ("\n" if lines else "")
