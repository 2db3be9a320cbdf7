"""Interleaving distances and the exhaustive grid feasibility search.

Three routes to the same quantity live here: a closed form for single line
intervals, the diagram route for circle modules (quotient bottleneck of their
persistence diagrams), and an independent brute-force search for shift
morphisms between grid modules over the two-element field.  The last one
never looks at diagrams, which is what makes it usable as an oracle against
the other two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import gf2
from .gf2 import Matrix
from .grid import GridModule, step_composite
from .intervals import CircleModule, LineInterval, diagram_of
from .metric_plane import diag_cost, linf
from .metric_quotient import bottleneck_quotient
from .rationals import Ext

DEFAULT_BUDGET = 1 << 20


class BudgetExceeded(RuntimeError):
    """The filtered candidate space is larger than the configured budget."""


@dataclass(frozen=True, eq=False)
class GridMorphism:
    """A degree-``shift`` family of maps between grid modules.

    ``maps[j]`` sends the fiber at node j of the source to the fiber at node
    (j + shift) mod N of the target.  Shifts of N or more simply wrap; the
    per-node matrices are the same for every winding, which is exactly the
    translation-invariance the lifted formulation demands.
    """

    shift: int
    maps: tuple[Matrix, ...]


class FeasibilityResult(NamedTuple):
    feasible: bool
    forward: GridMorphism | None
    backward: GridMorphism | None


def interval_distance_line(i: LineInterval, j: LineInterval) -> Ext:
    """Interleaving distance between two single-interval line modules.

    The cheaper of translating one interval onto the other (sup-distance of
    the endpoint pairs) and shrinking both to nothing (the larger half
    length).  Endpoint kinds do not move the diagram points and are ignored.
    """
    a = i.diagram_point()
    b = j.diagram_point()
    return min(linf(a, b), max(diag_cost(a), diag_cost(b)))


def interleaving_distance_circle(v: CircleModule, w: CircleModule) -> Fraction:
    """Interleaving distance between circle modules via their diagrams.

    Equals the bottleneck distance of the persistence diagrams in the shifted
    plane quotient; this is the diagram-side route that the grid search below
    is measured against.
    """
    return bottleneck_quotient(diagram_of(v), diagram_of(w)).value


# -- morphism spaces on the grid -------------------------------------------


def _morphism_shapes(v: GridModule, w: GridModule, shift: int) -> list[tuple[int, int]]:
    n = v.resolution
    return [(w.dims[(j + shift) % n], v.dims[j]) for j in range(n)]


def _hom_space(v: GridModule, w: GridModule, shift: int) -> list[list[Matrix]]:
    """Basis of the space of degree-``shift`` morphisms from v to w.

    A candidate assigns a matrix to every node; commuting with all step maps
    is a homogeneous linear condition on the entries, so the space is the
    nullspace of one stacked system.  The unknowns are the entries of all
    node matrices, row-major, node after node.
    """
    n = v.resolution
    shapes = _morphism_shapes(v, w, shift)
    offsets = []
    total = 0
    for rows, cols in shapes:
        offsets.append(total)
        total += rows * cols

    equations = []
    for j in range(n):
        j_next = (j + 1) % n
        v_rows = v.steps[j].rows
        w_step = w.steps[(j + shift) % n]
        next_off, next_cols = offsets[j_next], v.dims[j_next]
        here_off, here_cols = offsets[j], v.dims[j]
        for r in range(w.dims[(j + shift + 1) % n]):
            w_row = w_step.rows[r]
            for c in range(here_cols):
                eq = 0
                # entries of the candidate at node j+1, composed with the v step
                for k, v_row in enumerate(v_rows):
                    if v_row >> c & 1:
                        eq ^= 1 << (next_off + r * next_cols + k)
                # entries at node j, composed with the w step
                for k in range(w_step.cols):
                    if w_row >> k & 1:
                        eq ^= 1 << (here_off + k * here_cols + c)
                equations.append(eq)

    basis = []
    for vec in gf2.nullspace(Matrix(tuple(equations), total)).rows:
        mats = []
        for (rows, cols), off in zip(shapes, offsets):
            row_mask = (1 << cols) - 1
            mats.append(Matrix(tuple(vec >> (off + r * cols) & row_mask for r in range(rows)), cols))
        basis.append(mats)
    return basis


def _pack(mats) -> tuple[int, int]:
    """The entries of *mats*, row-major and matrix after matrix, as one int
    vector; also its length."""
    out = 0
    pos = 0
    for m in mats:
        for row in m.rows:
            out |= row << pos
            pos += m.cols
    return out, pos


def _triangle_block(alpha: list[Matrix], beta: list[Matrix], shift: int, n: int) -> int:
    """Both triangle composites of one forward and one backward morphism,
    packed in the order of the right-hand side in `feasible_interleaving`."""
    block, _ = _pack(
        m
        for j in range(n)
        for m in (beta[(j + shift) % n] @ alpha[j], alpha[(j + shift) % n] @ beta[j])
    )
    return block


def _combination(basis: list[list[Matrix]], coefficients: int, shapes) -> tuple[Matrix, ...]:
    """The sum of the basis morphisms selected by the bits of *coefficients*."""
    acc = [[0] * rows for rows, _ in shapes]
    for k, mats in enumerate(basis):
        if coefficients >> k & 1:
            for node_rows, m in zip(acc, mats):
                for r, row in enumerate(m.rows):
                    node_rows[r] ^= row
    return tuple(Matrix(tuple(rows), cols) for rows, (_, cols) in zip(acc, shapes))


def feasible_interleaving(
    v: GridModule, w: GridModule, shift_steps: int, budget: int = DEFAULT_BUDGET
) -> FeasibilityResult:
    """Decide whether the grid modules admit a shift_steps-interleaving.

    Searches the filtered candidate product: forward candidates are exactly
    the degree-s morphisms v -> w (commutation nullspace), backward
    candidates the degree-s morphisms w -> v, and a pair passes when both
    triangle identities against the internal 2s-shifts hold.  Candidates are
    scanned in ascending bitmask order over the nullspace bases; for each
    forward candidate the triangle identities are linear in the backward
    coefficients, so the backward scan collapses to one
    `gf2.lex_min_solution` call: None, or the first backward mask that
    passes, which makes the result exactly the first passing pair of the
    full product scan.  Instances whose candidate product exceeds *budget*
    are rejected.

    The identities are bilinear in the two coefficient vectors, so the
    column of backward coefficient k, for forward mask x, is the XOR over
    the bits i of x of one precomputed block per pair (i, k).
    """
    if v.resolution != w.resolution:
        raise ValueError("grid modules must share a resolution")
    if shift_steps < 0:
        raise ValueError("shift must be nonnegative")
    n = v.resolution
    s = shift_steps

    basis_a = _hom_space(v, w, s)
    basis_b = _hom_space(w, v, s)
    d_a = len(basis_a)
    d_b = len(basis_b)
    if (1 << (d_a + d_b)) > budget:
        raise BudgetExceeded(
            f"candidate product 2**{d_a + d_b} exceeds the budget of {budget} pairs"
        )

    # per node j: backward(j+s) @ forward(j) must equal the 2s composite of
    # v at j, and forward(j+s) @ backward(j) the 2s composite of w at j
    rhs, width = _pack(
        m for j in range(n) for m in (step_composite(v, j, 2 * s), step_composite(w, j, 2 * s))
    )

    blocks: list[list[int]] = []  # blocks[i][k]; row i is built when bit i first flips
    columns = [0] * d_b
    for mask in range(1 << d_a):
        # mask - 1 -> mask flips bits 0..i, where 2**i is the lowest set bit of mask
        for i in range((mask & -mask).bit_length()):
            if i == len(blocks):
                blocks.append([_triangle_block(basis_a[i], beta, s, n) for beta in basis_b])
            columns = [c ^ b for c, b in zip(columns, blocks[i])]
        coefficients = gf2.lex_min_solution(Matrix(tuple(columns), width), rhs)
        if coefficients is None:
            continue
        forward = GridMorphism(s, _combination(basis_a, mask, _morphism_shapes(v, w, s)))
        backward = GridMorphism(s, _combination(basis_b, coefficients, _morphism_shapes(w, v, s)))
        return FeasibilityResult(True, forward, backward)
    return FeasibilityResult(False, None, None)


def is_degree_morphism(v: GridModule, w: GridModule, morphism: GridMorphism) -> bool:
    """Check shapes and all commutation squares of a candidate morphism."""
    n = v.resolution
    s = morphism.shift
    if w.resolution != n or len(morphism.maps) != n:
        return False
    for j in range(n):
        if morphism.maps[j].shape != (w.dims[(j + s) % n], v.dims[j]):
            return False
    for j in range(n):
        left = gf2.matmul(morphism.maps[(j + 1) % n], v.steps[j])
        right = gf2.matmul(w.steps[(j + s) % n], morphism.maps[j])
        if left != right:
            return False
    return True


def is_interleaving_pair(
    v: GridModule, w: GridModule, forward: GridMorphism, backward: GridMorphism
) -> bool:
    """Check that (forward, backward) is a genuine s-interleaving."""
    if forward.shift != backward.shift:
        return False
    s = forward.shift
    n = v.resolution
    if not is_degree_morphism(v, w, forward) or not is_degree_morphism(w, v, backward):
        return False
    for j in range(n):
        through_w = gf2.matmul(backward.maps[(j + s) % n], forward.maps[j])
        if through_w != step_composite(v, j, 2 * s):
            return False
        through_v = gf2.matmul(forward.maps[(j + s) % n], backward.maps[j])
        if through_v != step_composite(w, j, 2 * s):
            return False
    return True


def bruteforce_distance(v: GridModule, w: GridModule, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Smallest s/N admitting an interleaving, by scanning s upward.

    Feasibility is monotone in s (compose with an internal one-step shift),
    so the first feasible s is the minimum.  The scan stops at the total
    fiber dimension: step maps send basis labels to basis labels or zero,
    so a nonzero c-step composite keeps one label alive at c + 1 distinct
    (node, translate) labels and c is below the total dimension.  Every 2s
    composite vanishes once 2s reaches it, and then the zero pair
    interleaves; running past the bound means the grid data is inconsistent.
    """
    if v.resolution != w.resolution:
        raise ValueError("grid modules must share a resolution")
    n = v.resolution
    limit = max(sum(v.dims), sum(w.dims))
    for s in range(limit + 1):
        if feasible_interleaving(v, w, s, budget).feasible:
            return Fraction(s, n)
    raise RuntimeError(
        f"no interleaving found up to the safety bound s = {limit}; grid data inconsistent"
    )
