"""Interleaving distances and the exhaustive grid feasibility search.

Three routes to the same quantity live here: a closed form for single line
intervals, the diagram route for circle modules (quotient bottleneck of their
persistence diagrams), and an independent brute-force search for shift
morphisms between grid modules over the two-element field.  The last one
never looks at diagrams, which is what makes it usable as an oracle against
the other two.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import gf2
from ._value import Value
from .gf2 import Matrix
from .grid import GridModule, step_composite
from .intervals import CircleModule, LineInterval, diagram_of
from .metric_plane import diag_cost, linf
from .metric_quotient import bottleneck_quotient
from .rationals import Ext

DEFAULT_BUDGET = 1 << 20


class BudgetExceeded(RuntimeError):
    """A shift the rank bound leaves open has more candidate pairs than the budget."""


class GridMorphism(Value):
    """A degree-``shift`` family of maps between grid modules.

    ``maps[j]`` sends the fiber at node j of the source to the fiber at node
    (j + shift) mod N of the target.  Shifts of N or more simply wrap; the
    per-node matrices are the same for every winding, which is exactly the
    translation-invariance the lifted formulation demands.  Two morphisms
    are equal only when they are the same object.
    """

    __slots__ = ("shift", "maps")
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    shift: int
    maps: tuple[Matrix, ...]

    def __init__(self, shift: int, maps: tuple[Matrix, ...]):
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "maps", maps)


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
#
# The search works on whole modules, through each grid module's label
# offsets and step operator S (see `GridModule`).  A degree-s morphism
# v -> w is a D_w x D_v operator whose blocks send node j to node j + s and
# are zero elsewhere, the 2s-step composites are the blocks of S**(2s), and
# each triangle composite is one operator product.


def _columns(op: Matrix) -> list[int]:
    """The columns of *op*, each as an int whose bit r is the entry in row r."""
    columns = [0] * op.cols
    for r, row in enumerate(op.rows):
        while row:
            low = row & -row
            columns[low.bit_length() - 1] |= 1 << r
            row ^= low
    return columns


def _plan(source: GridModule, target: GridModule, lag: int, start: int = 0):
    """Where the block entries of a degree-*lag* operator go in one int vector.

    Rows at node j + lag have their entries in the columns of node j.  The
    blocks are laid out source node after source node, each row-major,
    from bit *start*.  Returns, for each row label, the first column of its
    block, the position of its first bit and the mask of its block width;
    and the end position.
    """
    n = source.resolution
    plan = [(0, 0, 0)] * target.operator.cols
    pos = start
    for j in range(n):
        t = (j + lag) % n
        right, width = source.offsets[j], source.dims[j]
        mask = (1 << width) - 1
        for label in range(target.offsets[t], target.offsets[t + 1]):
            plan[label] = (right, pos, mask)
            pos += width
    return plan, pos


def _packed(rows, plan) -> int:
    """The rows of an operator that is zero off its blocks, laid out by *plan*."""
    out = 0
    for row, (right, left, _) in zip(rows, plan):
        out |= row >> right << left
    return out


def _unpacked(vec: int, plan, cols: int) -> Matrix:
    """The operator whose block entries *vec* holds, laid out by *plan*."""
    return Matrix(tuple([(vec >> left & mask) << right for right, left, mask in plan]), cols)


def _node_maps(vec: int, plan, source: GridModule, target: GridModule, shift: int):
    """The per-node maps of the degree-*shift* morphism that *vec* holds."""
    n = source.resolution
    maps = []
    for j in range(n):
        t = (j + shift) % n
        block = plan[target.offsets[t]:target.offsets[t + 1]]
        rows = [vec >> left & mask for _, left, mask in block]
        maps.append(Matrix(tuple(rows), source.dims[j]))
    return tuple(maps)


def _hom_space(v: GridModule, w: GridModule, shift: int):
    """The plan of the degree-*shift* operators v -> w, and a basis of the morphisms.

    F is a morphism when F S_v = S_w F.  The entry of that identity at a row
    of w at node t and a column of v at node t - shift - 1 is one
    homogeneous equation on the entries of F, so the morphisms are the
    nullspace of those equations.  The unknowns are numbered by the plan:
    source node, then target row, then source column.  The nullspace basis
    is the canonical one of that numbering, whatever order the equations
    come in.
    """
    n = v.resolution
    plan, unknowns = _plan(v, w, shift)
    if not unknowns:
        return plan, ()
    v_offsets, w_offsets, w_step = v.offsets, w.offsets, w.operator
    v_columns = _columns(v.operator)
    equations = []
    for t in range(n):
        j = (t - shift - 1) % n
        c_lo, c_hi = v_offsets[j], v_offsets[j + 1]
        if c_lo == c_hi:
            continue
        for label in range(w_offsets[t], w_offsets[t + 1]):
            right, left, _ = plan[label]
            # (S_w F)[label, c] takes F[k, c] for each k the w step sends to label
            row = w_step.rows[label]
            through_w = 0
            while row:
                low = row & -row
                through_w ^= 1 << plan[low.bit_length() - 1][1]
                row ^= low
            # (F S_v)[label, c] takes F[label, k] for each k that c steps to
            for c in range(c_hi - c_lo):
                equations.append((v_columns[c_lo + c] >> right << left) ^ (through_w << c))
    return plan, gf2.nullspace(Matrix(tuple(equations), unknowns)).rows


def _selected(basis, coefficients: int) -> int:
    """The sum of the basis vectors selected by the bits of *coefficients*."""
    out = 0
    for k, vec in enumerate(basis):
        if coefficients >> k & 1:
            out ^= vec
    return out


def _first_pair(v: GridModule, w: GridModule, s: int, plan_a, basis_a, plan_b, basis_b):
    """The first (mask over *basis_a*, coefficients over *basis_b*) whose pair passes, or None.

    Masks over *basis_a* (v -> w) ascend, and each answer over *basis_b*
    (w -> v) is the lex-first one, so the pair is the first of the product
    scan with v -> w outermost; the caller passes the smaller basis as
    *basis_a*.  Mask 0 passes exactly when both S**(2s) vanish, with the
    zero pair, and that is decided before any operator is built.  Every
    other mask only tests whether the span of its columns holds the
    right-hand side, against an echelon basis; `gf2.lex_min_solution` runs
    once, on the first mask that passes, for its coefficients.
    """
    # the right-hand side and every column: the rows of v, then those of w
    pack_v, width = _plan(v, v, 2 * s)
    pack_w, width = _plan(w, w, 2 * s, width)
    rhs = _packed(v.even_power(s).rows, pack_v) | _packed(w.even_power(s).rows, pack_w)
    if not rhs:
        return 0, 0

    backward_ops = [_unpacked(vec, plan_b, w.operator.cols) for vec in basis_b]
    blocks: list[list[int]] = []  # blocks[i][k]; row i is built when bit i first flips
    columns = [0] * len(basis_b)
    for mask in range(1, 1 << len(basis_a)):
        # mask - 1 -> mask flips bits 0..i, where 2**i is the lowest set bit of mask
        for i in range((mask & -mask).bit_length()):
            if i == len(blocks):
                alpha = _unpacked(basis_a[i], plan_a, v.operator.cols)
                blocks.append([
                    _packed((beta @ alpha).rows, pack_v) | _packed((alpha @ beta).rows, pack_w)
                    for beta in backward_ops
                ])
            columns = [c ^ b for c, b in zip(columns, blocks[i])]
        if not gf2.remainder(gf2.echelon(columns), rhs):
            return mask, gf2.lex_min_solution(Matrix(tuple(columns), width), rhs)
    return None


def _rank_exceeds_room(v: GridModule, w: GridModule, s: int) -> bool:
    """Whether some 2s-step composite of v has rank above the fiber of w at its midpoint.

    In an s-interleaving the composite from node j is beta alpha, which
    factors through w's fiber at node j + s, so its rank is at most that
    fiber's dimension.  The composite is the block of S_v**(2s) in the rows
    of node j + 2s, and those rows hold bits in node j's columns only.  A
    block with fewer rows or columns than the room needs no elimination,
    and against no room at all only a nonzero row counts.  The rank is the
    size of the block's echelon basis, with no back substitution.
    """
    n = v.resolution
    offsets, rows = v.offsets, v.even_power(s).rows
    for j in range(n):
        t = (j + 2 * s) % n
        room = w.dims[(j + s) % n]
        if min(v.dims[j], v.dims[t]) > room:
            block = rows[offsets[t]:offsets[t + 1]]
            if not room:
                if any(block):
                    return True
            elif len(gf2.echelon(block)) > room:
                return True
    return False


def _passing_pair(v: GridModule, w: GridModule, s: int, budget: int):
    """Decide shift *s*: the passing (mask, coefficients, hom v -> w, hom w -> v), or None.

    Each hom space is its (plan, basis) from `_hom_space`; the mask selects
    from the v -> w basis and the coefficients from the w -> v one, swapped
    back when the scan ran w -> v.  Raises `BudgetExceeded` as
    `feasible_interleaving` documents.
    """
    if v.resolution != w.resolution:
        raise ValueError("grid modules must share a resolution")
    if s < 0:
        raise ValueError("shift must be nonnegative")
    if _rank_exceeds_room(v, w, s) or _rank_exceeds_room(w, v, s):
        return None
    hom_a = _hom_space(v, w, s)
    hom_b = _hom_space(w, v, s)
    d_a = len(hom_a[1])
    d_b = len(hom_b[1])
    if (1 << (d_a + d_b)) > budget:
        raise BudgetExceeded(
            f"candidate product 2**{d_a + d_b} exceeds the budget of {budget} pairs"
        )
    if d_b < d_a:
        pair = _first_pair(w, v, s, *hom_b, *hom_a)
        return None if pair is None else (pair[1], pair[0], hom_a, hom_b)
    pair = _first_pair(v, w, s, *hom_a, *hom_b)
    return None if pair is None else (*pair, hom_a, hom_b)


def feasible_interleaving(
    v: GridModule, w: GridModule, shift_steps: int, budget: int = DEFAULT_BUDGET
) -> FeasibilityResult:
    """Decide whether the grid modules admit a shift_steps-interleaving.

    Searches the filtered candidate product: forward candidates are exactly
    the degree-s morphisms v -> w (commutation nullspace), backward
    candidates the degree-s morphisms w -> v, and a pair passes when both
    triangle identities against the internal 2s-shifts hold.  And
    (alpha, beta) interleaves v and w exactly when (beta, alpha) interleaves
    w and v, so one scan (`_first_pair`) runs over the smaller basis, v -> w
    on a tie, in ascending bitmask order.  For each of its candidates the
    triangle identities are linear in the other side's coefficients, so
    that side collapses to one span test, and a shift costs at most
    2**min(d_a, d_b) of them; `gf2.lex_min_solution` runs only on the
    first mask that passes.  The witness is the first passing pair of that
    scan, swapped back into (forward, backward) when it ran w -> v; it is
    built from the decision of `_passing_pair`, which
    `bruteforce_distance` reads without building it.

    Everything is computed on whole-module operators (see above): the
    identities read beta alpha = S_v**(2s) and alpha beta = S_w**(2s).  They
    are bilinear in the two coefficient vectors, so the column of the other
    side's coefficient k, for scanned mask x, is the XOR over the bits i of
    x of one precomputed block per pair (i, k): both products of basis
    operators i and k, packed over their degree-2s blocks only.

    The scan settles only what cheaper tests leave open.  A rank bound
    goes first: the 2s-step composite of v from node j is beta alpha, which
    factors through w's fiber at node j + s, so its rank is at most that
    fiber's dimension; the same holds with v and w swapped, and one node
    above its bound makes the shift infeasible before either hom space is
    solved.  The budget caps only the scans: a shift the bound leaves open
    raises `BudgetExceeded` when its candidate product 2**(d_a + d_b)
    exceeds *budget*, and a shift the bound refutes is never refused.
    """
    s = shift_steps
    found = _passing_pair(v, w, s, budget)
    if found is None:
        return FeasibilityResult(False, None, None)
    mask, coefficients, (plan_a, basis_a), (plan_b, basis_b) = found
    forward = _node_maps(_selected(basis_a, mask), plan_a, v, w, s)
    backward = _node_maps(_selected(basis_b, coefficients), plan_b, w, v, s)
    return FeasibilityResult(True, GridMorphism(s, forward), GridMorphism(s, backward))


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
    interleaves.  Running past the bound means a step operator is not
    nilpotent, which no interval module gives: that module is named in a
    `ValueError`.  Each shift is decided by `_passing_pair`, as in
    `feasible_interleaving`, but no witness is built: the value reads only
    whether a pair passes.
    """
    n = v.resolution
    limit = max(sum(v.dims), sum(w.dims))
    for s in range(limit + 1):
        if _passing_pair(v, w, s, budget) is not None:
            return Fraction(s, n)
    for name, g in (("v", v), ("w", w)):
        if any(g.even_power(limit).rows):
            raise ValueError(f"the step operator of {name} is not nilpotent")
    raise RuntimeError(
        f"no interleaving found up to the safety bound s = {limit}; grid data inconsistent"
    )
