"""Dense linear algebra over the two-element field, on Python-int bitsets.

A :class:`Matrix` stores one Python int per row, where bit c is the entry in
column c, plus the column count.  A vector is a single int in the same
layout.  Row operations are whole-row XORs, in the spirit of M4RI; the
dimensions met here are tiny (tens of rows, a few hundred columns at most),
so one plain elimination on those ints serves every solver here: `echelon`
clears each row against the pivots found so far (`remainder`), `rref` adds
the back substitution, and rank counts and span tests read the echelon
basis alone.
"""

from __future__ import annotations

from collections.abc import Iterable

from ._value import Value


class Matrix(Value):
    """A 0/1 matrix: ``rows[r]`` holds row r with column c at bit c."""

    __slots__ = ("rows", "cols")
    rows: tuple[int, ...]
    cols: int

    def __init__(self, rows: tuple[int, ...], cols: int):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.cols)

    def tolist(self) -> list[list[int]]:
        return [[row >> c & 1 for c in range(self.cols)] for row in self.rows]

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return matmul(self, other)


def identity(n: int) -> Matrix:
    return Matrix(tuple([1 << r for r in range(n)]), n)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product ``a @ b`` mod 2: row r XORs the rows of b that row r of a selects."""
    if a.cols != len(b.rows):
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    b_rows = b.rows
    out = []
    for row in a.rows:
        acc = 0
        while row:
            low = row & -row
            acc ^= b_rows[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return Matrix(tuple(out), b.cols)


def remainder(basis: dict[int, int], row: int) -> int:
    """*row* cleared at its lowest bit against *basis* until that bit is no pivot.

    *basis* maps each pivot bit to a row whose lowest set bit it is, as
    `echelon` builds it.  Only the pivots the row actually meets are
    touched, and the result is 0 exactly when *row* is in the span.
    """
    while row:
        low = row & -row
        prow = basis.get(low)
        if prow is None:
            return row
        row ^= prow
    return 0


def echelon(rows: Iterable[int]) -> dict[int, int]:
    """An echelon basis of the span of *rows*: pivot bit -> row whose lowest set bit it is.

    Its size is the rank.
    """
    basis: dict[int, int] = {}
    for row in rows:
        row = remainder(basis, row)
        if row:
            basis[row & -row] = row
    return basis


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns (ascending).

    The reduced matrix keeps the shape of *a*: pivot rows in pivot order,
    then zero rows.
    """
    basis = echelon(a.rows)
    # back substitution from the highest pivot down: a reduced row holds
    # no other pivot, so one XOR clears each higher pivot a row contains
    order = sorted(basis, reverse=True)
    above = 0
    for bit in order:
        row = basis[bit]
        hits = row & above
        while hits:
            low = hits & -hits
            row ^= basis[low]
            hits ^= low
        basis[bit] = row
        above |= bit
    order.reverse()
    reduced = [basis[bit] for bit in order]
    reduced.extend([0] * (len(a.rows) - len(reduced)))
    return Matrix(tuple(reduced), a.cols), [bit.bit_length() - 1 for bit in order]


def nullspace(a: Matrix) -> Matrix:
    """Rows of the result form a basis of the kernel of *a*.

    One basis vector per free column, in ascending order: the free column's
    bit plus the pivot columns whose reduced row has that bit set.
    """
    m, pivots = rref(a)
    pivot_set = set(pivots)
    basis = []
    for fc in range(a.cols):
        if fc in pivot_set:
            continue
        vec = 1 << fc
        for row, pc in zip(m.rows, pivots):
            if row >> fc & 1:
                vec |= 1 << pc
        basis.append(vec)
    return Matrix(tuple(basis), a.cols)


def lex_min_solution(a: Matrix, b: int) -> int | None:
    """The smallest x whose set bits k pick rows of *a* that XOR to *b*.

    Smallest as ``sum(x[k] * 2**k)``, so x is the first pick an ascending
    bitmask scan reaches; None when *b* (``a.cols`` bits) is not in the span.
    Row k is tagged with bit ``a.cols + n - 1 - k``, and one rref of the
    tagged rows pivots every kernel vector at the highest row index it uses.
    Reducing *b* clears those pivots too, so an entry bit left over means no
    solution, and the tags left over name the smallest one.
    """
    n = len(a.rows)
    top = a.cols + n - 1
    tagged = Matrix(tuple([row | 1 << (top - k) for k, row in enumerate(a.rows)]), a.cols + n)
    reduced, pivots = rref(tagged)
    residue = b
    for row, col in zip(reduced.rows, pivots):
        if residue >> col & 1:
            residue ^= row
    if residue & ((1 << a.cols) - 1):
        return None
    return sum(1 << k for k in range(n) if residue >> (top - k) & 1)
