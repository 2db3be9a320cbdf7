"""Discretisation of circle modules onto an evenly spaced node grid.

The circle (circumference 1) is split into N nodes at j/N.  A grid module
records the fiber dimension at each node, the step matrix from each node to
the next (mod N) over the two-element field.  This is the carrier for the
brute-force interleaving search.
"""

from __future__ import annotations

from . import gf2
from ._value import Value
from .gf2 import Matrix
from .intervals import CircleModule, _members
from .rationals import shown


class GridModule(Value):
    """Node j's fiber is the block of labels from ``offsets[j]`` up to
    ``offsets[j + 1]``; ``operator`` is the step operator on all D labels.

    Two grid modules are equal only when they are the same object."""

    __slots__ = ("resolution", "dims", "steps", "offsets", "operator", "_even_powers")
    _fields = ("resolution", "dims", "steps")
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    resolution: int
    dims: tuple[int, ...]
    steps: tuple[Matrix, ...]
    offsets: tuple[int, ...]
    operator: Matrix
    _even_powers: dict[int, Matrix]

    def __init__(self, resolution: int, dims: tuple[int, ...], steps: tuple[Matrix, ...]):
        n = resolution
        if n < 2:
            raise ValueError("grid resolution must be at least 2")
        if not (len(dims) == len(steps) == n):
            raise ValueError("dims and steps must have one entry per node")
        offsets = [0]
        for d in dims:
            offsets.append(offsets[-1] + d)
        rows = [0] * offsets[n]
        for j, step in enumerate(steps):
            expected = (dims[(j + 1) % n], dims[j])
            if step.shape != expected:
                raise ValueError(f"step matrix at node {j} has shape {step.shape}, expected {expected}")
            base = offsets[(j + 1) % n]
            for r, row in enumerate(step.rows):
                if row < 0 or row >> step.cols:
                    raise ValueError(f"step matrix at node {j} has row {r} outside its {step.cols} columns")
                rows[base + r] = row << offsets[j]
        object.__setattr__(self, "resolution", resolution)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "offsets", tuple(offsets))
        object.__setattr__(self, "operator", Matrix(tuple(rows), offsets[n]))
        object.__setattr__(self, "_even_powers", {0: gf2.identity(offsets[n])})

    def even_power(self, s: int) -> Matrix:
        """``operator ** (2 * s)``, the composite of 2s steps on all labels.

        Each power is built once, from the one before it by one product
        with the square, and kept for later calls.  The cache is keyed by
        exponent and filled with ``setdefault``, so its keys stay a prefix
        0..L and two threads that build the same power keep one of two
        equal matrices.
        """
        powers = self._even_powers
        if s not in powers:
            for t in range(len(powers), s + 1):
                powers.setdefault(t, powers[t - 1] @ powers[1] if t > 1 else self.operator @ self.operator)
        return powers[s]


def to_grid(m: CircleModule, n: int) -> GridModule:
    """Sample *m* at the nodes j/N.

    Every interval endpoint must be an integer multiple of 1/N; off-grid
    endpoints are rejected rather than snapped, so the discretisation is
    exact on its own instances.  Positions are integers p in units of 1/N:
    an interval holds those between its scaled endpoints (endpoint kinds
    respected), each a basis vector at node p mod N, ordered by interval and
    then translate.  A step sends position p to p + 1, across the seam too,
    so the step matrices are the structure maps between consecutive nodes.
    """
    if n < 2:
        raise ValueError("grid resolution must be at least 2")
    fibers = [[] for _ in range(n)]
    column = {}  # (interval, position) -> its index in the fiber at position mod N
    for idx, ival in enumerate(m.intervals):
        scaled = []
        for endpoint in (ival.lo, ival.hi):
            if n % endpoint.denominator:
                raise ValueError(f"interval endpoint {shown(endpoint)} is not a multiple of 1/{n}")
            scaled.append(endpoint.numerator * (n // endpoint.denominator))
        for p in _members(*scaled, ival.lo_kind, ival.hi_kind):
            fiber = fibers[p % n]
            column[idx, p] = len(fiber)
            fiber.append((idx, p))
    # the step into node j + 1 sends each label there from position p - 1, if present
    steps = []
    for j in range(n):
        rows = []
        for idx, p in fibers[(j + 1) % n]:
            c = column.get((idx, p - 1))
            rows.append(0 if c is None else 1 << c)
        steps.append(Matrix(tuple(rows), len(fibers[j])))
    return GridModule(n, tuple([len(labels) for labels in fibers]), tuple(steps))


def step_composite(g: GridModule, start: int, count: int) -> Matrix:
    """Composite of *count* consecutive step maps starting at node *start*."""
    n = g.resolution
    if count == 0:
        return gf2.identity(g.dims[start % n])
    acc = g.steps[start % n]
    for t in range(1, count):
        acc = gf2.matmul(g.steps[(start + t) % n], acc)
    return acc

