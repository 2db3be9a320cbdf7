"""Seeded random instance generators shared across the tests."""

from __future__ import annotations

import random
from fractions import Fraction

from circlepers import (
    CLOSED,
    OPEN,
    CircleInterval,
    CircleModule,
    Diagram,
    InvariantMatching,
    OrbitPair,
    PartialMatching,
    PlanePoint,
    QuotientDiagram,
    QuotientPoint,
    INF,
    NEG_INF,
)

KIND_PAIRS = [(CLOSED, CLOSED), (CLOSED, OPEN), (OPEN, CLOSED), (OPEN, OPEN)]


def primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


def random_plane_point(rng: random.Random, allow_infinite: bool = True) -> PlanePoint:
    if allow_infinite and rng.random() < 0.1:
        if rng.random() < 0.5:
            return PlanePoint(Fraction(rng.randint(-24, 24), 8), INF)
        return PlanePoint(NEG_INF, Fraction(rng.randint(-24, 24), 8))
    a = Fraction(rng.randint(-24, 24), 8)
    return PlanePoint(a, a + Fraction(rng.randint(0, 32), 8))


def random_plane_diagram(rng: random.Random, max_points: int = 4, allow_infinite: bool = True) -> Diagram:
    count = rng.randint(0, max_points)
    return Diagram(tuple(random_plane_point(rng, allow_infinite) for _ in range(count)))


def random_quotient_point(rng: random.Random) -> QuotientPoint:
    a = Fraction(rng.randint(0, 39), 40)
    return QuotientPoint(a, a + Fraction(rng.randint(0, 60), 40))


def random_quotient_diagram(rng: random.Random, max_points: int = 4) -> QuotientDiagram:
    count = rng.randint(0, max_points)
    return QuotientDiagram(tuple(random_quotient_point(rng) for _ in range(count)))


def random_on_grid_module(
    rng: random.Random, grid: int, max_intervals: int = 3, random_kinds: bool = False
) -> CircleModule:
    count = rng.randint(0, max_intervals)
    intervals = []
    for _ in range(count):
        start = Fraction(rng.randrange(grid), grid)
        length = Fraction(rng.randint(1, grid), grid)
        kinds = rng.choice(KIND_PAIRS) if random_kinds else (CLOSED, OPEN)
        intervals.append(CircleInterval(start, start + length, *kinds))
    return CircleModule(tuple(intervals))


def random_partial_matching(rng: random.Random, n_a: int, n_b: int) -> PartialMatching:
    a_indices = list(range(n_a))
    b_indices = list(range(n_b))
    rng.shuffle(a_indices)
    rng.shuffle(b_indices)
    k = rng.randint(0, min(n_a, n_b))
    pairs = set(zip(a_indices[:k], b_indices[:k]))
    return PartialMatching.from_pairs(pairs, n_a, n_b)


def random_invariant_matching(
    rng: random.Random,
    classes_a: tuple[QuotientPoint, ...] | None = None,
    classes_b: tuple[QuotientPoint, ...] | None = None,
    max_classes: int = 4,
) -> InvariantMatching:
    """Random orbit matching: some full-orbit pairs, the other classes unmatched."""
    if classes_a is None:
        classes_a = tuple(random_quotient_point(rng) for _ in range(rng.randint(0, max_classes)))
    if classes_b is None:
        classes_b = tuple(random_quotient_point(rng) for _ in range(rng.randint(0, max_classes)))
    a_free = list(range(len(classes_a)))
    b_free = list(range(len(classes_b)))
    rng.shuffle(a_free)
    rng.shuffle(b_free)
    orbit_pairs = set()
    for _ in range(rng.randint(0, min(len(a_free), len(b_free)))):
        orbit_pairs.add(OrbitPair(a_free.pop(), b_free.pop(), rng.randint(-2, 2)))
    return InvariantMatching(classes_a, classes_b, frozenset(orbit_pairs))
