"""Transfer of matchings between translate orbits in the plane and the quotient.

A matching between two shift-invariant families of plane points is stored by
orbits: full-orbit pairs match every translate of one class to the
correspondingly shifted translate of another, at a fixed relative shift, and
every other class is left unmatched.  Projection to a quotient matching keeps
the orbit pairs; lifting a quotient matching picks the aligning shift for
every pair and preserves the cost exactly.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Value
from .metric_plane import PartialMatching
from .metric_quotient import QuotientDiagram, QuotientPoint, _class_pair_cost, _largest_cost


class OrbitPair(Value):
    """Full-orbit pair: translate n of class a matches translate n + shift of class b."""

    __slots__ = ("a", "b", "shift")
    a: int
    b: int
    shift: int

    def __init__(self, a: int, b: int, shift: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "shift", shift)


class InvariantMatching(Value):
    """A plane matching between two translate-orbit families, stored by orbits.

    ``classes_a`` and ``classes_b`` list the orbit classes (with multiplicity,
    one entry per orbit).  ``orbit_pairs`` are translate-closed and injective
    on both sides: a class in an orbit pair has every representative matched,
    and every representative of any other class is unmatched.
    """

    __slots__ = ("classes_a", "classes_b", "orbit_pairs")
    classes_a: tuple[QuotientPoint, ...]
    classes_b: tuple[QuotientPoint, ...]
    orbit_pairs: frozenset[OrbitPair]

    def __init__(
        self,
        classes_a: tuple[QuotientPoint, ...],
        classes_b: tuple[QuotientPoint, ...],
        orbit_pairs: frozenset[OrbitPair] = frozenset(),
    ):
        classes_a = tuple(classes_a)
        classes_b = tuple(classes_b)
        orbit_pairs = frozenset(orbit_pairs)
        n_a, n_b = len(classes_a), len(classes_b)
        orbit_a = [p.a for p in orbit_pairs]
        orbit_b = [p.b for p in orbit_pairs]
        if any(not 0 <= i < n_a for i in orbit_a) or any(not 0 <= j < n_b for j in orbit_b):
            raise ValueError("orbit pair index out of range")
        if len(orbit_a) != len(set(orbit_a)) or len(orbit_b) != len(set(orbit_b)):
            raise ValueError("orbit pairs are not injective")
        object.__setattr__(self, "classes_a", classes_a)
        object.__setattr__(self, "classes_b", classes_b)
        object.__setattr__(self, "orbit_pairs", orbit_pairs)

    def unmatched_a(self) -> set[int]:
        """Classes with no matched representative at all."""
        return set(range(len(self.classes_a))) - {p.a for p in self.orbit_pairs}

    def unmatched_b(self) -> set[int]:
        return set(range(len(self.classes_b))) - {p.b for p in self.orbit_pairs}


def invariant_cost(m: InvariantMatching) -> Fraction:
    """Bottleneck cost of the induced plane matching.

    Pair costs are shift-invariant, so one representative per orbit pair
    suffices; every representative of a class outside the orbit pairs is
    unmatched and pays half its persistence.
    """
    # linf((p.a, p.b), (q.a + op.shift, q.b + op.shift)): p moved by -op.shift
    pairs = [(op.a, op.b, -op.shift) for op in m.orbit_pairs]
    return _largest_cost(m.classes_a, m.classes_b, pairs, m.unmatched_a(), m.unmatched_b())


def project_matching(m: InvariantMatching) -> PartialMatching:
    """Project an orbit matching to a quotient matching of no greater cost.

    The projection pairs the classes of every orbit pair; orbit pairs are
    injective on both sides, so this is a partial matching.  Every other
    class is unmatched on both sides of the projection.  A projected pair
    costs at most its plane pair and an unmatched class pays what its
    representatives pay, so the cost cannot grow.
    """
    pairs = {(op.a, op.b) for op in m.orbit_pairs}
    return PartialMatching.from_pairs(pairs, len(m.classes_a), len(m.classes_b))


def lift_matching(
    a: QuotientDiagram, b: QuotientDiagram, matching: PartialMatching
) -> InvariantMatching:
    """Lift a quotient matching to an orbit matching of exactly equal cost.

    Every matched pair becomes a full-orbit pair at the shift realising the
    class distance, so pair costs are preserved; unmatched classes lift to
    fully unmatched orbits, whose representatives all pay the same half
    persistence.
    """
    matching.validate_for(len(a.points), len(b.points))
    orbit_pairs = set()
    for i, j in matching.pairs:
        _, _, k = _class_pair_cost(a.points[i], b.points[j])
        # the class distance is linf((p.a + k, p.b + k), (q.a, q.b)),
        # and an orbit pair at shift -k matches exactly those representatives
        orbit_pairs.add(OrbitPair(i, j, -k))
    return InvariantMatching(a.points, b.points, frozenset(orbit_pairs))
