"""Transfer of matchings between translate orbits in the plane and the quotient.

A matching between two shift-invariant families of plane points is stored by
orbits: full-orbit pairs (every translate of one class matched to the
correspondingly shifted translate of another, at a fixed relative shift) plus
finitely many explicit window pairs for classes that are only partially
matched.  Projection to a quotient matching keeps the orbit pairs, the only
classes matched in full; lifting a quotient matching picks the aligning
shift for every pair and preserves the cost exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .metric_plane import PartialMatching, linf
from .metric_quotient import (
    QuotientDiagram,
    QuotientPoint,
    quotient_linf_with_shift,
)
from .rationals import Ext


@dataclass(frozen=True)
class OrbitPair:
    """Full-orbit pair: translate n of class a matches translate n + shift of class b."""

    a: int
    b: int
    shift: int


@dataclass(frozen=True)
class WindowPair:
    """A single matched plane pair: translate a_residue of class a with
    translate b_residue of class b."""

    a: int
    a_residue: int
    b: int
    b_residue: int


@dataclass(frozen=True)
class InvariantMatching:
    """A plane matching between two translate-orbit families, stored by orbits.

    ``classes_a`` and ``classes_b`` list the orbit classes (with multiplicity,
    one entry per orbit).  ``orbit_pairs`` are translate-closed; a class in an
    orbit pair has every representative matched.  ``window_pairs`` describe
    partially matched classes through explicit residues within
    ``-window..window``; every representative not named there is unmatched.
    """

    classes_a: tuple[QuotientPoint, ...]
    classes_b: tuple[QuotientPoint, ...]
    orbit_pairs: frozenset[OrbitPair] = frozenset()
    window_pairs: frozenset[WindowPair] = frozenset()
    window: int = 3

    def __post_init__(self):
        object.__setattr__(self, "classes_a", tuple(self.classes_a))
        object.__setattr__(self, "classes_b", tuple(self.classes_b))
        object.__setattr__(self, "orbit_pairs", frozenset(self.orbit_pairs))
        object.__setattr__(self, "window_pairs", frozenset(self.window_pairs))
        self._validate()

    def _validate(self) -> None:
        n_a = len(self.classes_a)
        n_b = len(self.classes_b)
        orbit_a = [p.a for p in self.orbit_pairs]
        orbit_b = [p.b for p in self.orbit_pairs]
        if any(not 0 <= i < n_a for i in orbit_a) or any(not 0 <= j < n_b for j in orbit_b):
            raise ValueError("orbit pair index out of range")
        if len(orbit_a) != len(set(orbit_a)) or len(orbit_b) != len(set(orbit_b)):
            raise ValueError("orbit pairs are not injective")
        seen_a = set()
        seen_b = set()
        for wp in self.window_pairs:
            if not 0 <= wp.a < n_a or not 0 <= wp.b < n_b:
                raise ValueError("window pair index out of range")
            if abs(wp.a_residue) > self.window or abs(wp.b_residue) > self.window:
                raise ValueError(
                    f"window pair residue outside the declared window {self.window}"
                )
            if (wp.a, wp.a_residue) in seen_a or (wp.b, wp.b_residue) in seen_b:
                raise ValueError("window pairs are not injective")
            seen_a.add((wp.a, wp.a_residue))
            seen_b.add((wp.b, wp.b_residue))
        orbit_a_set = set(orbit_a)
        orbit_b_set = set(orbit_b)
        for wp in self.window_pairs:
            if wp.a in orbit_a_set or wp.b in orbit_b_set:
                raise ValueError(
                    "window pair touches a class whose points are all taken by an orbit pair"
                )

    # -- derived views ----------------------------------------------------

    def fully_matched_a(self) -> set[int]:
        return {p.a for p in self.orbit_pairs}

    def fully_matched_b(self) -> set[int]:
        return {p.b for p in self.orbit_pairs}

    def unmatched_a(self) -> set[int]:
        """Classes with no matched representative at all."""
        touched = self.fully_matched_a() | {wp.a for wp in self.window_pairs}
        return set(range(len(self.classes_a))) - touched

    def unmatched_b(self) -> set[int]:
        touched = self.fully_matched_b() | {wp.b for wp in self.window_pairs}
        return set(range(len(self.classes_b))) - touched


def invariant_cost(m: InvariantMatching) -> Ext:
    """Bottleneck cost of the induced plane matching.

    Pair costs are shift-invariant, so one representative per orbit pair
    suffices; every class outside the orbit pairs has unmatched
    representatives and contributes half its persistence.
    """
    costs: list[Ext] = [Fraction(0)]
    for op in m.orbit_pairs:
        costs.append(
            linf(m.classes_a[op.a].representative(0), m.classes_b[op.b].representative(op.shift))
        )
    for wp in m.window_pairs:
        costs.append(
            linf(
                m.classes_a[wp.a].representative(wp.a_residue),
                m.classes_b[wp.b].representative(wp.b_residue),
            )
        )
    full_a = m.fully_matched_a()
    full_b = m.fully_matched_b()
    costs.extend(
        p.persistence / 2 for i, p in enumerate(m.classes_a) if i not in full_a
    )
    costs.extend(
        p.persistence / 2 for j, p in enumerate(m.classes_b) if j not in full_b
    )
    return max(costs)


def project_matching(m: InvariantMatching) -> PartialMatching:
    """Project an orbit matching to a quotient matching of no greater cost.

    The projection pairs the classes of every orbit pair.  Orbit pairs are
    injective on both sides and window pairs never touch an orbit class, so
    a fully matched class has exactly one partner class, its orbit partner.
    Every other class has an unmatched representative and stays unmatched.
    A projected pair costs at most its plane pair and an unmatched class pays
    what its unmatched representatives pay, so the cost cannot grow.
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
    for i, j in sorted(matching.pairs):
        _, k = quotient_linf_with_shift(a.points[i], b.points[j])
        # the class distance is linf(p.representative(k), q.representative(0)),
        # and an orbit pair at shift -k matches exactly those representatives
        orbit_pairs.add(OrbitPair(i, j, -k))
    return InvariantMatching(a.points, b.points, frozenset(orbit_pairs))
