"""Acceptance suite.

Each test runs one criterion at its stated size and tolerance and prints a
single PASS/FAIL line (run pytest with -s to see them).  Expected values are
checked against independent oracles: exhaustive matching enumeration,
windowed translate enumeration, and the brute-force grid search.
"""

import random
import time
from fractions import Fraction

from circlepers import (
    CLOSED,
    OPEN,
    CircleInterval,
    LineInterval,
    bottleneck_plane,
    bottleneck_quotient,
    bruteforce_distance,
    diag_cost,
    feasible_interleaving,
    interleaving_distance_circle,
    interval_distance_line,
    invariant_cost,
    lift_matching,
    linf,
    matching_cost_quotient,
    project_matching,
    quotient_linf,
    to_grid,
)
from circlepers.cli import random_circle_module
from generators import (
    KIND_PAIRS,
    random_invariant_matching,
    random_on_grid_module,
    random_partial_matching,
    random_plane_diagram,
    random_quotient_diagram,
    random_quotient_point,
)
from oracles import enumerate_bottleneck, max_direct_sum_bound_check, window_quotient_linf

F = Fraction


def _report(number: int, label: str, failures: list, detail: str = "") -> None:
    status = "FAIL" if failures else "PASS"
    suffix = f" {detail}" if detail else ""
    print(f"[acceptance] criterion {number} ({label}): {status}{suffix}")
    assert not failures, f"criterion {number} ({label}) failed: {failures[:5]}"


def test_criterion_1_isometry_on_random_circle_modules():
    grid = 8
    bound = F(1, grid)
    rng = random.Random(20260810)
    failures = []
    worst = F(0)
    started = time.monotonic()
    for trial in range(200):
        module_v = random_circle_module(rng, grid)
        module_w = random_circle_module(rng, grid)
        circle = interleaving_distance_circle(module_v, module_w)
        try:
            grid_value = bruteforce_distance(to_grid(module_v, grid), to_grid(module_w, grid))
        except Exception as exc:  # budget exhaustion counts as a failed trial here
            failures.append((trial, repr(exc)))
            continue
        gap = abs(grid_value - circle)
        worst = max(worst, gap)
        if gap > bound:
            failures.append((trial, str(circle), str(grid_value)))
    elapsed = time.monotonic() - started
    if elapsed >= 300:
        failures.append(("runtime", elapsed))
    _report(
        1,
        "isometry, N=8, 200 seeded trials",
        failures,
        f"max discrepancy {worst} <= {bound}, {elapsed:.1f}s",
    )


def test_criterion_2_line_direction_on_a_window_grid():
    rng = random.Random(1618)
    failures = []
    worst = F(0)
    for trial in range(100):
        p = rng.randint(0, 6)
        q = rng.randint(p + 1, 7)
        r = rng.randint(0, 6)
        s = rng.randint(r + 1, 7)
        kinds_a = rng.choice(KIND_PAIRS)
        kinds_b = rng.choice(KIND_PAIRS)
        closed_form = interval_distance_line(
            LineInterval(p, q, *kinds_a), LineInterval(r, s, *kinds_b)
        )
        grid_i = to_grid_single(p, q, kinds_a)
        grid_j = to_grid_single(r, s, kinds_b)
        grid_units = bruteforce_distance(grid_i, grid_j) * 16
        gap = abs(grid_units - closed_form)
        worst = max(worst, gap)
        if gap > 1:
            failures.append((trial, (p, q), (r, s), str(closed_form), str(grid_units)))
    _report(
        2,
        "single line intervals vs grid oracle, 16-step window, 100 pairs",
        failures,
        f"max gap {worst} grid step(s)",
    )


def to_grid_single(lo: int, hi: int, kinds):
    from circlepers import CircleModule

    return to_grid(CircleModule((CircleInterval(F(lo, 16), F(hi, 16), *kinds),)), 16)


def test_criterion_3_bottleneck_matches_exhaustive_enumeration():
    rng = random.Random(271828)
    failures = []
    started = time.monotonic()
    for trial in range(500):
        a = random_plane_diagram(rng)
        b = random_plane_diagram(rng)
        pair_costs = [[linf(p, q) for q in b.points] for p in a.points]
        expected = enumerate_bottleneck(
            pair_costs, [diag_cost(p) for p in a.points], [diag_cost(q) for q in b.points]
        )
        if bottleneck_plane(a, b).value != expected:
            failures.append(("plane", trial))
    for trial in range(500):
        a = random_quotient_diagram(rng)
        b = random_quotient_diagram(rng)
        pair_costs = [[quotient_linf(p, q) for q in b.points] for p in a.points]
        expected = enumerate_bottleneck(
            pair_costs,
            [p.persistence / 2 for p in a.points],
            [q.persistence / 2 for q in b.points],
        )
        if bottleneck_quotient(a, b).value != expected:
            failures.append(("quotient", trial))
    elapsed = time.monotonic() - started
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    _report(
        3,
        "bottleneck exactness vs enumeration, 500 plane + 500 quotient instances",
        failures,
        f"{elapsed:.1f}s",
    )


def test_criterion_4_quotient_distance_closed_form():
    rng = random.Random(4242)
    failures = []
    for trial in range(10_000):
        p = random_quotient_point(rng)
        q = random_quotient_point(rng)
        if quotient_linf(p, q) != window_quotient_linf(p, q):
            failures.append((trial, p, q))
    _report(4, "quotient closed form vs windowed enumeration, 10^4 pairs", failures)


def test_criterion_5_matching_transfer_constructions():
    rng = random.Random(55555)
    failures = []

    for trial in range(200):
        a = random_quotient_diagram(rng)
        b = random_quotient_diagram(rng)
        matching = random_partial_matching(rng, len(a.points), len(b.points))
        lifted = lift_matching(a, b, matching)
        if invariant_cost(lifted) != matching_cost_quotient(a, b, matching):
            failures.append(("lift-equality", trial))

    for trial in range(200):
        m = random_invariant_matching(rng)
        plane_cost = invariant_cost(m)
        projected = project_matching(m)
        try:
            projected.validate_for(len(m.classes_a), len(m.classes_b))
        except ValueError:
            failures.append(("project-valid", trial))
            continue
        backing = {(p.a, p.b) for p in m.orbit_pairs}
        cost = F(0)
        for i, j in projected.pairs:
            if (i, j) not in backing:
                failures.append(("project-invariant-i", trial))
            cost = max(cost, quotient_linf(m.classes_a[i], m.classes_b[j]))
        for i in projected.unmatched_a:
            if i in {op.a for op in m.orbit_pairs}:
                failures.append(("project-invariant-ii", trial))
            cost = max(cost, m.classes_a[i].persistence / 2)
        for j in projected.unmatched_b:
            if j in {op.b for op in m.orbit_pairs}:
                failures.append(("project-invariant-ii", trial))
            cost = max(cost, m.classes_b[j].persistence / 2)
        if cost > plane_cost:
            failures.append(("project-cost", trial))

    # both directions together certify that the plane and quotient optima agree
    # on the generated family
    for trial in range(50):
        a = random_quotient_diagram(rng)
        b = random_quotient_diagram(rng)
        value, witness = bottleneck_quotient(a, b)
        if invariant_cost(lift_matching(a, b, witness)) != value:
            failures.append(("certify-lift", trial))
        for _ in range(4):
            m = random_invariant_matching(rng, a.points, b.points)
            if invariant_cost(m) < value:
                failures.append(("certify-project", trial))
    _report(
        5,
        "matching transfer: 200 lifts exact, 200 projections bounded, optima certified",
        failures,
    )


def test_criterion_6_feasibility_monotone_and_symmetric():
    rng = random.Random(66)
    failures = []
    for trial in range(100):
        v = to_grid(random_on_grid_module(rng, 8, 2), 8)
        w = to_grid(random_on_grid_module(rng, 8, 2), 8)
        previous = False
        for s in range(0, 13):
            feasible = feasible_interleaving(v, w, s).feasible
            mirrored = feasible_interleaving(w, v, s).feasible
            if feasible != mirrored:
                failures.append(("symmetry", trial, s))
            if previous and not feasible:
                failures.append(("monotonicity", trial, s))
            previous = feasible
    _report(6, "feasibility monotone and symmetric, 100 grid pairs", failures)


def test_criterion_7_direct_sum_max_bound():
    rng = random.Random(777)
    failures = []
    for trial in range(50):
        v1 = to_grid(random_on_grid_module(rng, 8, 1), 8)
        w1 = to_grid(random_on_grid_module(rng, 8, 1), 8)
        v2 = to_grid(random_on_grid_module(rng, 8, 1), 8)
        w2 = to_grid(random_on_grid_module(rng, 8, 1), 8)
        if not max_direct_sum_bound_check(v1, w1, v2, w2):
            failures.append(trial)
    _report(7, "direct-sum max bound, 50 quadruples", failures)


def test_criterion_8_metric_axioms():
    rng = random.Random(888)
    failures = []

    for trial in range(100):
        p = random_quotient_point(rng)
        q = random_quotient_point(rng)
        r = random_quotient_point(rng)
        if quotient_linf(p, q) != quotient_linf(q, p):
            failures.append(("qlinf-symmetry", trial))
        if quotient_linf(p, p) != 0:
            failures.append(("qlinf-identity", trial))
        if quotient_linf(p, r) > quotient_linf(p, q) + quotient_linf(q, r):
            failures.append(("qlinf-triangle", trial))

    for trial in range(100):
        a = random_plane_diagram(rng, max_points=3)
        b = random_plane_diagram(rng, max_points=3)
        c = random_plane_diagram(rng, max_points=3)
        ab = bottleneck_plane(a, b).value
        if ab != bottleneck_plane(b, a).value:
            failures.append(("plane-symmetry", trial))
        if bottleneck_plane(a, a).value != 0:
            failures.append(("plane-identity", trial))
        if bottleneck_plane(a, c).value > ab + bottleneck_plane(b, c).value:
            failures.append(("plane-triangle", trial))

    for trial in range(100):
        a = random_quotient_diagram(rng, max_points=3)
        b = random_quotient_diagram(rng, max_points=3)
        c = random_quotient_diagram(rng, max_points=3)
        ab = bottleneck_quotient(a, b).value
        if ab != bottleneck_quotient(b, a).value:
            failures.append(("quotient-symmetry", trial))
        if bottleneck_quotient(a, a).value != 0:
            failures.append(("quotient-identity", trial))
        if bottleneck_quotient(a, c).value > ab + bottleneck_quotient(b, c).value:
            failures.append(("quotient-triangle", trial))

    _report(8, "metric axioms, 100 random triples per metric", failures)
