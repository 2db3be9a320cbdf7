"""Command line surface: diagrams, distances, isometry verification, transfer.

Exit codes: 0 success, 1 property violation, 2 input error, 3 internal
error (an unexpected exception; one ``internal error: <Type>: <message>``
line goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import io as fileio
from .grid import to_grid
from .intervals import CLOSED, OPEN, CircleInterval, CircleModule, diagram_of, diagram_of_line
from .interleaving import BudgetExceeded, DEFAULT_BUDGET, bruteforce_distance, interleaving_distance_circle
from .matching_transfer import invariant_cost, lift_matching, project_matching
from .metric_plane import bottleneck_plane
from .metric_quotient import bottleneck_quotient, matching_cost_quotient
from .rationals import format_ratio

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def random_circle_module(rng: random.Random, grid: int) -> CircleModule:
    """Random on-grid circle module, as used by `verify-isometry`.

    Draw order (documented so runs are reproducible): interval count uniform
    on 0..3, then per interval a start uniform on {0,...,grid-1}/grid and a
    length uniform on {1,...,grid}/grid.  Intervals are closed-open.
    """
    count = rng.randint(0, 3)
    intervals = []
    for _ in range(count):
        start = rng.randrange(grid)
        length = rng.randint(1, grid)
        intervals.append(CircleInterval(Fraction(start, grid), Fraction(start + length, grid), CLOSED, OPEN))
    return CircleModule(tuple(intervals))


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _cmd_dgm(args) -> int:
    text = _read_text(args.input)
    if args.mode == "line":
        diagram = diagram_of_line(fileio.read_line_module(text))
        out = fileio.write_plane_diagram(diagram, args.format)
    else:
        diagram = diagram_of(fileio.read_circle_module(text))
        out = fileio.write_quotient_diagram(diagram, args.format)
    _emit(out, args.output)
    return EXIT_OK


def _cmd_distance(args) -> int:
    if args.no_canonicalize and args.metric != "bottleneck-q":
        raise ValueError("--no-canonicalize applies only to bottleneck-q")
    canonicalize = not args.no_canonicalize
    read, kernel = {
        "bottleneck": (fileio.read_plane_diagram, bottleneck_plane),
        "bottleneck-q": (lambda text: fileio.read_quotient_diagram(text, canonicalize), bottleneck_quotient),
        # interleave-circle: inputs are interval lists for circle modules
        "interleave-circle": (lambda text: diagram_of(fileio.read_circle_module(text)), bottleneck_quotient),
    }[args.metric]
    # both files are read before either is parsed, so an unreadable file is reported first
    texts = [_read_text(args.diagram_a), _read_text(args.diagram_b)]
    a, b = [read(text) for text in texts]
    result = kernel(a, b)

    if args.format == "json-lines":
        out = json.dumps({"metric": args.metric, "value": format_ratio(result.value)}) + "\n"
    else:
        out = format_ratio(result.value) + "\n"
    if args.witness and args.metric == "bottleneck":
        out += fileio.write_partial_matching(result.witness, args.format)
    elif args.witness:
        # each pair carries its aligning shift, so the witness is an orbit matching
        out += fileio.write_invariant_matching(lift_matching(a, b, result.witness), args.format)
    sys.stdout.write(out)
    return EXIT_OK


def _cmd_verify_isometry(args) -> int:
    if not 0 <= args.seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    if args.trials < 1:
        raise ValueError("trials must be at least 1")
    if args.grid < 2:
        raise ValueError("grid resolution must be at least 2")
    if args.budget < 1:
        raise ValueError("budget must be positive")
    rng = random.Random(args.seed)
    bound = Fraction(1, args.grid)
    worst = Fraction(0)
    violations = 0
    exhausted = 0
    lines = []
    for trial in range(args.trials):
        module_v = random_circle_module(rng, args.grid)
        module_w = random_circle_module(rng, args.grid)
        circle = interleaving_distance_circle(module_v, module_w)
        record = {"trial": trial, "circle": format_ratio(circle)}
        try:
            grid_value = bruteforce_distance(
                to_grid(module_v, args.grid), to_grid(module_w, args.grid), args.budget
            )
        except BudgetExceeded:
            exhausted += 1
            record["status"] = "budget-exhausted"
        else:
            gap = abs(grid_value - circle)
            worst = max(worst, gap)
            status = "ok"
            if gap > bound:
                violations += 1
                status = "violation"
            record.update(grid=format_ratio(grid_value), discrepancy=format_ratio(gap), status=status)
        if args.format == "json-lines":
            lines.append(json.dumps(record))
        else:
            _, *fields, (_, status) = record.items()
            lines.append(f"trial {trial}: " + " ".join(f"{k}={v}" for k, v in fields) + f" {status}")
    summary = {
        "trials": args.trials,
        "max_discrepancy": format_ratio(worst),
        "bound": format_ratio(bound),
        "violations": violations,
        "budget_exhausted": exhausted,
    }
    if args.format == "json-lines":
        lines.append(json.dumps({"record": "summary", **summary}))
    else:
        lines.append(
            "max discrepancy {max_discrepancy} over {trials} trials (bound {bound}); "
            "violations {violations}; budget exhausted {budget_exhausted}".format(**summary)
        )
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_VIOLATION if violations else EXIT_OK


def _cmd_transfer(args) -> int:
    canonicalize = not args.no_canonicalize
    diagram_a = fileio.read_quotient_diagram(_read_text(args.diagram_a), canonicalize)
    diagram_b = fileio.read_quotient_diagram(_read_text(args.diagram_b), canonicalize)
    matching_text = _read_text(args.matching)

    if args.direction == "lift":
        quotient_matching = fileio.read_quotient_matching(
            matching_text, len(diagram_a.points), len(diagram_b.points)
        )
        orbit_matching = lift_matching(diagram_a, diagram_b, quotient_matching)
        out = fileio.write_invariant_matching(orbit_matching, args.format)
    else:
        orbit_matching = fileio.read_invariant_matching(matching_text, diagram_a.points, diagram_b.points)
        quotient_matching = project_matching(orbit_matching)
        out = fileio.write_partial_matching(quotient_matching, args.format)
    quotient_cost = matching_cost_quotient(diagram_a, diagram_b, quotient_matching)
    plane_cost = invariant_cost(orbit_matching)
    _emit(out, args.output)

    # each direction reports the cost of the matching it read first
    costs = [("quotient_cost", quotient_cost), ("invariant_cost", plane_cost)]
    if args.direction == "lift":
        verdict, ok = "costs_equal", plane_cost == quotient_cost
    else:
        costs.reverse()
        verdict, ok = "cost_not_increased", quotient_cost <= plane_cost
    report = {"direction": args.direction, **{key: format_ratio(cost) for key, cost in costs}, verdict: ok}

    if args.format == "json-lines":
        sys.stderr.write(json.dumps(report) + "\n")
    else:
        for key, value in report.items():
            sys.stderr.write(f"{key} {value}\n")
    return EXIT_OK if ok else EXIT_VIOLATION


@functools.cache  # parse_args returns a fresh namespace, so one parser serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circlepers",
        description=(
            "Persistence diagrams and exact bottleneck/interleaving distances "
            "for interval modules on the line and the circle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dgm = sub.add_parser("dgm", help="compute a persistence diagram from an interval list")
    p_dgm.add_argument("mode", choices=["line", "circle"])
    p_dgm.add_argument("input", help="interval list file (`KIND lo hi` per line)")
    p_dgm.add_argument("-o", "--output", default=None, help="output file (default: stdout)")

    p_dist = sub.add_parser("distance", help="distance between two diagrams or circle modules")
    p_dist.add_argument("metric", choices=["bottleneck", "bottleneck-q", "interleave-circle"])
    p_dist.add_argument(
        "diagram_a",
        help="first input: diagram file, or interval list for interleave-circle",
    )
    p_dist.add_argument("diagram_b", help="second input")
    p_dist.add_argument("--witness", action="store_true", help="also print an optimal matching")
    p_dist.add_argument(
        "--no-canonicalize",
        action="store_true",
        help="bottleneck-q only: reject non-canonical quotient points instead of canonicalizing",
    )

    p_verify = sub.add_parser(
        "verify-isometry",
        help="compare the diagram distance against the brute-force grid search on random modules",
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--grid", type=int, default=8, help="grid resolution N")
    p_verify.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p_transfer = sub.add_parser(
        "transfer", help="lift a quotient matching to orbits, or project one back"
    )
    p_transfer.add_argument("direction", choices=["lift", "project"])
    p_transfer.add_argument("--diagram-a", required=True, help="quotient diagram file for side A")
    p_transfer.add_argument("--diagram-b", required=True, help="quotient diagram file for side B")
    p_transfer.add_argument("--matching", required=True, help="matching file")
    p_transfer.add_argument("-o", "--output", default=None, help="matching output (default: stdout)")
    p_transfer.add_argument(
        "--no-canonicalize",
        action="store_true",
        help="reject non-canonical quotient points instead of canonicalizing",
    )

    for command in sub.choices.values():
        command.add_argument("--format", choices=["text", "json-lines"], default="text")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "dgm": _cmd_dgm,
        "distance": _cmd_distance,
        "verify-isometry": _cmd_verify_isometry,
        "transfer": _cmd_transfer,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:
        # exit 1 is reserved for a violated property, so a crash needs its own code
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
