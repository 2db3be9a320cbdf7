"""Seeded inputs, command lines and answer checks for the three workloads.

A workload is built from its seed alone: `build(name, seed, workdir)` writes
every input file under *workdir* and returns one *round*, a list of jobs.  A
job is a short sequence of CLI invocations (`Op`) that must run in order,
because later ones read files written by earlier ones; jobs are independent
of each other, so the round is shuffled by job.  Every round has at least
100 ops, so the 90th percentile of its op latencies has 10 ops above it.

An op that writes files names them in `outputs`; they are removed before
every run of the op, so its check never reads what an earlier pass wrote.
Every op carries a `check` that receives the captured stdout and stderr of a
successful invocation.  It verifies what can be verified without recorded
answers (witness certificates, diagram contents, the isometry bound), raises
`OpFailure` when that fails (or a parse error on output it cannot read), and
returns the op's answer in the exact form the program printed, which the
caller compares with the recorded one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from circlepers import (
    InvariantMatching,
    OrbitPair,
    PartialMatching,
    invariant_cost,
    matching_cost,
    matching_cost_quotient,
)
from circlepers import io as fileio
from circlepers.cli import random_circle_module

WORKLOADS = ("diagram-distance", "isometry-grid", "file-pipeline")

INF = math.inf
KINDS = ("oo", "oc", "co", "cc")


class OpFailure(Exception):
    """An op finished but its output failed a check; *kind* names the failure."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


@dataclass
class Op:
    key: str  # names the op in failure reports
    argv: list[str]
    check: Callable[[str, str], str]
    outputs: tuple[Path, ...] = ()  # files the op writes; removed before each run of it
    index: int = -1  # position in the round; indexes the recorded answers


Job = list[Op]


def build(name: str, seed: int, workdir: Path) -> list[Job]:
    builders = {
        "diagram-distance": _diagram_distance,
        "isometry-grid": _isometry_grid,
        "file-pipeline": _file_pipeline,
    }
    rng = random.Random(f"{name}/{seed}")
    jobs = builders[name](rng, workdir)
    rng.shuffle(jobs)
    for index, op in enumerate(op for job in jobs for op in job):
        op.index = index
    return jobs


# -- number and file helpers (independent of the package's own formatter) --


def _num(x) -> str:
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    return str(x)


def _parse_num(token: str):
    if token in ("inf", "+inf"):
        return INF
    if token == "-inf":
        return -INF
    return Fraction(token)


def _write_intervals(path: Path, rows, json_lines: bool) -> None:
    if json_lines:
        lines = [json.dumps({"kind": k, "lo": _num(lo), "hi": _num(hi)}) for k, lo, hi in rows]
    else:
        lines = [f"{k} {_num(lo)} {_num(hi)}" for k, lo, hi in rows]
    path.write_text("# kind lo hi\n" + "\n".join(lines) + "\n", encoding="utf-8")


def _write_points(path: Path, points, json_lines: bool = False) -> None:
    """Write (a, b) points; repeated points become one line with a multiplicity."""
    lines = []
    for (a, b), count in Counter(points).items():
        if json_lines:
            lines.append(json.dumps({"a": _num(a), "b": _num(b), "multiplicity": count}))
        elif count > 1:
            lines.append(f"{_num(a)} {_num(b)} {count}")
        else:
            lines.append(f"{_num(a)} {_num(b)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_diagram_counter(text: str) -> Counter:
    """Multiset of (a, b) in a diagram file written by `dgm`, text or json-lines."""
    points: Counter = Counter()
    for line in text.splitlines():
        if line.startswith("{"):
            rec = json.loads(line)
            a, b, m = _parse_num(rec["a"]), _parse_num(rec["b"]), rec["multiplicity"]
        else:
            a_text, b_text, m_text = line.split()
            a, b, m = _parse_num(a_text), _parse_num(b_text), int(m_text)
        points[(a, b)] += m
    return points


def _read_matching_lines(lines) -> tuple[set, set, set]:
    """Pairs (with an optional shift) and unmatched indices of a matching listing.

    Reads the text lines and the json-lines records that `distance --witness`
    and `transfer` write.
    """
    pairs, unmatched_a, unmatched_b = set(), set(), set()
    for line in lines:
        if line.startswith("{"):
            rec = json.loads(line)
            if "pair" in rec:
                pairs.add(tuple(rec["pair"]) + ((rec["shift"],) if "shift" in rec else ()))
            elif "unmatchedA" in rec:
                unmatched_a.add(rec["unmatchedA"])
            else:
                unmatched_b.add(rec["unmatchedB"])
            continue
        parts = line.split()
        if parts[0] == "pair":
            pairs.add(tuple(int(p) for p in parts[1:]))
        elif parts[0] == "unmatchedA":
            unmatched_a.add(int(parts[1]))
        elif parts[0] == "unmatchedB":
            unmatched_b.add(int(parts[1]))
        else:
            raise OpFailure("BadOutput", f"unexpected matching line {line!r}")
    return pairs, unmatched_a, unmatched_b


def _digest(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()[:16]


# -- random instances -------------------------------------------------------

DEN = 240  # coordinates are multiples of 1/240, written as reduced p/q


def _quotient_points(rng, n: int):
    points = []
    for _ in range(n):
        a = Fraction(rng.randrange(DEN), DEN) + rng.randint(-2, 2)  # any representative
        points.append((a, a + Fraction(rng.randint(1, 2 * DEN), DEN)))
    return points


def _circle_rows(rng, n: int, den: int = DEN):
    rows = []
    for _ in range(n):
        lo = Fraction(rng.randrange(-2 * den, 3 * den), den)
        rows.append((rng.choice(KINDS), lo, lo + Fraction(rng.randint(1, 2 * den), den)))
    return rows


def _plane_points(rng, n_finite: int, n_up: int, n_down: int):
    points = []
    for _ in range(n_finite):
        a = Fraction(rng.randrange(-4 * DEN, 4 * DEN), DEN)
        points.append((a, a + Fraction(rng.randint(0, 2 * DEN), DEN)))
    points += [(Fraction(rng.randrange(-4 * DEN, 4 * DEN), DEN), INF) for _ in range(n_up)]
    points += [(-INF, Fraction(rng.randrange(-4 * DEN, 4 * DEN), DEN)) for _ in range(n_down)]
    rng.shuffle(points)
    return points


# -- checks -----------------------------------------------------------------


def _distance_check(metric: str, path_a: Path, path_b: Path, witness: bool):
    """Value as printed; with a witness, its cost must equal the value."""

    def check(out: str, err: str) -> str:
        lines = out.splitlines()
        value_text = lines[0]
        if value_text.startswith("{"):
            value_text = json.loads(value_text)["value"]
        if witness:
            value = _parse_num(value_text)
            pairs, unmatched_a, unmatched_b = _read_matching_lines(lines[1:])
            if metric == "bottleneck":
                a = fileio.read_plane_diagram(path_a.read_text(encoding="utf-8"))
                b = fileio.read_plane_diagram(path_b.read_text(encoding="utf-8"))
                cost_of = matching_cost
            else:
                a = fileio.read_quotient_diagram(path_a.read_text(encoding="utf-8"))
                b = fileio.read_quotient_diagram(path_b.read_text(encoding="utf-8"))
                cost_of = matching_cost_quotient
            matching = PartialMatching(
                frozenset((p[0], p[1]) for p in pairs), frozenset(unmatched_a), frozenset(unmatched_b)
            )
            try:
                cost = cost_of(a, b, matching)
            except ValueError as exc:
                raise OpFailure("BadWitness", str(exc)) from exc
            if cost != value:
                raise OpFailure("BadWitness", f"witness costs {cost}, value is {value_text}")
        return value_text

    return check


def _dgm_check(expected: Counter, out_path: Path):
    """The written diagram holds exactly the expected points; answer is its digest."""

    def check(out: str, err: str) -> str:
        text = out_path.read_text(encoding="utf-8")
        if _read_diagram_counter(text) != expected:
            raise OpFailure("WrongDiagram", f"{out_path.name} differs from the interval list")
        return _digest(text)

    return check


def _circle_diagram(rows) -> Counter:
    points: Counter = Counter()
    for _, lo, hi in rows:
        shift = math.floor(lo)
        points[(lo - shift, hi - shift)] += 1
    return points


def _line_diagram(rows) -> Counter:
    return Counter((lo, hi) for _, lo, hi in rows)


# -- diagram-distance ---------------------------------------------------------

SIZES = (4, 6, 8, 12, 16, 24, 32)
COLLECTIONS = 2  # independent diagram collections per round, each paired all-to-all
ODD_PLANE = 3  # the plane diagram with one (a, inf) point instead of two


def _diagram_distance(rng, workdir: Path) -> list[Job]:
    """All pairs within each collection of seven diagrams per kind, as a
    distance matrix computes them."""
    jobs = []
    for col in range(COLLECTIONS):
        quotient = []
        circle = []
        plane = []
        for idx, n in enumerate(SIZES):
            path = workdir / f"q{col}-{idx}.txt"
            _write_points(path, _quotient_points(rng, n))
            quotient.append(path)

            path = workdir / f"c{col}-{idx}.txt"
            _write_intervals(path, _circle_rows(rng, n), json_lines=False)
            circle.append(path)

            n_up, n_down = (1, 1) if idx == ODD_PLANE else (2, 1)
            path = workdir / f"p{col}-{idx}.txt"
            _write_points(path, _plane_points(rng, n - n_up - n_down, n_up, n_down))
            plane.append(path)

        for i in range(len(SIZES)):
            for j in range(i + 1, len(SIZES)):
                for tag, metric, paths, witness in (
                    ("q", "bottleneck-q", quotient, True),
                    ("c", "interleave-circle", circle, False),
                    ("p", "bottleneck", plane, True),
                ):
                    argv = ["distance", metric, str(paths[i]), str(paths[j])]
                    if witness:
                        argv.append("--witness")
                    check = _distance_check(metric, paths[i], paths[j], witness)
                    jobs.append([Op(f"{tag}{col}.{i}-{j}", argv, check)])
    return jobs


# -- isometry-grid ------------------------------------------------------------

TRIALS_PER_STRATUM = ((12, 3), (8, 8))  # (grid, trials) drawn for each stratum
MAX_INTERVALS = 3  # the CLI draws 0..3 intervals per module
_TRIAL = re.compile(r"circle=(\S+) grid=(\S+) ")
_SUMMARY = re.compile(r"violations (\d+); budget exhausted (\d+)$")


def _isometry_check(out: str, err: str) -> str:
    """Both distances of the trial; the summary must report no violation."""
    trial, summary = out.splitlines()
    match = _SUMMARY.search(summary)
    if match is None:
        raise OpFailure("BadOutput", f"unexpected summary {summary!r}")
    if int(match.group(2)):
        raise OpFailure("BudgetExceeded", trial)
    if int(match.group(1)):
        raise OpFailure("IsometryViolation", trial)
    return " ".join(_TRIAL.search(trial).groups())


def _interval_counts(trial_seed: int, grid: int) -> tuple[int, int]:
    """Interval counts of the two modules `verify-isometry --seed` draws first."""
    draw = random.Random(trial_seed)
    return tuple(len(random_circle_module(draw, grid).intervals) for _ in range(2))


def _isometry_grid(rng, workdir: Path) -> list[Job]:
    """Independent single-trial `verify-isometry` runs; only their seeds are inputs.

    Trial seeds are drawn at random and stratified by the interval counts of
    the two modules the CLI draws from them: every one of the 16 count pairs
    gets the same number of trials, the share it has among all seeds.  A
    trial's cost grows steeply with those counts, so a fixed mix keeps the
    round's cost from moving with the seed; a seed is set aside only when its
    count pair is already full, never for what its trial does.
    """
    jobs = []
    for grid, per_stratum in TRIALS_PER_STRATUM:
        room = dict.fromkeys(itertools.product(range(MAX_INTERVALS + 1), repeat=2), per_stratum)
        while any(room.values()):
            trial_seed = rng.randrange(2**32)
            counts = _interval_counts(trial_seed, grid)
            if room[counts]:
                room[counts] -= 1
                argv = ["verify-isometry", "--trials", "1", "--grid", str(grid), "--seed", str(trial_seed)]
                jobs.append([Op(f"g{grid}s{trial_seed}", argv, _isometry_check)])
    return jobs


# -- file-pipeline ------------------------------------------------------------

LARGE_LISTS = (  # (mode, json-lines input, lines)
    ("circle", False, 1500),
    ("circle", True, 1000),
    ("line", False, 1500),
    ("line", True, 1000),
)
TINY_JOBS = 28
TRANSFER_CLASSES = 500


def _line_rows(rng, n: int, den: int = 64, essential: bool = True):
    """Line intervals; with *essential*, about 3% have an infinite endpoint."""
    rows = []
    for _ in range(n):
        roll = rng.random() if essential else 1.0
        lo = Fraction(rng.randrange(-8 * den, 8 * den), den)
        if roll < 0.02:
            rows.append(("co", lo, INF))
        elif roll < 0.03:
            rows.append(("oo", -INF, lo))
        else:
            length = Fraction(rng.randint(0, 3 * den // 2), den)
            rows.append(("cc" if length == 0 else rng.choice(KINDS), lo, lo + length))
    return rows


def _large_dgm_jobs(rng, workdir: Path) -> list[Job]:
    jobs = []
    for idx, (mode, json_in, n) in enumerate(LARGE_LISTS):
        rows = _circle_rows(rng, n, den=64) if mode == "circle" else _line_rows(rng, n)
        expected = _circle_diagram(rows) if mode == "circle" else _line_diagram(rows)
        src = workdir / f"big{idx}.{'jsonl' if json_in else 'txt'}"
        _write_intervals(src, rows, json_in)
        for fmt in ("text", "json-lines"):
            out = workdir / f"big{idx}-{fmt}.dgm"
            argv = ["dgm", mode, str(src), "-o", str(out), "--format", fmt]
            jobs.append([Op(f"big{idx}-{fmt}", argv, _dgm_check(expected, out), (out,))])
    return jobs


def _tiny_jobs(rng, workdir: Path) -> list[Job]:
    """dgm on two tiny lists, then `distance` reads both written diagrams back."""
    jobs = []
    for idx in range(TINY_JOBS):
        mode = "circle" if idx % 2 == 0 else "line"
        fmt = "json-lines" if idx % 4 >= 2 else "text"
        job = []
        outs = []
        for side in "ab":
            n = 6  # fixed, so the latency of these ops depends on little but the code
            if mode == "circle":
                rows = _circle_rows(rng, n, den=16)
                expected = _circle_diagram(rows)
            else:
                rows = _line_rows(rng, n, den=16, essential=False)
                expected = _line_diagram(rows)
            src = workdir / f"tiny{idx}{side}.txt"
            _write_intervals(src, rows, json_lines=side == "b")
            out = workdir / f"tiny{idx}{side}.dgm"
            argv = ["dgm", mode, str(src), "-o", str(out), "--format", fmt]
            job.append(Op(f"tiny{idx}{side}", argv, _dgm_check(expected, out), (out,)))
            outs.append(out)
        metric = "bottleneck-q" if mode == "circle" else "bottleneck"
        argv = ["distance", metric, str(outs[0]), str(outs[1]), "--witness", "--format", fmt]
        job.append(Op(f"tiny{idx}d", argv, _distance_check(metric, outs[0], outs[1], True)))
        jobs.append(job)
    return jobs


def _report(err: str) -> dict:
    """The cost report `transfer` prints on stderr, in either format."""
    if err.startswith("{"):
        return json.loads(err)
    report = {}
    for line in err.splitlines():
        key, value = line.split(" ", 1)
        report[key] = value
    return report


def _transfer_jobs(rng, workdir: Path) -> list[Job]:
    jobs = []
    for idx, json_in in enumerate((False, True)):
        suffix = "jsonl" if json_in else "txt"
        paths = []
        for side in "ab":
            path = workdir / f"classes{idx}{side}.{suffix}"
            _write_points(path, _quotient_points(rng, TRANSFER_CLASSES), json_lines=json_in)
            paths.append(path)
        diagram_a, diagram_b = (
            fileio.read_quotient_diagram(p.read_text(encoding="utf-8")) for p in paths
        )
        n_a, n_b = len(diagram_a.points), len(diagram_b.points)
        fmt = "json-lines" if json_in else "text"
        for m in range(2):
            a_idx = rng.sample(range(n_a), n_a)
            b_idx = rng.sample(range(n_b), n_b)
            matched = rng.randint(n_a // 2, n_a - n_a // 10)
            pairs = sorted(zip(a_idx[:matched], b_idx[:matched]))

            lift_in = workdir / f"lift{idx}{m}.txt"
            lines = [f"pair {i} {j}" for i, j in pairs]
            lines += [f"unmatchedA {i}" for i in sorted(a_idx[matched:])]
            lines += [f"unmatchedB {j}" for j in sorted(b_idx[matched:])]
            lift_in.write_text("\n".join(lines) + "\n", encoding="utf-8")
            quotient_cost = matching_cost_quotient(
                diagram_a, diagram_b, PartialMatching.from_pairs(pairs, n_a, n_b)
            )
            lift_out = workdir / f"lift{idx}{m}.out"
            argv = ["transfer", "lift", "--diagram-a", str(paths[0]), "--diagram-b", str(paths[1]),
                    "--matching", str(lift_in), "-o", str(lift_out), "--format", fmt]
            jobs.append([Op(f"lift{idx}{m}", argv,
                            _lift_check(diagram_a, diagram_b, quotient_cost, lift_out), (lift_out,))])

            orbit_pairs = [OrbitPair(i, j, rng.randint(-2, 2)) for i, j in pairs]
            project_in = workdir / f"project{idx}{m}.txt"
            project_in.write_text(
                "".join(f"pair {p.a} {p.b} {p.shift}\n" for p in orbit_pairs), encoding="utf-8"
            )
            orbit_cost = invariant_cost(
                InvariantMatching(diagram_a.points, diagram_b.points, frozenset(orbit_pairs))
            )
            project_out = workdir / f"project{idx}{m}.out"
            argv = ["transfer", "project", "--diagram-a", str(paths[0]), "--diagram-b", str(paths[1]),
                    "--matching", str(project_in), "-o", str(project_out), "--format", fmt]
            jobs.append([Op(f"project{idx}{m}", argv,
                            _project_check(diagram_a, diagram_b, orbit_cost, project_out),
                            (project_out,))])
    return jobs


def _lift_check(diagram_a, diagram_b, quotient_cost, out_path: Path):
    """The lifted orbit matching costs exactly the quotient matching's cost."""

    def check(out: str, err: str) -> str:
        pairs, _, _ = _read_matching_lines(out_path.read_text(encoding="utf-8").splitlines())
        try:
            lifted = InvariantMatching(
                diagram_a.points, diagram_b.points, frozenset(OrbitPair(*p) for p in pairs)
            )
        except ValueError as exc:
            raise OpFailure("BadWitness", str(exc)) from exc
        cost = invariant_cost(lifted)
        if cost != quotient_cost:
            raise OpFailure("BadWitness", f"lift costs {cost}, quotient {quotient_cost}")
        return json.dumps(_report(err), sort_keys=True)

    return check


def _project_check(diagram_a, diagram_b, orbit_cost, out_path: Path):
    """The projected quotient matching costs no more than the orbit matching."""

    def check(out: str, err: str) -> str:
        pairs, unmatched_a, unmatched_b = _read_matching_lines(
            out_path.read_text(encoding="utf-8").splitlines()
        )
        projected = PartialMatching(frozenset(pairs), frozenset(unmatched_a), frozenset(unmatched_b))
        try:
            cost = matching_cost_quotient(diagram_a, diagram_b, projected)
        except ValueError as exc:
            raise OpFailure("BadWitness", str(exc)) from exc
        if cost > orbit_cost:
            raise OpFailure("BadWitness", f"projection costs {cost} > orbit cost {orbit_cost}")
        return json.dumps(_report(err), sort_keys=True)

    return check


def _file_pipeline(rng, workdir: Path) -> list[Job]:
    return _large_dgm_jobs(rng, workdir) + _tiny_jobs(rng, workdir) + _transfer_jobs(rng, workdir)
