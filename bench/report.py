"""Run workloads several times and report every metric, its spread and bound.

    python3 bench/report.py                          # every workload once, seed 1
    python3 bench/report.py --seeds 1-10,1-10        # steadiness: two sets of 10 seeds
    python3 bench/report.py --seeds 7,7,7,7,7        # one seed repeated: the host's noise
    python3 bench/report.py --workload isometry-grid --seeds 7,7 --trace
    python3 bench/report.py --seeds 1-10 --compare ../parent-checkout

Each run is a fresh `bench/run.py` process, one per seed listed, in order.
For the end-to-end metrics the report gives the median, the quartiles and
the spread (q3 - q1) / median next to the bound fixed in BENCHMARK.json,
and counts failed ops against attempted ones, by failure type.  When a seed
is listed more than once it also gives the same-seed spread, that of each
run's value relative to its seed's median, which holds the inputs fixed.
With four runs or more it compares the median of the first half of the runs
with that of the second half, as two sets of runs of the same code must
agree within the bound.  With --trace it reports the per-layer
metrics instead, checks that count metrics repeat exactly across runs with
the same seed, and shows the tracing overhead.

With --compare DIR, every seed runs on DIR's checkout (the parent) and on
this one, alternating which goes first, and each metric is judged as the
benchmark's rules say: a regression when the change's median is worse than
the parent's by more than the bound, a gain when the change wins at least
nine tenths of the pairs and the medians differ by more than the parent's
noise: its same-seed spread when seeds repeat, else its quartile distance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

from run import parse_seeds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    detail = next(line for line in proc.stderr.splitlines() if line.startswith("detail "))
    result["failures"] = json.loads(detail[len("detail "):])["failures"]
    result["seed"] = seed
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def failure_lines(runs: list[dict]) -> list[str]:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    kinds: Counter = Counter()
    for r in runs:
        kinds.update(r["failures"])
    lines = [f"  failed_ops_ratio {failed / attempted:.6f} ratio ({failed} failed of {attempted} "
             f"attempted, {len(runs)} runs); answers correct in every run: "
             f"{all(r['correct'] for r in runs)}"]
    lines += [f"    {kind}: {count}" for kind, count in sorted(kinds.items())]
    return lines


def same_seed_spread(runs: list[dict], name: str) -> float | None:
    """Spread of each run's value relative to the median of its seed's runs.

    Only seeds run more than once count, so the inputs are held fixed and
    what remains is the host's noise.
    """
    by_seed: dict[int, list[float]] = {}
    for r in runs:
        by_seed.setdefault(r["seed"], []).append(r["metrics"][name]["value"])
    ratios = [v / statistics.median(vs) for vs in by_seed.values()
              if len(vs) > 1 and statistics.median(vs) for v in vs]
    return spread(ratios) if len(ratios) > 1 else None


def report_steadiness(workload: str, runs: list[dict], metrics: list[dict]) -> None:
    print(f"{workload}: {len(runs)} runs, seeds {', '.join(str(r['seed']) for r in runs)}")
    width = max(len(spec["name"]) for spec in metrics)
    print(f"  {'metric':<{width}} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}"
          f" {'same-seed':>9} {'bound':>7}")
    half = len(runs) // 2
    for spec in metrics:
        values = [r["metrics"][spec["name"]]["value"] for r in runs]
        q1, median, q3 = quartiles(values)
        noise = same_seed_spread(runs, spec["name"])
        bound = spec.get("bound")
        line = (f"  {spec['name']:<{width}} {spec['unit']:<6} {median:>12.6g} {q1:>12.6g} {q3:>12.6g}"
                f" {spread(values):>8.2%} {'-' if noise is None else f'{noise:.2%}':>9}")
        if bound is not None:
            if spread(values) <= bound / 3:
                verdict = "steady"
            elif spread(values) <= bound:
                verdict = "within bound"
            else:
                verdict = "SPREAD ABOVE BOUND"
            line += f" {bound:>7.0%}  {verdict}"
        print(line)
        if len(values) > 1:
            print("    runs: " + " ".join(f"{v:.6g}" for v in values))
        if bound is not None and half >= 2:
            first, second = statistics.median(values[:half]), statistics.median(values[half:])
            worse = (second - first) / first if spec["better"] == "lower" else (first - second) / first
            agree = "agree" if worse <= bound else "SECOND HALF WORSE THAN BOUND"
            print(f"    halves: median of runs 1-{half} {first:.6g}, of runs {half + 1}-{len(runs)}"
                  f" {second:.6g}; second worse by {worse:.2%}: {agree}")
    print("\n".join(failure_lines(runs)))


def report_counts_repeat(runs: list[dict], metrics: list[dict]) -> None:
    by_seed: dict[int, list[dict]] = {}
    for r in runs:
        by_seed.setdefault(r["seed"], []).append(r)
    differing = sorted(
        spec["name"]
        for spec in metrics
        if spec["unit"] == "count"
        for same in by_seed.values()
        if len({json.dumps(r["metrics"][spec["name"]]["value"]) for r in same}) > 1
    )
    repeated = sum(len(same) > 1 for same in by_seed.values())
    if repeated:
        verdict = "identical" if not differing else "DIFFER: " + ", ".join(sorted(set(differing)))
        print(f"  count metrics across runs of the same seed ({repeated} seeds repeated): {verdict}")


def report_compare(workload: str, parent: list[dict], change: list[dict], metrics: list[dict]) -> None:
    print(f"{workload}: {len(change)} pairs, change vs parent")
    print(f"  {'metric':<20} {'parent median':>14} {'change median':>14} {'delta':>8} {'wins':>6}  verdict")
    for spec in metrics:
        name, bound = spec["name"], spec["bound"]
        lower = spec["better"] == "lower"
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        p_q1, p_med, p_q3 = quartiles(p)
        noise = same_seed_spread(parent, name)  # the host alone, when seeds repeat
        noise = p_q3 - p_q1 if noise is None else noise * p_med
        c_med = statistics.median(c)
        delta = (c_med - p_med) / p_med
        worse = delta if lower else -delta
        wins = sum((ci < pi) if lower else (ci > pi) for pi, ci in zip(p, c))
        if worse > bound:
            verdict = "REGRESSION"
        elif wins >= 0.9 * len(c) and worse < 0 and abs(c_med - p_med) > noise:
            verdict = "gain"
        elif spread(p) > bound and not all((ci < min(p)) if lower else (ci > max(p)) for ci in c):
            verdict = "unresolved (parent spread above bound)"
        else:
            verdict = "no regression"
        print(f"  {name:<20} {p_med:>14.6g} {c_med:>14.6g} {delta:>8.2%} {wins:>3}/{len(c):<2}  {verdict}")
    print("  parent:\n" + "\n".join("  " + line for line in failure_lines(parent)))
    print("  change:\n" + "\n".join("  " + line for line in failure_lines(change)))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", type=parse_seeds, default=[1],
                        help="one run per seed listed: seeds and inclusive ranges, e.g. 1-10,1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="traced runs: per-layer metrics")
    parser.add_argument("--compare", type=Path, metavar="DIR",
                        help="checkout of the parent commit to run against, pair by pair")
    args = parser.parse_args(argv)
    if args.trace and args.compare:
        parser.error("--compare judges the end-to-end metrics; run it without --trace")

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    for workload in args.workload or names:
        if args.compare is None:
            runs = [run_once(ROOT, workload, s, args.seconds, args.trace) for s in args.seeds]
            report_steadiness(workload, runs, metrics)
            if args.trace:
                report_counts_repeat(runs, metrics)
        else:
            parent, change = [], []
            for i, s in enumerate(args.seeds):
                order = [(ROOT, change), (args.compare.resolve(), parent)]
                for root, into in order if i % 2 == 0 else reversed(order):
                    into.append(run_once(root, workload, s, args.seconds, args.trace))
            report_compare(workload, parent, change, metrics)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
