"""Run one benchmark workload against the package in this checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are generated from the seed before timing starts.  One
client then calls `circlepers.cli.main(argv)` in this process, one op after
another (a closed loop, no threads), with stdout and stderr captured.  It
makes whole passes over the workload's round of ops, at least two and until
S seconds of op time have been measured.  An op's latency is its fastest
pass: on a shared host the slower passes measure other processes, as with
`timeit`.  Every op's output is checked outside the timed region: by
certificate and, for seeds recorded in `bench/answers/`, against the answer
recorded for that op.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes, at least MIN_PASSES of each and until S seconds of op
time, and reports the per-layer metrics per pass plus the tracing overhead;
it writes every span to bench/out/.

A human-readable report goes to stderr; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
IMPORT_LAUNCHES = 7  # for import.numpy_s
SETUP_SAMPLES = 5  # setup_s samples, spread evenly over a run's op time
SETUP_LAUNCHES = 3  # launches per setup_s sample; the sample is the fastest
MIN_PASSES = 3


def _load_package():
    """Import circlepers from this checkout's src/, or exit with code 2."""
    if not (SRC / "circlepers" / "cli.py").is_file():
        sys.stderr.write(f"error: no package source at {SRC / 'circlepers'}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from circlepers import cli

    if Path(cli.__file__).resolve().parent != (SRC / "circlepers").resolve():
        sys.stderr.write(f"error: imported {cli.__file__}, not the package in {SRC}\n")
        sys.exit(2)
    return cli


def _import_cli(*flags: str) -> tuple[float, str]:
    """Launch a fresh interpreter that imports circlepers.cli; wall time and stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, *flags, "-c", "import circlepers.cli"]
    start = perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    return perf_counter() - start, proc.stderr


class SetupClock:
    """Samples the wall time for a fresh interpreter to import circlepers.cli.

    A sample is the fastest of SETUP_LAUNCHES launches, and SETUP_SAMPLES
    samples are spread evenly over a run's op time, so setup_s, their median,
    sees the host over the whole run rather than in one burst.
    """

    def __init__(self, seconds: float):
        self.every = seconds / SETUP_SAMPLES
        self.samples: list[float] = []
        _import_cli()  # writes the bytecode caches, so no timed launch compiles

    def tick(self, busy: float) -> None:
        """Take the samples due after *busy* seconds of op time."""
        while len(self.samples) < SETUP_SAMPLES and busy >= self.every * len(self.samples):
            self.samples.append(min(_import_cli()[0] for _ in range(SETUP_LAUNCHES)))

    def median(self) -> float:
        self.tick(math.inf)
        return statistics.median(self.samples)


def measure_numpy_import_s() -> float:
    """Median cumulative import time of numpy inside `import circlepers.cli`."""
    times = []
    for _ in range(IMPORT_LAUNCHES):
        for line in _import_cli("-X", "importtime")[1].splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "numpy":
                times.append(int(fields[1]) / 1e6)
    return statistics.median(times) if times else 0.0


class Runner:
    """Runs ops through cli.main, times them and checks their answers."""

    def __init__(self, cli, ops, recorded: list | None):
        self.cli = cli
        self.ops = ops
        self.recorded = recorded
        self.failures: Counter = Counter()
        self.first_failure: dict[str, str] = {}
        self.failed_ops: set[int] = set()  # indices of ops that failed in some pass
        self.answers: list[str | None] = [None] * len(ops)
        self.passed: set[tuple] = set()  # (op, digest of its output) already checked and right
        self.attempted = 0

    def run_op(self, op, tracer=None) -> float:
        for path in op.outputs:
            path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.op = self.attempted
                tracer.enabled = True
            start = perf_counter()
            try:
                rc = self.cli.main(op.argv)
            except Exception as caught:  # every exception is a failed op, by type
                exc = caught
            except SystemExit as caught:  # argparse rejecting an argv
                exc = caught
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
        self.attempted += 1
        if exc is not None:
            trace = "".join(traceback.format_exception(exc)).rstrip()
            self._fail(type(exc).__name__, op, trace)
        elif rc != 0:
            self._fail(f"exit{rc}", op, err.getvalue().strip())
        elif missing := [path.name for path in op.outputs if not path.is_file()]:
            self._fail("MissingOutput", op, f"exit 0 without writing {', '.join(missing)}")
        else:
            self._check(op, out.getvalue(), err.getvalue())
        return elapsed

    def _check(self, op, out: str, err: str) -> None:
        from workloads import OpFailure

        digest = hashlib.sha256("\0".join([out, err]).encode("utf-8"))
        for path in op.outputs:
            digest.update(b"\0" + path.read_bytes())
        key = (op.index, digest.hexdigest())
        if key in self.passed:  # the same op wrote exactly this before, and it passed
            return
        try:
            answer = op.check(out, err)
        except OpFailure as failure:
            self._fail(failure.kind, op, str(failure))
            return
        except (ValueError, KeyError, IndexError, AttributeError) as exc:  # output it cannot parse
            self._fail("BadOutput", op, repr(exc))
            return
        self.answers[op.index] = answer
        if self.recorded is not None and answer != self.recorded[op.index]:
            self._fail("WrongAnswer", op, f"got {answer!r}, recorded {self.recorded[op.index]!r}")
        else:
            self.passed.add(key)

    def _fail(self, kind: str, op, detail: str) -> None:
        self.failures[kind] += 1
        self.failed_ops.add(op.index)
        self.first_failure.setdefault(kind, f"{op.key}: {' '.join(op.argv)}: {detail}")

    def run(self, seconds: float | None = None, passes: int | None = None, tracer=None, clock=None):
        """Whole passes over the round: exactly *passes*, or at least
        MIN_PASSES and until *seconds* of op time.  A *clock* is ticked with
        the op time before every op.

        Returns the op time spent, the passes made, and each op's fastest
        latency over those passes.
        """
        best = [math.inf] * len(self.ops)
        busy = 0.0
        done = 0
        while True:
            for op in self.ops:
                if clock is not None:
                    clock.tick(busy)
                elapsed = self.run_op(op, tracer)
                busy += elapsed
                best[op.index] = min(best[op.index], elapsed)
            done += 1
            if done == passes or (passes is None and done >= MIN_PASSES and busy >= seconds):
                return busy, done, best

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        # a budget refusal is a documented answer, not a wrong one
        return all(kind == "BudgetExceeded" for kind in self.failures)


def parse_seeds(text: str) -> list[int]:
    """Seeds from a comma-separated list of seeds and inclusive ranges: '1-10,7,7'."""
    seeds = []
    for item in text.split(","):
        first, _, last = item.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _recorded_answers(workload: str, seed: int) -> list | None:
    path = BENCH / "answers" / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(str(seed))


def _tidy(value):
    return int(value) if isinstance(value, float) and value.is_integer() and abs(value) < 2**53 else value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    cli = _load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    recorded = _recorded_answers(args.workload, args.seed)

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        ops = [op for job in workloads.build(args.workload, args.seed, Path(tmp)) for op in job]
        if recorded is not None and len(recorded) != len(ops):
            sys.stderr.write(f"error: {len(recorded)} recorded answers for a round of {len(ops)} ops; "
                             "the workload changed since bench/record.py ran\n")
            return 2
        runner = Runner(cli, ops, recorded)
        if args.trace:
            metrics, lines = _traced(runner, args)
        else:
            metrics, lines = _untraced(runner, args)

    log = sys.stderr.write
    log(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per round, "
        f"answers {'recorded' if recorded is not None else 'not recorded (certificates only)'}\n")
    for line in lines:
        log(line + "\n")
    ratio = runner.failed / runner.attempted
    log(f"failed_ops_ratio {ratio:.6f} ratio ({runner.failed} of {runner.attempted} ops)\n")
    for kind, count in sorted(runner.failures.items()):
        log(f"  failure {kind}: {count}; first: {runner.first_failure[kind]}\n")
    log("detail " + json.dumps({"failures": dict(runner.failures)}) + "\n")

    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": _tidy(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _untraced(runner: Runner, args):
    clock = SetupClock(args.seconds)
    busy, passes, best = runner.run(seconds=args.seconds, clock=clock)
    setup_s = clock.median()
    n = len(best)
    completed = n - len(runner.failed_ops)
    metrics = {
        "throughput_ops_s": (completed / sum(best), "ops/s"),
        "latency_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "latency_p90_ms": (percentile(best, 90) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    lines = [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"  samples: {n} ops, each op's fastest of {passes} passes ({runner.attempted} ops "
                 f"in {busy:.3f} s of op time); {n - -(-n * 9 // 10)} ops above p90; "
                 f"setup_s is the median of {SETUP_SAMPLES} samples spread over the run, "
                 f"each the fastest of {SETUP_LAUNCHES} launches")
    return metrics, lines


def _traced(runner: Runner, args):
    from spans import Tracer, unit_of

    tracer = Tracer()
    best = {False: [math.inf] * len(runner.ops), True: [math.inf] * len(runner.ops)}
    busy = {False: 0.0, True: 0.0}
    passes = 0  # traced passes, and as many untraced ones
    while passes < MIN_PASSES or sum(busy.values()) < args.seconds:
        for traced in (False, True):  # alternating, so a drifting host slows both sides alike
            if traced:
                tracer.install()
            try:
                spent, _, pass_best = runner.run(passes=1, tracer=tracer if traced else None)
            finally:
                tracer.uninstall()
            busy[traced] += spent
            best[traced] = list(map(min, best[traced], pass_best))
        passes += 1

    layer = tracer.summarise(passes)
    layer["import.numpy_s"] = measure_numpy_import_s()
    layer["trace.overhead_ratio"] = sum(best[True]) / sum(best[False]) - 1
    trace_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(trace_path)

    metrics = {name: (_tidy(value), unit_of(name)) for name, value in layer.items()}
    lines = [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"  per pass over the round, from {passes} traced passes; "
                 f"{len(tracer.span_start)} spans in {trace_path.relative_to(ROOT)}")
    lines.append(f"  tracing overhead: fastest latencies sum to {sum(best[True]):.3f} s traced vs "
                 f"{sum(best[False]):.3f} s untraced over {passes} alternating passes each "
                 f"({busy[True]:.3f} s vs {busy[False]:.3f} s of op time)")
    return metrics, lines


if __name__ == "__main__":
    sys.exit(main())
