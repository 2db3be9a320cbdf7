"""Record every op's answer, per workload and seed, into bench/answers/.

    python3 bench/record.py --seeds 0-31 [--workload NAME]

Runs one untimed round of each workload per seed and stores its answers, in
round order (distances as printed, digests of written diagrams, transfer
cost reports, both distances of each isometry trial), which `run.py` later
requires to match exactly.  Refuses
to record a round in which any op failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from run import BENCH, OUT, Runner, _load_package, parse_seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="seeds and inclusive ranges, e.g. 0-15 or 3,5,8-9")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)

    cli = _load_package()
    import workloads

    OUT.mkdir(exist_ok=True)
    (BENCH / "answers").mkdir(exist_ok=True)
    for workload in args.workload or workloads.WORKLOADS:
        path = BENCH / "answers" / f"{workload}.json"
        recorded = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(dir=OUT) as tmp:
                ops = [op for job in workloads.build(workload, seed, Path(tmp)) for op in job]
                runner = Runner(cli, ops, None)
                runner.run(passes=1)
            if runner.failed:
                sys.exit(f"{workload} seed {seed}: {dict(runner.failures)}; {runner.first_failure}")
            recorded[str(seed)] = runner.answers
            print(f"{workload} seed {seed}: {len(runner.answers)} answers", file=sys.stderr)
        lines = [f"{json.dumps(seed)}: {json.dumps(answers, separators=(',', ':'))}"
                 for seed, answers in sorted(recorded.items(), key=lambda kv: int(kv[0]))]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
