"""Golden corpus: CLI invocations replayed through `cli.main`, compared byte for byte.

Each case runs in a scratch directory holding a copy of the input files in
`tests/golden/`, with relative paths, so messages that name a file do not
depend on where the repository lives.  `tests/golden/expected.json` holds
the exit code, stdout, stderr and the `-o` file (or null) of every case.

Re-record only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from circlepers.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected.json"
OUT = "out.txt"  # the `-o` target, relative to the scratch directory


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for fmt in ("text", "json-lines"):
        tag = "json" if fmt == "json-lines" else "text"
        cases[f"dgm-line-{tag}"] = ["dgm", "line", "line.txt", "--format", fmt]
        cases[f"dgm-line-jsonin-{tag}"] = ["dgm", "line", "line.jsonl", "--format", fmt]
        cases[f"dgm-circle-{tag}"] = ["dgm", "circle", "circle_a.txt", "--format", fmt, "-o", OUT]
        for metric, a, b in (
            ("bottleneck", "plane_a.txt", "plane_b.txt"),
            ("bottleneck-q", "quotient_a.txt", "quotient_b.txt"),
            ("interleave-circle", "circle_a.txt", "circle_b.txt"),
        ):
            argv = ["distance", metric, a, b, "--format", fmt]
            cases[f"distance-{metric}-{tag}"] = argv
            cases[f"distance-{metric}-witness-{tag}"] = argv + ["--witness"]
        cases[f"verify-isometry-{tag}"] = [
            "verify-isometry", "--trials", "5", "--seed", "7", "--format", fmt,
        ]
        transfer = ["--diagram-a", "quotient_a.txt", "--diagram-b", "quotient_b.txt"]
        cases[f"transfer-lift-{tag}"] = [
            "transfer", "lift", *transfer, "--matching", "lift.txt", "--format", fmt,
        ]
        cases[f"transfer-project-{tag}"] = [
            "transfer", "project", *transfer, "--matching", "orbits.txt", "--format", fmt,
            "-o", OUT,
        ]
    cases["dgm-parse-error"] = ["dgm", "circle", "bad_interval.txt"]
    cases["dgm-missing-file"] = ["dgm", "line", "absent.txt"]
    cases["distance-no-canonicalize"] = [
        "distance", "bottleneck-q", "quotient_a.txt", "quotient_b.txt", "--no-canonicalize",
    ]
    cases["distance-infinite-quotient"] = ["distance", "bottleneck-q", "plane_a.txt", "plane_b.txt"]
    cases["verify-isometry-budget"] = [
        "verify-isometry", "--trials", "4", "--seed", "3", "--budget", "1",
    ]
    # refuses 5 of 60 trials; in trials 24 and 30 the rank bound refutes
    # shifts whose candidate product is over the budget, so they are answered
    cases["verify-isometry-budget-64"] = [
        "verify-isometry", "--trials", "60", "--seed", "11", "--budget", "64",
    ]
    cases["verify-isometry-zero-trials"] = ["verify-isometry", "--trials", "0"]
    cases["transfer-lift-index-out-of-range"] = [
        "transfer", "lift", "--diagram-a", "quotient_a.txt", "--diagram-b", "quotient_b.txt",
        "--matching", "bad_pair.txt",
    ]
    cases["transfer-lift-contradictory"] = [
        "transfer", "lift", "--diagram-a", "quotient_a.txt", "--diagram-b", "quotient_b.txt",
        "--matching", "contradictory.txt",
    ]
    cases["transfer-project-quotient-witness"] = [
        "transfer", "project", "--diagram-a", "quotient_a.txt", "--diagram-b", "quotient_b.txt",
        "--matching", "lift.txt",
    ]
    return cases


CASES = _cases()


def replay(argv: list[str]) -> dict:
    """Run one case in a scratch copy of the golden inputs."""
    with tempfile.TemporaryDirectory() as tmp:
        for path in GOLDEN.iterdir():
            if path.name != EXPECTED.name:
                shutil.copy(path, tmp)
        cwd = os.getcwd()
        out, err = io.StringIO(), io.StringIO()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
        written = Path(tmp, OUT)
        return {
            "exit": code,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
            "written": written.read_text(encoding="utf-8") if written.exists() else None,
        }


def _expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_corpus_lists_every_case():
    assert sorted(_expected()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name):
    assert replay(CASES[name]) == _expected()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    previous = _expected() if EXPECTED.exists() else {}
    recorded = {name: replay(argv) for name, argv in sorted(CASES.items())}
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} cases in {EXPECTED}")
    for name, result in recorded.items():
        if previous.get(name) != result:
            print(f"changed: {name}")
