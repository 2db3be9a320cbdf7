import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circlepers
from circlepers import QuotientPoint, bottleneck_plane, cli
from circlepers import io as fileio
from circlepers.cli import main
from circlepers.intervals import KIND_CODES
from circlepers.rationals import format_number

F = Fraction
LONG = "1" * 4000
TINY = "0." + "0" * 4299 + "1"  # 1/10^4300
NO_FORM = "more than 4300 digits: no written form of the value reads back"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestDgm:
    def test_circle_single_interval(self, tmp_path, capsys):
        path = write(tmp_path, "iv.txt", "cc 0.2 0.5\n")
        assert main(["dgm", "circle", path]) == 0
        assert capsys.readouterr().out == "0.2 0.5 1\n"

    def test_multiplicity_aggregation(self, tmp_path, capsys):
        path = write(tmp_path, "iv.txt", "cc 0.2 0.5\ncc 0.2 0.5\n")
        assert main(["dgm", "circle", path]) == 0
        assert capsys.readouterr().out == "0.2 0.5 2\n"

    def test_canonicalizes_circle_intervals(self, tmp_path, capsys):
        path = write(tmp_path, "iv.txt", "co 1.2 1.5\n")
        assert main(["dgm", "circle", path]) == 0
        assert capsys.readouterr().out == "0.2 0.5 1\n"

    def test_line_mode_with_infinite_endpoint(self, tmp_path, capsys):
        path = write(tmp_path, "iv.txt", "oc -inf 3\n")
        assert main(["dgm", "line", path]) == 0
        assert capsys.readouterr().out == "-inf 3 1\n"

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "iv.txt", "cc nope 0.5\n")
        assert main(["dgm", "circle", path]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["dgm", "circle", str(tmp_path / "absent.txt")]) == 2

    def test_unknown_json_field_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "iv.jsonl", '{"kind": "co", "lo": 0, "hi": 1, "hi_kind": "c"}\n')
        assert main(["dgm", "line", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: unknown field 'hi_kind' (use kind, lo, hi)\n"

    @pytest.mark.parametrize("token", ["1" * 5000, "x" * 5000], ids=["digits", "letters"])
    def test_long_bad_token_gives_one_short_line_in_both_forms(self, tmp_path, capsys, token):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if token.isdigit() and not 0 < limit < len(token):
            pytest.skip("this Python reads a 5000-digit integer")
        value = token if token.isdigit() else json.dumps(token)
        errors = []
        for name, text in [
            ("iv.txt", f"co 0 {token}\n"),
            ("iv.jsonl", '{"kind": "co", "lo": 0, "hi": %s}\n' % value),
        ]:
            assert main(["dgm", "line", write(tmp_path, name, text)]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].count("\n") == 1
        assert len(errors[0].encode()) < 200
        assert errors[0].endswith("... (5002 characters)\n")

    def test_json_lines_round_trip(self, tmp_path, capsys):
        path = write(tmp_path, "iv.txt", "cc 0.2 0.5\ncc 0.7 1.9\n")
        assert main(["dgm", "circle", path, "--format", "json-lines"]) == 0
        out = capsys.readouterr().out
        parsed = fileio.read_quotient_diagram(out)
        assert parsed.points == (
            QuotientPoint(F(2, 10), F(5, 10)),
            QuotientPoint(F(7, 10), F(19, 10)),
        )

    def test_output_file(self, tmp_path, capsys):
        path = write(tmp_path, "iv.txt", "cc 0.2 0.5\n")
        out_path = tmp_path / "dgm.txt"
        assert main(["dgm", "circle", path, "-o", str(out_path)]) == 0
        assert out_path.read_text() == "0.2 0.5 1\n"
        assert capsys.readouterr().out == ""


def _dgm_circle(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "iv.txt"
        path.write_text(text, encoding="utf-8")
        out = StringIO()
        with redirect_stdout(out):
            assert main(["dgm", "circle", str(path)]) == 0
    return out.getvalue()


circle_rows = st.lists(
    st.tuples(
        st.sampled_from(sorted(KIND_CODES)),
        st.fractions(0, 1, max_denominator=24).filter(lambda f: f < 1),
        st.fractions(0, 2, max_denominator=24),
        st.integers(-3, 3),
    ).filter(lambda row: row[2] > 0 or row[0] == "cc"),
    max_size=6,
)


class TestChoiceOfRepresentative:
    @given(rows=circle_rows)
    @settings(max_examples=60, deadline=None)
    def test_any_integer_translate_of_each_interval_gives_the_same_bytes(self, rows):
        def text(shifted):
            return "".join(
                f"{kind} {format_number(lo + k * shifted)} {format_number(lo + length + k * shifted)}\n"
                for kind, lo, length, k in rows
            )

        assert _dgm_circle(text(True)) == _dgm_circle(text(False))


class TestDistance:
    def test_plane_example(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "1 3\n2 6\n")
        b = write(tmp_path, "b.txt", "1.2 3.1\n")
        assert main(["distance", "bottleneck", a, b]) == 0
        assert capsys.readouterr().out == "2\n"

    def test_quotient_example_with_witness(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "0 0.5\n0.2 1.4\n")
        b = write(tmp_path, "b.txt", "0.1 0.6\n")
        assert main(["distance", "bottleneck-q", a, b, "--witness"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "3/5"
        assert out[1] == "pair 0 0 0"
        assert out[2] == "unmatchedA 1"

    def test_equal_files_give_zero(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "0.1 0.9\n")
        b = write(tmp_path, "b.txt", "0.1 0.9\n")
        assert main(["distance", "bottleneck-q", a, b]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_interleave_circle_reads_interval_files(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "co 0 0.5\n")
        b = write(tmp_path, "b.txt", "co 0.125 0.625\n")
        assert main(["distance", "interleave-circle", a, b]) == 0
        assert capsys.readouterr().out == "1/8\n"

    def test_no_canonicalize_rejects(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "1.2 1.5\n")
        b = write(tmp_path, "b.txt", "0.2 0.5\n")
        assert main(["distance", "bottleneck-q", a, b, "--no-canonicalize"]) == 2

    @pytest.mark.parametrize("metric", ["bottleneck", "interleave-circle"])
    def test_no_canonicalize_is_refused_outside_bottleneck_q(self, tmp_path, capsys, metric):
        a = write(tmp_path, "a.txt", "co 0 0.5\n")
        assert main(["distance", metric, a, a, "--no-canonicalize"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --no-canonicalize applies only to bottleneck-q\n"

    def test_infinite_point_in_quotient_mode_exits_2(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "0 inf\n")
        b = write(tmp_path, "b.txt", "0.2 0.5\n")
        assert main(["distance", "bottleneck-q", a, b]) == 2

    def test_unknown_json_field_exits_2(self, tmp_path, capsys):
        a = write(tmp_path, "a.jsonl", '{"a": 0, "b": 1, "multiplicty": 3}\n')
        b = write(tmp_path, "b.txt", "0 1 3\n")
        assert main(["distance", "bottleneck", a, b]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: line 1: unknown field 'multiplicty' (use a, b, multiplicity)\n"
        )

    def test_repeated_json_field_exits_2(self, tmp_path, capsys):
        # json alone keeps the last value: the point (5, 10), at distance 5 from b
        a = write(tmp_path, "a.jsonl", '{"a": "0", "a": "5", "b": "10"}\n')
        b = write(tmp_path, "b.jsonl", '{"a": "0", "b": "10"}\n')
        assert main(["distance", "bottleneck", a, b]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: repeated field 'a'\n"

    def test_json_lines_value_record(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "0 0.5\n")
        b = write(tmp_path, "b.txt", "0.1 0.6\n")
        assert main(["distance", "bottleneck-q", a, b, "--format", "json-lines"]) == 0
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record == {"metric": "bottleneck-q", "value": "1/10"}


class TestVerifyIsometry:
    def test_smoke_run_passes(self, capsys):
        assert main(["verify-isometry", "--trials", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "violations 0" in out

    def test_deterministic_output(self, capsys):
        assert main(["verify-isometry", "--trials", "4", "--seed", "11"]) == 0
        first = capsys.readouterr().out
        assert main(["verify-isometry", "--trials", "4", "--seed", "11"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_zero_trials_is_an_input_error(self, capsys):
        assert main(["verify-isometry", "--trials", "0"]) == 2

    def test_budget_exhaustion_is_recorded_not_fatal(self, capsys):
        assert main(["verify-isometry", "--trials", "6", "--seed", "3", "--budget", "1"]) == 0
        out = capsys.readouterr().out
        assert "budget-exhausted" in out
        assert "violations 0" in out

    def test_json_lines_has_summary(self, capsys):
        assert main(["verify-isometry", "--trials", "3", "--seed", "1", "--format", "json-lines"]) == 0
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in lines]
        assert records[-1]["record"] == "summary"
        assert records[-1]["violations"] == 0


    def test_window_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["verify-isometry", "--trials", "1", "--window", "3"])
        a = write(tmp_path, "a.txt", "0 0.5\n")
        m = write(tmp_path, "m.txt", "pair 0 0 0\n")
        with pytest.raises(SystemExit):
            main(["transfer", "project", "--diagram-a", a, "--diagram-b", a, "--matching", m,
                  "--window", "3"])


class TestTransfer:
    def test_lift_then_project_round_trip(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "0.9 1.3\n")
        b = write(tmp_path, "b.txt", "0 0.4\n")
        matching = write(tmp_path, "m.txt", "pair 0 0\n")
        lifted_path = tmp_path / "lifted.txt"
        assert (
            main(
                [
                    "transfer",
                    "lift",
                    "--diagram-a",
                    a,
                    "--diagram-b",
                    b,
                    "--matching",
                    matching,
                    "-o",
                    str(lifted_path),
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "quotient_cost 1/10" in err
        assert "invariant_cost 1/10" in err
        assert lifted_path.read_text() == "pair 0 0 1\n"

        assert (
            main(
                [
                    "transfer",
                    "project",
                    "--diagram-a",
                    a,
                    "--diagram-b",
                    b,
                    "--matching",
                    str(lifted_path),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert captured.out == "pair 0 0\n"
        assert "cost_not_increased True" in captured.err

    def test_matching_follows_format(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "0.9 1.3\n")
        b = write(tmp_path, "b.txt", "0 0.4\n")
        matching = write(tmp_path, "m.txt", "pair 0 0\n")
        sides = ["--diagram-a", a, "--diagram-b", b, "--format", "json-lines"]
        assert main(["transfer", "lift", *sides, "--matching", matching]) == 0
        lifted = capsys.readouterr().out
        assert lifted == '{"pair": [0, 0], "shift": 1}\n'
        orbits = write(tmp_path, "orbits.jsonl", lifted)
        projected = tmp_path / "projected.jsonl"
        argv = ["transfer", "project", *sides, "--matching", orbits, "-o", str(projected)]
        assert main(argv) == 0
        assert projected.read_text() == '{"pair": [0, 0]}\n'

    @pytest.mark.parametrize("fmt", ["text", "json-lines"])
    def test_quotient_witness_feeds_project(self, tmp_path, capsys, fmt):
        a = write(tmp_path, "a.txt", "0 0.5\n0.2 1.4\n0.9 1.3\n")
        b = write(tmp_path, "b.txt", "0.1 0.6\n0 0.4\n")
        assert main(["distance", "bottleneck-q", a, b, "--witness", "--format", fmt]) == 0
        _, *witness = capsys.readouterr().out.splitlines(keepends=True)
        matching = write(tmp_path, "w.txt", "".join(witness))
        argv = ["transfer", "project", "--diagram-a", a, "--diagram-b", b, "--matching", matching]
        assert main(argv) == 0
        projected = capsys.readouterr().out
        expected = fileio.read_quotient_matching("".join(witness), 3, 2)
        assert fileio.read_quotient_matching(projected, 3, 2) == expected

    def test_plane_json_witness_reads_back(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "1 3\n2 6\n-inf 4\n")
        b = write(tmp_path, "b.txt", "1.2 3.1\n-inf 3.5\n")
        assert main(["distance", "bottleneck", a, b, "--witness", "--format", "json-lines"]) == 0
        _, *witness = capsys.readouterr().out.splitlines(keepends=True)
        result = bottleneck_plane(fileio.read_plane_diagram(Path(a).read_text()),
                                  fileio.read_plane_diagram(Path(b).read_text()))
        assert fileio.read_quotient_matching("".join(witness), 3, 2) == result.witness

    def test_invalid_matching_exits_2(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "0.9 1.3\n")
        b = write(tmp_path, "b.txt", "0 0.4\n")
        matching = write(tmp_path, "m.txt", "pair 0 5\n")
        assert (
            main(
                ["transfer", "lift", "--diagram-a", a, "--diagram-b", b, "--matching", matching]
            )
            == 2
        )

    @pytest.mark.parametrize(
        "matching, diagram",
        [
            ('{"unmatchedA": [%s]}\n' % ", ".join(["0"] * 100_000), "0.9 1.3\n"),
            ("", '{"a": 0.9, "b": 1.3, "multiplicity": [%s]}\n' % ", ".join(["0"] * 100_000)),
            ("unmatchedA %s\n" % ("1" * 4000), "0.9 1.3\n"),
            ("", "0.9 1.3 -%s\n" % ("1" * 4000)),
        ],
        ids=["json-index", "json-multiplicity", "text-index", "text-multiplicity"],
    )
    def test_long_bad_matching_value_gives_one_short_line(self, tmp_path, capsys, matching, diagram):
        a = write(tmp_path, "a.txt", diagram)
        b = write(tmp_path, "b.txt", "0 0.4\n")
        m = write(tmp_path, "m.txt", matching)
        argv = ["transfer", "project", "--diagram-a", a, "--diagram-b", b, "--matching", m]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert len(err.encode()) < 200


class TestParser:
    def test_one_parser_and_no_attributes_carried_over(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        first = parser.parse_args(["distance", "bottleneck", "a", "b", "--witness"])
        second = parser.parse_args(["dgm", "line", "x"])
        assert first.witness and not hasattr(second, "witness")


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, text",
        [
            (["dgm", "line"], f"co {LONG} 0\n"),
            (["dgm", "circle"], f"co {LONG} 0\n"),
            (["distance", "bottleneck"], f"{LONG} 0\n"),
            (["distance", "bottleneck-q"], f"{LONG} 0\n"),
            (["distance", "bottleneck-q", "--no-canonicalize"], f"{LONG}.5 {LONG}.75\n"),
            # a value whose reduced denominator has more digits than `str()` converts
            (["dgm", "line"], f"co {TINY} 0\n"),
            (["dgm", "circle"], f"co {TINY} 0\n"),
            (["distance", "bottleneck"], f"{TINY} 0\n"),
            (["distance", "bottleneck-q"], f"{TINY} 0\n"),
        ],
        ids=[
            "dgm-line", "dgm-circle", "bottleneck", "bottleneck-q", "not-canonical",
            "dgm-line-tiny", "dgm-circle-tiny", "bottleneck-tiny", "bottleneck-q-tiny",
        ],
    )
    def test_long_bad_value_gives_one_short_line(self, tmp_path, capsys, argv, text):
        path = write(tmp_path, "in.txt", text)
        files = [path] if argv[0] == "dgm" else [path, path]
        assert main(argv[:2] + files + argv[2:]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert len(err.encode()) < 200
        assert "characters)" in err

    @pytest.mark.parametrize(
        "argv, token",
        [(["dgm", "line"], "1e5000"), (["dgm", "line"], "1e10000000"), (["distance", "bottleneck"], "1e5000")],
        ids=["dgm", "dgm-long-exponent", "bottleneck"],
    )
    def test_value_past_the_digit_bound_gives_one_line_at_once(self, tmp_path, capsys, argv, token):
        # such a value used to stall the reader, or crash the writer with no line number
        if argv[0] == "dgm":
            files = [write(tmp_path, "in.txt", f"co 0 {token}\n")]
        else:
            files = [write(tmp_path, "a.txt", f"0 {token}\n"), write(tmp_path, "b.txt", "0 1\n")]
        start = time.perf_counter()
        assert main(argv + files) == 2
        assert time.perf_counter() - start < 0.5
        limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
        assert capsys.readouterr().err == f"error: line 1: more than {limit} digits: '{token}'\n"

    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 4300)() != 4300,
        reason="the values sit at Python's default limit",
    )
    @pytest.mark.parametrize("twos", [5000, 14000])
    def test_a_long_decimal_is_written_as_a_ratio_that_reads_back(self, tmp_path, capsys, twos):
        # as decimals, 1/2^14000 crashed the writer with no line number and
        # 1/2^5000 was written with 5002 characters that the reader refused
        value = f"1/{2**twos}"
        assert main(["dgm", "line", write(tmp_path, "in.txt", f"co 0 {value}\n")]) == 0
        out = capsys.readouterr().out
        assert out == f"0 {value} 1\n"
        diagram = write(tmp_path, "dgm.txt", out)
        assert main(["distance", "bottleneck", diagram, diagram]) == 0
        assert capsys.readouterr().out == "0\n"

    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 4300)() != 4300,
        reason="the values sit at Python's default limit",
    )
    @pytest.mark.parametrize(
        "argv, line",
        [(["dgm", "circle"], "co -{0} {0}\n"), (["distance", "bottleneck-q"], "-{0} {0}\n")],
        ids=["dgm-circle", "bottleneck-q"],
    )
    def test_a_canonical_endpoint_past_the_digit_bound_is_refused_on_its_line(
        self, tmp_path, capsys, argv, line
    ):
        # both ends read, but the shift that moves lo to 0 moves hi to
        # 2·(10^4300 − 1), whose 4301 digits no form writes; this crashed the
        # writer with Python's own message and no line number
        path = write(tmp_path, "in.txt", line.format("9" * 4300))
        files = [path] if argv[0] == "dgm" else [path, path]
        assert main(argv + files) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line 1: {NO_FORM}\n"

    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 4300)() != 4300,
        reason="the values sit at Python's default limit",
    )
    def test_a_distance_past_the_digit_bound_is_refused(self, tmp_path, capsys):
        # each point reads, but their pair cost, the distance, has the reduced
        # denominator 2^14000·3^8000 of 8032 digits
        a = write(tmp_path, "a.txt", f"0 {2**14000 + 1}/{2**14000}\n")
        b = write(tmp_path, "b.txt", f"0 {3**8000 + 1}/{3**8000}\n")
        assert main(["distance", "bottleneck", a, b]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {NO_FORM}\n"

    # MemoryError and OverflowError both came out as internal errors (exit 3);
    # neither count allocates anything, see test_io
    @pytest.mark.parametrize("multiplicity", [2**61, 2**63], ids=["memory", "overflow"])
    @pytest.mark.parametrize("metric", ["bottleneck", "bottleneck-q"])
    def test_multiplicity_that_cannot_be_allocated_exits_2(self, tmp_path, capsys, metric, multiplicity):
        other = write(tmp_path, "b.txt", "0 1\n")
        for line in (f"0 1 {multiplicity}\n", '{"a": 0, "b": 1, "multiplicity": %d}\n' % multiplicity):
            path = write(tmp_path, "a.txt", line)
            assert main(["distance", metric, path, other]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: line 1: multiplicity too large, got {multiplicity}\n"

    def test_unexpected_exception_exits_3(self, tmp_path, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_distance", broken)
        a = write(tmp_path, "a.txt", "0 0.5\n")
        assert main(["distance", "bottleneck-q", a, a]) == cli.EXIT_INTERNAL == 3
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: boom\n"
        assert captured.out == ""

    def test_never_imports_numpy(self, tmp_path):
        # README's "nothing else at run time": a fresh interpreter runs each
        # command and numpy is still not loaded, whether or not it is installed.
        # Nor is dataclasses, whose import every command's cold start would
        # pay; the modules the package itself needs come first, so a standard
        # library import of dataclasses does not count against it
        intervals = write(tmp_path, "iv.txt", "co 0.2 0.5\ncc 0.1 1.4\n")
        a = write(tmp_path, "a.txt", "0 0.5\n0.25 1\n")
        b = write(tmp_path, "b.txt", "0.1 0.6\n")
        matching = write(tmp_path, "m.txt", "pair 0 0\nunmatchedA 1\n")
        commands = [
            ["dgm", "circle", intervals],
            ["distance", "bottleneck-q", a, b, "--witness"],
            ["transfer", "lift", "--diagram-a", a, "--diagram-b", b, "--matching", matching],
            ["verify-isometry", "--trials", "5", "--grid", "8"],
        ]
        script = "\n".join(
            [
                "import sys",
                "import argparse, fractions, json",
                "import circlepers.cli",
                f"codes = [circlepers.cli.main(argv) for argv in {commands!r}]",
                "print(codes, 'numpy' in sys.modules, 'dataclasses' in sys.modules)",
            ]
        )
        src = str(Path(circlepers.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] False False"

    def test_runs_without_numpy(self, tmp_path):
        a = write(tmp_path, "a.txt", "0 0.5\n")
        b = write(tmp_path, "b.txt", "0.1 0.6\n")
        script = "\n".join(
            [
                "import sys",
                "sys.modules['numpy'] = None  # any numpy import now raises ImportError",
                "import circlepers.cli",
                "codes = [",
                "    circlepers.cli.main(['verify-isometry', '--trials', '20', '--grid', '8']),",
                f"    circlepers.cli.main(['distance', 'bottleneck-q', {a!r}, {b!r}]),",
                "]",
                "print(codes)",
            ]
        )
        src = str(Path(circlepers.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0]"
        assert "violations 0" in proc.stdout
