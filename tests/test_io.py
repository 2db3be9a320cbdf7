import json
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlepers import (
    CLOSED,
    OPEN,
    CircleInterval,
    CircleModule,
    Diagram,
    InvariantMatching,
    LineInterval,
    LineModule,
    OrbitPair,
    PartialMatching,
    PlanePoint,
    QuotientDiagram,
    QuotientPoint,
    INF,
    NEG_INF,
    ParseError,
    diagram_of_line,
)
from circlepers import io as fileio
from circlepers.rationals import _strip_factor, format_number, format_ratio, is_finite, parse_number
from generators import primes_below, random_invariant_matching
from oracles import frozen_format_number, frozen_parse_number, frozen_write_points

F = Fraction
DEFAULT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)() == 4300


class TestNumberFormatting:
    def test_decimal_when_terminating(self):
        assert format_number(F(1, 5)) == "0.2"
        assert format_number(F(-13, 8)) == "-1.625"
        assert format_number(F(3)) == "3"

    def test_ratio_when_not_terminating(self):
        assert format_number(F(1, 3)) == "1/3"

    def test_infinities(self):
        assert format_number(INF) == "inf"
        assert format_number(NEG_INF) == "-inf"

    def test_round_trips_through_the_parser(self):
        for value in [F(1, 5), F(-13, 8), F(1, 3), F(0), F(22, 7), INF, NEG_INF]:
            assert parse_number(format_number(value)) == value

    @given(
        numerator=st.integers(-(10**30), 10**30),
        twos=st.integers(0, 80),
        fives=st.integers(0, 80),
        rest=st.sampled_from([1, 1, 3, 7, 9, 21]),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_strings_as_the_division_loop(self, numerator, twos, fives, rest):
        value = F(numerator, 2**twos * 5**fives * rest)
        text = format_number(value)
        assert text == frozen_format_number(value)
        assert parse_number(text) == value

    @pytest.mark.parametrize("p", [2, 5, 3])
    def test_strip_factor_counts_every_factor(self, p):
        for count in [0, 1, 2, 3, 7, 8, 63, 64, 65, 1000, 4299]:
            for rest in [1, 7, 11 * 13]:
                assert _strip_factor(p**count * rest, p) == (rest, count)

    @pytest.mark.skipif(not DEFAULT_DIGIT_LIMIT, reason="the values sit at Python's default limit")
    @pytest.mark.parametrize("value", [F(1, 10**4299), F(10**4300 - 1, 10)], ids=["places", "digits"])
    def test_decimals_at_the_read_bound_write_as_before(self, value):
        # 4300 digits each; 1e-4299 took 41 ms with one division per factor 5
        text = format_number(value)
        assert text == frozen_format_number(value)
        assert "." in text and parse_number(text) == value

    @pytest.mark.skipif(not DEFAULT_DIGIT_LIMIT, reason="the values sit at Python's default limit")
    @pytest.mark.parametrize(
        "value",
        [F(1, 2**5000), F(-3, 2**14000), F(7, 5**5000), F(10**4000 + 1, 2**1000)],
        ids=["twos", "many-twos", "fives", "digits"],
    )
    def test_a_decimal_past_the_read_bound_writes_a_ratio(self, value):
        # each decimal would have more than 4300 digits, which `str` or the
        # reader refuses; the ratio has fewer on each side
        text = format_number(value)
        assert text == f"{value.numerator}/{value.denominator}"
        assert parse_number(text) == value


    @pytest.mark.skipif(not DEFAULT_DIGIT_LIMIT, reason="the values sit at Python's default limit")
    @pytest.mark.parametrize(
        "value",
        [F(2 * (10**4300 - 1)), F(1, 2**14000 * 3**8000), F(10**4300 + 1, 10**4300)],
        ids=["integer", "denominator", "decimal-and-ratio"],
    )
    def test_a_value_with_no_form_that_reads_back_is_refused(self, value):
        # `str` of such an int raised Python's own error, naming no bound
        for write in (format_number, format_ratio):
            with pytest.raises(ValueError, match="^more than 4300 digits: no written form"):
                write(value)

    @pytest.mark.skipif(not DEFAULT_DIGIT_LIMIT, reason="the value sits at Python's default limit")
    def test_a_decimal_that_fits_is_written_though_its_denominator_does_not(self):
        value = F(1, 10**4300)  # a 4301-digit denominator, 4300 places
        text = format_number(value)
        assert text == "0." + "0" * 4299 + "1"
        assert parse_number(text) == value


class TestNumberGrammar:
    """Numbers read the same on every supported Python, and a decimal value
    read writes back to itself."""

    @pytest.mark.parametrize("token", ["1_0", "0.1_5", "1e1_0", "1_0/3", "1 / 2", "1/ 2", "1\t/2"])
    def test_separators_and_spaced_ratios_are_refused(self, token):
        # Fraction accepts `_` from Python 3.11 on and spaces around `/` from 3.12 on
        with pytest.raises(ValueError, match="not a number"):
            parse_number(token)

    @given(token=st.text(alphabet="0123456789.e-+/ _x", max_size=9))
    @settings(max_examples=400, deadline=None)
    def test_otherwise_the_grammar_is_fractions(self, token):
        try:
            expected = Fraction(token)
        except (ValueError, ZeroDivisionError):
            expected = None
        try:
            value = parse_number(token)
        except ValueError as exc:
            if "digits" in str(exc):  # the bound refuses only numbers
                assert expected is not None
                return
            value = None
        if "_" in token or len(token.split()) > 1:
            assert value is None
        else:
            assert value == expected

    @pytest.mark.skipif(not DEFAULT_DIGIT_LIMIT, reason="the tokens sit at Python's default limit")
    @pytest.mark.parametrize(
        "token", ["1e4000", "-12.5e4298", "1e-4299", "0.001e4300", "7/" + "3" * 4300, "0e4299"]
    )
    def test_long_values_within_the_bound_write_back_exactly(self, token):
        value = parse_number(token)
        assert parse_number(format_number(value)) == value

    @pytest.mark.skipif(not DEFAULT_DIGIT_LIMIT, reason="the tokens sit at Python's default limit")
    @pytest.mark.parametrize(
        "token",
        ["1e5000", "1e10000000", "1e-10000000", "0e10000000", "1" * 5000, "1" * 3000 + "." + "1" * 3000,
         "1/" + "3" * 4301],
    )
    def test_values_past_the_digit_bound_are_refused_at_once(self, token):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^more than 4300 digits: "):
            parse_number(token)
        assert time.perf_counter() - start < 0.5


NUMBER_PIECES = [*"0123456789+-./eE_ \tx", "inf", "\u0661", "\uff12", "\u00b2"]


def _outcome(parse, token):
    """What *parse* makes of *token*: its value and type, or its message."""
    try:
        value = parse(token)
    except ValueError as exc:
        return "refused", str(exc)
    return type(value), value


class TestAgainstTheFrozenReader:
    """`parse_number` matches one grammar of its own where it used to read
    with `Fraction` behind pre-checks and a second digit scanner; every
    token reads as before."""

    @given(token=st.lists(st.sampled_from(NUMBER_PIECES), max_size=10).map("".join))
    @settings(max_examples=1500, deadline=None)
    def test_every_token_reads_as_before(self, token):
        # the pieces: ASCII, Arabic-Indic and fullwidth digits, a superscript
        # two (not a decimal digit), signs, separators, spaces and infinities
        assert _outcome(parse_number, token) == _outcome(frozen_parse_number, token)

    @pytest.mark.skipif(not DEFAULT_DIGIT_LIMIT, reason="the tokens sit at Python's default limit")
    @pytest.mark.parametrize(
        "token",
        [
            "0." + "0" * 4298 + "1",  # `int()` of all its digits would count the zeros
            "0." + "0" * 4299 + "1",
            "0" * 5000 + "1",
            "1e4300",
            "1e-4300",
            "9" * 4300,
            "1/" + "3" * 4300,
            "1/" + "3" * 4301,
            "1/" + "0" * 4300,
            "1e" + "0" * 4301,  # an exponent longer than `int()` converts
            "1e99999999999999999999",
            "1/0",
            "5.e3",
            "+.5",
            "-0",
            "-INF",
            "\u0130nf",
        ],
    )
    def test_tokens_at_the_bound_read_as_before(self, token):
        assert _outcome(parse_number, token) == _outcome(frozen_parse_number, token)

    @pytest.mark.skipif(not DEFAULT_DIGIT_LIMIT, reason="the tokens sit at Python's default limit")
    @pytest.mark.parametrize("token", ["1/2/" + "3" * 5000, "/" + "3" * 5000, "1" * 5000 + "e"])
    def test_a_long_token_outside_the_grammar_is_not_a_number(self, token):
        # the one change: the frozen scanner counted digits in some tokens
        # that `Fraction` then refused, and reported the count
        assert _outcome(frozen_parse_number, token)[1].startswith("more than 4300 digits: ")
        assert _outcome(parse_number, token)[1].startswith("not a number: ")


class TestIntervalFiles:
    def test_reads_kinds_comments_and_blanks(self):
        text = "# header\ncc 0.2 0.5\n\noo -1 2.5  # trailing comment\n"
        module = fileio.read_line_module(text)
        assert module == LineModule(
            (
                LineInterval(F(2, 10), F(5, 10), CLOSED, CLOSED),
                LineInterval(F(-1), F(25, 10), OPEN, OPEN),
            )
        )

    def test_infinite_endpoints_in_line_mode(self):
        module = fileio.read_line_module("oc -inf 3\n")
        assert module.intervals[0].lo == NEG_INF

    def test_circle_mode_rejects_infinite(self):
        with pytest.raises(ParseError) as err:
            fileio.read_circle_module("oc -inf 3\n")
        assert err.value.line_no == 1

    def test_bad_kind_reports_line_number(self):
        with pytest.raises(ParseError) as err:
            fileio.read_circle_module("cc 0 0.5\nxx 0 1\n")
        assert err.value.line_no == 2

    def test_bad_value_reports_line_number(self):
        with pytest.raises(ParseError) as err:
            fileio.read_line_module("cc zero 0.5\n")
        assert err.value.line_no == 1

    def test_json_unknown_field_is_an_error_naming_it(self):
        text = '{"kind": "co", "lo": 0, "hi": 1}\n{"kind": "co", "lo": 0, "hi": 1, "hi_kind": "c"}\n'
        for reader in (fileio.read_line_module, fileio.read_circle_module):
            with pytest.raises(ParseError) as err:
                reader(text)
            assert err.value.line_no == 2
            assert err.value.message == "unknown field 'hi_kind' (use kind, lo, hi)"

    def test_json_repeated_field_is_an_error_naming_it(self):
        # json alone keeps the last value, which reads this line as `oo 0 1`
        text = '{"kind": "co", "lo": 0, "hi": 1}\n{"kind": "co", "lo": 0, "hi": 1, "kind": "oo"}\n'
        for reader in (fileio.read_line_module, fileio.read_circle_module):
            with pytest.raises(ParseError) as err:
                reader(text)
            assert err.value.line_no == 2
            assert err.value.message == "repeated field 'kind'"

    @pytest.mark.skipif(not DEFAULT_DIGIT_LIMIT, reason="the values sit at Python's default limit")
    def test_a_canonical_endpoint_with_no_written_form_is_refused_on_its_line(self):
        tiny = "0." + "0" * 4299 + "1"  # 1/10^4300 reads, and writes as this decimal
        assert fileio.read_circle_module(f"co 0 {tiny}\n").intervals[0].hi == F(1, 10**4300)
        # shifted by 1, the decimal has 4301 digits and the ratio's denominator too
        for read, text in [
            (fileio.read_circle_module, f"co 0 1\nco -1 {tiny}\n"),
            (fileio.read_quotient_diagram, f"0 1\n-1 {tiny}\n"),
        ]:
            with pytest.raises(ParseError, match="^line 2: more than 4300 digits: "):
                read(text)

    def test_write_read_round_trip(self):
        module = LineModule(
            (LineInterval(NEG_INF, F(3), OPEN, CLOSED), LineInterval(F(1, 3), F(2, 3), CLOSED, OPEN))
        )
        assert fileio.read_line_module(fileio.write_line_module(module)) == module


class TestDiagramFiles:
    def test_multiplicity_expansion(self):
        diagram = fileio.read_plane_diagram("1 2 3\n")
        assert len(diagram.points) == 3

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ParseError):
            fileio.read_plane_diagram("1 2 0\n")

    @pytest.mark.parametrize("value", ["1.7", "true", '"2"'])
    def test_json_multiplicity_must_be_an_integer(self, value):
        text = '{"a": "0", "b": "1"}\n{"a": "0", "b": "1", "multiplicity": %s}\n' % value
        for reader in (fileio.read_plane_diagram, fileio.read_quotient_diagram):
            with pytest.raises(ParseError) as err:
                reader(text)
            assert err.value.line_no == 2

    @pytest.mark.parametrize("token", ["1.5", "2.0", "1e2", "-3", "1" * 5000])
    def test_bad_multiplicity_gives_one_message_in_both_forms(self, token):
        messages = []
        for line in (f"0 1 {token}\n", '{"a": 0, "b": 1, "multiplicity": %s}\n' % token):
            with pytest.raises(ParseError) as err:
                fileio.read_plane_diagram("0 1\n" + line)
            assert err.value.line_no == 2
            messages.append(err.value.message)
        assert messages[0] == messages[1]

    # 2^61 copies pass no list-size check (MemoryError) and 2^63 is no index
    # (OverflowError): both are refused before any memory is allocated.  A
    # count a host could allocate is never tried here.
    @pytest.mark.parametrize("multiplicity", [2**61, 2**63], ids=["memory", "overflow"])
    def test_multiplicity_that_cannot_be_allocated_is_a_parse_error(self, multiplicity):
        for line in (f"0 1 {multiplicity}\n", '{"a": 0, "b": 1, "multiplicity": %d}\n' % multiplicity):
            for reader in (fileio.read_plane_diagram, fileio.read_quotient_diagram):
                with pytest.raises(ParseError) as err:
                    reader("0 1\n" + line)
                assert err.value.line_no == 2
                assert err.value.message == f"multiplicity too large, got {multiplicity}"

    def test_json_unknown_field_is_an_error_naming_it(self):
        text = '{"a": 0, "b": 1}\n{"a": 0, "b": 1, "multiplicty": 3}\n'
        for reader in (fileio.read_plane_diagram, fileio.read_quotient_diagram):
            with pytest.raises(ParseError) as err:
                reader(text)
            assert err.value.line_no == 2
            assert err.value.message == "unknown field 'multiplicty' (use a, b, multiplicity)"

    def test_json_repeated_field_is_an_error_naming_it(self):
        # json alone keeps the last value, which reads this line as the point (5, 10)
        text = '{"a": "0", "b": "10"}\n{"a": "0", "a": "5", "b": "10"}\n'
        for reader in (fileio.read_plane_diagram, fileio.read_quotient_diagram):
            with pytest.raises(ParseError) as err:
                reader(text)
            assert err.value.line_no == 2
            assert err.value.message == "repeated field 'a'"

    def test_a_long_repeated_field_name_is_clipped(self):
        name = "x" * 1000
        with pytest.raises(ParseError) as err:
            fileio.read_plane_diagram('{"%s": 0, "%s": 1}\n' % (name, name))
        assert len(err.value.message) < 80

    def test_quotient_canonicalizes_by_default(self):
        diagram = fileio.read_quotient_diagram("1.2 1.5\n")
        assert diagram.points == (QuotientPoint(F(2, 10), F(5, 10)),)

    def test_no_canonicalize_rejects(self):
        with pytest.raises(ParseError):
            fileio.read_quotient_diagram("1.2 1.5\n", canonicalize=False)
        diagram = fileio.read_quotient_diagram("0.2 0.5\n", canonicalize=False)
        assert diagram.points == (QuotientPoint(F(2, 10), F(5, 10)),)

    def test_quotient_rejects_infinite(self):
        with pytest.raises(ParseError):
            fileio.read_quotient_diagram("0 inf\n")

    def test_text_round_trip_aggregates(self):
        diagram = Diagram(
            (PlanePoint(F(1), F(2)), PlanePoint(F(1), F(2)), PlanePoint(NEG_INF, F(0)))
        )
        text = fileio.write_plane_diagram(diagram)
        assert text == "-inf 0 1\n1 2 2\n"
        assert fileio.read_plane_diagram(text) == diagram

    def test_json_lines_round_trip(self):
        diagram = QuotientDiagram((QuotientPoint(F(1, 3), F(2, 3)), QuotientPoint(F(0), F(1, 2))))
        text = fileio.write_quotient_diagram(diagram, fmt="json-lines")
        assert text.startswith("{")
        assert fileio.read_quotient_diagram(text) == diagram

    def test_empty_diagram_writes_empty(self):
        assert fileio.write_plane_diagram(Diagram(())) == ""


class TestJsonNumbers:
    """A JSON number reads as the same text would: exactly, never via float."""

    PAIRS = [("0", "1e400"), ("0.12345678901234567890", "1"), ("-2.5E-3", "7")]

    @staticmethod
    def outcome(read, text):
        try:
            return read(text)
        except ParseError as exc:
            return f"line {exc.line_no}"

    def test_text_and_json_forms_read_equal(self):
        for lo, hi in self.PAIRS:
            interval_text = f"co {lo} {hi}\n"
            interval_json = '{"kind": "co", "lo": %s, "hi": %s}\n' % (lo, hi)
            for read in (fileio.read_line_module, fileio.read_circle_module):
                assert read(interval_json) == read(interval_text)
            points_text = f"{lo} {hi} 2\n"
            points_json = '{"a": %s, "b": %s, "multiplicity": 2}\n' % (lo, hi)
            for read in (fileio.read_plane_diagram, fileio.read_quotient_diagram):
                assert read(points_json) == read(points_text)
        module = fileio.read_line_module('{"kind": "co", "lo": 0, "hi": 1e400}\n')
        assert module.intervals[0].hi == F(10) ** 400
        diagram = fileio.read_plane_diagram('{"a": 0.12345678901234567890, "b": 1}\n')
        assert diagram.points[0].a == F(1234567890123456789, 10**19)

    def test_overlong_integer_is_an_error_on_its_line(self):
        # Python caps int() at 4300 digits by default; whichever way it goes,
        # both forms agree, and a refusal names the line
        digits = "1" * 5000
        text = self.outcome(fileio.read_line_module, f"co 0 {digits}\n")
        record = self.outcome(fileio.read_line_module, '{"kind": "co", "lo": 0, "hi": %s}\n' % digits)
        assert record == text
        if isinstance(record, str):
            assert record == "line 1"

    def test_deeply_nested_record_is_an_error_on_its_line(self):
        text = 'co 0 1\n{"kind": "co", "lo": %s}\n' % ("[" * 100_000)
        with pytest.raises(ParseError) as err:
            fileio.read_line_module(text)
        assert err.value.line_no == 2


class TestRepeatedTokens:
    """A read parses each distinct token once; errors and their lines stay."""

    INTERVAL_READERS = (fileio.read_line_module, fileio.read_circle_module)
    POINT_READERS = (fileio.read_plane_diagram, fileio.read_quotient_diagram)

    @staticmethod
    def lines(*rows):
        return "".join(f"{row}\n" for row in rows)

    def test_a_bad_token_repeated_reports_its_first_line(self):
        intervals = self.lines("co 0 1", "co 1/3 1", "co 0 1/0", "co 1/3 2", "co 0 1", "co 0 2", "co 1/0 2")
        points = self.lines("0 1", "1/3 1", "0 1/0", "1/3 2", "0 1", "0 2", "1/0 2")
        for readers, text in ((self.INTERVAL_READERS, intervals), (self.POINT_READERS, points)):
            for read in readers:
                with pytest.raises(ParseError) as err:
                    read(text)
                assert err.value.line_no == 3
                assert err.value.message == "not a number: '1/0'"

    def test_json_integers_and_strings_with_the_same_digits_read_equal(self):
        text = '{"kind": "co", "lo": 0, "hi": "2"}\n{"kind": "co", "lo": "0", "hi": 2}\n'
        for read in self.INTERVAL_READERS:
            first, second = read(text).intervals
            assert (first.lo, first.hi) == (second.lo, second.hi) == (0, 2)
        text = '{"a": 0, "b": "2"}\n{"a": "0", "b": 2}\n'
        for read in self.POINT_READERS:
            first, second = read(text).points
            assert (first.a, first.b) == (second.a, second.b) == (0, 2)

    def test_true_is_refused_after_the_same_field_read(self):
        intervals = '{"kind": "co", "lo": 1, "hi": 2}\n{"kind": "co", "lo": true, "hi": 2}\n'
        points = '{"a": 1, "b": 2}\n{"a": true, "b": 2}\n'
        for readers, text in ((self.INTERVAL_READERS, intervals), (self.POINT_READERS, points)):
            for read in readers:
                with pytest.raises(ParseError) as err:
                    read(text)
                assert err.value.line_no == 2
                assert err.value.message == "not a number: 'True'"

    def test_no_canonicalize_refuses_a_repeated_token_on_its_line(self):
        # 1.25 first reads as a death, which may leave [0, 1), then as a birth
        text = self.lines("0.25 1.25", "0.5 1.25", "1.25 1.5", "1.25 2")
        with pytest.raises(ParseError) as err:
            fileio.read_quotient_diagram(text, canonicalize=False)
        assert err.value.line_no == 3
        assert err.value.message == "point (1.25, 1.5) is not canonical"

    def test_repeated_tokens_read_as_one_value_in_both_formats(self):
        rows = [("co", "1/3", "2.5"), ("oc", "2.5", "7"), ("co", "1/3", "7"), ("cc", "7", "7")]
        text = self.lines(*(" ".join(row) for row in rows))
        records = self.lines(*(json.dumps(dict(zip(("kind", "lo", "hi"), row))) for row in rows))
        modules = [fileio.read_line_module(text), fileio.read_line_module(records)]
        assert modules[0] == modules[1]
        for module in modules:
            ends = {}
            for ival in module.intervals:
                for value in (ival.lo, ival.hi):
                    # one object per distinct token, so sort-key ties are identities
                    assert ends.setdefault(value, value) is value
        points = [("1/3", "2.5"), ("2.5", "7"), ("1/3", "7"), ("1/3", "2.5")]
        text = self.lines(*(" ".join(point) for point in points))
        records = self.lines(*(json.dumps(dict(zip(("a", "b"), point))) for point in points))
        for read in self.POINT_READERS:
            assert read(text) == read(records)


class TestMatchingFiles:
    def test_quotient_matching_round_trip(self):
        matching = PartialMatching.from_pairs({(0, 1), (2, 0)}, 4, 3)
        for fmt in ("text", "json-lines"):
            text = fileio.write_partial_matching(matching, fmt)
            assert text.startswith("{") == (fmt == "json-lines")
            assert fileio.read_quotient_matching(text, 4, 3) == matching

    def test_quotient_matching_ignores_alignment_shifts(self):
        matching = fileio.read_quotient_matching("pair 0 1 -2\n", 1, 2)
        assert matching.pairs == frozenset({(0, 1)})

    def test_contradictory_unmatched_line_rejected(self):
        with pytest.raises(ParseError):
            fileio.read_quotient_matching("pair 0 0\nunmatchedA 0\n", 1, 1)

    def test_invariant_matching_round_trip(self):
        classes_a = (QuotientPoint(F(0), F(1, 2)), QuotientPoint(F(1, 4), F(3, 4)))
        classes_b = (QuotientPoint(F(1, 8), F(5, 8)),)
        for fmt, text in (
            ("text", "pair 1 0 -1\nunmatchedA 0\n"),
            ("json-lines", '{"pair": [1, 0], "shift": -1}\n{"unmatchedA": 0}\n'),
        ):
            m = fileio.read_invariant_matching(text, classes_a, classes_b)
            assert m == InvariantMatching(classes_a, classes_b, frozenset({OrbitPair(1, 0, -1)}))
            assert fileio.write_invariant_matching(m, fmt) == text

    @pytest.mark.parametrize(
        "line",
        [
            "unmatchedA x",
            "unmatchedB y",
            "pair 0 z",
            '{"pair": [0, "1"]}',
            '{"pair": [0, 1], "shift": 1.5}',
            '{"pair": [0, true]}',
        ],
    )
    def test_malformed_token_names_its_line(self, line):
        classes = (QuotientPoint(F(0), F(1, 2)), QuotientPoint(F(1, 4), F(3, 4)))
        text = "pair 1 1 0\n" + line + "\n"
        readers = [
            lambda: fileio.read_quotient_matching(text, 2, 2),
            lambda: fileio.read_invariant_matching(text, classes, classes),
        ]
        for read in readers:
            with pytest.raises(ParseError) as err:
                read()
            assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "line, name",
        [
            ('{"unmatchedA": 0, "unmatchedA": 1}', "unmatchedA"),
            ('{"pair": [0, 0], "shift": 0, "shift": 1}', "shift"),
            ('{"pair": [0, 0], "pair": [1, 1], "shift": 0}', "pair"),
        ],
    )
    def test_json_repeated_field_is_an_error_naming_it(self, line, name):
        classes = (QuotientPoint(F(0), F(1, 2)), QuotientPoint(F(1, 4), F(3, 4)))
        text = "unmatchedB 1\n" + line + "\n"
        readers = [
            lambda: fileio.read_quotient_matching(text, 2, 2),
            lambda: fileio.read_invariant_matching(text, classes, classes),
        ]
        for read in readers:
            with pytest.raises(ParseError) as err:
                read()
            assert err.value.line_no == 2
            assert err.value.message == f"repeated field {name!r}"

    def test_orbit_file_checks_declared_unmatched_classes(self):
        classes = (QuotientPoint(F(0), F(1, 2)),)
        with pytest.raises(ParseError):
            fileio.read_invariant_matching("pair 0 0 1\nunmatchedB 0\n", classes, classes)

    def test_duplicate_orbit_index_rejected(self):
        classes = (QuotientPoint(F(0), F(1, 2)),)
        both = (QuotientPoint(F(0), F(1, 2)), QuotientPoint(F(1, 4), F(3, 4)))
        with pytest.raises(ParseError):
            fileio.read_invariant_matching("pair 0 0 0\npair 0 1 0\n", classes, both)

    @pytest.mark.parametrize(
        "text",
        [
            "pair 0 0 0\npair 1 5 0\n",  # pair index out of range
            "pair 0 0 0\npair -1 1 0\n",
            "pair 0 0 0\nunmatchedA 2\n",  # unmatched index out of range
            '{"pair": [0, 0], "shift": 0}\n{"unmatchedB": 9}\n',
            "pair 0 0 0\npair 1 0 0\n",  # repeated index
            "pair 0 0 0\nunmatchedA 0\n",
            "unmatchedB 1\nunmatchedB 1\n",
        ],
        ids=[
            "pair-out-of-range",
            "pair-negative",
            "unmatched-out-of-range",
            "json-unmatched-out-of-range",
            "pair-repeated",
            "unmatched-repeats-pair",
            "unmatched-repeated",
        ],
    )
    def test_bad_index_names_its_line(self, text):
        classes = (QuotientPoint(F(0), F(1, 2)), QuotientPoint(F(1, 4), F(3, 4)))
        readers = [
            lambda: fileio.read_quotient_matching(text, 2, 2),
            lambda: fileio.read_invariant_matching(text, classes, classes),
        ]
        for read in readers:
            with pytest.raises(ParseError) as err:
                read()
            assert err.value.line_no == 2

    def test_random_orbit_matchings_round_trip(self):
        rng = random.Random(4000)
        for trial in range(1100):
            m = random_invariant_matching(rng, max_classes=2 + trial % 11)
            for fmt in ("text", "json-lines"):
                text = fileio.write_invariant_matching(m, fmt)
                assert fileio.read_invariant_matching(text, m.classes_a, m.classes_b) == m


class TestUnderscores:
    """`int()` takes `1_0` on every Python and `Fraction` from 3.11 on; a
    file reads the same on all of them, so every number refuses `_`."""

    @pytest.mark.parametrize(
        "read, text",
        [
            (fileio.read_line_module, "co 0 1\nco 0 1_0\n"),
            (fileio.read_line_module, 'co 0 1\n{"kind": "co", "lo": 0, "hi": "1_0"}\n'),
            (fileio.read_plane_diagram, "0 1\n0 1_0\n"),
            (fileio.read_plane_diagram, "0 1\n0 1 1_0\n"),
            (lambda text: fileio.read_quotient_matching(text, 11, 11), "pair 0 0\npair 1 1_0\n"),
            (lambda text: fileio.read_quotient_matching(text, 11, 11), "pair 0 0\nunmatchedB 1_0\n"),
        ],
        ids=["value", "json-value", "point", "multiplicity", "pair-index", "unmatched-index"],
    )
    def test_refused_on_its_line(self, read, text):
        with pytest.raises(ParseError) as err:
            read(text)
        assert err.value.line_no == 2
        assert "1_0" in err.value.message


finite = st.fractions(min_value=-4, max_value=4, max_denominator=24)
low_ends = st.one_of(finite, st.just(NEG_INF))
high_ends = st.one_of(finite, st.just(INF))
plane_points = st.builds(lambda a, b: PlanePoint(min(a, b), max(a, b)), low_ends, high_ends)
quotient_points = st.builds(
    lambda a, length: QuotientPoint(a, a + length),
    st.fractions(min_value=0, max_value=1, max_denominator=24).filter(lambda a: a < 1),
    st.fractions(min_value=0, max_value=3, max_denominator=24),
)


def with_multiplicities(points):
    return st.lists(st.tuples(points, st.integers(1, 3)), max_size=8).map(
        lambda drawn: tuple(p for p, count in drawn for _ in range(count))
    )


@st.composite
def line_intervals(draw):
    lo, hi = sorted((draw(low_ends), draw(high_ends)))
    if lo == hi:
        return LineInterval(lo, hi, CLOSED, CLOSED)
    kinds = [OPEN if not is_finite(x) else draw(st.sampled_from([OPEN, CLOSED])) for x in (lo, hi)]
    return LineInterval(lo, hi, *kinds)


@st.composite
def index_pairs(draw, shifts):
    """(n_a, n_b, pairs): pairs injective on both sides, with a shift each
    when *shifts*."""
    n_a, n_b = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    a = draw(st.permutations(range(n_a)))
    b = draw(st.permutations(range(n_b)))
    count = draw(st.integers(0, min(n_a, n_b)))
    pairs = [(a[t], b[t], *([draw(st.integers(-3, 3))] if shifts else [])) for t in range(count)]
    return n_a, n_b, pairs


FORMATS = ("text", "json-lines")


class TestRoundTrips:
    """Every writer's output reads back to the value written, in both forms."""

    @given(points=with_multiplicities(plane_points))
    @settings(max_examples=150, deadline=None)
    def test_plane_diagrams(self, points):
        diagram = Diagram(points)
        for fmt in FORMATS:
            assert fileio.read_plane_diagram(fileio.write_plane_diagram(diagram, fmt)) == diagram

    @given(points=with_multiplicities(quotient_points))
    @settings(max_examples=100, deadline=None)
    def test_quotient_diagrams(self, points):
        diagram = QuotientDiagram(points)
        for fmt in FORMATS:
            text = fileio.write_quotient_diagram(diagram, fmt)
            assert fileio.read_quotient_diagram(text) == diagram
            assert fileio.read_quotient_diagram(text, canonicalize=False) == diagram

    @given(drawn=index_pairs(shifts=False))
    @settings(max_examples=100, deadline=None)
    def test_partial_matchings(self, drawn):
        n_a, n_b, pairs = drawn
        matching = PartialMatching.from_pairs(pairs, n_a, n_b)
        for fmt in FORMATS:
            text = fileio.write_partial_matching(matching, fmt)
            assert fileio.read_quotient_matching(text, n_a, n_b) == matching

    @given(drawn=index_pairs(shifts=True), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_orbit_matchings(self, drawn, data):
        n_a, n_b, pairs = drawn
        classes_a = tuple(data.draw(st.lists(quotient_points, min_size=n_a, max_size=n_a)))
        classes_b = tuple(data.draw(st.lists(quotient_points, min_size=n_b, max_size=n_b)))
        m = InvariantMatching(classes_a, classes_b, frozenset(OrbitPair(*p) for p in pairs))
        for fmt in FORMATS:
            text = fileio.write_invariant_matching(m, fmt)
            assert fileio.read_invariant_matching(text, classes_a, classes_b) == m

    @given(intervals=st.lists(line_intervals(), max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_line_modules(self, intervals):
        module = LineModule(tuple(intervals))
        assert fileio.read_line_module(fileio.write_line_module(module)) == module


class TestAgainstTheFrozenWriter:
    """The writers give the bytes of the `Counter` writer: one line per
    distinct point, in sorted order, with its multiplicity."""

    @given(points=with_multiplicities(plane_points), copies=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_plane_diagrams(self, points, copies):
        # *copies* makes repeated points equal but distinct objects
        diagram = Diagram(tuple(PlanePoint(p.a, p.b) for p in points) if copies else points)
        for fmt in FORMATS:
            assert fileio.write_plane_diagram(diagram, fmt) == frozen_write_points(diagram.points, fmt)

    @given(points=with_multiplicities(quotient_points), copies=st.booleans())
    @example(points=(QuotientPoint(F(0), F(1)), QuotientPoint(F(1, 2), F(1))), copies=False)
    @settings(max_examples=100, deadline=None)
    def test_quotient_diagrams(self, points, copies):
        # the example: neighbours that share b but not a
        diagram = QuotientDiagram(tuple(QuotientPoint(p.a, p.b) for p in points) if copies else points)
        for fmt in FORMATS:
            assert fileio.write_quotient_diagram(diagram, fmt) == frozen_write_points(diagram.points, fmt)


def test_sorting_stays_small_on_file_wide_denominators():
    # keys scaled by the file's common denominator grow with the lcm of
    # 3000 primes: such a version peaked at about 32 MiB here
    denominators = primes_below(30_000)[:3000]
    text = "".join(f"co {k}/{p} {k + p}/{p}\n" for k, p in enumerate(denominators))
    tracemalloc.start()
    try:
        out = fileio.write_plane_diagram(diagram_of_line(fileio.read_line_module(text)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.count("\n") == 3000
    assert peak < 8 * 2**20


class TestMixedForms:
    """A file may mix text lines and json-lines records line by line."""

    @staticmethod
    def mixed(text_lines, json_lines, picks):
        assert len(text_lines) == len(json_lines) == len(picks)
        return "".join(j if pick else t for t, j, pick in zip(text_lines, json_lines, picks))

    @given(points=with_multiplicities(plane_points), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_diagram_lines(self, points, data):
        diagram = Diagram(points)
        text = fileio.write_plane_diagram(diagram).splitlines(keepends=True)
        records = fileio.write_plane_diagram(diagram, "json-lines").splitlines(keepends=True)
        picks = data.draw(st.lists(st.booleans(), min_size=len(text), max_size=len(text)))
        assert fileio.read_plane_diagram(self.mixed(text, records, picks)) == diagram

    @given(intervals=st.lists(line_intervals(), max_size=8), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_interval_lines(self, intervals, data):
        text = fileio.write_line_module(LineModule(tuple(intervals))).splitlines(keepends=True)
        records = [json.dumps(dict(zip(("kind", "lo", "hi"), line.split()))) + "\n" for line in text]
        picks = data.draw(st.lists(st.booleans(), min_size=len(text), max_size=len(text)))
        all_text = "".join(text)
        assert fileio.read_line_module(self.mixed(text, records, picks)) == fileio.read_line_module(all_text)

    @given(drawn=index_pairs(shifts=True), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matching_lines(self, drawn, data):
        n_a, n_b, pairs = drawn
        classes_a = (QuotientPoint(F(0), F(1)),) * n_a
        classes_b = (QuotientPoint(F(0), F(1)),) * n_b
        m = InvariantMatching(classes_a, classes_b, frozenset(OrbitPair(*p) for p in pairs))
        text = fileio.write_invariant_matching(m).splitlines(keepends=True)
        records = fileio.write_invariant_matching(m, "json-lines").splitlines(keepends=True)
        picks = data.draw(st.lists(st.booleans(), min_size=len(text), max_size=len(text)))
        assert fileio.read_invariant_matching(self.mixed(text, records, picks), classes_a, classes_b) == m
