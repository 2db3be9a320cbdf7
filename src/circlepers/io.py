"""Plain-text (and json-lines) readers and writers for the data files.

Interval lists: one `KIND lo hi` per line, KIND in {oo, oc, co, cc}.
Diagrams: one `a b [multiplicity]` per line.
Matchings: `pair i j [k]`, `unmatchedA i`, `unmatchedB j` lines.
`#` starts a comment anywhere; blank lines are ignored; values are decimal
rationals or p/q, with `-inf`/`inf` allowed where infinities make sense.
In every file, lines that start with `{` are json-lines records holding the
text line's values by field name, in order (a matching pair is `{"pair":
[i, j], "shift": k}`), so json output feeds back into the same parsers.  A
malformed value is a `ParseError` that names its line.
"""

from __future__ import annotations

import json
from itertools import groupby
from typing import Iterator

from .intervals import (
    KIND_CODES,
    CircleInterval,
    EndpointKind,
    CircleModule,
    LineInterval,
    LineModule,
    kind_code,
)
from .matching_transfer import InvariantMatching, OrbitPair
from .metric_plane import Diagram, PartialMatching, PlanePoint
from .metric_quotient import QuotientDiagram, QuotientPoint
from .rationals import Ext, fits, format_number, is_finite, parse_number, quoted, shown


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield line_no, stripped


def _on_line(line_no: int, make, *args):
    """``make(*args)``, with its ValueError raised as a ParseError on *line_no*."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ParseError(line_no, str(exc)) from exc


class _JsonInt(str):
    """The digits of a JSON integer, distinct from a JSON string."""


class _RepeatedField(Exception):
    """A json object names the field in ``args[0]`` twice."""


def _json_object(pairs: list) -> dict:
    record = dict(pairs)
    if len(record) < len(pairs):
        seen = set()
        for name, _ in pairs:
            if name in seen:
                raise _RepeatedField(name)
            seen.add(name)
    return record


# JSON numbers stay text for `parse_number`, so `1e400` is a finite rational,
# no digit is lost to a float on the way, and an integer too long for `int`
# gets the same error as in a text line; a field named twice is an error,
# not a silent last-one-wins
_JSON_DECODER = json.JSONDecoder(object_pairs_hook=_json_object, parse_float=str, parse_int=_JsonInt)

# each record kind's json field names, in the order of its text line
_INTERVAL_FIELDS = ("kind", "lo", "hi")
_POINT_FIELDS = ("a", "b", "multiplicity")
_MATCHING_FIELDS = ("pair", "shift", "unmatchedA", "unmatchedB")


def _json_record(line: str, line_no: int, fields: tuple[str, ...]) -> dict | None:
    """The json record on *line*, or None for a text line; a field outside
    *fields* is an error."""
    if not line.startswith("{"):
        return None
    try:
        record = _JSON_DECODER.decode(line)
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep
        raise ParseError(line_no, f"bad json record: {exc}") from exc
    except _RepeatedField as exc:
        raise ParseError(line_no, f"repeated field {quoted(exc.args[0])}") from exc
    if not isinstance(record, dict):
        raise ParseError(line_no, "json record must be an object")
    unknown = [name for name in record if name not in fields]
    if unknown:
        raise ParseError(line_no, f"unknown field {quoted(unknown[0])} (use {', '.join(fields)})")
    return record


def _values(line: str, line_no: int, fields: tuple[str, ...]) -> tuple[list, bool]:
    """The values on a data line, and whether it is a text line: its tokens,
    or a record's *fields* in that order, where only trailing ones may lack."""
    record = _json_record(line, line_no, fields)
    if record is None:
        return line.split(), True
    try:
        return [record[name] for name in fields[: len(record)]], False
    except KeyError as exc:
        raise ParseError(line_no, f"missing field {exc}") from exc


def _written(line_no: int, value) -> None:
    """Refuse a canonical endpoint with no written form.  Canonicalisation
    moves lo into [0, 1) with its denominator, which always leaves a form
    that reads, but moves hi by the same integer, which can push it past
    the digit bound."""
    if not (fits(value.numerator) and fits(value.denominator)):
        _on_line(line_no, format_number, value)


def _number(values: dict, line_no: int, token) -> Ext:
    """The value of *token* on *line_no*.  *values* maps each token of one
    read that parsed to its value, so a repeated token is parsed once and
    its values are one object; a token that fails is parsed again, and
    fails, on each line that holds it."""
    token = str(token)
    value = values.get(token)
    if value is None:
        value = values[token] = _on_line(line_no, parse_number, token)
    return value


def _integer(value, line_no: int, from_text: bool) -> int:
    """A text integer or a JSON integer (not 1.5, true or "1"), with no `_`."""
    if (from_text or isinstance(value, _JsonInt)) and "_" not in value:
        try:
            return int(value)
        except ValueError:
            pass
    raise ParseError(line_no, f"expected an integer, got {quoted(value)}")


# -- interval lists ---------------------------------------------------------


def _interval_rows(text: str) -> Iterator[tuple[int, Ext, Ext, EndpointKind, EndpointKind]]:
    """(line_no, lo, hi, lo_kind, hi_kind) per interval."""
    numbers: dict[str, Ext] = {}
    for line_no, line in _data_lines(text):
        values, _ = _values(line, line_no, _INTERVAL_FIELDS)
        if len(values) != 3:
            raise ParseError(line_no, f"expected `KIND lo hi`, got {quoted(line)}")
        lo = _number(numbers, line_no, values[1])
        hi = _number(numbers, line_no, values[2])
        kind = str(values[0])
        if kind not in KIND_CODES:
            raise ParseError(line_no, f"unknown endpoint kind {quoted(kind)} (use oo/oc/co/cc)")
        yield line_no, lo, hi, *KIND_CODES[kind]


def read_line_module(text: str) -> LineModule:
    intervals = [_on_line(line_no, LineInterval, *row) for line_no, *row in _interval_rows(text)]
    return LineModule(tuple(intervals))


def read_circle_module(text: str) -> CircleModule:
    intervals = []
    for line_no, lo, hi, *kinds in _interval_rows(text):
        if not is_finite(lo) or not is_finite(hi):
            raise ParseError(line_no, "circle intervals must have finite endpoints")
        interval = _on_line(line_no, CircleInterval, lo, hi, *kinds)
        _written(line_no, interval.hi)
        intervals.append(interval)
    return CircleModule(tuple(intervals))


def write_line_module(m: LineModule) -> str:
    lines = [
        f"{kind_code(ival.lo_kind, ival.hi_kind)} {format_number(ival.lo)} {format_number(ival.hi)}"
        for ival in m.intervals
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# -- diagrams ---------------------------------------------------------------


def _diagram_rows(text: str) -> Iterator[tuple[int, Ext, Ext, int]]:
    numbers: dict[str, Ext] = {}
    for line_no, line in _data_lines(text):
        values, from_text = _values(line, line_no, _POINT_FIELDS)
        if len(values) not in (2, 3):
            raise ParseError(line_no, f"expected `a b [multiplicity]`, got {quoted(line)}")
        a = _number(numbers, line_no, values[0])
        b = _number(numbers, line_no, values[1])
        multiplicity = _integer(values[2], line_no, from_text) if len(values) == 3 else 1
        if multiplicity < 1:
            raise ParseError(line_no, f"multiplicity must be positive, got {quoted(multiplicity)}")
        yield line_no, a, b, multiplicity


def _repeated(line_no: int, point, multiplicity: int) -> list:
    """*multiplicity* copies of *point*; a count whose list cannot be made
    (`MemoryError`, or `OverflowError` past an index) is an input error on
    *line_no*, not an internal one."""
    try:
        return [point] * multiplicity
    except (MemoryError, OverflowError) as exc:
        raise ParseError(line_no, f"multiplicity too large, got {quoted(multiplicity)}") from exc


def read_plane_diagram(text: str) -> Diagram:
    points = []
    for line_no, a, b, multiplicity in _diagram_rows(text):
        points.extend(_repeated(line_no, _on_line(line_no, PlanePoint, a, b), multiplicity))
    return Diagram(tuple(points))


def read_quotient_diagram(text: str, canonicalize: bool = True) -> QuotientDiagram:
    points = []
    for line_no, a, b, multiplicity in _diagram_rows(text):
        if not is_finite(a) or not is_finite(b):
            raise ParseError(line_no, "quotient diagram points must be finite")
        if not canonicalize and not 0 <= a < 1:
            raise ParseError(line_no, f"point ({shown(a)}, {shown(b)}) is not canonical")
        point = _on_line(line_no, QuotientPoint, a, b)
        _written(line_no, point.b)
        points.extend(_repeated(line_no, point, multiplicity))
    return QuotientDiagram(tuple(points))


def _write_points(points, fmt: str) -> str:
    # the points are sorted, so equal points are adjacent: one line per run;
    # the format is exact and canonical, so equal texts mean equal values
    texts = {}  # each distinct value's text, keyed by its int pair or its infinity

    def text(x: Ext) -> str:
        key = (x.numerator, x.denominator) if is_finite(x) else x
        out = texts.get(key)
        if out is None:
            out = texts[key] = format_number(x)
        return out

    lines = []
    for (a, b), run in groupby([(text(p.a), text(p.b)) for p in points]):
        values = (a, b, len(list(run)))
        if fmt == "json-lines":
            lines.append(json.dumps(dict(zip(_POINT_FIELDS, values))))
        else:
            lines.append("%s %s %d" % values)
    return "\n".join(lines) + ("\n" if lines else "")


def write_plane_diagram(diagram: Diagram, fmt: str = "text") -> str:
    return _write_points(diagram.points, fmt)


def write_quotient_diagram(diagram: QuotientDiagram, fmt: str = "text") -> str:
    return _write_points(diagram.points, fmt)


# -- matchings ---------------------------------------------------------------


def _json_matching_fields(record: dict) -> tuple[str | None, list]:
    if set(record) in ({"pair"}, {"pair", "shift"}):
        pair = record["pair"]
        if isinstance(pair, list) and len(pair) == 2:
            return "pair", pair + ([record["shift"]] if "shift" in record else [])
    elif len(record) == 1:
        ((tag, value),) = record.items()
        return tag, [value]
    return None, []


def _matching_rows(text: str, n_a: int, n_b: int, shift_required: bool) -> list[tuple[int, ...]]:
    """The pairs (i, j) or (i, j, k) of a matching between n_a and n_b classes.

    Text lines are `pair i j [k]`, `unmatchedA i` and `unmatchedB j`;
    json-lines records are `{"pair": [i, j], "shift": k}` (shift optional),
    `{"unmatchedA": i}` and `{"unmatchedB": j}`.  With *shift_required*
    every pair must carry its shift k.  Classes in no pair are unmatched;
    the unmatched records are optional.  Every index must be in range and
    appear at most once per side, in a pair or an unmatched record, so the
    rows always form a valid matching; a violation names its line.
    """
    forms = f"`{'pair i j k' if shift_required else 'pair i j'}`, `unmatchedA i`, or `unmatchedB j`"
    arity = {"pair": (3,) if shift_required else (2, 3), "unmatchedA": (1,), "unmatchedB": (1,)}
    sides = {"pair": "AB", "unmatchedA": "A", "unmatchedB": "B"}
    sizes = {"A": n_a, "B": n_b}
    first_line: dict[tuple[str, int], int] = {}  # (side, index) -> the line that used it
    pairs: list[tuple[int, ...]] = []
    for line_no, line in _data_lines(text):
        record = _json_record(line, line_no, _MATCHING_FIELDS)
        if record is None:
            tag, *values = line.split()
        else:
            tag, values = _json_matching_fields(record)
        if len(values) not in arity.get(tag, ()):
            raise ParseError(line_no, f"expected {forms}, got {quoted(line)}")
        numbers = tuple(_integer(v, line_no, record is None) for v in values)
        for side, index in zip(sides[tag], numbers):
            if not 0 <= index < sizes[side]:
                problem = f"out of range (diagram {side} has {sizes[side]} points)"
            elif (side, index) in first_line:
                problem = f"already used on line {first_line[side, index]}"
            else:
                first_line[side, index] = line_no
                continue
            raise ParseError(line_no, f"{side} index {quoted(index)} {problem}")
        if tag == "pair":
            pairs.append(numbers)
    return pairs


def read_quotient_matching(text: str, n_a: int, n_b: int) -> PartialMatching:
    """Read a quotient matching; a pair's shift is accepted and ignored, so
    witness files written with alignment shifts feed back in."""
    pairs = _matching_rows(text, n_a, n_b, shift_required=False)
    return PartialMatching.from_pairs({(i, j) for i, j, *_ in pairs}, n_a, n_b)


def read_invariant_matching(
    text: str, classes_a: tuple[QuotientPoint, ...], classes_b: tuple[QuotientPoint, ...]
) -> InvariantMatching:
    """Read an orbit matching: every pair `i j k` carries its relative shift k."""
    pairs = _matching_rows(text, len(classes_a), len(classes_b), shift_required=True)
    return InvariantMatching(classes_a, classes_b, frozenset(OrbitPair(*p) for p in pairs))


def _write_matching(pairs, unmatched_a, unmatched_b, fmt: str) -> str:
    """Write sorted (i, j) or (i, j, k) pairs, then the unmatched indices."""
    lines = []
    for i, j, *shift in pairs:
        if fmt == "json-lines":
            lines.append(json.dumps(dict(zip(_MATCHING_FIELDS, ([i, j], *shift)))))
        else:
            lines.append(" ".join(map(str, ("pair", i, j, *shift))))
    for tag, indices in (("unmatchedA", unmatched_a), ("unmatchedB", unmatched_b)):
        for index in sorted(indices):
            lines.append(json.dumps({tag: index}) if fmt == "json-lines" else f"{tag} {index}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_partial_matching(matching: PartialMatching, fmt: str = "text") -> str:
    return _write_matching(sorted(matching.pairs), matching.unmatched_a, matching.unmatched_b, fmt)


def write_invariant_matching(m: InvariantMatching, fmt: str = "text") -> str:
    pairs = sorted((op.a, op.b, op.shift) for op in m.orbit_pairs)
    return _write_matching(pairs, m.unmatched_a(), m.unmatched_b(), fmt)
