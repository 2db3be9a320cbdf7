"""Plain-text (and json-lines) readers and writers for the data files.

Interval lists: one `KIND lo hi` per line, KIND in {oo, oc, co, cc}.
Diagrams: one `a b [multiplicity]` per line.
Matchings: `pair i j [k]`, `unmatchedA i`, `unmatchedB j` lines.
`#` starts a comment anywhere; blank lines are ignored; values are decimal
rationals or p/q, with `-inf`/`inf` allowed where infinities make sense.
In interval and diagram files, lines that start with `{` are parsed as
json-lines records with the same fields, so json output feeds back into the
same parsers; matching files are plain text only.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterator

from .intervals import (
    KIND_CODES,
    CircleInterval,
    CircleModule,
    LineInterval,
    LineModule,
    kind_code,
)
from .matching_transfer import InvariantMatching, OrbitPair
from .metric_plane import Diagram, PartialMatching, PlanePoint
from .metric_quotient import QuotientDiagram, QuotientPoint
from .rationals import Ext, format_number, is_finite, parse_number


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


def _parse_value(token: str, line_no: int) -> Ext:
    try:
        return parse_number(token)
    except ValueError as exc:
        raise ParseError(line_no, str(exc)) from exc


def _json_record(line: str, line_no: int) -> dict | None:
    if not line.startswith("{"):
        return None
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(line_no, f"bad json record: {exc}") from exc
    if not isinstance(record, dict):
        raise ParseError(line_no, "json record must be an object")
    return record


# -- interval lists ---------------------------------------------------------


def _interval_rows(text: str) -> Iterator[tuple[int, str, Ext, Ext]]:
    for line_no, line in _data_lines(text):
        record = _json_record(line, line_no)
        if record is not None:
            try:
                kind = str(record["kind"])
                lo = _parse_value(str(record["lo"]), line_no)
                hi = _parse_value(str(record["hi"]), line_no)
            except KeyError as exc:
                raise ParseError(line_no, f"missing field {exc}") from exc
        else:
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(line_no, f"expected `KIND lo hi`, got {line!r}")
            kind, lo_text, hi_text = parts
            lo = _parse_value(lo_text, line_no)
            hi = _parse_value(hi_text, line_no)
        if kind not in KIND_CODES:
            raise ParseError(line_no, f"unknown endpoint kind {kind!r} (use oo/oc/co/cc)")
        yield line_no, kind, lo, hi


def read_line_module(text: str) -> LineModule:
    intervals = []
    for line_no, kind, lo, hi in _interval_rows(text):
        lo_kind, hi_kind = KIND_CODES[kind]
        try:
            intervals.append(LineInterval(lo, hi, lo_kind, hi_kind))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from exc
    return LineModule(tuple(intervals))


def read_circle_module(text: str) -> CircleModule:
    intervals = []
    for line_no, kind, lo, hi in _interval_rows(text):
        if not is_finite(lo) or not is_finite(hi):
            raise ParseError(line_no, "circle intervals must have finite endpoints")
        lo_kind, hi_kind = KIND_CODES[kind]
        try:
            intervals.append(CircleInterval(lo, hi, lo_kind, hi_kind))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from exc
    return CircleModule(tuple(intervals))


def write_line_module(m: LineModule) -> str:
    lines = [
        f"{kind_code(ival.lo_kind, ival.hi_kind)} {format_number(ival.lo)} {format_number(ival.hi)}"
        for ival in m.intervals
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# -- diagrams ---------------------------------------------------------------


def _diagram_rows(text: str) -> Iterator[tuple[int, Ext, Ext, int]]:
    for line_no, line in _data_lines(text):
        record = _json_record(line, line_no)
        if record is not None:
            try:
                a = _parse_value(str(record["a"]), line_no)
                b = _parse_value(str(record["b"]), line_no)
            except KeyError as exc:
                raise ParseError(line_no, f"missing field {exc}") from exc
            multiplicity = record.get("multiplicity", 1)
            # a JSON integer only: int() would truncate 1.7 and accept true
            if type(multiplicity) is not int:
                raise ParseError(line_no, f"multiplicity must be an integer, got {multiplicity!r}")
        else:
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ParseError(line_no, f"expected `a b [multiplicity]`, got {line!r}")
            a = _parse_value(parts[0], line_no)
            b = _parse_value(parts[1], line_no)
            try:
                multiplicity = int(parts[2]) if len(parts) == 3 else 1
            except ValueError as exc:
                raise ParseError(line_no, f"bad multiplicity {parts[2]!r}") from exc
        if multiplicity < 1:
            raise ParseError(line_no, f"multiplicity must be positive, got {multiplicity}")
        yield line_no, a, b, multiplicity


def read_plane_diagram(text: str) -> Diagram:
    points = []
    for line_no, a, b, multiplicity in _diagram_rows(text):
        try:
            point = PlanePoint(a, b)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from exc
        points.extend([point] * multiplicity)
    return Diagram(tuple(points))


def read_quotient_diagram(text: str, canonicalize: bool = True) -> QuotientDiagram:
    points = []
    for line_no, a, b, multiplicity in _diagram_rows(text):
        if not is_finite(a) or not is_finite(b):
            raise ParseError(line_no, "quotient diagram points must be finite")
        if not canonicalize and not 0 <= a < 1:
            raise ParseError(
                line_no, f"point ({format_number(a)}, {format_number(b)}) is not canonical"
            )
        try:
            point = QuotientPoint(a, b)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from exc
        points.extend([point] * multiplicity)
    return QuotientDiagram(tuple(points))


def _write_points(points, fmt: str) -> str:
    counted = Counter(points)
    lines = []
    for point in sorted(counted, key=lambda p: (p.a, p.b)):
        multiplicity = counted[point]
        if fmt == "json-lines":
            lines.append(
                json.dumps(
                    {
                        "a": format_number(point.a),
                        "b": format_number(point.b),
                        "multiplicity": multiplicity,
                    }
                )
            )
        else:
            lines.append(
                f"{format_number(point.a)} {format_number(point.b)} {multiplicity}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def write_plane_diagram(diagram: Diagram, fmt: str = "text") -> str:
    return _write_points(diagram.points, fmt)


def write_quotient_diagram(diagram: QuotientDiagram, fmt: str = "text") -> str:
    return _write_points(diagram.points, fmt)


# -- matchings ---------------------------------------------------------------


def read_quotient_matching(text: str, n_a: int, n_b: int) -> PartialMatching:
    """Read a quotient matching: `pair i j` lines; unmatched lines optional.

    A trailing shift token (`pair i j k`) is accepted and ignored, so witness
    files written with alignment shifts feed back in.  Classes not mentioned
    at all count as unmatched; explicit unmatchedA/B lines are validated
    against that.
    """
    pairs = set()
    stated_a = set()
    stated_b = set()
    for line_no, line in _data_lines(text):
        parts = line.split()
        if parts[0] == "pair" and len(parts) in (3, 4):
            try:
                pairs.add((int(parts[1]), int(parts[2])))
            except ValueError as exc:
                raise ParseError(line_no, f"bad pair indices in {line!r}") from exc
        elif parts[0] == "unmatchedA" and len(parts) == 2:
            stated_a.add(int(parts[1]))
        elif parts[0] == "unmatchedB" and len(parts) == 2:
            stated_b.add(int(parts[1]))
        else:
            raise ParseError(
                line_no, f"expected `pair i j`, `unmatchedA i`, or `unmatchedB j`, got {line!r}"
            )
    try:
        matching = PartialMatching.from_pairs(pairs, n_a, n_b)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from exc
    if not stated_a <= matching.unmatched_a or not stated_b <= matching.unmatched_b:
        raise ParseError(0, "an index is declared unmatched but appears in a pair")
    return matching


def read_invariant_matching(
    text: str,
    classes_a: tuple[QuotientPoint, ...],
    classes_b: tuple[QuotientPoint, ...],
    window: int = 3,
) -> InvariantMatching:
    """Read an orbit matching: `pair i j k` lines (k is the relative shift)."""
    orbit_pairs = set()
    for line_no, line in _data_lines(text):
        parts = line.split()
        if parts[0] == "pair" and len(parts) == 4:
            try:
                orbit_pairs.add(OrbitPair(int(parts[1]), int(parts[2]), int(parts[3])))
            except ValueError as exc:
                raise ParseError(line_no, f"bad pair indices in {line!r}") from exc
        elif parts[0] in ("unmatchedA", "unmatchedB") and len(parts) == 2:
            continue  # informative only; anything unpaired is unmatched
        else:
            raise ParseError(
                line_no,
                f"expected `pair i j k`, `unmatchedA i`, or `unmatchedB j`, got {line!r}",
            )
    try:
        return InvariantMatching(classes_a, classes_b, frozenset(orbit_pairs), window=window)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from exc


def write_partial_matching(matching: PartialMatching, shifts: dict[tuple[int, int], int] | None = None) -> str:
    """Write a matching; with *shifts* the pairs carry the aligning shift k."""
    lines = []
    for i, j in sorted(matching.pairs):
        if shifts is not None:
            lines.append(f"pair {i} {j} {shifts[(i, j)]}")
        else:
            lines.append(f"pair {i} {j}")
    lines.extend(f"unmatchedA {i}" for i in sorted(matching.unmatched_a))
    lines.extend(f"unmatchedB {j}" for j in sorted(matching.unmatched_b))
    return "\n".join(lines) + ("\n" if lines else "")


def write_invariant_matching(m: InvariantMatching) -> str:
    lines = [f"pair {op.a} {op.b} {op.shift}" for op in sorted(m.orbit_pairs, key=lambda p: (p.a, p.b))]
    lines.extend(f"unmatchedA {i}" for i in sorted(m.unmatched_a()))
    lines.extend(f"unmatchedB {j}" for j in sorted(m.unmatched_b()))
    return "\n".join(lines) + ("\n" if lines else "")
