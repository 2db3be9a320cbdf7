"""Exact extended-rational arithmetic helpers.

Every finite value at the package's API is a `fractions.Fraction`; the only
floats allowed are the two infinities.  Inside the bottleneck kernel the
coordinates are scaled by their common denominator, so costs are plain
ints there and return as `Fraction`s.  Keeping endpoints and thresholds
exact turns every distance comparison into a pure integer computation,
which the bottleneck search and the interleaving feasibility tests rely on.
"""

from __future__ import annotations

import math
from fractions import Fraction

Ext = Fraction | float

INF: float = math.inf
NEG_INF: float = -math.inf


def clipped(value) -> str:
    """``str(value)`` for an error message.  A text over 40 characters shows
    its first 40 and its length, so one long value cannot flood stderr."""
    text = str(value)
    if len(text) > 40:
        return f"{text[:40]}... ({len(text)} characters)"
    return text


def quoted(value) -> str:
    """``repr(value)`` for an error message, clipped like :func:`clipped`."""
    return clipped(repr(value))


def is_finite(x: Ext) -> bool:
    return isinstance(x, Fraction)


def as_ext(value) -> Ext:
    """Coerce *value* to an exact extended rational.

    Accepts Fraction, int, numeric strings ("0.25", "3/5", "-inf") and the
    float infinities.  Finite floats are rejected so inexact values cannot
    sneak in silently.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not numbers")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if math.isinf(value):
            return value
        raise TypeError(
            f"finite float {value!r} is inexact; pass a Fraction, an int, or a decimal string"
        )
    if isinstance(value, str):
        return parse_number(value)
    raise TypeError(f"cannot interpret {value!r} as an extended rational")


def as_fraction(value) -> Fraction:
    """Like :func:`as_ext` but requires the result to be finite."""
    x = as_ext(value)
    if not is_finite(x):
        raise ValueError("value must be finite")
    return x


def parse_number(text: str) -> Ext:
    t = text.strip()
    low = t.lower()
    if low in ("inf", "+inf"):
        return INF
    if low == "-inf":
        return NEG_INF
    try:
        return Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a number: {quoted(text)}") from exc


def _strip_factor(n: int, p: int) -> tuple[int, int]:
    count = 0
    while n % p == 0:
        n //= p
        count += 1
    return n, count


def format_number(x: Ext) -> str:
    """Render exactly, preferring plain decimals (used in data files).

    Values whose denominator has only factors 2 and 5 come out as terminating
    decimals ("0.2"); anything else falls back to "p/q".  Both forms parse
    back bit-exactly.
    """
    if not is_finite(x):
        return "inf" if x > 0 else "-inf"
    if x.denominator == 1:
        return str(x.numerator)
    rest, twos = _strip_factor(x.denominator, 2)
    rest, fives = _strip_factor(rest, 5)
    if rest != 1:
        return f"{x.numerator}/{x.denominator}"
    places = max(twos, fives)
    scaled = abs(x.numerator) * 10**places // x.denominator
    digits = str(scaled).rjust(places + 1, "0")
    sign = "-" if x.numerator < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def format_ratio(x: Ext) -> str:
    """Render as an exact ratio ("3/5"), the form used for reported distances."""
    if not is_finite(x):
        return "inf" if x > 0 else "-inf"
    return str(x)
