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
import sys
from fractions import Fraction

Ext = Fraction | float

INF: float = math.inf
NEG_INF: float = -math.inf

# the digits `int()` converts, 0 for no limit (before Python 3.10.7, the default 4300)
_int_digits_limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)


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


def _digits(token: str) -> int:
    """How many digits a number token needs: a ratio's longer side, or the
    most of a decimal's digit runs and of its value's digits written out
    without an exponent (as `format_number` writes it); ValueError if the
    token is not a number."""
    unsigned = token[1:] if token[:1] in ("+", "-") else token
    if "/" in unsigned:
        sides = unsigned.split("/")
        if not "".join(sides).isdecimal():
            raise ValueError(token)
        return max(map(len, sides))
    mantissa, _, exponent = unsigned.partition("e")
    whole, _, fraction = mantissa.partition(".")
    if not (whole + fraction).isdecimal():
        raise ValueError(token)
    significant = (whole + fraction).lstrip("0")
    # the decimal point's place, counted from the first significant digit
    point = len(significant) - len(fraction) + int(exponent or 0)
    significant = significant.rstrip("0")
    return max(len(whole), len(fraction), len(significant), point, len(significant) - point)


def parse_number(text: str) -> Ext:
    """A decimal, a ratio "p/q" or an infinity, read the same on every Python:
    no `_` or inner space (`Fraction` takes `1_0` from 3.11, `1 / 2` from 3.12),
    and no value longer than `int()` converts, refused before `Fraction` would
    spend seconds on `1e10000000` or make what no writer can write."""
    t = text.strip()
    low = t.lower()
    if low in ("inf", "+inf"):
        return INF
    if low == "-inf":
        return NEG_INF
    try:
        # a space inside counts only in a ratio (Fraction) or an exponent (int)
        if "_" in t or (("/" in t or "e" in low) and len(t.split()) > 1):
            raise ValueError(t)
        # only an exponent makes a value longer than its token, and Python's
        # limit is 0 (none) or at least 640 digits
        limit = _int_digits_limit() if "e" in low or len(t) > 640 else 0
        if not limit or _digits(low) <= limit:
            return Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a number: {quoted(text)}") from exc
    raise ValueError(f"more than {limit} digits: {quoted(text)}")


def _strip_factor(n: int, f: int) -> tuple[int, int]:
    # n without its factors f, and their count; recursing on f^2 keeps the
    # divisions logarithmic in the count
    if n % f:
        return n, 0
    n, pairs = _strip_factor(n, f * f)
    return (n // f, 2 * pairs + 1) if n % f == 0 else (n, 2 * pairs)


def format_number(x: Ext) -> str:
    """Render exactly, preferring plain decimals (used in data files).

    Values whose denominator has only factors 2 and 5 come out as terminating
    decimals ("0.2"), unless the decimal has more digits than `parse_number`
    reads; anything else falls back to "p/q".  Both forms parse back
    bit-exactly.
    """
    if not is_finite(x):
        return "inf" if x > 0 else "-inf"
    p, d = x.numerator, x.denominator
    if d == 1:
        return str(p)
    twos = (d & -d).bit_length() - 1
    rest, fives = _strip_factor(d >> twos, 5)
    if rest != 1:
        return f"{p}/{d}"
    places = max(twos, fives)
    scaled = abs(p) * 10**places // d
    # a decimal longer than `int()` converts would not read back; Python's
    # limit is 0 (none) or at least 640 digits, and 2^1920 < 10^640
    if places > 640 or scaled.bit_length() > 1920:
        limit = _int_digits_limit()
        if limit and (places > limit or scaled >= 10**limit):
            return f"{p}/{d}"
    digits = str(scaled).rjust(places + 1, "0")
    sign = "-" if p < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def format_ratio(x: Ext) -> str:
    """Render as an exact ratio ("3/5"), the form used for reported distances."""
    if not is_finite(x):
        return "inf" if x > 0 else "-inf"
    return str(x)
