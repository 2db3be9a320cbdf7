"""Exact extended-rational arithmetic helpers.

Every finite value at the package's API is a `fractions.Fraction`; the only
floats allowed are the two infinities.  Inside the bottleneck kernel the
coordinates are scaled by their common denominator, so costs are plain
ints there and return as `Fraction`s.  Keeping endpoints and thresholds
exact turns every distance comparison into a pure integer computation,
which the bottleneck search and the interleaving feasibility tests rely on.

Numbers enter through `parse_number` and leave through `format_number`
(data files) and `format_ratio` (reported distances).  The reader matches
one grammar of its own, that of Python 3.10's `Fraction`, so a token reads
the same on every Python.  Its digit bound is the one `int()` applies to
its digits (`sys.get_int_max_str_digits()`), and the writers refuse, with a
ValueError that names it, any value whose written form would pass it: every
text they write reads back.

Modules and diagrams are kept sorted by `order_key`, the one ordering rule:
an exact key whose size does not depend on the other values in the file.
"""

from __future__ import annotations

import math
import re
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


def shown(x: Ext) -> str:
    """*x* in its data-file form for an error message, clipped like
    :func:`clipped`; unlike ``str(x)``, every value that reads has one."""
    return clipped(format_number(x))


def quoted(value) -> str:
    """``repr(value)`` for an error message, clipped like :func:`clipped`."""
    return clipped(repr(value))


def is_finite(x: Ext) -> bool:
    return isinstance(x, Fraction)


def order_key(x: Ext) -> tuple:
    """An exact sort key for *x*: ``(floor(x * 2^64), x)``, or ``(x,)`` for
    an infinity.  The int orders all but values within 2^-64 of each other
    without a `Fraction` comparison, and compares exactly with +-inf.

    The keys of several values may be concatenated into one flat tuple: a
    finite value's int never equals an infinity, so two such tuples differ
    at the latest where their parts would stop lining up."""
    if isinstance(x, Fraction):
        return ((x.numerator << 64) // x.denominator, x)
    return (x,)


def unit_representative(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction] | None:
    """(lo - k, hi - k) for the integer k that puts lo in [0, 1), or None
    when lo > hi; on ints: the order by cross-multiplication, k = n // d."""
    lo_n, lo_d = lo.numerator, lo.denominator
    hi_n, hi_d = hi.numerator, hi.denominator
    if lo_n * hi_d > hi_n * lo_d:
        return None
    shift = lo_n // lo_d
    if not shift:  # an already canonical class costs no arithmetic
        return lo, hi
    return Fraction(lo_n - shift * lo_d, lo_d), Fraction(hi_n - shift * hi_d, hi_d)


def as_ext(value) -> Ext:
    """Coerce *value* to an exact extended rational.

    Accepts Fraction, int and the float infinities.  Finite floats are
    rejected so inexact values cannot sneak in silently, and strings are
    not accepted: text enters through `parse_number`.
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
        raise TypeError(f"finite float {value!r} is inexact; pass a Fraction or an int")
    raise TypeError(f"cannot interpret {value!r} as an extended rational")


def as_fraction(value) -> Fraction:
    """Like :func:`as_ext` but requires the result to be finite."""
    x = as_ext(value)
    if not is_finite(x):
        raise ValueError("value must be finite")
    return x


# Python 3.10's `Fraction` grammar, `\d` being any Unicode decimal digit as
# in `int()`, and the two infinities; matched against the stripped token
_NUMBER = re.compile(
    r"""(?P<sign>[-+]?)
    (?: (?P<inf>[iI][nN][fF])
      | (?P<num>\d+)/(?P<den>\d+)
      | (?=\.?\d)(?P<whole>\d*)(?:\.(?P<fraction>\d*))?(?:[eE](?P<exp>[-+]?\d+))?
    )""",
    re.VERBOSE,
)


def parse_number(text: str) -> Ext:
    """A decimal, a ratio "p/q" or an infinity, by the one grammar above on
    every Python; a value longer than `int()` converts is refused before any
    power of ten is built."""
    match = _NUMBER.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not a number: {quoted(text)}")
    sign, inf, num, den, whole, fraction, exp = match.groups("")
    if inf:
        return NEG_INF if sign == "-" else INF
    limit = _int_digits_limit()
    try:
        if den:
            if not limit or max(len(num), len(den)) <= limit:
                return Fraction(int(sign + num), int(den))
        else:
            significant = (whole + fraction).lstrip("0")
            # the decimal point's place, counted from the first significant digit
            point = len(significant) - len(fraction) + int(exp or 0)
            significant = significant.rstrip("0")
            # the token's digit runs, and the value's digits written out in full
            digits = max(len(whole), len(fraction), len(significant), point, len(significant) - point)
            if not limit or digits <= limit:
                # `int()` counts leading zeros against its limit: convert the significant digits only
                n, scale = int(sign + (significant or "0")), point - len(significant)
                return Fraction(n * 10**scale) if scale >= 0 else Fraction(n, 10**-scale)
    except (ValueError, ZeroDivisionError):  # an exponent longer than `int()` converts, or p/0
        raise ValueError(f"not a number: {quoted(text)}") from None
    raise ValueError(f"more than {limit} digits: {quoted(text)}")


def _strip_factor(n: int, f: int) -> tuple[int, int]:
    # n without its factors f, and their count; recursing on f^2 keeps the
    # divisions logarithmic in the count
    if n % f:
        return n, 0
    n, pairs = _strip_factor(n, f * f)
    return (n // f, 2 * pairs + 1) if n % f == 0 else (n, 2 * pairs)


def fits(n: int) -> bool:
    """Whether *n* has at most as many digits as `int()` converts, so its
    text reads back; Python's limit is 0 (none) or at least 640 digits, and
    2^2126 < 10^640."""
    if n.bit_length() <= 2126:
        return True
    limit = _int_digits_limit()
    return not limit or abs(n) < 10**limit


def _ratio_text(p: int, d: int) -> str:
    # "p/q", or "p" for an integer; an int past the bound has no text `int()` reads
    if not (fits(p) and fits(d)):
        limit = _int_digits_limit()
        raise ValueError(f"more than {limit} digits: no written form of the value reads back")
    return str(p) if d == 1 else f"{p}/{d}"


def format_number(x: Ext) -> str:
    """Render exactly, preferring plain decimals (used in data files).

    Values whose denominator has only factors 2 and 5 come out as terminating
    decimals ("0.2"), unless the decimal has more digits than `parse_number`
    reads; anything else falls back to "p/q".  Both forms parse back
    bit-exactly, and a value with neither form that fits is a ValueError.
    """
    if not is_finite(x):
        return "inf" if x > 0 else "-inf"
    p, d = x.numerator, x.denominator
    if d == 1:
        return _ratio_text(p, d)
    twos = (d & -d).bit_length() - 1
    rest, fives = _strip_factor(d >> twos, 5)
    if rest != 1:
        return _ratio_text(p, d)
    places = max(twos, fives)
    unit = 10**places
    scaled = abs(p) * unit // d
    # the decimal's digit runs: scaled's digits, and the `places` after the point
    if not fits(max(scaled, unit - 1)):
        return _ratio_text(p, d)
    digits = str(scaled).rjust(places + 1, "0")
    sign = "-" if p < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def format_ratio(x: Ext) -> str:
    """Render as an exact ratio ("3/5"), the form used for reported distances;
    a value with no ratio that fits is a ValueError."""
    if not is_finite(x):
        return "inf" if x > 0 else "-inf"
    return _ratio_text(x.numerator, x.denominator)
